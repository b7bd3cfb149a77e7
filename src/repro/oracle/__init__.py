"""Certification oracle: exact/ILP/LP quality bounds for dominating sets.

The experiment layer measures ``ds_size``; this package certifies it.
:func:`certify` walks a bound ladder — budgeted branch-and-bound, HiGHS
ILP, covering-LP lower bound — and returns a typed
:class:`Certificate` with the measured approximation ratios, memoized
per topology identity in the shared :mod:`~repro.oracle.cache`.
"""

from repro.oracle.cache import (
    OracleCache,
    clear_oracle_cache,
    oracle_cache,
    topology_cache_key,
)
from repro.oracle.certificate import (
    Certificate,
    ORACLE_MODES,
    certify,
    check_oracle_mode,
    lp_lower_bound,
)
from repro.oracle.ilp import ILPSolution, solve_mds_ilp

__all__ = [
    "Certificate",
    "ILPSolution",
    "ORACLE_MODES",
    "OracleCache",
    "certify",
    "check_oracle_mode",
    "clear_oracle_cache",
    "lp_lower_bound",
    "oracle_cache",
    "solve_mds_ilp",
    "topology_cache_key",
]
