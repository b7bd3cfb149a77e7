"""In-process oracle result cache keyed by topology identity.

Grid cells are deterministic: the suite generator maps ``(family, n,
seed, params)`` to one graph, and every MDS-producing program maps that
graph to one solution size.  A certificate therefore depends only on the
cell's identity and the oracle knobs — so a sweep that revisits a cell
(another engine on the same topology, a re-dispatched fallback record
after a lost pool worker, a repeated experiment) must never pay for a
second ILP/LP solve.  This module is that memo: a process-local cache
whose keys are built from the full topology identity via
:func:`topology_cache_key` and whose hit/miss counters the benchmark
artifacts record (``BENCH_quality.json``'s ``meta.oracle.cache`` block).

The cache stores the :class:`~repro.oracle.certificate.Certificate`
objects themselves (frozen dataclasses), so a repeat key returns the
*identical* object — asserted by the oracle property suite.

**Persistence.** Because a certificate depends only on its key — full
topology identity plus solution size and oracle knobs, nothing about the
host or the run — the memo survives the process: :meth:`OracleCache.dump`
writes every entry to JSON and :meth:`OracleCache.load` merges a dump
back, turning a solved sweep into a warm start for the next one.  This is
the result-cache's *quality twin* in the simulation service
(``ServiceConfig.oracle_cache_path`` loads on start, dumps on stop) and
the ``--oracle-cache PATH`` flag of ``run_experiments.py --certify``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Hashable, Optional, Tuple

from repro.graphs.suite import GENERATOR_VERSIONS


def topology_cache_key(
    family: str,
    n: int,
    seed: int,
    params: Optional[Tuple] = None,
) -> Tuple:
    """The full topology identity of one deterministic suite instance.

    ``params`` carries any extra generator parameters beyond the standard
    (family, n, seed) axes — ``None`` for the built-in suite, whose
    builders are fully determined by those three and the family's
    generator version (:data:`~repro.graphs.suite.GENERATOR_VERSIONS`, 1
    if unlisted), the key's last entry: a dump from an older generator
    misses.  Two cells with equal keys run on the identical generated graph
    (the runner's ``GridCell.topology_key`` contract), so their oracle
    bounds coincide.
    """
    version = GENERATOR_VERSIONS.get(family, 1)
    return (str(family), int(n), int(seed), params, version)


def _freeze(value):
    """Rebuild tuple keys from their JSON (list) round-trip form."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


class OracleCache:
    """A counting memo for oracle certificates (process-local)."""

    def __init__(self) -> None:
        self._entries: Dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` (counting a hit), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
        return value

    def store(self, key: Hashable, value: object) -> object:
        """Memoize ``value`` under ``key`` (counting a miss); returns it."""
        self.misses += 1
        self._entries[key] = value
        return value

    def stats(self) -> Dict[str, int]:
        """Counters for artifact meta: hits, misses, resident entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def dump(self, path) -> Path:
        """Persist every certificate entry to ``path`` as JSON.

        Only :class:`~repro.oracle.certificate.Certificate` values are
        written (the cache holds nothing else in practice; the guard
        keeps a foreign value from corrupting the artifact).  Keys are
        the full memo keys — ``(topology_key, size, oracle,
        exact_node_limit, search_budget, time_limit_s)`` — serialized as
        nested JSON arrays, so a dump is exactly a warm start: identical
        cells in a later process hit without re-solving.
        """
        from dataclasses import asdict, is_dataclass

        entries = [
            {"key": list(key), "certificate": asdict(value)}  # type: ignore[arg-type]
            for key, value in self._entries.items()
            if is_dataclass(value) and isinstance(key, tuple)
        ]
        path = Path(path)
        payload = {
            "generator": "repro.oracle.cache",
            "entries": entries,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    def load(self, path, merge: bool = True) -> int:
        """Merge a :meth:`dump` artifact back in; returns entries loaded.

        Existing in-memory entries win on key collisions (they are
        identical by determinism; keeping them preserves the repeat-key
        identical-object guarantee within this process).  ``merge=False``
        clears first.  Loading counts toward neither hits nor misses —
        the counters keep describing this process's traffic.
        """
        from repro.oracle.certificate import Certificate

        payload = json.loads(Path(path).read_text())
        if payload.get("generator") != "repro.oracle.cache":
            raise ValueError(f"{path} is not an oracle cache dump")
        if not merge:
            self.clear()
        loaded = 0
        for entry in payload.get("entries", ()):
            key = _freeze(entry["key"])
            if key in self._entries:
                continue
            self._entries[key] = Certificate(**entry["certificate"])
            loaded += 1
        return loaded


#: The process-wide cache instance every ``certify`` call shares.
_CACHE = OracleCache()


def oracle_cache() -> OracleCache:
    """The shared in-process oracle cache."""
    return _CACHE


def clear_oracle_cache() -> None:
    """Reset the shared cache (tests and fresh sweeps)."""
    _CACHE.clear()
