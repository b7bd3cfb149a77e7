"""Scale bars: the G(n, p) suite families at n = 10^5.

``gnp`` and ``gnp-dense`` are sampled in O(n + m)
(:func:`repro.graphs.generators.gnp_arrays`): a binomial edge count, that
many distinct uniform pairs, the connectivity patch and the CSR.  A
generator that draws once per pair, as ``nx.gnp_random_graph`` does, needs
n(n-1)/2 = 5 * 10^9 draws here.

Each bar first checks the instance: ``n`` nodes, a symmetric CSR without
self-loops, one connected component, and an edge count within six standard
deviations of the drawn ``Binomial(n(n-1)/2, p)`` (plus at most the
patch's ``n - 1`` links).  Then it asserts the best of 3 generation times
and the tracemalloc peak of one generation (numpy's buffers included).

This is where the scale bench starts: Theorem 1.2 with a local Part I and
the stacked greedy and lemma310 kernels at n = 10^5 are still to come.

Run with::

    pytest benchmarks/bench_scale.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' -s
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.graphs.suite import suite_instance

N = 100_000
#: Seconds for one instance, best of 3 (observed 0.05-0.23 s).
TIME_BAR_S = 1.5
#: tracemalloc peak of one generation (observed 15 MB gnp, 45 MB gnp-dense).
PEAK_BAR_MB = 96.0
#: The suite's edge probabilities at ``N`` (see ``repro.graphs.suite``).
P = {"gnp": min(0.5, 4.0 / N), "gnp-dense": min(0.8, 12.0 / N)}


def _check(arrays, p: float) -> None:
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    assert arrays.n == N
    indptr, indices = arrays.indptr, arrays.indices
    rows = np.repeat(np.arange(N), np.diff(indptr))
    assert not (rows == indices).any(), "self-loop"
    adjacency = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(N, N))
    assert (adjacency != adjacency.T).nnz == 0, "asymmetric CSR"
    assert connected_components(adjacency, directed=False)[0] == 1
    total = N * (N - 1) // 2
    mean, sd = total * p, (total * p * (1 - p)) ** 0.5
    edges = len(indices) // 2
    assert mean - 6 * sd <= edges <= mean + 6 * sd + N - 1, edges


@pytest.mark.parametrize("family", sorted(P))
def bench_gnp_at_1e5(family):
    arrays = suite_instance(family, N, seed=1).arrays
    _check(arrays, P[family])
    times = []
    for seed in (2, 3, 4):
        start = time.perf_counter()
        suite_instance(family, N, seed=seed)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        suite_instance(family, N, seed=5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(
        f"\n{family}-{N}: {len(arrays.indices) // 2} edges, max degree "
        f"{arrays.max_degree}; best of 3 {min(times):.3f} s "
        f"(bar {TIME_BAR_S} s), tracemalloc peak {peak_mb:.1f} MB (bar {PEAK_BAR_MB} MB)"
    )
    assert min(times) <= TIME_BAR_S
    assert peak_mb <= PEAK_BAR_MB
