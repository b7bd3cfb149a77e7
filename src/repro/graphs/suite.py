"""The named benchmark suite used by every experiment.

One place defines the (family, size) grid so all tables in
``benchmarks/`` sweep the same instances and rows are comparable across
experiments.  The G(n, p) families (``gnp``, ``gnp-dense``) are generated
as arrays, so the runner compiles them with ``Network.from_csr`` and no
networkx graph is built unless ``SuiteInstance.graph`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.generators import EdgeArrays

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class SuiteInstance:
    """A named, reproducible benchmark graph.

    ``topology`` is a networkx graph, or, for the G(n, p) families, the
    :class:`~repro.graphs.generators.EdgeArrays` they are generated as; then
    ``n`` and ``max_degree`` are read off the arrays, the CSR is ready for
    :meth:`~repro.congest.network.Network.from_csr`, and ``graph`` is built
    on first access.
    """

    name: str
    family: str
    topology: Union[nx.Graph, EdgeArrays]

    @property
    def arrays(self) -> Optional[EdgeArrays]:
        """The topology's arrays, or ``None`` for a networkx-built family."""
        return self.topology if isinstance(self.topology, EdgeArrays) else None

    @cached_property
    def graph(self) -> nx.Graph:
        """The networkx graph (built from the arrays on first access)."""
        if self.arrays is not None:
            return self.arrays.graph()
        return self.topology

    @property
    def n(self) -> int:
        if self.arrays is not None:
            return self.arrays.n
        return self.graph.number_of_nodes()

    @property
    def max_degree(self) -> int:
        if self.arrays is not None:
            return self.arrays.max_degree
        return max((d for _, d in self.graph.degree()), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SuiteInstance({self.name}, n={self.n}, Delta={self.max_degree})"


_FAMILY_BUILDERS: Dict[str, Callable[[int, int], Union[nx.Graph, EdgeArrays]]] = {
    "gnp": lambda n, seed: generators.gnp_arrays(n, p=min(0.5, 4.0 / n), seed=seed),
    "gnp-dense": lambda n, seed: generators.gnp_arrays(
        n, p=min(0.8, 12.0 / n), seed=seed
    ),
    "geometric": lambda n, seed: generators.geometric_graph(n, seed=seed),
    "ba": lambda n, seed: generators.preferential_attachment_graph(n, m=3, seed=seed),
    "grid": lambda n, seed: generators.grid_graph(
        max(2, int(round(n ** 0.5))), max(2, int(round(n ** 0.5)))
    ),
    "tree": lambda n, seed: generators.random_tree(n, seed=seed),
    "caterpillar": lambda n, seed: generators.caterpillar_graph(
        max(2, n // 4), legs_per_node=3
    ),
    "regular": lambda n, seed: generators.regular_graph(
        n if n % 2 == 0 else n + 1, d=6, seed=seed
    ),
}


def families() -> List[str]:
    """Names of all suite families."""
    return sorted(_FAMILY_BUILDERS)


def suite_instance(family: str, n: int, seed: int = 0) -> SuiteInstance:
    """Build one reproducible suite instance."""
    if n < 1:
        raise GraphError(f"n must be positive, got {n}")
    if family not in _FAMILY_BUILDERS:
        raise GraphError(
            f"unknown family {family!r}; known: {', '.join(families())}"
        )
    topology = _FAMILY_BUILDERS[family](n, seed)
    return SuiteInstance(name=f"{family}-{n}", family=family, topology=topology)


def benchmark_suite(
    sizes: Sequence[int] = (60, 120, 240),
    families_subset: Sequence[str] | None = None,
    seed: int = 7,
) -> Iterator[SuiteInstance]:
    """Yield the standard sweep: every family at every size.

    Families whose builders round ``n`` (grids, regular graphs) may differ
    slightly from the requested size; the instance name reports the request
    and ``instance.n`` the truth.
    """
    chosen = list(families_subset) if families_subset else families()
    for family in chosen:
        for n in sizes:
            yield suite_instance(family, n, seed=seed)
