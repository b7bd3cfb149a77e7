"""Engine parity: all registered engines must be indistinguishable.

Every bundled node program is driven over the graph zoo under the full
3-way engine matrix (reference / fast / vector) and the complete
:class:`SimulationResult` (rounds, outputs, message/bit totals, per-round
series) is compared field for field — the contract that makes the fast
path a drop-in default and the numpy message plane a drop-in opt-in.
Also covers engine selection/registry plumbing and the CSR topology arrays
the fast path consumes.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.coloring.distance2 import distance2_coloring
from repro.congest.engine import (
    Engine,
    FastEngine,
    ReferenceEngine,
    VectorEngine,
    available_engines,
    default_engine_name,
    resolve_engine,
    set_default_engine,
)
from repro.congest.network import Network
from repro.congest.programs.aggregate import run_tree_sum
from repro.congest.programs.bfs import run_bfs_forest
from repro.congest.programs.color_reduction import run_color_reduction
from repro.congest.programs.greedy_mds import run_distributed_greedy
from repro.congest.programs.lemma310 import run_lemma310_on_graph
from repro.congest.programs.rounding_exec import run_rounding_execution
from repro.congest.simulator import Simulator
from repro.domsets.covering import CoveringInstance
from repro.errors import CongestError
from repro.fractional.raising import kmw06_initial_fds
from repro.rounding.schemes import one_shot_scheme
from repro.util.transmittable import TransmittableGrid


def _spanning_forest(graph: nx.Graph) -> dict:
    """Well-formed parent pointers covering every connected component."""
    parents: dict = {}
    for comp in nx.connected_components(graph):
        root = min(comp)
        parents[root] = -1
        for u, v in nx.bfs_edges(graph, root):
            parents[v] = u
    return parents


def _drive_bfs(graph, engine):
    return run_bfs_forest(graph, roots=[0], engine=engine)[-1]


def _drive_greedy(graph, engine):
    return run_distributed_greedy(graph, engine=engine)[-1]


def _drive_color_reduction(graph, engine):
    return run_color_reduction(graph, engine=engine)[-1]


def _drive_aggregate(graph, engine):
    parents = _spanning_forest(graph)
    vectors = {v: (1, v % 5) for v in graph.nodes()}
    return run_tree_sum(graph, parents, vectors, engine=engine)[-1]


def _drive_rounding_exec(graph, engine):
    values = {v: 0.8 if v % 2 else 0.3 for v in graph.nodes()}
    constraints = {v: 1.0 for v in graph.nodes()}
    return run_rounding_execution(graph, values, constraints, engine=engine)[-1]


def _drive_lemma310(graph, engine):
    n = graph.number_of_nodes()
    delta_tilde = max(d for _, d in graph.degree()) + 1
    grid = TransmittableGrid.for_n(n)
    initial = kmw06_initial_fds(graph, eps=0.5)
    base = CoveringInstance.from_graph(graph, initial.values)
    scheme = one_shot_scheme(base, delta_tilde, quantize=grid.up)
    coloring = distance2_coloring(graph, subset=set(scheme.participating()))
    values = {u: var.x for u, var in scheme.instance.value_vars.items()}
    return run_lemma310_on_graph(
        graph, values, scheme.p, coloring.colors,
        mode="exact-product", grid=grid, engine=engine,
    )[-1]


def _drive_lemma310_canonical(graph, engine):
    """The canonical uniform workload (``x = p = 1/2``, ``c = 1``, mode
    auto): exactly the regime where the vector kernel takes over at round
    1 and runs the color-class rounds in-plane, so this driver pins the
    vectorized protocol — targeted alphas, decides, folds — against the
    scalar engines bit for bit."""
    from repro.congest.network import Network

    network = Network.congest(graph)
    coloring = distance2_coloring(graph)
    values = {v: 0.5 for v in graph.nodes()}
    p = {v: 0.5 for v in graph.nodes()}
    return run_lemma310_on_graph(
        None, values, p, coloring.colors, network=network, engine=engine
    )[-1]


#: Every program in repro/congest/programs, with realistic inputs.
DRIVERS = {
    "bfs": _drive_bfs,
    "greedy-mds": _drive_greedy,
    "color-reduction": _drive_color_reduction,
    "tree-aggregation": _drive_aggregate,
    "rounding-exec": _drive_rounding_exec,
    "lemma310": _drive_lemma310,
    "lemma310-canonical": _drive_lemma310_canonical,
}

#: The full engine matrix; every non-reference engine is compared against
#: the reference run field for field.
ENGINES = ("reference", "fast", "vector")

#: Programs the vector engine executes on its numpy message plane (the
#: rest fall back to FastEngine semantics inside VectorEngine).
VECTOR_ELIGIBLE = ("greedy-mds", "color-reduction", "rounding-exec", "lemma310")


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "reference"])
@pytest.mark.parametrize("program", sorted(DRIVERS))
def test_engine_parity_full_suite(zoo_graph, program, engine):
    ref = DRIVERS[program](zoo_graph, "reference")
    other = DRIVERS[program](zoo_graph, engine)
    # Dataclass equality covers every field; spell out the load-bearing ones
    # so a failure names the diverging metric.
    assert ref.rounds == other.rounds
    assert ref.outputs == other.outputs
    assert ref.total_messages == other.total_messages
    assert ref.total_bits == other.total_bits
    assert ref.max_message_bits == other.max_message_bits
    assert ref.messages_per_round == other.messages_per_round
    assert ref.bits_per_round == other.bits_per_round
    assert ref == other


@pytest.mark.parametrize("program", sorted(VECTOR_ELIGIBLE))
def test_vector_eligible_programs_declare_specs(program):
    """The vector-path programs opt in via non-empty ``message_specs``."""
    from repro.congest.engine import kernel_for
    from repro.congest.programs.color_reduction import ColorReductionProgram
    from repro.congest.programs.greedy_mds import DistributedGreedyProgram
    from repro.congest.programs.lemma310 import Lemma310Program
    from repro.congest.programs.rounding_exec import RoundingExecutionProgram

    classes = {
        "greedy-mds": DistributedGreedyProgram,
        "color-reduction": ColorReductionProgram,
        "rounding-exec": RoundingExecutionProgram,
        "lemma310": Lemma310Program,
    }
    cls = classes[program]
    assert cls.message_specs, f"{cls.__name__} must declare MessageSpecs"
    assert kernel_for(cls) is not None


@pytest.mark.parametrize("engine", ENGINES)
def test_malformed_forest_fails_identically(engine):
    """A parent cycle never terminates: both engines raise the limit error.

    This pins the event-driven contract: TreeAggregationProgram must not
    hide non-termination behind an empty-inbox round cutoff (which the
    event-driven scheduler would never execute).
    """
    from repro.errors import SimulationLimitError

    g = nx.path_graph(2)
    with pytest.raises(SimulationLimitError):
        run_tree_sum(g, {0: 1, 1: 0}, {0: (1,), 1: (1,)}, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_per_round_series_consistency(zoo_graph, engine):
    for driver in (_drive_bfs, _drive_greedy):
        result = driver(zoo_graph, engine)
        assert len(result.messages_per_round) == result.rounds
        assert len(result.bits_per_round) == result.rounds
        assert sum(result.messages_per_round) == result.total_messages
        assert sum(result.bits_per_round) == result.total_bits
        assert all(isinstance(b, int) for b in result.bits_per_round)


class TestEngineSelection:
    def test_available(self):
        assert {"reference", "fast", "vector"} <= set(available_engines())

    def test_resolve_by_name_instance_class(self):
        assert isinstance(resolve_engine("reference"), ReferenceEngine)
        assert isinstance(resolve_engine(FastEngine), FastEngine)
        assert isinstance(resolve_engine("vector"), VectorEngine)
        inst = FastEngine()
        assert resolve_engine(inst) is inst

    def test_resolve_unknown_raises(self):
        with pytest.raises(CongestError):
            resolve_engine("warp-drive")

    def test_default_is_fast(self):
        g = nx.path_graph(3)
        sim = Simulator(Network.congest(g), _NoopProgram)
        assert isinstance(sim.engine, FastEngine)

    def test_set_default_engine_round_trip(self):
        original = default_engine_name()
        try:
            set_default_engine("reference")
            g = nx.path_graph(3)
            sim = Simulator(Network.congest(g), _NoopProgram)
            assert isinstance(sim.engine, ReferenceEngine)
        finally:
            set_default_engine(original)

    def test_set_default_engine_unknown_raises(self):
        with pytest.raises(CongestError):
            set_default_engine("warp-drive")

    def test_engine_is_abstract(self):
        with pytest.raises(TypeError):
            Engine()  # type: ignore[abstract]


class _NoopProgram:
    """Minimal program factory for construction-only tests."""

    event_driven = False

    def __init__(self, input_value=None):
        self.input = input_value

    def setup(self, ctx):
        ctx.halt()

    def receive(self, ctx, inbox):  # pragma: no cover - never runs
        ctx.halt()


class TestNetworkCsr:
    def test_csr_matches_neighbors(self, small_gnp):
        net = Network.congest(small_gnp)
        indptr, indices = net.csr()
        assert len(indptr) == net.n + 1
        assert len(indices) == 2 * small_gnp.number_of_edges()
        for v in range(net.n):
            span = tuple(indices[indptr[v]:indptr[v + 1]])
            assert span == net.neighbors(v)
            assert span == tuple(sorted(span))
            assert net.degree(v) == len(span)

    def test_max_degree_from_csr(self, small_gnp):
        net = Network.congest(small_gnp)
        assert net.max_degree == max(d for _, d in small_gnp.degree())
