"""Part-I substrate: LP oracle, water-filling solver, Lemma 2.1 raising."""

import itertools
import math
import sys
import tracemalloc
from typing import Dict

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from repro.congest.network import closed_neighborhoods
from repro.domsets.covering import Constraint, CoveringInstance, ValueVar, fractionality_of
from repro.errors import GraphError, LPInfeasibleError
from repro.fractional.distributed import (
    DistributedLPResult,
    _replay_raises,
    _rows,
    distributed_fractional_mds,
)
from repro.fractional.lp import _kept_rows, lp_fractional_mds, solve_covering_lp
from repro.fractional.raising import (
    kmw06_initial_fds,
    raise_fractionality,
    repair_feasibility,
)
from repro.graphs.generators import clique_graph, dumbbell_graph, gnp_graph, star_graph
from repro.graphs.normalize import normalize_graph, require_normalized
from repro.graphs.suite import families, suite_instance
from tests.covering_reference import loop_sum, neumaier_sum


def reference_distributed_fractional_mds(
    graph: nx.Graph, gamma: float = 0.25, max_iterations: int = 100_000
) -> DistributedLPResult:
    """The node-by-node dict/set water-filling loop, frozen as the parity
    reference for the CSR kernel: same arithmetic, same order."""
    require_normalized(graph)
    if not 0.0 < gamma <= 1.0:
        raise GraphError(f"gamma must be in (0, 1], got {gamma}")
    nodes = sorted(graph.nodes())
    if not nodes:
        raise GraphError("empty graph")
    neighborhoods = {
        v: sorted(set(graph.neighbors(v)) | {v}) for v in nodes
    }
    delta_tilde = max(len(nb) for nb in neighborhoods.values())

    x: Dict[int, float] = {v: 0.0 for v in nodes}
    coverage: Dict[int, float] = {v: 0.0 for v in nodes}
    theta = float(delta_tilde)
    rounds = 0
    iterations = 0
    trace = [theta]

    def uncovered(v: int) -> bool:
        return coverage[v] < 1.0 - 1e-12

    active = {v for v in nodes if uncovered(v)}
    while active:
        iterations += 1
        if iterations > max_iterations:
            raise GraphError(
                f"water-filling failed to converge in {max_iterations} iterations"
            )
        # Dynamic degree: how many uncovered constraints each node touches.
        dyn: Dict[int, int] = {v: 0 for v in nodes}
        for v in active:
            for u in neighborhoods[v]:
                dyn[u] += 1
        raisers = [u for u in nodes if dyn[u] >= theta and x[u] < 1.0]
        rounds += 2  # value announcement + coverage announcement
        if raisers:
            increment = gamma / theta
            for u in raisers:
                new_value = min(1.0, x[u] + increment)
                delta = new_value - x[u]
                if delta <= 0.0:
                    continue
                x[u] = new_value
                for v in graph.neighbors(u):
                    coverage[v] += delta
                coverage[u] += delta
            active = {v for v in active if uncovered(v)}
        else:
            theta = max(1.0, theta / (1.0 + gamma))
            trace.append(theta)
            if theta == 1.0 and not raisers and active:
                # At theta == 1 every node adjacent to an uncovered
                # constraint qualifies; if none does but constraints remain
                # uncovered, those constraints' own nodes must raise.
                for v in sorted(active):
                    x[v] = 1.0
                    for u in graph.neighbors(v):
                        coverage[u] += 1.0
                    coverage[v] += 1.0
                active = {v for v in active if uncovered(v)}

    return DistributedLPResult(
        values=dict(x),
        size=loop_sum(x.values()),
        rounds=rounds,
        iterations=iterations,
        threshold_trace=trace,
    )


def _with_isolated(graph: nx.Graph, extra: int) -> nx.Graph:
    return normalize_graph(nx.disjoint_union(graph, nx.empty_graph(extra)))


def _parity_graphs(most: int):
    """Normalized graphs of at most ``most`` nodes (``most`` >= 7) of every
    shape the sweep treats differently: a single node, no edges at all,
    isolated nodes beside edges, one hub, long thin paths, full density and
    random sparse graphs."""
    return st.one_of(
        st.just(normalize_graph(nx.empty_graph(1))),
        st.integers(2, min(12, most)).map(lambda n: normalize_graph(nx.empty_graph(n))),
        st.integers(1, min(20, most - 1)).map(star_graph),
        st.integers(2, min(30, most)).map(lambda n: normalize_graph(nx.path_graph(n))),
        st.integers(2, min(12, most)).map(clique_graph),
        st.builds(
            gnp_graph,
            st.integers(2, min(40, most)),
            st.floats(0.02, 0.5),
            seed=st.integers(0, 10_000),
            connected=st.booleans(),
        ),
        st.builds(
            _with_isolated,
            st.builds(
                gnp_graph,
                st.integers(2, min(30, most - 5)),
                st.floats(0.05, 0.4),
                seed=st.integers(0, 100),
            ),
            st.integers(1, 5),
        ),
    )


parity_graphs = _parity_graphs(40)

#: The Theorem 1.2 pipeline's gamma for eps = 0.5 is 1/32; the smaller the
#: gamma, the more iterations a replayed batch holds.
GAMMAS = [1.0, 0.5, 0.25, 0.03125]

PARITY = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The phases of a drawn property that solves covering LPs: no shrinking.
#: Each shrink step costs HiGHS solves and only hypothesis's five-minute
#: shrink budget bounds them, so a failure would take minutes to report;
#: unshrunk, it reports the first failing instance in seconds.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def _outcome(solver, graph: nx.Graph, gamma: float, max_iterations: int):
    """``solver``'s result, or the message of the ``GraphError`` it raised."""
    try:
        return solver(graph, gamma=gamma, max_iterations=max_iterations)
    except GraphError as error:
        return str(error)


class TestLP:
    def test_star_optimum_is_one(self):
        lp = lp_fractional_mds(star_graph(6))
        assert lp.optimum == pytest.approx(1.0, abs=1e-6)

    def test_clique_optimum_is_one(self):
        lp = lp_fractional_mds(clique_graph(5))
        assert lp.optimum == pytest.approx(1.0, abs=1e-6)

    def test_cycle_optimum(self):
        # C_6 LP optimum: uniform 1/3 -> 2.0.
        g = normalize_graph(nx.cycle_graph(6))
        lp = lp_fractional_mds(g)
        assert lp.optimum == pytest.approx(2.0, abs=1e-6)

    def test_solution_feasible(self, medium_gnp):
        lp = lp_fractional_mds(medium_gnp)
        assert CoveringInstance.from_graph(medium_gnp, lp.values).is_feasible()

    def test_lower_bounds_integral(self, small_gnp):
        from repro.baselines.exact import exact_mds

        lp = lp_fractional_mds(small_gnp)
        assert lp.optimum <= len(exact_mds(small_gnp)) + 1e-6

    def test_generic_covering_with_weights(self):
        g = normalize_graph(nx.path_graph(3))
        inst = CoveringInstance.from_graph(
            g, {v: 0.0 for v in g.nodes()}, weights={0: 10.0, 1: 1.0, 2: 10.0}
        )
        solution = solve_covering_lp(inst)
        # The cheap middle node covers everything.
        assert solution.optimum == pytest.approx(1.0, abs=1e-6)
        assert solution.values[1] == pytest.approx(1.0, abs=1e-6)


def reference_optimum(instance: CoveringInstance) -> float:
    """The covering LP's optimum from dual simplex on a matrix built here
    from ``members`` / ``entry_rows``, in instance order, with no sorting."""
    from scipy import sparse
    from scipy.optimize import linprog

    a = sparse.csr_matrix(
        (np.ones(len(instance.members)), (instance.entry_rows, instance.members)),
        shape=(len(instance.cids), len(instance.ids)),
    )
    result = linprog(instance.weight, A_ub=-a, b_ub=-instance.c, bounds=(0.0, 1.0),
                     method="highs-ds")
    assert result.success, result.message
    return float(result.fun)


@st.composite
def covering_instances(draw) -> CoveringInstance:
    """Feasible covering instances with ids out of order: weights in
    ``[0, 3]``, demands 0, 1 or 2 but never above the row's member count
    (so member-less rows have demand 0), and variables that may sit in no
    row.

    A row after the first may copy an earlier row, take a subset or a
    superset of it, or repeat one of its members, so that rows nest.  A
    member listed twice is a coefficient of 2.

    Weights lie on a 0.01 grid.  HiGHS accepts a reduced cost within its
    1e-7 dual feasibility tolerance as optimal, with either method: one row
    of demand 1 over weights 0 and 1e-7 can come back with optimum 1e-7.
    A grid keeps every cost difference far above that tolerance."""
    ids = draw(st.lists(st.integers(0, 500), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(0, 300).map(lambda k: k / 100),
                            min_size=len(ids), max_size=len(ids)))
    cids = draw(st.lists(st.integers(0, 500), max_size=12, unique=True))
    constraints = []
    for cid in cids:
        members = draw(st.lists(st.sampled_from(ids), max_size=len(ids), unique=True))
        if constraints:
            earlier = list(draw(st.sampled_from(constraints)).members)
            kind = draw(st.sampled_from(["fresh", "copy", "subset", "superset", "repeat"]))
            if kind == "copy":
                members = draw(st.permutations(earlier))
            elif kind == "subset":
                members = [u for u in earlier if draw(st.booleans())]
            elif kind == "superset":
                members = earlier + [u for u in members if u not in earlier]
            elif kind == "repeat" and earlier:
                members = earlier + [draw(st.sampled_from(earlier))]
        demand = draw(st.integers(0, min(2, len(members))))
        constraints.append(Constraint(cid, float(demand), tuple(members), cid))
    return CoveringInstance(
        [ValueVar(u, 0.0, u, weight=w) for u, w in zip(ids, weights)], constraints
    )


def kept_by_pairs(instance: CoveringInstance) -> np.ndarray:
    """The rows no other row implies, pair by pair.  Row ``r`` goes if its
    demand is at most 0, or if a row ``s`` of positive demand has
    ``members(s) <= members(r)`` and ``c(s) >= c(r)``; of rows with equal
    member sets and demands, the lowest cid stays.  A row with a repeated
    member neither drops a row nor is dropped by one, and a row without
    members drops none (the LP is infeasible whatever is kept)."""
    c, cids = instance.c.tolist(), instance.cids.tolist()
    rows = [instance.members[instance.indptr[i]:instance.indptr[i + 1]].tolist()
            for i in range(len(c))]
    sets = [set(members) for members in rows]
    plain = [len(members) == len(set(members)) for members in rows]

    def implies(s: int, r: int) -> bool:
        if s == r or not (plain[s] and plain[r] and sets[s]) or c[s] <= 0 or c[s] < c[r]:
            return False
        if not sets[s] <= sets[r]:
            return False
        return sets[s] != sets[r] or c[s] > c[r] or cids[s] < cids[r]

    return np.array([c[r] > 0 and not any(implies(s, r) for s in range(len(c)))
                     for r in range(len(c))], dtype=bool)


def dense_graph(name: str, n: int) -> nx.Graph:
    """A graph of about ``n`` nodes (a star has ``10 n``) whose closed
    neighbourhoods are twins, near twins or long subsets of each other."""
    half = n // 2
    return {
        "clique": lambda: clique_graph(n),
        "dumbbell": lambda: dumbbell_graph(half, 10),
        "bipartite": lambda: normalize_graph(nx.complete_bipartite_graph(half - 5, half + 5)),
        "cocktail-party": lambda: normalize_graph(nx.complete_multipartite_graph(*[2] * half)),
        "gnp": lambda: gnp_graph(n, 0.5, seed=1),
        "star": lambda: star_graph(10 * n),
    }[name]()


DENSE = ["bipartite", "clique", "cocktail-party", "dumbbell", "gnp", "star"]


def _instance(rows, demands=None, cids=None, width=5) -> CoveringInstance:
    """Variables ``0..width-1`` of weight 1, and one constraint per member
    tuple."""
    demands = demands or [1.0] * len(rows)
    cids = cids or list(range(len(rows)))
    return CoveringInstance(
        [ValueVar(u, 0.0, u) for u in range(width)],
        [Constraint(cid, demand, tuple(members), cid)
         for cid, demand, members in zip(cids, demands, rows)],
    )


def assert_optimal_and_feasible(instance: CoveringInstance) -> None:
    """``solve_covering_lp``'s optimum agrees with dual simplex to 1e-9
    relative, its values lie in ``[0, 1]`` and meet every demand to 1e-9."""
    solution = solve_covering_lp(instance)
    assert solution.optimum == pytest.approx(reference_optimum(instance), rel=1e-9, abs=1e-12)
    x = np.array([solution.values[u] for u in instance.ids.tolist()])
    assert ((x >= 0.0) & (x <= 1.0)).all()
    for row, demand in enumerate(instance.c.tolist()):
        members = instance.members[instance.indptr[row]:instance.indptr[row + 1]]
        assert math.fsum(x[members]) >= demand - 1e-9


class TestLPAgainstDualSimplex:
    """The covering LP against an independent dual simplex reference."""

    @settings(PARITY, max_examples=60, phases=UNSHRUNK)
    @given(covering_instances())
    # A row nested in a row of higher demand, which the nested row must not
    # drop: (0, 1) >= 1 inside (0, 1, 2) >= 2.  Without the outer row the
    # optimum falls from 2 to 1.
    @example(_instance([(0, 1), (0, 1, 2)], demands=[1.0, 2.0], width=3))
    def test_drawn_instances(self, instance):
        assert_optimal_and_feasible(instance)

    @pytest.mark.parametrize("family", sorted(families()))
    def test_suite_families(self, family):
        graph = suite_instance(family, 60, seed=1).graph
        assert_optimal_and_feasible(CoveringInstance.from_graph(graph, {}))
        values = lp_fractional_mds(graph).values
        for v in graph.nodes():
            assert math.fsum(values[u] for u in [v, *graph.neighbors(v)]) >= 1.0, v


class TestImpliedRows:
    """The rows that never reach HiGHS, against a pairwise check."""

    @settings(PARITY, max_examples=200)
    @given(covering_instances())
    def test_drawn_instances_match_pairs(self, instance):
        assert (_kept_rows(instance) == kept_by_pairs(instance)).all()

    @settings(PARITY, max_examples=100)
    @given(covering_instances())
    def test_exact_check_alone_decides(self, instance):
        """Variable row ``i`` moved to row ``64 i``: every member sets the
        same signature bit, so the screen passes every candidate."""
        rows = zip(instance.cids.tolist(), instance.c.tolist(),
                   np.split(instance.members, instance.indptr[1:-1]))
        spread = CoveringInstance(
            [ValueVar(u, 0.0, u) for u in range(64 * len(instance.ids))],
            [Constraint(cid, c, tuple((64 * members).tolist()), cid) for cid, c, members in rows],
        )
        assert (_kept_rows(spread) == kept_by_pairs(instance)).all()

    @pytest.mark.parametrize("family", sorted(families()))
    def test_suite_families_match_pairs(self, family):
        instance = CoveringInstance.from_graph(suite_instance(family, 60, seed=1).graph, {})
        assert (_kept_rows(instance) == kept_by_pairs(instance)).all()

    def test_strict_subset_drops_its_superset(self):
        instance = _instance([(0, 1, 2), (0, 1)])
        assert _kept_rows(instance).tolist() == [False, True]
        assert_optimal_and_feasible(instance)

    def test_equal_signature_is_not_containment(self):
        # Members 0, 64, 128, 192 and 320 set the same signature bit, and 0
        # is the rarest member of row (0, 64) (a tie with 64 goes to the
        # lower id), so the longer (0, 128, 192) passes every screen.
        instance = _instance([(0, 64), (0, 128, 192), (64, 320)], width=321)
        assert _kept_rows(instance).tolist() == [True, True, True]
        assert_optimal_and_feasible(instance)

    def test_equal_rows_keep_the_lowest_cid(self):
        instance = _instance([(1, 2), (2, 1), (1, 2)], cids=[7, 3, 5])
        assert _kept_rows(instance).tolist() == [False, True, False]

    def test_colliding_sums_are_not_twins(self):
        """Rows ``a`` and ``b`` have equal 64-bit sums of hashed members (a
        generalized birthday search found them; a new hash needs a new pair),
        so the twin order puts ``b`` between ``a`` and its copy.  ``b`` must
        stay; the copy stays too, as the pass's docstring allows."""
        a, b = (803, 12819, 15419, 16576), (3363, 3386, 14551, 24317)
        instance = _instance([a, b, a[::-1]], demands=[2.0, 1.5, 1.0], width=24318)
        assert _kept_rows(instance).tolist() == [True, True, True]

    def test_candidates_in_several_chunks(self):
        """Each member is in 15 of the 35 rows, so the 525 candidates come in
        chunks of about the 90 entries; every 3-subset holds a 2-subset."""
        rows = [*itertools.combinations(range(6), 2), *itertools.combinations(range(6), 3)]
        instance = _instance(rows, width=6)
        assert _kept_rows(instance).tolist() == [True] * 15 + [False] * 20

    def test_twins_keep_the_highest_demand(self):
        instance = _instance([(1, 2), (2, 1), (1, 2)], demands=[2.0, 1.0, 2.0], cids=[7, 3, 5])
        assert _kept_rows(instance).tolist() == [False, False, True]

    @pytest.mark.parametrize("name", DENSE)
    def test_dense_graphs_match_pairs(self, name):
        instance = CoveringInstance.from_graph(dense_graph(name, 40), {})
        assert (_kept_rows(instance) == kept_by_pairs(instance)).all()

    @pytest.mark.parametrize("name", DENSE)
    def test_memory_stays_linear_in_the_entries(self, name):
        """Looking up every member of every candidate pair at once takes about
        n^3 entries on a clique (8e6 at n = 200, 200 per entry of the
        matrix); the pass stays within 32 words per entry or row."""
        instance = CoveringInstance.from_graph(dense_graph(name, 200), {})
        tracemalloc.start()
        try:
            _kept_rows(instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * (len(instance.members) + len(instance.c))

    def test_subset_of_lower_demand_keeps_its_superset(self):
        instance = _instance([(0, 1), (0,)], demands=[1.0, 0.5])
        assert _kept_rows(instance).tolist() == [True, True]
        assert solve_covering_lp(instance).optimum == pytest.approx(1.0)

    def test_rows_of_demand_zero_go(self):
        instance = _instance([(0, 1), (), (2,), (3,)], demands=[0.0, 0.0, -1.0, 1.0])
        assert _kept_rows(instance).tolist() == [False, False, False, True]
        assert solve_covering_lp(instance).optimum == pytest.approx(1.0)

    def test_empty_row_of_positive_demand_stays_infeasible(self):
        instance = _instance([(0, 1), (), ()], demands=[1.0, 1.0, 2.0])
        assert _kept_rows(instance).all()
        with pytest.raises(LPInfeasibleError) as caught:
            solve_covering_lp(instance)
        assert caught.value.status == 2

    @pytest.mark.parametrize("rows", [[(0, 0), (0,)], [(0,), (0, 0)],
                                      [(0, 0, 1), (0, 1, 2)], [(0, 1, 2), (0, 0, 1)]])
    def test_repeated_member_is_a_coefficient_of_two(self, rows):
        instance = _instance(rows)
        assert _kept_rows(instance).tolist() == [True, True]
        assert solve_covering_lp(instance).optimum == pytest.approx(1.0)
        assert_optimal_and_feasible(instance)


class TestWaterFilling:
    def test_feasible_everywhere(self, zoo_graph):
        result = distributed_fractional_mds(zoo_graph)
        assert CoveringInstance.from_graph(zoo_graph, result.values).is_feasible()

    def test_quality_vs_lp(self, medium_gnp):
        lp = lp_fractional_mds(medium_gnp)
        result = distributed_fractional_mds(medium_gnp, gamma=0.25)
        # Water-filling is a ln-style greedy; a loose factor certifies shape.
        assert result.size <= 3.0 * lp.optimum + 1.0

    def test_round_counter_positive(self, small_gnp):
        result = distributed_fractional_mds(small_gnp)
        assert result.rounds >= 2
        assert result.iterations >= 1
        assert result.threshold_trace[0] >= result.threshold_trace[-1]

    def test_finer_gamma_not_worse_much(self, small_gnp):
        coarse = distributed_fractional_mds(small_gnp, gamma=1.0)
        fine = distributed_fractional_mds(small_gnp, gamma=0.1)
        assert fine.size <= coarse.size * 1.5 + 1.0

    def test_gamma_validation(self, small_gnp):
        with pytest.raises(GraphError):
            distributed_fractional_mds(small_gnp, gamma=0.0)
        with pytest.raises(GraphError):
            distributed_fractional_mds(small_gnp, gamma=2.0)

    def test_iteration_limit(self, small_gnp):
        with pytest.raises(GraphError, match="failed to converge in 3 iterations"):
            distributed_fractional_mds(small_gnp, max_iterations=3)

    def test_empty_graph(self):
        with pytest.raises(GraphError, match="empty graph"):
            distributed_fractional_mds(nx.Graph())

    def test_requires_normalized_labels(self):
        with pytest.raises(GraphError, match="0..n-1"):
            distributed_fractional_mds(nx.path_graph(["a", "b", "c"]))
        with pytest.raises(GraphError, match="0..n-1"):
            distributed_fractional_mds(nx.path_graph(range(1, 5)))


class TestWaterFillingParity:
    """The event-driven CSR kernel against the frozen dict loop, field for
    field."""

    @settings(PARITY, max_examples=180)
    @given(
        st.tuples(parity_graphs, st.sampled_from(GAMMAS))
        # A raise by gamma / theta <= 1% leaves up to hundreds of
        # iterations between two covering events.
        | st.tuples(_parity_graphs(15), st.just(0.01))
    )
    def test_matches_reference(self, case):
        graph, gamma = case
        assert distributed_fractional_mds(graph, gamma=gamma) == (
            reference_distributed_fractional_mds(graph, gamma=gamma)
        )

    @settings(PARITY, max_examples=100)
    @given(parity_graphs, st.sampled_from(GAMMAS), st.data())
    def test_iteration_limit_matches_reference(self, graph, gamma, data):
        # Any limit up to one past the last iteration: most of them cut
        # inside a replayed batch or a run of threshold drops.
        iterations = distributed_fractional_mds(graph, gamma=gamma).iterations
        limit = data.draw(st.integers(1, iterations + 1), label="max_iterations")
        assert _outcome(distributed_fractional_mds, graph, gamma, limit) == (
            _outcome(reference_distributed_fractional_mds, graph, gamma, limit)
        )

    @settings(PARITY, max_examples=60)
    @given(parity_graphs, st.sampled_from(GAMMAS + [0.01]))
    def test_batch_cap_changes_nothing(self, graph, gamma):
        # A cap of 0 is below every row length, so no batch forms and every
        # iteration runs singly; 64 entries split the batches.
        want = distributed_fractional_mds(graph, gamma=gamma)
        for cap in (0, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("repro.fractional.distributed._BATCH_ENTRIES", cap)
                assert distributed_fractional_mds(graph, gamma=gamma) == want

    def test_reference_size_adds_left_to_right(self, monkeypatch):
        # Python 3.12's builtin sum() of floats is compensated; the kernel
        # and the reference both add left to right on every version.
        monkeypatch.setattr(sys.modules[__name__], "sum", neumaier_sum, raising=False)
        results = []
        for seed in range(4):
            graph = gnp_graph(40, 0.1, seed=seed)
            for gamma in GAMMAS:
                result = distributed_fractional_mds(graph, gamma=gamma)
                assert result == reference_distributed_fractional_mds(graph, gamma=gamma)
                results.append(result)
        # ... and on these cases the two sums differ.
        assert any(neumaier_sum(r.values.values()) != r.size for r in results)

    def test_matches_reference_at_benchmark_shape(self):
        # gnp-300 with maximum degree 13 at the Theorem 1.2 pipeline's
        # gamma for eps = 0.5: the largest water-filling instance the
        # repo benchmark solves.  The first such instance from seed 1 up.
        graph = next(
            inst.graph
            for inst in (suite_instance("gnp", 300, seed=s) for s in itertools.count(1))
            if inst.max_degree == 13
        )
        result = distributed_fractional_mds(graph, gamma=0.03125)
        assert result == reference_distributed_fractional_mds(graph, gamma=0.03125)
        assert all(type(x) is float for x in result.values.values())


def _single_raises(x, coverage, uncovered, raisers, targets, lengths, step, limit):
    """The sweep's single raise step, repeated while no iteration is an
    event and at most ``limit`` times: how many ran, and the values and
    coverage after them (fresh arrays)."""
    x, coverage = x.copy(), coverage.copy()
    for done in range(limit):
        before = x[raisers]
        raised = np.minimum(1.0, before + step)
        trial = coverage.copy()
        np.add.at(trial, targets, (raised - before).repeat(lengths))
        if raised.max() >= 1.0 or (uncovered & (trial >= 1.0 - 1e-12)).any():
            return done, x, coverage
        x[raisers] = raised
        coverage = trial
    return limit, x, coverage


@st.composite
def batch_states(draw):
    """A sweep state between two events: values below 1 on the raisers,
    uncovered constraints below the covering threshold, and every raiser's
    own constraint uncovered (its dynamic degree is at least 1)."""
    graph = draw(_parity_graphs(15))
    indptr, indices = closed_neighborhoods(graph)
    n = len(indptr) - 1
    raisers = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    targets, lengths = _rows(indptr, np.diff(indptr), indices, raisers)
    # Values and coverage below a drawn ceiling, so that some states leave
    # room for long batches.
    ceiling = draw(st.floats(1e-9, 1.0 - 1e-12, exclude_max=True))
    units = st.lists(st.floats(0.0, ceiling, exclude_max=True), min_size=n, max_size=n)
    x = np.array(draw(units))
    coverage = np.array(draw(units))
    uncovered = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    uncovered[raisers] = True
    step = draw(st.sampled_from([0.01 / 7, 1 / 32 / 13]) | st.floats(1e-4, 0.5))
    return x, coverage, uncovered, raisers, targets, lengths, step, draw(st.integers(0, 100))


class TestReplayedBatches:
    """``_replay_raises`` against the single raise step it replays."""

    @settings(PARITY, max_examples=150)
    @given(batch_states())
    def test_batch_equals_single_raises(self, state):
        x, coverage, uncovered, raisers, targets, lengths, step, limit = state
        batch_x, batch_coverage = x.copy(), coverage.copy()
        k = _replay_raises(
            batch_x, batch_coverage, uncovered, raisers, targets, lengths, step, limit
        )
        assert k <= _single_raises(*state)[0]
        _, want_x, want_coverage = _single_raises(
            x, coverage, uncovered, raisers, targets, lengths, step, k
        )
        assert np.array_equal(batch_x, want_x)
        assert np.array_equal(batch_coverage, want_coverage)

    def test_quiet_iterations_are_replayed(self, monkeypatch):
        # Only the events (coverings, caps at 1) and the threshold drops
        # should run singly: a slack estimate that is off by one refuses
        # every batch and changes no result.
        replayed = []

        def spy(*args):
            replayed.append(_replay_raises(*args))
            return replayed[-1]

        monkeypatch.setattr("repro.fractional.distributed._replay_raises", spy)
        graph = suite_instance("gnp", 300, seed=1).graph
        result = distributed_fractional_mds(graph, gamma=0.03125)
        assert sum(replayed) >= 0.85 * result.iterations

    @pytest.mark.parametrize(
        "value, coverage",
        [
            # Three raises by 0.01/7 take the value to 1 in floating point,
            # though their real sum stays 5e-17 below 1.
            (0.9957142857142857, 0.0),
            # The same for the coverage and the covering threshold.
            (0.0, 0.9957142857132857),
        ],
    )
    def test_overshooting_estimate_is_refused(self, value, coverage):
        step = 0.01 / 7
        state = (
            np.array([value]), np.array([coverage]), np.array([True]),
            np.array([0]), np.array([0]), np.array([1]), step, 100,
        )
        # The slack estimate allows three raises, but the third is an event.
        slack = min((1.0 - value) / step, (1.0 - 1e-12 - coverage) / step)
        assert math.ceil(slack) - 1 == 3
        assert _single_raises(*state)[0] == 2
        x, covered = state[0].copy(), state[1].copy()
        assert _replay_raises(x, covered, *state[2:]) == 0
        assert np.array_equal(x, state[0]) and np.array_equal(covered, state[1])


class TestRepairAndRaise:
    def test_repair_fixes_near_miss(self):
        g = normalize_graph(nx.path_graph(3))
        values = {0: 0.0, 1: 1.0 - 1e-9, 2: 0.0}
        repaired = repair_feasibility(g, values)
        assert CoveringInstance.from_graph(g, repaired).is_feasible()

    def test_repair_keeps_feasible_untouched(self, small_gnp):
        values = {v: 1.0 for v in small_gnp.nodes()}
        assert repair_feasibility(small_gnp, values) == values

    def test_raise_levels(self):
        raised = raise_fractionality({0: 0.0, 1: 0.005, 2: 0.5}, lam=0.01)
        assert raised == {0: 0.01, 1: 0.01, 2: 0.5}

    def test_raise_validation(self):
        with pytest.raises(Exception):
            raise_fractionality({0: 0.5}, lam=0.0)


class TestLemma21Contract:
    @pytest.mark.parametrize("provider", ["lp", "distributed"])
    def test_contract(self, medium_gnp, provider):
        eps = 0.5
        initial = kmw06_initial_fds(medium_gnp, eps=eps, provider=provider)
        delta_tilde = max(d for _, d in medium_gnp.degree()) + 1
        assert CoveringInstance.from_graph(medium_gnp, initial.values).is_feasible()
        # eps/(2 Delta~)-fractional.
        assert fractionality_of(initial.values) >= eps / (2 * delta_tilde) - 1e-12
        # Raising cost: at most n * lambda above the provider's size.
        lam = eps / (2 * delta_tilde)
        assert initial.raised_size <= (
            initial.provider_size + medium_gnp.number_of_nodes() * lam + 1e-6
        )

    def test_values_cover_every_node_in_order(self, medium_gnp):
        """``values`` holds every node's raised value in ascending order, and
        ``raised_size`` adds them left to right."""
        initial = kmw06_initial_fds(medium_gnp, eps=0.5)
        assert list(initial.values) == list(range(medium_gnp.number_of_nodes()))
        assert min(initial.values.values()) >= initial.lam
        assert initial.raised_size == loop_sum(initial.values.values())

    def test_lp_provider_charges_rounds(self, small_gnp):
        initial = kmw06_initial_fds(small_gnp, eps=0.5, provider="lp")
        assert initial.ledger.charged_rounds > 0
        assert initial.ledger.simulated_rounds == 0

    def test_distributed_provider_simulates_rounds(self, small_gnp):
        initial = kmw06_initial_fds(small_gnp, eps=0.5, provider="distributed")
        assert initial.ledger.simulated_rounds > 0

    def test_explicit_zero_gamma_rejected(self, small_gnp):
        # gamma=0.0 is out of (0, 1], not a request for the default.
        with pytest.raises(GraphError, match="gamma"):
            kmw06_initial_fds(small_gnp, eps=0.5, provider="distributed", gamma=0.0)

    def test_unknown_provider(self, small_gnp):
        with pytest.raises(GraphError):
            kmw06_initial_fds(small_gnp, eps=0.5, provider="quantum")

    def test_eps_validation(self, small_gnp):
        with pytest.raises(GraphError):
            kmw06_initial_fds(small_gnp, eps=0.0)
        with pytest.raises(GraphError):
            kmw06_initial_fds(small_gnp, eps=1.5)
