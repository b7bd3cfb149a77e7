"""Part-I substrate: LP oracle, water-filling solver, Lemma 2.1 raising."""

import math
import sys
from typing import Dict

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.congest.network import closed_neighborhoods
from repro.domsets.cfds import CFDS
from repro.domsets.covering import Constraint, CoveringInstance, ValueVar
from repro.errors import GraphError
from repro.fractional.distributed import (
    DistributedLPResult,
    _replay_raises,
    _rows,
    distributed_fractional_mds,
)
from repro.fractional.lp import lp_fractional_mds, solve_covering_lp
from repro.fractional.raising import (
    kmw06_initial_fds,
    raise_fractionality,
    repair_feasibility,
)
from repro.graphs.generators import clique_graph, gnp_graph, star_graph
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
        assert CFDS.fds(medium_gnp, lp.values).is_feasible()

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
        demand = draw(st.integers(0, min(2, len(members))))
        constraints.append(Constraint(cid, float(demand), tuple(members), cid))
    return CoveringInstance(
        [ValueVar(u, 0.0, u, weight=w) for u, w in zip(ids, weights)], constraints
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

    @settings(PARITY, max_examples=60)
    @given(covering_instances())
    def test_drawn_instances(self, instance):
        assert_optimal_and_feasible(instance)

    @pytest.mark.parametrize("family", sorted(families()))
    def test_suite_families(self, family):
        graph = suite_instance(family, 60, seed=1).graph
        assert_optimal_and_feasible(CoveringInstance.from_graph(graph, {}))
        values = lp_fractional_mds(graph).values
        for v in graph.nodes():
            assert math.fsum(values[u] for u in [v, *graph.neighbors(v)]) >= 1.0, v


class TestWaterFilling:
    def test_feasible_everywhere(self, zoo_graph):
        result = distributed_fractional_mds(zoo_graph)
        assert CFDS.fds(zoo_graph, result.values).is_feasible()

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
        # repo benchmark solves.
        graph = suite_instance("gnp", 300, seed=1).graph
        assert max(d for _, d in graph.degree()) == 13
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
        assert CFDS.fds(g, repaired).is_feasible()

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
        assert initial.fds.is_feasible()
        # eps/(2 Delta~)-fractional.
        assert initial.fds.fractionality >= eps / (2 * delta_tilde) - 1e-12
        # Raising cost: at most n * lambda above the provider's size.
        lam = eps / (2 * delta_tilde)
        assert initial.raised_size <= (
            initial.provider_size + medium_gnp.number_of_nodes() * lam + 1e-6
        )

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
