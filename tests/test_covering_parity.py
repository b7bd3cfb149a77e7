"""The array covering model against the frozen object reference.

:mod:`tests.covering_reference` keeps the object ``CoveringInstance``, its
engine and its Lemma 3.12 coloring.  Every transform, the engine and the
coloring must reproduce it field for field, dict keys in the same order and
floats bit for bit.  ``TestPinnedRoutes`` pins what every route built on the
model returns, as recorded before the arrays replaced the objects.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import re
from functools import lru_cache
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coloring.distance2 import bipartite_distance2_coloring
from repro.derand.conditional import ConditionalExpectationEngine
from repro.derand.estimators import EstimatorConfig
from repro.domsets.covering import Constraint, CoveringInstance, ValueVar, row_sums
from repro.errors import ReproError
from repro.fractional.raising import kmw06_initial_fds, repair_feasibility
from repro.graphs.generators import gnp_graph
from repro.graphs.normalize import normalize_graph
from repro.graphs.suite import families, suite_instance
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.mds.pipeline import PipelineParams
from repro.rounding.abstract import RoundingScheme, expected_output_size
from repro.rounding.schemes import halving_probabilities, one_shot_scheme
from repro.setcover.instance import SetCoverInstance
from repro.setcover.solve import approx_min_set_cover
from repro.util.transmittable import TransmittableGrid
from repro.weighted.mds import approx_weighted_mds
from tests.covering_reference import (
    RefEngine,
    RefInstance,
    RefScheme,
    loop_sum,
    neumaier_sum,
    ref_bipartite_coloring,
    ref_factor_two_p,
    ref_one_shot_scheme,
)

PARITY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Demands that stress the prune cut: 0, and 1e-12, whose cut level
#: ``c - 1e-12`` is exactly 0.
DEMANDS = (0.0, 1e-12, 0.25, 0.5, 1.0)
#: Values drawn from this grid tie often.
TIED = (0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 1.0)


def _reversed_gnp(n: int, seed: int) -> nx.Graph:
    """A gnp graph whose nodes were inserted in descending order."""
    g = gnp_graph(n, 0.2, seed=seed)
    out = nx.Graph()
    out.add_nodes_from(sorted(g.nodes(), reverse=True))
    out.add_edges_from(sorted(g.edges(), reverse=True))
    return out


@st.composite
def graphs(draw) -> nx.Graph:
    kind = draw(st.sampled_from(
        ["one", "edgeless", "star", "path", "gnp", "suite", "reversed"]
    ))
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 40))
    if kind == "one":
        return normalize_graph(nx.empty_graph(1))
    if kind == "edgeless":
        return normalize_graph(nx.empty_graph(n))
    if kind == "star":
        return normalize_graph(nx.star_graph(n - 1))
    if kind == "path":
        return normalize_graph(nx.path_graph(n))
    if kind == "suite":
        return suite_instance(draw(st.sampled_from(families())), 40, seed=seed).graph
    if kind == "reversed":
        return _reversed_gnp(n, seed)
    return gnp_graph(n, draw(st.sampled_from([0.05, 0.2, 0.5])), seed=seed)


#: How values are drawn: from the tie grid, spread over ``[0, 1]``, or all
#: small, so that every pruned constraint keeps many one-shot coins and its
#: ``phi`` is a product of many ``1 - p`` factors.
VALUE_KINDS = ("tied", "spread", "small")


def _values(rng: random.Random, ids, kind: str) -> dict:
    if kind == "tied":
        return {u: rng.choice(TIED) for u in ids}
    if kind == "small":
        return {u: 0.05 + 0.15 * rng.random() for u in ids}
    return {u: rng.choice([0.0, rng.random(), rng.random() ** 3]) for u in ids}


@st.composite
def graph_cases(draw):
    """A graph, a feasible FDS on it (ties likely) and a random generator."""
    graph = draw(graphs())
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(VALUE_KINDS))
    values = repair_feasibility(graph, _values(rng, graph.nodes(), kind))
    return graph, values, rng


@st.composite
def listed_cases(draw):
    """Instances built from object lists: non-contiguous ids, constraints
    without members, zero and tiny demands."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    ids = rng.sample(range(1000), draw(st.integers(0, 25)))
    values = _values(rng, ids, draw(st.sampled_from(VALUE_KINDS)))
    value_vars = [
        ValueVar(id=u, x=values[u], origin=rng.choice(ids[:4]), weight=rng.choice([1.0, 2.5]))
        for u in ids
    ]
    constraints = []
    for cid in rng.sample(range(1000), draw(st.integers(0, 20))):
        members = tuple(sorted(rng.sample(ids, rng.randint(0, min(len(ids), 12)))))
        constraints.append(Constraint(
            id=cid, c=rng.choice(DEMANDS), members=members,
            origin=rng.randrange(50), join_weight=rng.choice([1.0, 3.0]),
        ))
    return value_vars, constraints, rng


def assert_same(arr: CoveringInstance, ref: RefInstance) -> None:
    """Every view, in key order, and the bookkeeping."""
    assert list(arr.value_vars.items()) == list(ref.value_vars.items())
    assert list(arr.constraints.items()) == list(ref.constraints.items())
    assert list(arr.var_constraints.items()) == list(ref.var_constraints.items())
    assert list(arr.values().items()) == list(ref.values().items())
    assert arr.size() == ref.size()
    assert arr.max_constraint_degree == ref.max_constraint_degree
    assert arr.max_var_degree == ref.max_var_degree


def same(arr_call, ref_call):
    """Both calls return (compared by the caller), or raise alike."""
    try:
        expected = ref_call()
    except ReproError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            arr_call()
        return None, None
    return arr_call(), expected


def check_transforms(arr: CoveringInstance, ref: RefInstance, rng: random.Random) -> None:
    assert_same(arr, ref)
    ids = list(ref.value_vars)
    partial = {u: rng.choice(TIED) for u in ids if rng.random() < 0.5}
    assert_same(arr.with_values(partial), ref.with_values(partial))
    factor = rng.choice([1.5, 2.0, math.log(7.0)])
    assert_same(arr.boost_values(factor), ref.boost_values(factor))
    grid = TransmittableGrid.for_n(max(2, len(ids)))
    assert_same(arr.boost_values(factor, quantize=grid.up),
                ref.boost_values(factor, quantize=grid.up))
    for limit in (None, 1, 3):
        got, want = same(lambda: arr.prune_to_cover(limit), lambda: ref.prune_to_cover(limit))
        if want is not None:
            assert_same(got, want)
    original = {u: rng.random() for u in ids}
    threshold, s = rng.choice([0.2, 0.5, 1.0]), rng.choice([1, 2, 3, 8])
    assert_same(arr.split_constraints(original, threshold, s),
                ref.split_constraints(original, threshold, s))
    probe = {u: rng.choice(TIED) for u in ids}
    assert arr.violations(probe) == ref.violations(probe)
    assert arr.violations() == ref.violations()
    for cid in list(ref.constraints)[:3]:
        assert arr.member_sum(cid) == ref.member_sum(cid)
        assert arr.member_sum(cid, probe) == ref.member_sum(cid, probe)
    joined = {rng.randrange(60) for _ in range(3)}
    for final in (probe, {u: 0.0 for u in ids}):
        got, want = arr.project(final, joined), ref.project(final, joined)
        assert list(got.items()) == list(want.items())


@PARITY
@given(st.lists(st.lists(st.floats(-1e3, 1e3), max_size=10), max_size=60), st.integers(0, 400))
def test_row_sums_add_left_to_right(rows, long_row):
    """``row_sums`` equals a ``+=`` loop per row, on short rows and beside
    one long row."""
    rng = random.Random(long_row)
    rows = rows + [[rng.uniform(0, 1) for _ in range(long_row)]]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    data = np.array([x for r in rows for x in r], dtype=float)
    assert row_sums(indptr, data).tolist() == [loop_sum(r) + 0.0 for r in rows]


EDGE_FLOATS = st.one_of(
    st.floats(-1e20, 1e20),
    st.sampled_from([0.0, -0.0, 1e-20, -1e-20, 1e20, -1e20, math.inf, -math.inf]),
)


@PARITY
@given(st.lists(st.lists(EDGE_FLOATS, max_size=8), max_size=40))
def test_row_sums_match_the_scipy_product(rows):
    """``row_sums`` is, bit for bit, the scipy CSR product with a ones
    vector that it replaced: signed zeros, infinities, huge and tiny terms
    and empty rows included."""
    from scipy import sparse

    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    data = np.array([x for r in rows for x in r], dtype=float)
    matrix = sparse.csr_matrix((data, np.arange(len(data)), indptr),
                               shape=(len(rows), len(data)))
    want = matrix @ np.ones(len(data))
    got = row_sums(indptr, data)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestTransformParity:
    @PARITY
    @given(graph_cases(), st.booleans())
    def test_graph_instances(self, case, demands):
        graph, values, rng = case
        c = {v: rng.choice(DEMANDS) for v in graph.nodes()} if demands else None
        w = {v: rng.choice([1.0, 2.0]) for v in graph.nodes()} if rng.random() < 0.3 else None
        check_transforms(
            CoveringInstance.from_graph(graph, values, c, w),
            RefInstance.from_graph(graph, values, c, w),
            rng,
        )

    @PARITY
    @given(listed_cases())
    def test_listed_instances(self, case):
        value_vars, constraints, rng = case
        check_transforms(
            CoveringInstance(value_vars, constraints), RefInstance(value_vars, constraints), rng
        )

    def test_out_of_order_graph_builds_sorted(self):
        graph = _reversed_gnp(30, 3)
        assert list(graph.nodes())[0] == 29
        values = repair_feasibility(graph, {v: 0.2 for v in graph.nodes()})
        assert_same(CoveringInstance.from_graph(graph, values),
                    RefInstance.from_graph(graph, values))


def _schemes(graph, values, rng):
    """(array, reference) scheme pairs: pruned one-shot, split factor-two."""
    arr = CoveringInstance.from_graph(graph, values)
    ref = RefInstance.from_graph(graph, values)
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    delta_tilde = max((d for _, d in graph.degree()), default=0) + 1
    yield (one_shot_scheme(arr.prune_to_cover(), delta_tilde, quantize=grid.up),
           ref_one_shot_scheme(ref.prune_to_cover(), delta_tilde, quantize=grid.up))
    threshold, s = rng.choice([0.25, 0.5]), rng.choice([1, 2, 8])
    arr_split = arr.boost_values(1.2, quantize=grid.up).split_constraints(values, threshold, s)
    ref_split = ref.boost_values(1.2, quantize=grid.up).split_constraints(values, threshold, s)
    yield (RoundingScheme(arr_split, halving_probabilities(arr_split, threshold), "f2"),
           RefScheme(ref_split, ref_factor_two_p(ref_split, threshold), "f2"))


def assert_same_run(arr_scheme, ref_scheme, config, schedule) -> None:
    """The engines agree on every constraint's ``phi`` before and after the
    run, and on the run's result."""
    engine, ref_engine = same(
        lambda: ConditionalExpectationEngine(arr_scheme, config),
        lambda: RefEngine(ref_scheme, config),
    )
    if ref_engine is None:
        return

    def phis():
        return [est.phi() for est in ref_engine.estimators.values()]

    assert engine.phi().tolist() == phis()
    got, want = same(lambda: engine.run(schedule), lambda: ref_engine.run(schedule))
    if want is None:
        return
    assert engine.phi().tolist() == phis()
    assert list(got.decisions.items()) == list(want.decisions.items())
    assert got.initial_estimate == want.initial_estimate
    assert got.final_estimate == want.final_estimate
    assert got.trajectory == want.trajectory
    assert got.batches == want.batches
    for name in ("phase_one", "projected"):
        assert list(getattr(got.outcome, name).items()) == list(
            getattr(want.outcome, name).items()
        )
    assert got.outcome.violated_constraints == want.outcome.violated_constraints
    assert list(got.outcome.joined_origins) == list(want.outcome.joined_origins)
    assert got.outcome.accounted_size == want.outcome.accounted_size


class TestEngineAndColoringParity:
    @PARITY
    @given(graph_cases(), st.sampled_from(["auto", "chernoff", "exact-product", "exact-enum"]))
    def test_decisions_estimates_and_trajectory(self, case, mode):
        graph, values, rng = case
        config = EstimatorConfig(mode=mode, enum_limit=10)
        for arr_scheme, ref_scheme in _schemes(graph, values, rng):
            assert arr_scheme.participating() == ref_scheme.participating()
            assert list(arr_scheme.p.items()) == list(ref_scheme.p.items())
            restrict = set(ref_scheme.participating())
            colors, *fields = ref_bipartite_coloring(
                ref_scheme.instance, restrict, graph.number_of_nodes()
            )
            coloring = bipartite_distance2_coloring(
                arr_scheme.instance, restrict, graph.number_of_nodes()
            )
            assert list(coloring.colors.items()) == list(colors.items())
            assert [coloring.num_colors, coloring.charged_rounds, coloring.conflict_edges,
                    coloring.delta_l, coloring.delta_r] == fields
            classes = {}
            for u, color in colors.items():
                classes.setdefault(color, []).append(u)
            schedule = [classes[c] for c in sorted(classes)]
            assert_same_run(arr_scheme, ref_scheme, config, schedule)
            # A batch of constraint-sharing variables, or of non-participants.
            assert_same_run(arr_scheme, ref_scheme, config, [sorted(restrict)])
            assert_same_run(arr_scheme, ref_scheme, config, [list(ref_scheme.p)[:2]])

    @PARITY
    @given(graph_cases(), st.data())
    def test_invalid_batches_fail_alike(self, case, data):
        """Batches mixing participants, fixed variables, an unknown id,
        repeats and constraint-sharing pairs raise the reference's error for
        the same variable, after a first batch that may decide some."""
        graph, values, rng = case
        arr_scheme, ref_scheme = next(_schemes(graph, values, rng))
        ids = st.sampled_from(list(ref_scheme.p) + [10**9])
        if ref_scheme.participating():
            ids = st.one_of(st.sampled_from(ref_scheme.participating()), ids)
        schedule = [data.draw(st.lists(ids, max_size=3)),
                    data.draw(st.lists(ids, min_size=1, max_size=6))]
        assert_same_run(arr_scheme, ref_scheme, EstimatorConfig(), schedule)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_shot_products_of_many_coins(self, seed):
        # Small values leave many coins on every pruned constraint, so each
        # phi is a product of many 1 - p factors: an ulp in one of their
        # logs shows in phi.
        graph, rng = gnp_graph(60, 0.2, seed=seed), random.Random(seed)
        values = repair_feasibility(graph, _values(rng, graph.nodes(), "small"))
        arr_scheme, ref_scheme = next(_schemes(graph, values, rng))
        schedule = [[u] for u in ref_scheme.participating()]
        assert_same_run(arr_scheme, ref_scheme, EstimatorConfig(), schedule)

    @PARITY
    @given(listed_cases())
    def test_listed_coloring(self, case):
        value_vars, constraints, rng = case
        arr, ref = CoveringInstance(value_vars, constraints), RefInstance(value_vars, constraints)
        for restrict in (None, {u for u in ref.value_vars if rng.random() < 0.6}):
            colors, *fields = ref_bipartite_coloring(ref, restrict)
            got = bipartite_distance2_coloring(arr, restrict)
            assert list(got.colors.items()) == list(colors.items())
            assert [got.num_colors, got.charged_rounds, got.conflict_edges,
                    got.delta_l, got.delta_r] == fields


# -- pinned route outputs -----------------------------------------------------

PINNED_PATH = Path(__file__).parent / "data" / "pinned_covering_routes.json"
PINNED_SIZES = (60, 300)


@lru_cache(maxsize=None)
def _suite_graph(family: str, n: int) -> nx.Graph:
    return suite_instance(family, n, seed=1).graph


def _digest(chosen, ledger) -> str:
    blob = json.dumps([sorted(chosen), [list(entry) for entry in ledger.entries]])
    return hashlib.sha256(blob.encode()).hexdigest()


def _mds(result) -> dict:
    floats = [x for stage in result.trace for x in (stage.size, stage.fractionality)]
    return {"sha256": _digest(result.dominating_set, result.ledger), "trace": floats}


def _set_cover(graph: nx.Graph, gradual: bool) -> dict:
    sets = {v: set(graph.neighbors(v)) | {v} for v in graph.nodes()}
    result = approx_min_set_cover(SetCoverInstance.from_iterables(sets), gradual=gradual,
                                  f_target=32.0)
    return {"sha256": _digest(result.chosen, result.ledger),
            "trace": [result.weight, result.lp_optimum, result.initial_estimate]}


def _weighted(graph: nx.Graph) -> dict:
    result = approx_weighted_mds(graph, {v: 1.0 + (v % 7) / 3.0 for v in graph.nodes()})
    return {"sha256": _digest(result.dominating_set, result.ledger),
            "trace": [result.weight, result.lp_optimum]}


#: Every route on the covering model, as ``name -> graph -> {sha256, trace}``.
ROUTES = {
    "coloring-lp": lambda g: _mds(approx_mds_coloring(g, params=PipelineParams(eps=0.5))),
    "coloring-distributed": lambda g: _mds(approx_mds_coloring(
        g, params=PipelineParams(eps=0.5, part1_provider="distributed"))),
    "coloring-part2": lambda g: _mds(approx_mds_coloring(
        g, params=PipelineParams(eps=0.5, eps2_override=0.3, f_target_override=8.0))),
    "decomposition": lambda g: _mds(approx_mds_decomposition(g, eps=0.5)),
    "setcover-direct": lambda g: _set_cover(g, gradual=False),
    "setcover-gradual": lambda g: _set_cover(g, gradual=True),
    "weighted": _weighted,
}


def route_outputs(route: str) -> dict:
    """The pinned record of one route over every family and size."""
    return {
        f"{family}/{n}": ROUTES[route](_suite_graph(family, n))
        for family in families() for n in PINNED_SIZES
    }


class TestPinnedRoutes:
    """sha256 of (sorted output set, ledger entries) and the trace floats
    must repeat exactly: every size on the routes adds left to right, so
    Python 3.12's compensated ``sum()`` moves none of them."""

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_route_repeats_pinned_outputs(self, route):
        pinned = json.loads(PINNED_PATH.read_text())[route]
        got = route_outputs(route)
        assert got.keys() == pinned.keys()
        for key, want in pinned.items():
            assert got[key]["sha256"] == want["sha256"], key
            assert got[key]["trace"] == want["trace"], key


# -- reported sums ------------------------------------------------------------


def _suite_schemes():
    for family in families():
        graph = _suite_graph(family, PINNED_SIZES[0])
        x = {v: 1.0 / (d + 1) for v, d in graph.degree()}
        delta_tilde = max(d for _, d in graph.degree()) + 1
        yield one_shot_scheme(CoveringInstance.from_graph(graph, x), delta_tilde)


def _expected_sizes():
    sizes = []
    for scheme in _suite_schemes():
        phi = ConditionalExpectationEngine(scheme, EstimatorConfig()).phi()
        sizes.append(expected_output_size(scheme, dict(zip(scheme.instance.cids.tolist(), phi))))
    return sizes


def _estimator_masses():
    from repro.experiments.e04_uncovered import _estimator_mass

    return [_estimator_mass(scheme, "exact-product") for scheme in _suite_schemes()]


def _provider_sizes(provider: str):
    return [kmw06_initial_fds(_suite_graph(family, n), 0.5, provider=provider).provider_size
            for family in families() for n in PINNED_SIZES]


def _raised_sizes():
    return [kmw06_initial_fds(_suite_graph(family, n), 0.5).raised_size
            for family in families() for n in PINNED_SIZES]


def _weighted_weights():
    return [_weighted(_suite_graph(family, PINNED_SIZES[0]))["trace"][0]
            for family in families()]


#: Figures that each module once added with builtin ``sum()``.
SUM_SITES = {
    "repro.fractional.raising": lambda: _provider_sizes("lp"),
    "repro.fractional.distributed": lambda: _provider_sizes("distributed"),
    "repro.rounding.abstract": _expected_sizes,
    "repro.experiments.e04_uncovered": _estimator_masses,
    "repro.domsets.cfds": _raised_sizes,
    "repro.weighted.mds": _weighted_weights,
}


@pytest.mark.parametrize("module", sorted(SUM_SITES))
def test_reported_sums_ignore_builtin_sum(module, monkeypatch):
    """With Python 3.12's compensated ``sum()`` bound to the module's
    ``sum``, its figures repeat bit for bit: they add left to right on
    every Python version."""
    want = SUM_SITES[module]()
    monkeypatch.setattr(importlib.import_module(module), "sum", neumaier_sum, raising=False)
    assert SUM_SITES[module]() == want
