"""Certification oracle: bound-ladder correctness, caching, registry tripwire.

The property under test is the sandwich ``lp_bound <= opt <= size``: every
ladder rung must bound the true optimum honestly, the exact and ILP rungs
must agree wherever both apply, and the memo must return the *identical*
certificate on a repeat key.  The registry-wide tripwire at the bottom
certifies every MDS-producing :class:`~repro.api.registry.ProgramSpec`
against its documented guarantee on the small zoo — a future registration
with a ``quality_metric`` is gated automatically, with no test edit.
"""

import math

import networkx as nx
import pytest

from repro.analysis.verify import require_dominating_set
from repro.baselines.exact import exact_mds
from repro.baselines.greedy import greedy_mds
from repro.domsets.covering import Constraint, CoveringInstance, ValueVar
from repro.errors import (
    LPError,
    LPInfeasibleError,
    ReproError,
    SearchBudgetExceededError,
)
from repro.fractional.lp import LPSolution, solve_covering_lp
from repro.oracle import (
    Certificate,
    certify,
    clear_oracle_cache,
    lp_lower_bound,
    oracle_cache,
    solve_mds_ilp,
    topology_cache_key,
)
from tests.conftest import graph_zoo


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_oracle_cache()
    yield
    clear_oracle_cache()


class TestILP:
    @pytest.mark.solver
    @pytest.mark.parametrize(
        "name,graph", graph_zoo(), ids=[name for name, _g in graph_zoo()]
    )
    def test_ilp_matches_exact_branch_and_bound(self, name, graph):
        ilp = solve_mds_ilp(graph)
        assert ilp.proven
        assert ilp.optimum == len(exact_mds(graph))
        require_dominating_set(graph, ilp.nodes, "ILP solution")

    def test_empty_graph_is_trivially_optimal(self):
        ilp = solve_mds_ilp(nx.empty_graph(0))
        assert ilp.proven and ilp.optimum == 0 and ilp.nodes == frozenset()

    def test_vanishing_time_limit_yields_unproven_solution(self):
        graph = graph_zoo()[7][1]  # gnp-24
        ilp = solve_mds_ilp(graph, time_limit_s=1e-9)
        assert not ilp.proven
        assert ilp.status == "time_limit"
        # Any incumbent HiGHS did find must still be a dominating set (the
        # solver verifies it) and an upper bound on OPT.
        if ilp.nodes is not None:
            assert ilp.optimum >= len(exact_mds(graph))


class TestLadder:
    @pytest.mark.solver
    @pytest.mark.parametrize(
        "name,graph", graph_zoo(), ids=[name for name, _g in graph_zoo()]
    )
    def test_sandwich_lp_le_opt_le_greedy(self, name, graph):
        greedy = greedy_mds(graph)
        cert = certify(graph, greedy)
        assert cert.method == "exact" and cert.status == "optimal"
        assert cert.opt == len(exact_mds(graph))
        assert cert.lp_bound <= cert.opt + 1e-6
        assert cert.opt <= cert.size == len(greedy)
        assert cert.ratio_vs_opt is not None
        assert cert.ratio_vs_opt <= cert.ratio_vs_lp + 1e-9

    def test_ds_collection_is_validated_before_solving(self):
        graph = graph_zoo()[0][1]  # path-8
        with pytest.raises(ReproError):
            certify(graph, {0})  # not dominating
        cert = certify(graph, greedy_mds(graph))
        assert isinstance(cert, Certificate)

    def test_lp_mode_reports_bound_only(self):
        graph = graph_zoo()[7][1]
        cert = certify(graph, greedy_mds(graph), oracle="lp")
        assert cert.method == "lp" and cert.status == "lp_bound_only"
        assert cert.opt is None and cert.ratio_vs_opt is None
        assert cert.ratio_vs_lp >= 1.0 - 1e-9
        assert math.isclose(cert.lp_bound, lp_lower_bound(graph))

    def test_ilp_mode_skips_branch_and_bound(self):
        graph = graph_zoo()[4][1]  # grid 4x4
        cert = certify(graph, greedy_mds(graph), oracle="ilp")
        assert cert.method == "ilp" and cert.proven

    def test_exact_mode_refuses_oversized_graphs(self):
        big = nx.path_graph(80)
        with pytest.raises(ReproError, match="exact"):
            certify(big, set(range(80)), oracle="exact")

    def test_auto_falls_back_to_ilp_on_search_budget(self):
        graph = graph_zoo()[7][1]
        cert = certify(graph, greedy_mds(graph), search_budget=1)
        assert cert.method == "ilp" and cert.proven
        assert cert.opt == len(exact_mds(graph))

    def test_unknown_mode_rejected(self):
        graph = graph_zoo()[0][1]
        with pytest.raises(ValueError, match="oracle mode"):
            certify(graph, greedy_mds(graph), oracle="divination")

    def test_empty_graph_certifies_at_ratio_one(self):
        cert = certify(nx.empty_graph(0), 0)
        assert cert.opt == 0 and cert.ratio_vs_opt == 1.0
        assert cert.ratio_vs_lp == 1.0


class TestCache:
    def test_repeat_key_returns_identical_object(self):
        graph = graph_zoo()[5][1]  # tree-18
        key = topology_cache_key("tree", 18, 6)
        size = len(greedy_mds(graph))
        first = certify(graph, size, cache_key=key)
        second = certify(graph, size, cache_key=key)
        assert second is first
        assert oracle_cache().stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_distinct_sizes_and_modes_miss(self):
        graph = graph_zoo()[5][1]
        key = topology_cache_key("tree", 18, 6)
        size = len(greedy_mds(graph))
        certify(graph, size, cache_key=key)
        certify(graph, size + 1, cache_key=key)
        certify(graph, size, oracle="lp", cache_key=key)
        assert oracle_cache().stats() == {"hits": 0, "misses": 3, "entries": 3}

    def test_no_key_means_no_memoization(self):
        graph = graph_zoo()[0][1]
        certify(graph, greedy_mds(graph))
        assert len(oracle_cache()) == 0

    def test_topology_key_carries_full_identity(self):
        # The last entry is the family's generator version.
        assert topology_cache_key("gnp", 24, 7) == ("gnp", 24, 7, None, 2)
        assert topology_cache_key("tree", 24, 7) == ("tree", 24, 7, None, 1)
        assert topology_cache_key("gnp", 24, 7) != topology_cache_key("gnp", 24, 8)
        assert topology_cache_key("gnp", 24, 7, params=("p", 0.5)) != (
            topology_cache_key("gnp", 24, 7)
        )


    def test_a_dump_keyed_without_the_generator_version_never_certifies(self, tmp_path):
        """A dump whose keys carry no generator version names gnp graphs the
        sampler no longer draws: loaded, it must leave a gnp cell to be
        solved afresh, not answer with the stale certificate."""
        from repro.experiments.runner import GridCell, run_grid
        from repro.graphs.suite import suite_instance
        from repro.oracle.cache import OracleCache
        from repro.oracle.certificate import (
            EXACT_NODE_LIMIT,
            EXACT_SEARCH_BUDGET,
            ILP_TIME_LIMIT_S,
        )

        cell = GridCell("gnp", 40, "greedy", "fast", seed=3)
        (plain,) = run_grid([cell])
        size = plain["metrics"]["ds_size"]
        stale = OracleCache()
        unversioned = ("gnp", 40, 3, None)
        stale.store(
            (unversioned, size, "auto", EXACT_NODE_LIMIT, EXACT_SEARCH_BUDGET,
             ILP_TIME_LIMIT_S),
            Certificate(size=size, opt=1, lp_bound=1.0, ratio_vs_opt=float(size),
                        ratio_vs_lp=float(size), method="exact", status="optimal",
                        solve_wall_s=0.0),
        )
        assert oracle_cache().load(stale.dump(tmp_path / "oracle.json")) == 1
        (record,) = run_grid([cell], certify="auto")
        assert record["quality"]["cache_hit"] is False
        assert oracle_cache().stats()["misses"] == 1
        fresh = certify(suite_instance("gnp", 40, seed=3).graph, size)
        assert record["quality"]["opt"] == fresh.opt != 1


class TestSolverFailures:
    def test_infeasible_lp_raises_typed_error_with_status(self):
        # A constraint with demand 1 and no members is unsatisfiable.
        instance = CoveringInstance(
            [ValueVar(0, 0.0, 0)],
            [Constraint(0, c=1.0, members=(), origin=0)],
        )
        with pytest.raises(LPInfeasibleError, match="infeasible") as excinfo:
            solve_covering_lp(instance)
        assert excinfo.value.status == 2
        # Infeasibility is an LPError too, so existing handlers still catch
        # it — but the subtype lets the oracle refuse to fall back.
        assert isinstance(excinfo.value, LPError)

    def test_lp_without_variables_is_solved_not_passed_to_scipy(self):
        assert solve_covering_lp(CoveringInstance([], [])) == LPSolution({}, 0.0)
        zero = CoveringInstance([], [Constraint(0, c=0.0, members=(), origin=0)])
        assert solve_covering_lp(zero) == LPSolution({}, 0.0)
        # A positive demand nobody can meet: what HiGHS reports when the
        # instance has other variables.
        short = CoveringInstance([], [Constraint(0, c=1.0, members=(), origin=0)])
        with pytest.raises(LPInfeasibleError, match="infeasible") as excinfo:
            solve_covering_lp(short)
        assert excinfo.value.status == 2

    def test_search_budget_is_enforced(self):
        graph = graph_zoo()[7][1]
        with pytest.raises(SearchBudgetExceededError, match="budget"):
            exact_mds(graph, search_budget=1)
        # None (the default) searches to completion as before.
        assert exact_mds(graph) == exact_mds(graph, search_budget=None)


@pytest.mark.solver
class TestRegistryTripwire:
    """Every MDS-producing spec is certified against its documented bound.

    Auto-covering: a future ``register_program`` with a ``quality_metric``
    lands in this sweep with no test change, and ships only if its measured
    ratio on the whole small zoo stays within its declared guarantee.
    """

    def _quality_specs(self):
        from repro.api.registry import registered_specs

        specs = [
            spec
            for spec in registered_specs()
            if spec.quality_metric is not None
        ]
        assert specs, "expected at least the greedy spec to declare quality"
        return specs

    def test_greedy_declares_its_guarantee(self):
        from repro.analysis.bounds import greedy_bound
        from repro.api.registry import program_spec

        spec = program_spec("greedy")
        assert spec.quality_metric == "ds_size"
        assert spec.quality_bound is greedy_bound

    def test_every_quality_spec_within_documented_bound(self):
        from repro.api import Experiment

        families = ["gnp", "gnp-dense", "tree", "grid", "caterpillar"]
        for spec in self._quality_specs():
            sweep = (
                Experiment(spec.name)
                .on(*families)
                .sizes(24)
                .engine("vector")
                .seeds(2)
                .certify("auto")
                .run()
            )
            assert sweep.ok, sweep.failures()
            for rec in sweep:
                quality = rec.quality
                assert quality is not None, rec.key
                assert quality["status"] != "failed", (rec.key, quality)
                ratio = (
                    quality["ratio_vs_opt"]
                    if quality["ratio_vs_opt"] is not None
                    else quality["ratio_vs_lp"]
                )
                if spec.quality_bound is not None:
                    bound = spec.quality_bound(
                        int(rec.metrics["max_degree"])
                    )
                    assert quality["within_bound"], (rec.key, quality)
                    assert ratio <= bound + 1e-9, (rec.key, ratio, bound)
