"""End-to-end Theorem 1.1 / 1.2 pipelines and the randomized counterpart."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.bounds import theorem11_approximation_bound
from repro.analysis.verify import is_dominating_set
from repro.errors import GraphError
from repro.fractional.lp import lp_fractional_mds
from repro.graphs.suite import families, suite_instance
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.mds.pipeline import PipelineParams
from repro.mds.randomized import approx_mds_randomized


class TestGuarantees:
    @pytest.mark.parametrize("route", ["coloring", "decomposition"])
    def test_theorem_bound_on_zoo(self, zoo_graph, route):
        runner = (
            approx_mds_coloring if route == "coloring" else approx_mds_decomposition
        )
        result = runner(zoo_graph, eps=0.5)
        assert is_dominating_set(zoo_graph, result.dominating_set)
        lp = lp_fractional_mds(zoo_graph)
        delta = max((d for _, d in zoo_graph.degree()), default=0)
        bound = theorem11_approximation_bound(0.5, delta)
        assert result.size <= bound * max(lp.optimum, 1.0) + 1e-9

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_eps_sweep(self, medium_gnp, eps):
        result = approx_mds_coloring(medium_gnp, eps=eps)
        lp = lp_fractional_mds(medium_gnp)
        delta = max(d for _, d in medium_gnp.degree())
        assert result.size <= theorem11_approximation_bound(eps, delta) * lp.optimum + 1e-9

    def test_approximation_bound_method(self, small_gnp):
        result = approx_mds_coloring(small_gnp, eps=0.5)
        delta = max(d for _, d in small_gnp.degree())
        assert result.approximation_bound() == pytest.approx(
            theorem11_approximation_bound(0.5, delta)
        )


class TestDeterminism:
    def test_coloring_route_deterministic(self, medium_gnp):
        a = approx_mds_coloring(medium_gnp, eps=0.5)
        b = approx_mds_coloring(medium_gnp, eps=0.5)
        assert a.dominating_set == b.dominating_set

    def test_decomposition_route_deterministic(self, medium_gnp):
        a = approx_mds_decomposition(medium_gnp, eps=0.5)
        b = approx_mds_decomposition(medium_gnp, eps=0.5)
        assert a.dominating_set == b.dominating_set


class TestTrace:
    def test_trace_stages(self, medium_gnp):
        result = approx_mds_coloring(medium_gnp, eps=0.5)
        stages = [t.stage for t in result.trace]
        assert stages[0] == "part1-fractional"
        assert stages[-1] == "part3-one-shot"
        assert result.trace[-1].fractionality == 1.0

    def test_part2_engages_with_overrides(self, medium_gnp):
        params = PipelineParams(
            eps=0.5, eps2_override=0.3, f_target_override=8.0
        )
        result = approx_mds_coloring(medium_gnp, params=params)
        assert result.params["part2_iterations"] >= 1
        frac_trace = [
            t.fractionality for t in result.trace if t.stage.startswith("part2")
        ]
        assert all(b >= a for a, b in zip(frac_trace, frac_trace[1:]))

    def test_part2_skipped_with_paper_constants(self, medium_gnp):
        result = approx_mds_coloring(medium_gnp, eps=0.5)
        assert result.params["part2_iterations"] == 0  # F astronomically big

    def test_ledger_nonempty(self, medium_gnp):
        result = approx_mds_decomposition(medium_gnp, eps=0.5)
        assert result.ledger.total_rounds > 0
        assert "part1/kmw06-lp" in result.ledger.by_stage()


class TestParams:
    def test_eps_validation(self):
        with pytest.raises(GraphError):
            PipelineParams(eps=0.0)
        with pytest.raises(GraphError):
            PipelineParams(eps=2.0)

    def test_distributed_part1(self, small_gnp):
        params = PipelineParams(eps=0.5, part1_provider="distributed")
        result = approx_mds_coloring(small_gnp, params=params)
        assert is_dominating_set(small_gnp, result.dominating_set)
        assert result.ledger.simulated_rounds > 0

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(GraphError):
            approx_mds_coloring(nx.Graph())


class TestRandomizedPipeline:
    def test_valid_output(self, medium_gnp):
        result = approx_mds_randomized(medium_gnp, eps=0.5, seed=1)
        assert is_dominating_set(medium_gnp, result.dominating_set)

    def test_seed_reproducible(self, medium_gnp):
        a = approx_mds_randomized(medium_gnp, eps=0.5, seed=9)
        b = approx_mds_randomized(medium_gnp, eps=0.5, seed=9)
        assert a.dominating_set == b.dominating_set

    def test_kwise_variant(self, small_gnp):
        result = approx_mds_randomized(small_gnp, eps=0.5, seed=2, kwise=8)
        assert is_dominating_set(small_gnp, result.dominating_set)
        assert "k=8" in result.route

    def test_quality_sane(self, medium_gnp):
        from repro.baselines.greedy import greedy_mds

        result = approx_mds_randomized(medium_gnp, eps=0.5, seed=3)
        assert result.size <= 3 * len(greedy_mds(medium_gnp)) + 3

    def test_ledger_and_params_follow_the_pipeline(self, medium_gnp):
        """Each coin phase charges 2 rounds under ``run_pipeline``'s stage
        prefixes, and the params carry the pipeline's plus the coins'."""
        params = PipelineParams(eps=0.5, eps2_override=0.3, f_target_override=8.0)
        result = approx_mds_randomized(medium_gnp, seed=4, kwise=8, params=params)
        iterations = int(result.params["part2_iterations"])
        assert iterations >= 1
        rounding = [(stage, rounds) for stage, kind, rounds in result.ledger.entries
                    if kind == "charged" and stage.endswith("-rounding")]
        assert rounding == [(f"part2/iter{k}/part2-rounding", 2) for k in range(iterations)] + [
            ("part3/part3-rounding", 2)]
        assert result.params["f_target"] == 8.0
        assert result.params["constants_scale"] == 1.0
        assert (result.params["seed"], result.params["kwise"]) == (4.0, 8.0)
        assert result.route == "randomized/k=8"
        assert all(t.detail for t in result.trace)


# -- pinned randomized outputs ------------------------------------------------

RANDOMIZED_PINNED_PATH = Path(__file__).parent / "data" / "pinned_randomized_routes.json"

#: The paper's constants (Part II skipped at this size), and Part II forced.
RANDOMIZED_PARAMS = {
    "paper": PipelineParams(eps=0.5),
    "part2": PipelineParams(eps=0.5, eps2_override=0.3, f_target_override=8.0),
}


def randomized_outputs() -> dict:
    """The pinned record of the randomized route on every family at n = 60:
    the sorted dominating set's sha256, the charged rounds, the Part II
    iteration count and the trace floats.  Ledger stage names are left out:
    the pins were recorded when the route ran its own Part I-III loop,
    whose ledger lacked ``run_pipeline``'s ``part2/iterK/`` and ``part3/``
    prefixes."""
    out = {}
    for family in families():
        graph = suite_instance(family, 60, seed=1).graph
        for seed in (0, 1):
            for kwise in (None, 8):
                for constants, params in RANDOMIZED_PARAMS.items():
                    result = approx_mds_randomized(graph, seed=seed, kwise=kwise, params=params)
                    chosen = json.dumps(sorted(result.dominating_set)).encode()
                    out[f"{family}/60/seed={seed}/kwise={kwise}/{constants}"] = {
                        "sha256": hashlib.sha256(chosen).hexdigest(),
                        "charged_rounds": result.ledger.charged_rounds,
                        "part2_iterations": result.params["part2_iterations"],
                        "trace": [x for t in result.trace for x in (t.size, t.fractionality)],
                    }
    return out


def test_randomized_route_repeats_pinned_outputs():
    """The coin-flipping steps on ``run_pipeline`` give what the route's
    own Part I-III loop gave, case for case."""
    pinned = json.loads(RANDOMIZED_PINNED_PATH.read_text())
    got = randomized_outputs()
    assert got.keys() == pinned.keys()
    for key, want in pinned.items():
        assert got[key] == want, key
