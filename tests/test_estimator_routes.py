"""The seed-level route and the lemma310 node program, pinned and cross-checked.

Both routes fix coins on the pessimistic estimators of
:mod:`repro.derand.estimators`: ``SeedLevelDerandomizer`` (Lemma 3.4 at the
seed-bit level) and ``Lemma310Program`` (Lemma 3.10 as CONGEST message
passing, here on ``fast``).  ``data/pinned_estimator_routes.json`` holds what
they returned on Python 3.11 before they moved onto the engine's array
estimator; every decision, seed bit, float, round and bit count must repeat
exactly.  The inputs are closed-form values on generated graphs, with no LP
solve, so no solver version can move them.

The dense test runs the canonical lemma310 workload on a graph whose
nodes hold up to 80 equal fair coins, far past the 25 equal terms where a
compensated ``sum()`` (Python 3.12's builtin) first parts from the
left-to-right fold that the vector kernel replays.  Every engine must agree
on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.coloring.distance2 import distance2_coloring
from repro.congest.engine import run_stacked
from repro.congest.network import Network
from repro.congest.programs import lemma310
from repro.congest.programs.lemma310 import Lemma310Program, run_lemma310_on_graph
from repro.decomposition.ball_carving import carve_decomposition
from repro.derand.estimators import EstimatorConfig
from repro.derand.seed_level import SeedLevelDerandomizer
from repro.domsets.covering import CoveringInstance
from repro.graphs.generators import gnp_graph, random_tree
from repro.rounding.schemes import factor_two_scheme, one_shot_scheme
from repro.util.transmittable import TransmittableGrid

PINNED_PATH = Path(__file__).parent / "data" / "pinned_estimator_routes.json"


def _degree_values(graph) -> dict:
    """``x(v) = 1/(deg(v) + 1)``: non-uniform, and no solver involved."""
    return {v: 1.0 / (d + 1) for v, d in graph.degree()}


def _one_shot(graph):
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    delta_tilde = max(d for _, d in graph.degree()) + 1
    base = CoveringInstance.from_graph(graph, _degree_values(graph))
    return one_shot_scheme(base, delta_tilde, quantize=grid.up)


def _factor_two(graph):
    """Fair coins with success values below the demand: Chernoff rows."""
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    base = CoveringInstance.from_graph(graph, _degree_values(graph))
    return factor_two_scheme(base, eps=0.4, r=4.0, quantize=grid.up)


def _seed_level(graph, scheme, **kwargs) -> dict:
    result = SeedLevelDerandomizer(
        scheme, carve_decomposition(graph, separation_k=2), **kwargs
    ).run()
    return {
        "decisions": [[u, b] for u, b in result.decisions.items()],
        "records": [
            [r.cluster_id, r.members, r.method, r.seed_bits, r.k, r.m]
            for r in result.records
        ],
        "initial_estimate": result.initial_estimate,
        "final_estimate": result.final_estimate,
        "trajectory": result.trajectory,
    }


def _lemma310(graph, scheme, mode: str) -> dict:
    grid = TransmittableGrid.for_n(graph.number_of_nodes())
    coloring = distance2_coloring(graph, subset=set(scheme.participating()))
    _final, coins, sim = run_lemma310_on_graph(
        graph, scheme.instance.values(), scheme.p, coloring.colors,
        mode=mode, grid=grid, engine="fast",
    )
    return {
        "coins": sorted([v, c] for v, c in coins.items()),
        "values": sorted([v, x] for v, x in sim.output_map("value").items()),
        "rounds": sim.rounds,
        "total_bits": sim.total_bits,
        "max_message_bits": sim.max_message_bits,
    }


def _seed_exact_product() -> dict:
    graph = gnp_graph(26, 0.15, seed=3)
    return _seed_level(graph, _one_shot(graph), config=EstimatorConfig(mode="exact-product"))


def _seed_chernoff() -> dict:
    graph = gnp_graph(24, 0.12, seed=4)
    return _seed_level(graph, _factor_two(graph), config=EstimatorConfig(mode="chernoff"))


def _seed_no_seed_bits() -> dict:
    graph = gnp_graph(26, 0.2, seed=5)
    return _seed_level(graph, _one_shot(graph), max_seed_bits=0)


def _lemma310_chernoff() -> dict:
    graph = random_tree(30, seed=4)
    return _lemma310(graph, _factor_two(graph), "chernoff")


def _lemma310_exact_enum() -> dict:
    graph = gnp_graph(12, 0.3, seed=2)
    return _lemma310(graph, _one_shot(graph), "exact-enum")


def _lemma310_exact_product() -> dict:
    graph = gnp_graph(36, 0.12, seed=7)
    return _lemma310(graph, _one_shot(graph), "exact-product")


#: Every pinned run by name.
ROUTES = {
    "seed-level/exact-product": _seed_exact_product,
    "seed-level/chernoff": _seed_chernoff,
    "seed-level/no-seed-bits": _seed_no_seed_bits,
    "lemma310/chernoff": _lemma310_chernoff,
    "lemma310/exact-enum": _lemma310_exact_enum,
    "lemma310/exact-product": _lemma310_exact_product,
}


def route_outputs() -> dict:
    return {name: run() for name, run in ROUTES.items()}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_repeats_pinned_outputs(route):
    pinned = json.loads(PINNED_PATH.read_text())[route]
    assert json.loads(json.dumps(ROUTES[route]())) == pinned


def _summary(sim) -> tuple:
    return (
        sim.output_map("coin"), sim.output_map("value"), sim.rounds,
        sim.total_bits, sim.max_message_bits,
    )


def test_dense_lemma310_agrees_across_engines():
    network = Network.congest(gnp_graph(150, 0.4, seed=5))
    assert network.max_degree == 79
    assert lemma310.Lemma310ExecutionKernel.eligible(
        network, lemma310._batch_inputs([network])[0]
    )
    runs = {
        engine: _summary(lemma310._drive(network, engine))
        for engine in ("reference", "fast", "vector")
    }
    # A ragged group: the dense instance beside a sparse one.
    group = [network, Network.congest(gnp_graph(60, 0.1, seed=1))]
    stacked = run_stacked(
        group, Lemma310Program,
        inputs=lemma310._batch_inputs(group),
        max_rounds=[lemma310._batch_max_rounds(net) for net in group],
    )
    runs["stacked"] = _summary(stacked[0])
    assert runs["fast"] == runs["reference"]
    assert runs["vector"] == runs["fast"]
    assert runs["stacked"] == runs["fast"]
    assert _summary(stacked[1]) == _summary(lemma310._drive(group[1], "fast"))
