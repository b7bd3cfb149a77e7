"""Differential fuzz of lemma310's canonical gate, the one plane-or-fast switch.

Every lemma310 run on the ``vector`` engine takes one of two routes, and
:meth:`Lemma310ExecutionKernel.eligible` alone picks it: canonical uniform
inputs run the whole protocol on the message plane from round 1; any other
input runs on ``fast`` (solo) or makes its stacked group raise
:class:`BatchEligibilityError` (the batch runner then reruns the cells one
by one).  Hypothesis draws groups of one to three suite graphs of one
family with the registered spec's canonical inputs, each perturbed or not:
``x != p`` at a node, ``x == p`` varying across nodes, ``c != 1``, another
estimator mode or grid, an uncolored node (all declined), a recolored node
(in range, so accepted, but possibly no longer distance-2), an extra empty
color class or another shared ``x = p`` (both accepted).  The properties:

* the stacked boot accepts a group exactly when ``eligible`` accepts every
  instance;
* accepted: solo and stacked ``vector`` runs equal ``fast`` on every
  result field, or raise the same error;
* declined: the solo ``vector`` run equals ``fast``, the group raises
  :class:`BatchEligibilityError`, and the runner's ``strategy="batch"``
  records equal its ``strategy="cell"`` records.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.registry import _REGISTRY, program_spec, register_program
from repro.congest.engine import kernel_for, run_stacked
from repro.congest.network import Network
from repro.congest.programs.lemma310 import Lemma310Program
from repro.congest.simulator import Simulator
from repro.errors import BatchEligibilityError, CongestError
from repro.experiments.harness import comparable_records
from repro.experiments.runner import GridCell, build_network, run_grid

KERNEL = kernel_for(Lemma310Program)
SPEC = program_spec("lemma310")

#: A spec registered per draw whose inputs carry the draw's perturbations,
#: so the runner's two strategies see them.
PERTURBED = "lemma310-gate-fuzz"

FAMILIES = ("gnp", "gnp-dense", "tree", "geometric", "ba")

#: Perturbations and whether the gate should still accept them.
KINDS = {
    "canonical": True,
    "recolor": True,
    "extra_class": True,
    "shared_quarter": True,
    "x_not_p": False,
    "nonuniform_x": False,
    "c_not_one": False,
    "mode": False,
    "iota": False,
    "uncolored": False,
}


def _perturb(inputs, kind: str, pick: int):
    """The canonical inputs with one perturbation, applied at node
    ``pick mod n`` where it is local."""
    boxes = {v: dict(box) for v, box in inputs.items()}
    box = boxes[pick % len(boxes)]
    quarter = (1 << box["iota"]) // 4
    if kind == "recolor":
        box["color"] = (box["color"] + 1) % box["num_colors"]
    elif kind == "extra_class":
        for spec in boxes.values():
            spec["num_colors"] += 1
    elif kind == "shared_quarter":
        for spec in boxes.values():
            spec["x_num"] = spec["p_num"] = quarter
    elif kind == "x_not_p":
        box["x_num"] = quarter
    elif kind == "nonuniform_x":
        box["x_num"] = box["p_num"] = quarter
    elif kind == "c_not_one":
        box["c_num"] -= quarter
    elif kind == "mode":
        box["mode"] = "chernoff"
    elif kind == "iota":
        box["iota"] += 1
    elif kind == "uncolored":
        box["color"] = -1
    return boxes


def _outcome(run):
    """A run's result, or the raised error's type and message."""
    try:
        return run()
    except CongestError as exc:
        return (type(exc), str(exc))


@st.composite
def groups(draw):
    family = draw(st.sampled_from(FAMILIES))
    sizes = draw(st.lists(st.integers(8, 22), min_size=1, max_size=3, unique=True))
    cells = [
        GridCell(
            family=family,
            n=n,
            program=PERTURBED,
            engine="vector",
            seed=draw(st.integers(0, 40)),
        )
        for n in sizes
    ]
    # Keyed by size (unique per draw), which is all a spec's input hook
    # sees of its cell.
    perturbations = {
        n: (draw(st.sampled_from(sorted(KINDS))), draw(st.integers(0, 10**6)))
        for n in sizes
    }
    return cells, perturbations


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(groups())
def test_gate_decides_plane_or_fast(group):
    cells, perturbations = group

    def batch_inputs(networks):
        return [
            _perturb(box, *perturbations[network.n])
            for network, box in zip(networks, SPEC.batch_inputs(networks))
        ]

    def drive(network, engine):
        return Simulator(
            network, Lemma310Program, inputs=batch_inputs([network])[0], engine=engine
        ).run(max_rounds=SPEC.batch_max_rounds(network))

    networks = [build_network(cell) for cell in cells]
    inputs = batch_inputs(networks)
    limits = [SPEC.batch_max_rounds(net) for net in networks]
    accepted = [KERNEL.eligible(net, box) for net, box in zip(networks, inputs)]
    for net, ok in zip(networks, accepted):
        assert ok is KINDS[perturbations[net.n][0]], perturbations[net.n]

    fast = []
    for net, box, limit in zip(networks, inputs, limits):
        runs = {
            engine: _outcome(
                lambda: Simulator(net, Lemma310Program, inputs=box, engine=engine).run(
                    max_rounds=limit
                )
            )
            for engine in ("fast", "vector")
        }
        assert runs["vector"] == runs["fast"], perturbations[net.n]
        fast.append(runs["fast"])

    stacked = _outcome(
        lambda: run_stacked(networks, Lemma310Program, inputs=inputs, max_rounds=limits)
    )
    if not all(accepted):
        assert stacked[0] is BatchEligibilityError and "declined" in stacked[1]
    elif all(not isinstance(outcome, tuple) for outcome in fast):
        assert stacked == fast
    else:
        # The group stops at its first error, which one instance's run raises.
        assert stacked in [outcome for outcome in fast if isinstance(outcome, tuple)]

    if len(cells) < 2:
        return
    register_program(
        dataclasses.replace(
            SPEC, name=PERTURBED, drive=drive, batch_inputs=batch_inputs
        ),
        replace=True,
    )
    try:
        by_strategy = {
            strategy: comparable_records(run_grid(cells, strategy=strategy))
            for strategy in ("cell", "batch")
        }
    finally:
        _REGISTRY.pop(PERTURBED, None)
    assert by_strategy["batch"] == by_strategy["cell"]


@pytest.mark.parametrize("leaves, accepted", [(510, True), (511, False)])
def test_degree_clause(leaves, accepted):
    """Max degree + 1 must stay below the estimator's 512-update refresh;
    a declined group raises before anything runs."""
    network = Network.congest(nx.star_graph(leaves))
    (inputs,) = SPEC.batch_inputs([network])
    assert KERNEL.eligible(network, inputs) is accepted
    if not accepted:
        with pytest.raises(BatchEligibilityError, match="declined"):
            run_stacked([network], Lemma310Program, inputs=[inputs], max_rounds=1)
