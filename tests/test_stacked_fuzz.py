"""Randomized stacked-vs-solo parity fuzzer over every stackable kernel.

The hand-written parity suites (``test_batched_engine.py``) pin the
contract on curated fixtures; this fuzzer draws *seeded* random instance
groups — mixed graph families, mixed sizes, mixed generator seeds, mixed
per-instance round limits — across ALL kernels the registry reports as
stackable and asserts the absolute contract on each draw: a K-instance
stacked run reproduces the K solo ``fast``-engine runs **field for
field** — rounds, outputs, message/bit totals, per-round series,
``max_message_bits``, ``all_halted``.  The reference is ``fast``, not
solo ``vector``, because a solo ``vector`` run is the same round loop on
a one-instance plane; ``test_engine_parity.py`` pins ``fast`` to the
``reference`` engine.

For lemma310 the draws additionally perturb a coin-flip's worth of
instances away from the canonical uniform inputs (``x != p`` on a third
of their nodes), so both routes stay fuzzed: canonical instances run
their color-class rounds *in-plane* from round 1, and a draw with a
perturbed instance must raise :class:`BatchEligibilityError` as a group,
after which its canonical instances are stacked on their own.

Every draw is a deterministic function of ``(program, fuzz_seed)``, so a
failure reproduces from the parametrized id alone.
"""

from __future__ import annotations

import random

import pytest

from repro.api.registry import batchable_programs, program_spec
from repro.congest.engine import iter_stacked, kernel_for, run_stacked
from repro.congest.network import Network
from repro.congest.simulator import Simulator
from repro.errors import BatchEligibilityError
from repro.graphs.suite import suite_instance

#: Graph families whose generators honor the requested n exactly.
FAMILIES = ("gnp", "gnp-dense", "tree", "geometric", "ba")

#: Per-draw group shape: how many instances, and the size band.  Small
#: sizes keep the fuzz matrix fast while still mixing takeover rounds
#: (lemma310 colorings differ across families and densities).
MIN_INSTANCES, MAX_INSTANCES = 2, 5
MIN_N, MAX_N = 8, 48

FUZZ_SEEDS = range(4)

_FIELDS = (
    "rounds",
    "outputs",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "messages_per_round",
    "bits_per_round",
    "all_halted",
)


def _draw_group(program: str, fuzz_seed: int):
    """One deterministic random instance group plus its run recipe."""
    rng = random.Random(f"stacked-fuzz/{program}/{fuzz_seed}")
    spec = program_spec(program)
    count = rng.randint(MIN_INSTANCES, MAX_INSTANCES)
    networks = []
    for _ in range(count):
        family = rng.choice(FAMILIES)
        n = rng.randint(MIN_N, MAX_N)
        seed = rng.randint(0, 10**6)
        networks.append(
            Network.congest(suite_instance(family, n, seed=seed).graph)
        )
    inputs = (
        [dict(box) for box in spec.batch_inputs(networks)]
        if spec.batch_inputs is not None
        else None
    )
    if program == "lemma310":
        # Perturb ~half the instances off the canonical uniform inputs:
        # either ``x != p`` on a third of the nodes, or (rarer) ``x == p``
        # per node but varying across nodes — both fail the kernel's
        # canonical gate (the second only via its cross-node uniformity
        # clause), so the fuzzer keeps covering accepted, declined and
        # mixed groups.
        from repro.util.transmittable import TransmittableGrid

        for k, net in enumerate(networks):
            draw = rng.random()
            if draw < 0.5:
                quarter = TransmittableGrid.for_n(net.n).to_int(0.25)
                patch = (
                    {"x_num": quarter}
                    if draw < 0.35
                    else {"x_num": quarter, "p_num": quarter}
                )
                inputs[k] = {
                    v: (dict(box, **patch) if v % 3 == 0 else box)
                    for v, box in inputs[k].items()
                }
    limits = [int(spec.batch_max_rounds(net)) for net in networks]
    return networks, inputs, limits


def _stackable(program: str, networks, inputs, limits):
    """The draw's instances the kernel accepts, after checking that a
    group with a declined instance raises as a whole and that each
    declined instance's solo ``vector`` run equals its ``fast`` run."""
    spec = program_spec(program)
    kernel_cls = kernel_for(spec.batch_factory)
    boxes = inputs or [None] * len(networks)
    keep = [
        k
        for k, (net, box) in enumerate(zip(networks, boxes))
        if kernel_cls.eligible(net, box or {})
    ]
    if len(keep) < len(networks):
        with pytest.raises(BatchEligibilityError, match="declined"):
            run_stacked(
                networks, spec.batch_factory, inputs=inputs, max_rounds=limits
            )
        for k in sorted(set(range(len(networks))) - set(keep)):
            runs = [
                Simulator(
                    networks[k], spec.batch_factory, inputs=boxes[k], engine=engine
                ).run(max_rounds=limits[k])
                for engine in ("fast", "vector")
            ]
            assert runs[0] == runs[1], (program, k)
    return (
        [networks[k] for k in keep],
        [inputs[k] for k in keep] if inputs else None,
        [limits[k] for k in keep],
    )


def _solo_runs(program: str, networks, inputs, limits):
    spec = program_spec(program)
    return [
        Simulator(
            net,
            spec.batch_factory,
            inputs=(inputs[k] if inputs else {}),
            engine="fast",
        ).run(max_rounds=limits[k])
        for k, net in enumerate(networks)
    ]


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
@pytest.mark.parametrize("program", batchable_programs())
def test_fuzz_stacked_parity_field_for_field(program, fuzz_seed):
    """Random mixed-size/mixed-seed groups: stacked == solo, every field."""
    networks, inputs, limits = _stackable(program, *_draw_group(program, fuzz_seed))
    if not networks:
        return
    spec = program_spec(program)
    solo = _solo_runs(program, networks, inputs, limits)
    stacked = run_stacked(
        networks, spec.batch_factory, inputs=inputs, max_rounds=limits
    )
    for k, (a, b) in enumerate(zip(solo, stacked)):
        for field in _FIELDS:
            assert getattr(a, field) == getattr(b, field), (
                program,
                fuzz_seed,
                k,
                field,
            )
        assert a == b, (program, fuzz_seed, k)


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
@pytest.mark.parametrize("program", batchable_programs())
def test_fuzz_iter_stacked_yield_order_and_parity(program, fuzz_seed):
    """Streaming draws: per-instance results surface the moment each
    instance terminates, in non-decreasing completion order, and match
    the solo runs exactly."""
    networks, inputs, limits = _stackable(program, *_draw_group(program, fuzz_seed))
    if not networks:
        return
    spec = program_spec(program)
    solo = _solo_runs(program, networks, inputs, limits)
    collected = {}
    yielded_rounds = []
    for k, result in iter_stacked(
        networks, spec.batch_factory, inputs=inputs, max_rounds=limits
    ):
        assert k not in collected, "an instance must yield exactly once"
        collected[k] = result
        yielded_rounds.append(result.rounds)
    assert sorted(collected) == list(range(len(networks)))
    # Completion order: yield ticks are monotone and an instance's counted
    # rounds never exceed its yield tick, so the stream can never surface
    # a slower instance before a faster one.
    assert yielded_rounds == sorted(yielded_rounds), (program, fuzz_seed)
    assert [collected[k] for k in range(len(networks))] == solo


def test_fuzz_covers_lemma310_and_mixed_takeovers():
    """The fuzz matrix actually exercises every lemma310 route: canonical
    instances that take over at round 1, perturbed ones the gate
    declines, and at least one draw mixing both, which must decline as a
    group while its canonical instances still stack."""
    from repro.congest.programs.lemma310 import Lemma310Program

    assert "lemma310" in batchable_programs()
    kernel_cls = kernel_for(Lemma310Program)
    saw_accepted = saw_declined = mixed = False
    for fuzz_seed in FUZZ_SEEDS:
        networks, inputs, _ = _draw_group("lemma310", fuzz_seed)
        accepted = {
            kernel_cls.eligible(net, box) for net, box in zip(networks, inputs)
        }
        saw_accepted = saw_accepted or True in accepted
        saw_declined = saw_declined or False in accepted
        mixed = mixed or len(accepted) > 1
    assert saw_accepted, "no fuzz draw ran the in-plane round-1 route"
    assert saw_declined, "no fuzz draw had an instance the gate declines"
    assert mixed, "no fuzz draw mixed accepted and declined instances"
