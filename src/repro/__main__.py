"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mds``     run a dominating-set algorithm on a generated graph
``cds``     run the Theorem 1.4 connected-dominating-set pipeline
``suite``   list the benchmark suite instances
``bench``   run one experiment (E1..E12) and print its table
``grid``    run a (graph x program x engine x seed) batch grid across workers
``serve``   run the always-on JSON-lines simulation service
``submit``  submit a grid to a running service as one tenant

``mds``, ``cds``, ``bench`` and ``grid`` accept ``--engine`` to pick the
simulation engine (``fast`` flat-array default, ``reference`` baseline,
``vector`` numpy message plane); ``grid`` additionally takes ``--jobs``
for shared-memory multiprocessing workers, ``--seeds`` for seed-ensemble
sweeps (``--seeds 0..9`` expands the inclusive range, ``--seeds 0,1,2``
the explicit list), ``--strategy batch`` to execute sweeps as stacked
multi-instance message planes — mixed ``--sizes`` stack too, as one
*ragged* plane (``--batch-size`` caps the stack width, ``auto``
negotiates per program) — and ``--stream`` to print each record
as a JSON line the moment it finishes: inside a stacked group, each
record surfaces at its instance's termination — also across ``--jobs``
workers, where records cross the pool boundary one at a time — so early
finishers of a ragged group print while larger siblings still run
(``--quick`` runs a small self-contained mixed-size batched smoke
grid; ``--no-report`` suppresses the buffered report after ``--stream``
so service-style consumers get pure record lines).  ``--certify
[MODE]`` routes every eligible record through the
certification oracle (:mod:`repro.oracle`): the record gains a
``quality`` block with the certified optimum bound and measured
approximation ratios (bare ``--certify`` means ``--certify auto``, the
exact → ILP → LP bound ladder).  The ``grid`` command is a thin shell
over :class:`repro.api.Experiment`; its ``--programs`` axis accepts
every registered program, including ``lemma310``, ``rounding-exec``,
``tree-sum`` and the ``cds`` composite.

``serve`` starts the multi-tenant simulation service
(:mod:`repro.service`): concurrent tenants' cells coalesce into ragged
stacked planes per batch window, backed by the two-tier deterministic
cache; ``--port 0`` binds an OS-assigned port and announces it on
stdout.  ``submit`` is the matching one-shot tenant: it sends a grid
(same axis flags as ``grid``) to a running service and prints each
record as a JSON line the moment the service streams it back.

Examples
--------
    python -m repro mds --family geometric -n 120 --algorithm coloring
    python -m repro cds --family gnp -n 80 --eps 0.5
    python -m repro bench E7 --engine reference
    python -m repro grid --families gnp,tree --sizes 80,160 --jobs 4
    python -m repro grid --families gnp --sizes 60 --programs greedy \
        --engines vector --seeds 0,1,2,3,4,5,6,7 --strategy batch
    python -m repro grid --quick --strategy batch
    python -m repro grid --quick --stream
    python -m repro grid --families gnp --sizes 40 --programs greedy \
        --engines vector --seeds 0..4 --certify
    python -m repro serve --port 7464 --window 0.05
    python -m repro submit --port 7464 --families gnp --sizes 40,60 \
        --programs greedy --engines vector --seeds 0..4
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.bounds import theorem11_approximation_bound
from repro.baselines.greedy import greedy_mds
from repro.cds.pipeline import approx_cds
from repro.congest.engine import available_engines, set_default_engine
from repro.fractional.lp import lp_fractional_mds
from repro.graphs.suite import families, suite_instance
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.mds.local_model import approx_mds_local
from repro.mds.randomized import approx_mds_randomized

_MDS_ALGORITHMS = {
    "coloring": approx_mds_coloring,
    "decomposition": approx_mds_decomposition,
    "local": approx_mds_local,
}


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="gnp", choices=families())
    parser.add_argument("-n", type=int, default=100, help="graph size")
    parser.add_argument("--seed", type=int, default=0)


def _build_graph(args):
    return suite_instance(args.family, args.n, seed=args.seed).graph


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        help="simulation engine for simulated primitives "
        "(default: fast; vector = numpy message plane)",
    )


def _apply_engine(args) -> None:
    if getattr(args, "engine", None):
        set_default_engine(args.engine)


def cmd_mds(args) -> int:
    _apply_engine(args)
    graph = _build_graph(args)
    delta = max((d for _, d in graph.degree()), default=0)
    if args.algorithm == "randomized":
        result = approx_mds_randomized(graph, eps=args.eps, seed=args.seed)
    else:
        result = _MDS_ALGORITHMS[args.algorithm](graph, eps=args.eps)
    lp = lp_fractional_mds(graph)
    payload = {
        "algorithm": args.algorithm,
        "family": args.family,
        "n": graph.number_of_nodes(),
        "delta": delta,
        "size": result.size,
        "lp_optimum": round(lp.optimum, 4),
        "ratio_vs_lp": round(result.size / max(lp.optimum, 1e-9), 4),
        "bound": round(theorem11_approximation_bound(args.eps, delta), 4),
        "greedy": len(greedy_mds(graph)),
        "rounds_simulated": result.ledger.simulated_rounds,
        "rounds_charged": result.ledger.charged_rounds,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:<18s} {value}")
        if args.verbose:
            print("\nstage ledger:")
            print(result.ledger.summary())
    return 0


def cmd_cds(args) -> int:
    _apply_engine(args)
    graph = _build_graph(args)
    result = approx_cds(graph, eps=args.eps)
    payload = {
        "family": args.family,
        "n": graph.number_of_nodes(),
        "mds_size": len(result.dominating_set),
        "cds_size": result.size,
        "overhead": round(result.overhead, 4),
        "route": result.route,
        **{k: v for k, v in sorted(result.stats.items())},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:<24s} {value}")
    return 0


def cmd_suite(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'name':<20s} {'n':>6s} {'m':>7s} {'Delta':>6s}")
    for family in families():
        for n in sizes:
            inst = suite_instance(family, n, seed=args.seed)
            print(
                f"{inst.name:<20s} {inst.n:>6d} "
                f"{inst.graph.number_of_edges():>7d} {inst.max_degree:>6d}"
            )
    return 0


def cmd_bench(args) -> int:
    import importlib

    _apply_engine(args)
    registry = {
        "E1": "e01_theorem11", "E2": "e02_theorem12", "E3": "e03_fractional",
        "E4": "e04_uncovered", "E5": "e05_factor_two", "E6": "e06_cds",
        "E7": "e07_baselines", "E8": "e08_spanner", "E9": "e09_decomposition",
        "E10": "e10_congest", "E11": "e11_setcover", "E12": "e12_ablation",
    }
    key = args.experiment.upper()
    if key not in registry:
        print(f"unknown experiment {args.experiment!r}; choose from "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{registry[key]}")
    report = module.run(fast=not args.full)
    print(report.render())
    return 0 if report.all_checks_pass else 1


def _int_axis(flag: str, spec: str, allow_range: bool = False) -> list:
    """Parse an integer axis: a comma list (``0,1,2``; empty entries are
    skipped) or, with ``allow_range``, an inclusive range (``0..9``).

    An unparsable or empty axis raises ``ValueError`` naming ``flag``.
    """
    spec = spec.strip()
    try:
        if allow_range and ".." in spec:
            lo, hi = spec.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        form = "a comma list or an a..b range" if allow_range else "a comma list"
        raise ValueError(f"{flag} {spec!r}: expected {form} of integers") from None
    if not values:
        raise ValueError(f"{flag} {spec!r} selects nothing")
    return values


def _grid_axes(args) -> tuple:
    """``(families, sizes, programs, engines, seeds)`` of ``grid``/``submit``.

    Raises ``ValueError`` on an unparsable or empty ``--sizes``/``--seeds``.
    """
    from repro.api import available_programs

    families_list = [f for f in args.families.split(",") if f]
    sizes = _int_axis("--sizes", args.sizes)
    programs = (
        [p for p in args.programs.split(",") if p]
        if args.programs
        else available_programs()
    )
    engines = [e for e in args.engines.split(",") if e]
    seeds = (
        _int_axis("--seeds", args.seeds, allow_range=True)
        if args.seeds
        else [args.seed]
    )
    return families_list, sizes, programs, engines, seeds


def cmd_grid(args) -> int:
    import json as _json

    from repro.api import Experiment, batchable_programs
    from repro.errors import ReproError
    from repro.experiments.harness import engine_grid_report

    if args.no_report and not args.stream:
        print("error: --no-report requires --stream", file=sys.stderr)
        return 2
    if args.quick:
        # A small self-contained smoke grid exercising the batched path:
        # two families, *mixed* sizes (so `--strategy batch` stacks a
        # ragged plane), the stackable programs, a seed ensemble.
        families_list = ["gnp", "tree"]
        sizes = [40, 60]
        programs = batchable_programs()
        engines = ["vector"]
        seeds = list(range(5))
    else:
        try:
            families_list, sizes, programs, engines, seeds = _grid_axes(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    experiment = (
        Experiment(*programs)
        .on(*families_list)
        .sizes(*sizes)
        .engines(*engines)
        .seeds(seeds)
        .strategy(args.strategy)
        .batch_size(args.batch_size)
        .jobs(args.jobs)
    )
    if args.certify is not None:
        experiment.certify(args.certify)
    try:
        if args.stream:
            # Emit one JSON line per record the moment its dispatch unit
            # finishes, then restore deterministic cell order for the report.
            records = []
            for record in experiment.stream():
                print(_json.dumps(record.to_dict()), flush=True)
                records.append(record)
            if args.no_report:
                # Pure record lines for pipeline/service-style consumers:
                # no buffered report, exit code from the records alone.
                return 0 if all(rec.ok for rec in records) else 1
            sweep = experiment.collect(records)
        else:
            sweep = experiment.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = engine_grid_report(sweep.to_dicts())
    if args.json_out:
        # sweep.meta already records the *resolved* strategy (what actually
        # ran — "auto" never reaches the artifact).
        sweep.write(args.json_out)
        print(f"wrote {args.json_out}")
    print(report.render())
    return 0 if report.all_checks_pass else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, run_server

    config = ServiceConfig(
        window_s=args.window,
        max_window_width=args.max_window_width,
        batch_size=args.batch_size,
        max_pending_per_client=args.max_pending,
        max_inflight_per_client=args.max_inflight,
        oracle_cache_path=args.oracle_cache or None,
    )
    try:
        asyncio.run(run_server(host=args.host, port=args.port, config=config))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args) -> int:
    import json as _json

    from repro.errors import ReproError
    from repro.experiments.runner import GridCell
    from repro.service.client import ServiceClient

    try:
        families_list, sizes, programs, engines, seeds = _grid_axes(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells = [
        GridCell(family=f, n=n, program=p, engine=e, seed=s)
        for f in families_list
        for n in sizes
        for p in programs
        for e in engines
        for s in seeds
    ]
    ok = True
    try:
        with ServiceClient(
            host=args.host, port=args.port, client=args.client, timeout=args.timeout
        ) as client:
            records = [None] * len(cells)
            for index, record, meta in client.stream(
                cells, use_cache=not args.no_cache, certify=args.certify
            ):
                line = dict(record)
                if args.meta:
                    line["service"] = meta
                print(_json.dumps(line), flush=True)
                records[index] = record
            ok = all(rec is not None and rec.get("ok") for rec in records)
            if args.stats:
                print(_json.dumps({"stats": client.stats()}), flush=True)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mds = sub.add_parser("mds", help="approximate minimum dominating set")
    _add_graph_args(p_mds)
    p_mds.add_argument(
        "--algorithm",
        default="coloring",
        choices=sorted(_MDS_ALGORITHMS) + ["randomized"],
    )
    p_mds.add_argument("--eps", type=float, default=0.5)
    p_mds.add_argument("--json", action="store_true")
    p_mds.add_argument("--verbose", action="store_true")
    _add_engine_arg(p_mds)
    p_mds.set_defaults(func=cmd_mds)

    p_cds = sub.add_parser("cds", help="approximate connected dominating set")
    _add_graph_args(p_cds)
    p_cds.add_argument("--eps", type=float, default=0.5)
    p_cds.add_argument("--json", action="store_true")
    _add_engine_arg(p_cds)
    p_cds.set_defaults(func=cmd_cds)

    p_suite = sub.add_parser("suite", help="list benchmark suite instances")
    p_suite.add_argument("--sizes", default="60,120,240")
    p_suite.add_argument("--seed", type=int, default=7)
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser("bench", help="run one experiment (E1..E12)")
    p_bench.add_argument("experiment")
    p_bench.add_argument("--full", action="store_true")
    _add_engine_arg(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_grid = sub.add_parser(
        "grid", help="batch (graph x program x engine x seed) grid via the runner"
    )
    p_grid.add_argument("--families", default="gnp,tree")
    p_grid.add_argument("--sizes", default="60,120")
    p_grid.add_argument(
        "--programs", default="", help="comma list (default: all runner programs)"
    )
    p_grid.add_argument("--engines", default="reference,fast,vector")
    p_grid.add_argument("--seed", type=int, default=7)
    p_grid.add_argument(
        "--seeds", default="",
        help="seeds to sweep: a comma list (0,1,2) or an inclusive range "
        "(0..9); default just --seed — the axis the batch strategy stacks",
    )
    p_grid.add_argument(
        "--strategy", default="cell", choices=["cell", "batch", "auto"],
        help="cell = one simulation per cell; batch = stack vector-engine "
        "sweeps (seeds and mixed sizes alike, as one ragged multi-instance "
        "message plane); auto = negotiate per the registry (batch exactly "
        "when a stackable multi-instance sweep is present)",
    )
    p_grid.add_argument(
        "--batch-size", type=int, default=0,
        help="max instances per stacked run (0 = one stack per group)",
    )
    p_grid.add_argument(
        "--stream", action="store_true",
        help="print each record as a JSON line the moment it finishes "
        "(completion order; per instance inside stacked batch groups), "
        "then the ordered report",
    )
    p_grid.add_argument(
        "--no-report", action="store_true",
        help="with --stream: suppress the buffered report after the record "
        "lines — pure JSON-lines output for pipeline consumers; the exit "
        "code reflects record ok status",
    )
    p_grid.add_argument(
        "--certify", nargs="?", const="auto", default=None,
        choices=["auto", "exact", "ilp", "lp"],
        help="certify each eligible record against the oracle's bound "
        "ladder (exact B&B / HiGHS ILP / covering-LP lower bound); "
        "records gain a 'quality' block with the measured ratios — "
        "bare --certify means --certify auto",
    )
    p_grid.add_argument(
        "--quick", action="store_true",
        help="ignore axis flags and run the small mixed-size batched "
        "smoke grid",
    )
    p_grid.add_argument("--jobs", type=int, default=1)
    p_grid.add_argument("--json-out", default="", help="write full results JSON here")
    p_grid.set_defaults(func=cmd_grid)

    p_serve = sub.add_parser(
        "serve", help="run the always-on multi-tenant simulation service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7464,
        help="listening port (0 = OS-assigned; announced on stdout)",
    )
    p_serve.add_argument(
        "--window", type=float, default=0.05,
        help="batch-window deadline in seconds: how long a lone request "
        "waits for concurrent tenants to coalesce",
    )
    p_serve.add_argument(
        "--max-window-width", type=int, default=64,
        help="close a window at this many admitted cells",
    )
    p_serve.add_argument(
        "--batch-size", type=int, default=0,
        help="stack width cap inside one window dispatch (0 = uncapped)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=256,
        help="per-tenant pending-queue bound (backpressure: an "
        "overflowing submission is rejected whole)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-tenant cap on cells admitted to one window (fairness)",
    )
    p_serve.add_argument(
        "--oracle-cache", default="",
        help="persist the certification memo here (loaded on start, "
        "dumped on stop) — the result cache's quality twin",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a grid to a running service as one tenant"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7464)
    p_submit.add_argument("--client", default="cli", help="tenant name")
    p_submit.add_argument("--timeout", type=float, default=120.0)
    p_submit.add_argument("--families", default="gnp")
    p_submit.add_argument("--sizes", default="60")
    p_submit.add_argument(
        "--programs", default="greedy", help="comma list (default: greedy)"
    )
    p_submit.add_argument("--engines", default="vector")
    p_submit.add_argument("--seed", type=int, default=7)
    p_submit.add_argument(
        "--seeds", default="",
        help="seeds to sweep: comma list or inclusive range (0..9)",
    )
    p_submit.add_argument(
        "--no-cache", action="store_true",
        help="opt this submission out of result-cache reads "
        "(fresh execution guaranteed)",
    )
    p_submit.add_argument(
        "--certify", nargs="?", const="auto", default=None,
        choices=["auto", "exact", "ilp", "lp"],
        help="ask the service to certify each record (quality block)",
    )
    p_submit.add_argument(
        "--meta", action="store_true",
        help="embed the service's per-delivery meta (window, cache_hit, "
        "stack_width, latency_s) in each printed line",
    )
    p_submit.add_argument(
        "--stats", action="store_true",
        help="print the service stats as a final JSON line",
    )
    p_submit.set_defaults(func=cmd_submit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `| head`): not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
