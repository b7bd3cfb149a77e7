"""The repository benchmark: four workloads, end to end and layer by layer.

One workload in one process::

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 15 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The traced pass wraps each layer's
public functions from outside (:mod:`tracer`) and alternates traced with
untraced iterations, so it also reports the tracing overhead.

End-to-end times are reference seconds (:mod:`refclock`): each timed unit
(about 0.25 s of a sweep or Theorem 1.2 iteration, a whole service
iteration, one set-up probe) is scaled by the host's speed measured on the
same CPU just before and after it, so that a slow spell on a shared host
does not read as a regression.  Per-layer times are plain wall seconds.

Every workload, each in a fresh process, as a table::

    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke          # smallest inputs, one iteration
    python3 perfbench/run.py --write-baseline # also writes perfbench/baseline.json

Exits non-zero when any output check fails.  Run from the repository root;
the sources are imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"

#: Setup is measured this many times, each in a fresh interpreter.
SETUP_PROBES = 5
#: Largest tolerated gap between the traced wall and the sum of self times.
RECONCILE_TOLERANCE = 0.05

#: Every per-layer metric, and the end-to-end metric it should move.
LAYER_MAP = {
    "graphs.generate_s": "sweep wall_s/latency_p50_s, service latency_p50_s",
    "graphs.generate_calls": "sweep wall_s, service latency_p50_s",
    "network.compile_s": "sweep wall_s/latency_p50_s, service latency_p50_s",
    "sharedmem.publish_s": "service latency_p50_s",
    "sharedmem.attach_s": "service latency_p50_s",
    "engine.stacked_s": "sweep latency_p90_s/records_per_s, service latency_p50_s; "
    "no effect on thm12-*",
    "engine.instances": "sweep records_per_s, service records_per_s",
    "engine.stacked_frac": "sweep records_per_s, service latency_p50_s",
    "engine.rounds": "sweep records_per_s (exact; unchanged by perf work)",
    "engine.bits": "sweep records_per_s (exact; unchanged by perf work)",
    "api.batch_inputs_s": "sweep latency_p90_s (lemma310 records)",
    "fractional.lp_s": "thm12-lp wall_s only",
    "domsets.covering_build_s": "thm12-lp wall_s (also thm12-waterfill)",
    "fractional.waterfill_s": "thm12-waterfill wall_s only",
    "fractional.waterfill_iterations": "thm12-waterfill wall_s",
    "fractional.repair_s": "thm12-* wall_s",
    "coloring.distance2_s": "thm12-* wall_s, sweep latency_p90_s (lemma310)",
    "coloring.colors": "thm12-* wall_s (rounds of the Lemma 3.10 loop)",
    "derand.cond_exp_s": "thm12-* wall_s",
    "analysis.verify_s": "thm12-* wall_s",
    "mds.rounds_simulated": "none: the paper's round measure, must not change",
    "mds.rounds_charged": "none: the paper's round measure, must not change",
    "service.windows": "service latency_p50_s",
    "service.coalesced_windows": "service records_per_s",
    "service.stack_width_mean": "service records_per_s",
    "service.dedupe_factor": "service records_per_s",
    "service.result_cache_hit_frac": "service records_per_s",
    "service.topology_cache_hit_frac": "service latency_p50_s",
    "service.hit_latency_p50_s": "service wall_s (hits wait out the window deadline)",
    "runner.unaccounted_s": "traced wall minus every layer's self time",
    "runner.traced_wall_s": "traced iteration wall (median)",
    "trace.overhead_frac": "traced wall over untraced wall, minus 1",
    "trace.reconcile_frac": "(self times + unaccounted) over traced wall",
}

#: Per-iteration counters the wrappers keep (reported as per-iteration means).
COUNTERS = ("engine.instances", "coloring.colors", "fractional.waterfill_iterations")


def _pin_to_one_cpu() -> None:
    """Keep this process, and the ones it starts, on the CPU the clock probes."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _cap_threads() -> None:
    """Keep BLAS/OpenMP pools at or below the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def setup(workload: str) -> None:
    """What a user pays before the first iteration: imports, registry, service."""
    _import_repro()
    from repro.api.registry import available_programs

    available_programs()
    if workload.startswith("thm12"):
        import repro.mds.deterministic  # noqa: F401
        import scipy.optimize  # noqa: F401
    if workload == "service":
        from repro.service import SimulationService

        SimulationService().start().stop()


def _setup_seconds(workload: str, probes: int, clock) -> float:
    """Median set-up time over ``probes`` fresh interpreters, in reference seconds."""
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) * clock.factor())
    return statistics.median(samples)


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import refclock
    import tracer as tracing
    import workloads

    spec = _spec()
    bench = workloads.make(name, seed, smoke)
    attempted, failures = bench.prepare()
    tr = tracing.Tracer() if trace else None
    uninstall = tracing.install(tr) if trace else None
    clock = refclock.ReferenceClock()
    walls, p50s, p90s, untraced, traced, layer_rows = [], [], [], [], [], []
    per_iteration = 0
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            if trace and len(traced) < len(untraced):
                with tr.iteration():
                    begin = time.perf_counter()
                    it = bench.iterate()
                    traced.append(time.perf_counter() - begin)
                layer_rows.append(bench.layer_values(it))
            else:
                it = bench.iterate(clock)
                walls.append(it.wall_s)
                untraced.append(it.raw_s)
                p50s.append(statistics.median(it.latencies))
                p90s.append(_p90(it.latencies))
                per_iteration = len(it.outputs)
            checked, bad = bench.check(it)
            attempted += checked
            failures += bad
            # Stop before an iteration that would likely end past the budget,
            # once two untraced (and one traced) iterations give a median.
            spent = time.perf_counter() - start
            done = len(walls) + len(traced)
            if len(walls) >= (1 if smoke else 2) and (traced or not trace):
                if smoke or spent + spent / done > seconds:
                    break
    finally:
        if uninstall is not None:
            uninstall()

    if trace:
        values = _layer_values(tr, traced, untraced, layer_rows)
        drift = abs(values["trace.reconcile_frac"] - 1.0)
        if drift > RECONCILE_TOLERANCE:
            failures.append(f"layer self times miss the traced wall by {drift:.1%}")
    failed = min(len(failures), attempted)
    if trace:
        declared, known = spec["per_layer"], set(LAYER_MAP)
    else:
        values = {
            "setup_s": _setup_seconds(name, 1 if smoke else SETUP_PROBES, clock),
            "wall_s": statistics.median(walls),
            "records_per_s": per_iteration / statistics.median(walls),
            "latency_p50_s": statistics.median(p50s),
            "latency_p90_s": statistics.median(p90s),
            "approx_ratio": bench.approx_ratio,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared, known = spec["end_to_end"], set(values)
    stray = ({m["name"] for m in declared} ^ known) | (set(values) - known)
    if stray:
        raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(stray)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    for message in failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _layer_values(tr, traced, untraced, layer_rows) -> dict:
    """Per-iteration means of every traced figure."""
    count = len(traced)
    values = {f"{layer}_s": total / count for layer, total in tr.self_s.items()}
    values["graphs.generate_calls"] = tr.calls.get("graphs.generate", 0) / count
    for name in COUNTERS:
        values[name] = tr.counts.get(name, 0.0) / count
    for key in layer_rows[0]:
        values[key] = statistics.fmean(row[key] for row in layer_rows)
    values["runner.traced_wall_s"] = statistics.median(traced)
    values["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    values["trace.reconcile_frac"] = tr.accounted_s() / sum(traced)
    return values


def _stop_resource_tracker() -> None:
    """Stop the helper process shared memory starts, and wait for it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_one(args) -> int:
    _import_repro()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    _stop_resource_tracker()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload: str, args, trace: int) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit_code": done.returncode}
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def environment() -> dict:
    import networkx
    import numpy
    import scipy
    from refclock import ReferenceClock

    return {
        "reference_kernel_s": ReferenceClock().probe(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy_highs": scipy.__version__,
        "networkx": networkx.__version__,
    }


def run_all(args) -> int:
    """Every workload in a fresh process; prints a table, checks units."""
    import workloads

    spec = _spec()
    ok = True
    report = {}
    for workload in workloads.WORKLOADS:
        report[workload] = {}
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            result = _child(workload, args, trace)
            report[workload][kind] = result["metrics"]
            good = result["correct"] and result["exit_code"] == 0
            for declared in spec[kind]:
                got = result["metrics"].get(declared["name"])
                if got is None or got.get("unit") != declared["unit"]:
                    print(f"{workload}: {declared['name']} missing or mis-unit")
                    good = False
            ok = ok and good
            print(f"== {workload} ({kind}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if args.write_baseline:
        _import_repro()
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        baseline = {
            "environment": environment(),
            "seed": args.seed,
            "run_seconds": args.seconds,
            "layer_map": LAYER_MAP,
            "workloads": {
                name: dict(report[name], why=why.get(name, "")) for name in report
            },
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    _pin_to_one_cpu()
    _cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, one iteration")
    parser.add_argument("--write-baseline", action="store_true",
                        help="table mode: record perfbench/baseline.json")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.setup_probe)
        print(time.perf_counter() - _T0)
        return 0
    if not SPEC_PATH.is_file():
        raise SystemExit(f"perfbench: {SPEC_PATH} not found")
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    sys.path.insert(0, str(HERE))
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
