"""CI smoke gate: records of a pooled grid stream *individually*.

Runs ``python -m repro grid ... --stream`` as a subprocess, timestamps
every JSON record line **on arrival at the reader** (the only vantage
point that can tell per-record streaming from a worker buffering its
group and flushing one burst at unit end), and asserts that each
multi-record dispatch group produced spread-out arrivals:

* every line parses as one record, and the record set is complete;
* for each (family, program, engine) batch group with k >= 2 records,
  the arrival timestamps are (mostly) pairwise distinct at
  0.1 ms resolution — a group-at-a-time flush lands all k lines in the
  same read burst with near-identical timestamps and fails the gate.

Two arrivals can legitimately coincide: instances of the same size often
terminate in the *same stacked round* (one mask flip services several),
and timing noise on shared CI runners collapses close pairs.  So the
probe grid is deliberately **ragged** — mixed sizes in one fixed-width
plane, so terminations spread across rounds — the distinctness
requirement is ``max(2, ceil(frac * k))`` per group (``--min-frac``,
default 0.5; a group-at-a-time flush produces only one or two distinct
stamps per unit, far below it), and the whole probe retries
(``--retries``, default 3) before declaring failure.

Usage (the CI invocation)::

    python scripts/check_stream_arrivals.py -- \
        python -m repro grid --families gnp --sizes 200,400,800 \
        --programs greedy --engines vector --seeds 0..9 \
        --strategy batch --batch-size 15 --jobs 2 --stream --no-report

(``--no-report`` keeps stdout to pure record lines — machine consumers
like this gate need no trailing table, and the exit code still reflects
per-record success.)

Everything after ``--`` is the grid command; without it the gate runs
the default command above.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time

DEFAULT_COMMAND = [
    sys.executable,
    "-m",
    "repro",
    "grid",
    "--families", "gnp",
    "--sizes", "200,400,800",
    "--programs", "greedy",
    "--engines", "vector",
    "--seeds", "0..9",
    "--strategy", "batch",
    "--batch-size", "15",
    "--jobs", "2",
    "--stream",
    "--no-report",
]

#: Two arrivals closer than this are considered one burst (seconds).
RESOLUTION_S = 1e-4


def collect_arrivals(command: list) -> list:
    """Run the grid command, returning ``(record, arrival_s)`` pairs.

    Arrival times are measured here, reader-side, when each line becomes
    available on the pipe — not from anything the producer reports.
    """
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        bufsize=1,  # line-buffered reads: a line surfaces as it lands
    )
    arrivals = []
    start = time.perf_counter()
    assert proc.stdout is not None
    for line in proc.stdout:
        stamp = time.perf_counter() - start
        line = line.strip()
        if not line.startswith("{"):
            continue  # the trailing report table, not a record line
        arrivals.append((json.loads(line), stamp))
    proc.wait()
    if proc.returncode != 0:
        stderr = proc.stderr.read() if proc.stderr else ""
        raise RuntimeError(
            f"grid command exited {proc.returncode}:\n{stderr.strip()}"
        )
    return arrivals


def group_key(record: dict) -> object:
    """The streaming group a record belongs to: its batch group key."""
    cell = record["cell"]
    return ("group", cell["family"], cell["program"], cell["engine"])


def distinct_arrivals(stamps: list) -> int:
    """Number of arrival timestamps separated by more than the resolution."""
    distinct = 0
    last = None
    for stamp in sorted(stamps):
        if last is None or stamp - last > RESOLUTION_S:
            distinct += 1
        last = stamp
    return distinct


def check_once(command: list, min_frac: float) -> list:
    """One probe run; returns a list of failure messages (empty = pass)."""
    arrivals = collect_arrivals(command)
    failures = []
    if not arrivals:
        return ["no record lines arrived on stdout"]
    bad = [rec["key"] for rec, _ in arrivals if not rec.get("ok")]
    if bad:
        failures.append(f"failed records: {bad}")
    groups: dict = {}
    for record, stamp in arrivals:
        groups.setdefault(group_key(record), []).append(stamp)
    multi = {key: stamps for key, stamps in groups.items() if len(stamps) >= 2}
    if not multi:
        failures.append(
            "no multi-record group in the stream — the gate needs a "
            "stacked sweep to probe (check the grid axes)"
        )
    for key, stamps in sorted(multi.items(), key=str):
        k = len(stamps)
        need = max(2, math.ceil(min_frac * k))
        got = distinct_arrivals(stamps)
        status = "ok" if got >= need else "BURST"
        print(
            f"  group {key}: {k} records, {got} distinct arrivals "
            f"(need >= {need}) [{status}]"
        )
        if got < need:
            failures.append(
                f"group {key}: {k} records arrived with only {got} distinct "
                f"timestamps (>= {need} required) — looks like a "
                "group-at-a-time burst, not per-record streaming"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-frac",
        type=float,
        default=0.5,
        help="fraction of a group's records that must have distinct "
        "arrival timestamps (floor 2)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="probe attempts before the gate fails (absorbs CI timing noise)",
    )
    parser.add_argument(
        "command",
        nargs="*",
        help="grid command to probe (after --); default: the pooled "
        "streaming smoke grid",
    )
    args = parser.parse_args()
    command = args.command or DEFAULT_COMMAND

    failures = []
    for attempt in range(1, args.retries + 1):
        print(f"attempt {attempt}/{args.retries}: {' '.join(command)}")
        failures = check_once(command, args.min_frac)
        if not failures:
            print("stream-arrival gate: PASS (records streamed individually)")
            return 0
        for failure in failures:
            print(f"  {failure}")
    print("stream-arrival gate: FAIL", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
