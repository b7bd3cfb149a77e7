"""CI smoke gate: the always-on service coalesces tenants and caches results.

Boots ``python -m repro serve --port 0`` as a subprocess (the OS assigns
the port; the gate parses it from the announce line), then drives the
real JSON-lines protocol through :class:`repro.service.ServiceClient`:

1. **Coalescing.**  Two clients connect and submit *overlapping* greedy
   sweeps at the same instant (barrier-released threads).  Both must get
   their full record sets back, field-complete and ``ok`` — and the
   server's stats must show at least one **coalesced window** (a ragged
   stacked plane that mixed both tenants' cells).
2. **Result cache.**  One client then resubmits its cells; every record
   must come back flagged ``cache_hit`` and the stats must show result
   cache hits — nothing re-simulates.
3. **Topologies prepared in the window.**  The stats frame's
   ``topology_cache`` must show each of the 8 topologies the tenants asked
   for generated exactly once (``misses``), and at least one topology hit
   per fresh execution: every execution found its topology published while
   its window waited.  With 0.25 s windows and graphs of at most 60 nodes
   (about a millisecond each to generate), this check is not timing-fragile.

The coalescing assertion is timing-dependent (both submissions must land
inside one batch window), so the whole probe retries (``--retries``,
default 3) against a fresh server before declaring failure; the window
deadline (``--window``, default 0.25 s) is generous next to the
microseconds the two submissions are apart.

Usage (the CI invocation)::

    python scripts/check_service_smoke.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import threading
import time

ANNOUNCE_PREFIX = "repro service listening on "

#: Each tenant's seeds; every seed is asked for at n = 40 and n = 60.
TENANT_SEEDS = {"tenant-a": (0, 1, 2), "tenant-b": (1, 2, 3)}


def start_server(window_s: float) -> tuple:
    """Boot ``repro serve --port 0``; returns ``(process, port)``."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--window",
            str(window_s),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before announcing (rc={proc.poll()})"
            )
        if line.startswith(ANNOUNCE_PREFIX):
            port = int(line.rsplit(":", 1)[1])
            return proc, port
    raise RuntimeError("server never announced its port")


def check_once(port: int) -> list:
    """One probe against a running server; returns failure messages."""
    from repro.experiments.runner import GridCell
    from repro.service import ServiceClient

    def cells(seeds) -> list:
        return [
            GridCell("gnp", n, "greedy", "vector", seed=s)
            for n in (40, 60)
            for s in seeds
        ]

    failures: list = []
    results: dict = {}
    errors: dict = {}
    barrier = threading.Barrier(2)

    def tenant(name: str, seeds) -> None:
        try:
            with ServiceClient(port=port, client=name, timeout=60) as client:
                barrier.wait()
                results[name] = client.run(cells(seeds))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            errors[name] = repr(exc)

    threads = [
        threading.Thread(target=tenant, args=item) for item in TENANT_SEEDS.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        return [f"client {name} failed: {err}" for name, err in errors.items()]
    for name, seeds in TENANT_SEEDS.items():
        records = results.get(name, [])
        if len(records) != len(cells(seeds)):
            failures.append(
                f"{name}: {len(records)} of {len(cells(seeds))} records"
            )
        bad = [rec["key"] for rec in records if not rec.get("ok")]
        if bad:
            failures.append(f"{name}: failed records {bad}")

    # Refresh round: everything must come from the result cache.
    with ServiceClient(port=port, client="tenant-a", timeout=60) as client:
        metas = [meta for _i, _rec, meta in client.stream(cells(TENANT_SEEDS["tenant-a"]))]
        stats = client.stats()
    misses = sum(1 for meta in metas if not meta.get("cache_hit"))
    if misses:
        failures.append(f"refresh: {misses} records re-simulated (not cached)")

    coalesced = stats.get("coalesced_windows", 0)
    result_cache = stats.get("result_cache") or {}
    hits = result_cache.get("hits", 0)
    # Every request here reads the result cache, so each fresh execution
    # follows exactly one result-cache miss.
    fresh = result_cache.get("misses", 0)
    topology = stats.get("topology_cache") or {}
    distinct = len({c.topology_key for seeds in TENANT_SEEDS.values() for c in cells(seeds)})
    print(
        f"  stats: windows={stats.get('windows')} coalesced={coalesced} "
        f"cache_hits={hits} records_served={stats.get('records_served')}"
    )
    print(
        f"  topology_cache: hits={topology.get('hits')} "
        f"misses={topology.get('misses')} entries={topology.get('entries')} "
        f"(distinct topologies {distinct}, fresh executions {fresh})"
    )
    if coalesced < 1:
        failures.append(
            "no coalesced window — the two tenants' cells never shared a "
            "stacked plane (submissions may have missed one window)"
        )
    if hits < 1:
        failures.append("no result-cache hit recorded")
    if topology.get("misses") != distinct:
        failures.append(
            f"topology cache generated {topology.get('misses')} topologies, "
            f"expected each of the {distinct} requested exactly once"
        )
    if topology.get("hits", 0) < fresh:
        failures.append(
            f"{topology.get('hits')} topology hits for {fresh} fresh executions — "
            "windows did not prepare their topologies before executing"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="probe attempts (each against a fresh server) before failing",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.25,
        help="server batch-window deadline in seconds",
    )
    args = parser.parse_args()

    failures: list = []
    for attempt in range(1, args.retries + 1):
        proc, port = start_server(args.window)
        print(f"attempt {attempt}/{args.retries}: server on port {port}")
        try:
            failures = check_once(port)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if not failures:
            print(
                "service smoke gate: PASS (tenants coalesced, cache served "
                "the refresh, windows prepared their topologies)"
            )
            return 0
        for failure in failures:
            print(f"  {failure}")
    print("service smoke gate: FAIL", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
