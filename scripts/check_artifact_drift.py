"""Fail when regenerated benchmark artifacts drift from the committed ones.

Compares every ``BENCH_*.json`` in the committed directory with the file of
the same name in the regenerated directory, cell by cell (matched on
``key``), on the fields a rerun must reproduce exactly: ``ok``, ``metrics``
and ``error``.  Timings (``wall_s``) and the ``batch``, ``plan`` and
``quality`` blocks are ignored: they carry walls, and ``quality.cache_hit``
legitimately depends on the arrival order under ``--jobs 2``.  A file or
cell missing on either side counts as drift.

CI's quick-bench job copies the committed artifacts aside, regenerates them
in place, then runs::

    python scripts/check_artifact_drift.py COMMITTED_DIR REGENERATED_DIR

Exit status 0 when every cell reproduces, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

#: The cell fields a rerun must reproduce exactly.
COMPARED = ("ok", "metrics", "error")


def cells_by_key(path: Path) -> Dict[str, dict]:
    """``key -> {ok, metrics, error}`` for every cell of one artifact."""
    cells = json.loads(path.read_text(encoding="utf-8"))["cells"]
    return {cell["key"]: {f: cell.get(f) for f in COMPARED} for cell in cells}


def drift(committed: Path, regenerated: Path) -> List[str]:
    """Human-readable drift descriptions; prints one summary line per file."""
    paths = sorted(committed.glob("BENCH_*.json"))
    if not paths:
        return [f"{committed}: no BENCH_*.json to compare"]
    problems = []
    for old_path in paths:
        new_path = regenerated / old_path.name
        if not new_path.is_file():
            problems.append(f"{old_path.name}: not regenerated")
            continue
        old, new = cells_by_key(old_path), cells_by_key(new_path)
        for key in sorted(old.keys() - new.keys()):
            problems.append(f"{old_path.name}: {key}: missing")
        for key in sorted(new.keys() - old.keys()):
            problems.append(f"{old_path.name}: {key}: not in the committed file")
        same = 0
        for key in sorted(old.keys() & new.keys()):
            fields = [f for f in COMPARED if old[key][f] != new[key][f]]
            if fields:
                problems.append(f"{old_path.name}: {key}: {', '.join(fields)} differ")
            else:
                same += 1
        print(f"{old_path.name}: {same}/{len(old)} cells reproduce")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: check_artifact_drift.py COMMITTED_DIR REGENERATED_DIR")
        return 2
    problems = drift(Path(argv[0]), Path(argv[1]))
    for line in problems:
        print(f"DRIFT  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
