"""The JSON-lines wire protocol between service clients and the server.

One frame per line, UTF-8 JSON objects with a ``type`` field.  The
protocol is deliberately boring: the service's semantics live in
:mod:`repro.service.service`, and the server is a thin shell — frames
carry exactly the facade's inputs and outputs, with records in the legacy
dict shape (:meth:`~repro.api.records.RunRecord.to_dict`, the same shape
``grid --stream`` prints and BENCH artifacts store).

Client → server::

    {"type": "hello",  "client": "tenant-a"}                 # optional
    {"type": "submit", "id": "r1", "cells": [CELL, ...],
     "use_cache": true, "certify": null}
    {"type": "flush"}
    {"type": "stats",  "id": "s1"}
    {"type": "bye"}

Server → client::

    {"type": "hello",    "client": "tenant-a"}
    {"type": "accepted", "id": "r1", "cells": 4}
    {"type": "record",   "id": "r1", "index": 2,
     "record": RECORD, "meta": {"window": 7, "cache_hit": false,
                                "stack_width": 4, "latency_s": 0.01}}
    {"type": "done",     "id": "r1"}
    {"type": "stats",    "id": "s1", "stats": {...}}
    {"type": "error",    "id": "r1"?, "error": {"type": "...", "message": "..."}}

``CELL`` is ``{"family", "n", "program", "engine", "seed"}`` (``seed``
defaults to 7, matching :class:`~repro.experiments.runner.GridCell`).
``error.type`` is the raising exception's class name — the
:mod:`repro.errors` code a library caller would have caught, so remote
and in-process tenants pattern-match the same error family.  Frames for
different requests may interleave on one connection; ``id`` is the
client-chosen correlation key.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict
from typing import Dict, Union

from repro.errors import ServiceError
from repro.experiments.runner import GridCell

__all__ = [
    "MalformedFrameError",
    "cell_from_wire",
    "cell_to_wire",
    "decode_frame",
    "encode_frame",
    "error_payload",
]


class MalformedFrameError(ServiceError):
    """A line on the wire was not a valid protocol frame."""


def encode_frame(frame: Mapping[str, object]) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one wire line into a frame dict; structured error on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise MalformedFrameError(f"not a JSON frame: {exc}") from None
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise MalformedFrameError("a frame must be an object with a 'type' string")
    return frame


def cell_to_wire(cell: GridCell) -> Dict[str, object]:
    """The wire form of one grid cell (same dict the record shape embeds)."""
    return asdict(cell)


def cell_from_wire(data: Mapping[str, object]) -> GridCell:
    """Parse one wire cell; missing/garbled fields raise a structured error."""
    if not isinstance(data, Mapping):
        raise MalformedFrameError(f"bad cell {data!r}: a cell must be an object")
    try:
        return GridCell(
            family=str(data["family"]),
            n=int(data["n"]),  # type: ignore[arg-type]
            program=str(data["program"]),
            engine=str(data["engine"]),
            seed=int(data.get("seed", 7)),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrameError(f"bad cell {data!r}: {exc}") from None


def error_payload(exc: BaseException) -> Dict[str, str]:
    """The structured error block of an ``error`` frame."""
    return {"type": type(exc).__name__, "message": str(exc)}
