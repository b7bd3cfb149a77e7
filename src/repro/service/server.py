"""The asyncio JSON-lines server: a thin shell over the in-process facade.

Every connection is one tenant.  The handler parses frames off the
socket, forwards ``submit``/``flush``/``stats`` to the shared
:class:`~repro.service.service.SimulationService`, and pumps each
submission's :class:`~repro.service.service.Ticket` back as ``record``
frames from a per-ticket forwarder task (the ticket's blocking event
queue is bridged into asyncio with ``run_in_executor``, so the event loop
never blocks on the dispatcher thread).  A connection dropping mid-stream
cancels its live tickets — the service skips their deliveries and the
rest of the window is untouched, which is the whole of the
disconnection story (determinism makes abandoned work harmless).

The server binds ``127.0.0.1`` by default and prints one
``repro service listening on HOST:PORT`` line when asked (``announce``),
which is how ``python -m repro serve --port 0`` hands an OS-assigned port
to scripts.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional

from repro.errors import ReproError, ServiceError
from repro.service.protocol import (
    MalformedFrameError,
    cell_from_wire,
    decode_frame,
    encode_frame,
    error_payload,
)
from repro.service.service import ServiceConfig, SimulationService, Ticket

__all__ = ["ServiceServer", "run_server"]

#: Refuse absurd frames instead of buffering them (asyncio readline limit).
_MAX_FRAME_BYTES = 16 * 1024 * 1024


class ServiceServer:
    """One listening socket over one :class:`SimulationService`."""

    def __init__(
        self,
        service: Optional[SimulationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service or SimulationService()
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_ids = itertools.count(1)

    async def start(self) -> "ServiceServer":
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = f"conn-{next(self._conn_ids)}"
        write_lock = asyncio.Lock()
        forwarders: "dict[asyncio.Task, Ticket]" = {}

        async def send(frame: dict) -> None:
            async with write_lock:
                writer.write(encode_frame(frame))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the frame limit: readline has dropped the line
                    # (or, with its newline not yet buffered, the buffered
                    # part of it); the connection stays usable.
                    error = MalformedFrameError(
                        f"frame exceeds {_MAX_FRAME_BYTES} bytes"
                    )
                    await send({"type": "error", "error": error_payload(error)})
                    continue
                if not line:
                    break  # tenant disconnected
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ServiceError as exc:
                    await send({"type": "error", "error": error_payload(exc)})
                    continue
                ftype = frame["type"]
                if ftype == "hello":
                    name = frame.get("client")
                    if isinstance(name, str) and name:
                        client = name
                    await send({"type": "hello", "client": client})
                elif ftype == "submit":
                    await self._handle_submit(frame, client, send, forwarders)
                elif ftype == "flush":
                    self.service.flush()
                elif ftype == "stats":
                    await send(
                        {
                            "type": "stats",
                            "id": frame.get("id"),
                            "stats": self.service.stats(),
                        }
                    )
                elif ftype == "bye":
                    break
                else:
                    await send(
                        {
                            "type": "error",
                            "error": {
                                "type": "MalformedFrameError",
                                "message": f"unknown frame type {ftype!r}",
                            },
                        }
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # disconnect mid-frame: same as EOF
        finally:
            # The mid-window disconnect path: cancel live tickets so the
            # service skips their deliveries, then reap the forwarders.
            for task, ticket in forwarders.items():
                ticket.cancel()
                task.cancel()
            if forwarders:
                await asyncio.gather(*forwarders, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer gone
                pass

    async def _handle_submit(
        self, frame: dict, client: str, send, forwarders: dict
    ) -> None:
        request_id = frame.get("id")
        try:
            raw_cells = frame.get("cells")
            if not isinstance(raw_cells, list):
                raise ServiceError("submit frame needs a 'cells' list")
            cells = [cell_from_wire(c) for c in raw_cells]
            certify = frame.get("certify")
            ticket = self.service.submit(
                client,
                cells,
                use_cache=bool(frame.get("use_cache", True)),
                certify=str(certify) if certify is not None else None,
            )
        except (ReproError, ValueError) as exc:
            await send(
                {"type": "error", "id": request_id, "error": error_payload(exc)}
            )
            return
        await send({"type": "accepted", "id": request_id, "cells": len(cells)})
        task = asyncio.ensure_future(self._forward(ticket, request_id, send))
        forwarders[task] = ticket
        task.add_done_callback(lambda t: forwarders.pop(t, None))

    async def _forward(self, ticket: Ticket, request_id, send) -> None:
        """Pump one ticket's served records onto the wire as they arrive."""
        loop = asyncio.get_running_loop()
        while True:
            served = await loop.run_in_executor(None, ticket.next_event)
            if served is None:
                await send({"type": "done", "id": request_id})
                return
            await send(
                {
                    "type": "record",
                    "id": request_id,
                    "index": served.index,
                    "record": served.record.to_dict(),
                    "meta": served.meta,
                }
            )


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServiceConfig] = None,
    announce: bool = True,
) -> None:
    """Start a server and serve until cancelled (the ``repro serve`` body)."""
    server = ServiceServer(SimulationService(config), host=host, port=port)
    await server.start()
    if announce:
        print(f"repro service listening on {server.host}:{server.port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        raise
    finally:
        await server.stop()
