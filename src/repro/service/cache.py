"""The service's two-tier deterministic cache: topologies and results.

Both tiers lean on the same fact the oracle cache (PR 7) leans on: the
suite generator is a pure function of ``(family, n, seed, params)`` and
every registered program is a pure function of the generated graph, so a
cell's topology and its success record never change between runs.  Caching
is therefore *exact* — a hit returns precisely what a fresh run would have
produced (timing fields aside) — and the only policy question is capacity,
which both tiers answer with an LRU bound.

**Topology tier** (:class:`TopologyCache`).  Keyed by
:attr:`~repro.experiments.runner.GridCell.topology_key`; backed by the
existing shared-memory CSR transport: a miss generates the graph once and
publishes its CSR arrays through
:meth:`repro.experiments.sharedmem.SharedTopology.publish`, and every use
— hit or miss — reconstructs a fresh, independently-owned
:class:`~repro.congest.network.Network` via
:func:`~repro.experiments.sharedmem.attach_network`.  Reconstruction from
flat CSR skips generation + normalization (the dominant fixed cost) while
giving each batch window a network no other window has mutated; because
the blocks are ordinary shared memory, the same handles could be handed to
pool workers unchanged if window execution ever moves out of process.
Eviction and :meth:`~TopologyCache.clear` unlink the blocks.

**Result tier** (:class:`ResultCache`).  Keyed by the full cell identity —
the :class:`~repro.experiments.runner.GridCell` itself: family, n, seed
(the topology identity) plus program and engine.  Stores only *success*
records, normalized to the solo shape (no ``batch``/``plan``/``quality``
annotations — those describe one particular execution, not the cell), so a
hit is served exactly as a solo ``strategy="cell"`` run would have
returned it.  Per-request opt-out and hit/miss counters live at the
service layer; this class only counts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.api.records import RunRecord
from repro.congest.network import Network
from repro.experiments.runner import GridCell, build_network
from repro.experiments.sharedmem import SharedTopology, attach_network

__all__ = ["ResultCache", "TopologyCache", "normalized_record"]


def normalized_record(record: RunRecord) -> RunRecord:
    """Strip a record to the solo-run shape (drop execution annotations).

    ``batch``, ``plan`` and ``quality`` blocks describe *how* one
    particular dispatch produced the record (stack width, lost-worker
    fallback, caller's oracle mode) — not properties of the cell — so the
    cacheable identity-determined payload is cell/ok/wall_s/metrics/error
    only.  The copy shares nothing mutable with its source.
    """
    return RunRecord(
        cell=record.cell,
        ok=record.ok,
        wall_s=record.wall_s,
        metrics=dict(record.metrics) if record.metrics is not None else None,
        error=dict(record.error) if record.error is not None else None,
    )


class TopologyCache:
    """LRU of published topologies, one shared-memory publish per identity."""

    def __init__(self, max_entries: int = 64):
        self.max_entries = max(1, int(max_entries))
        self._entries: "OrderedDict[tuple, Optional[SharedTopology]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def network_for(self, cell: GridCell) -> Optional[Network]:
        """A fresh :class:`Network` for the cell's topology (or ``None``).

        ``None`` means the topology could not be built or attached — the
        caller's :func:`~repro.experiments.runner._run_cell_record` then
        regenerates (and structurally records) the failure itself, so a
        bad family name degrades to a per-cell error record, never to a
        service crash.  Failed publishes are cached as ``None`` too:
        a client resubmitting a bad cell must not re-pay generation.
        """
        key = cell.topology_key
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
        else:
            self.misses += 1
            try:
                topology: Optional[SharedTopology] = SharedTopology.publish(
                    build_network(cell)
                )
            except Exception:  # noqa: BLE001 - recorded per cell downstream
                topology = None
            self._entries[key] = topology
            while len(self._entries) > self.max_entries:
                _evicted_key, evicted = self._entries.popitem(last=False)
                if evicted is not None:
                    evicted.unlink()
        topology = self._entries[key]
        if topology is None:
            return None
        try:
            return attach_network(topology.handle)
        except Exception:  # pragma: no cover - attach races are host-specific
            return None

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}

    def clear(self) -> None:
        """Unlink every published block and reset the counters."""
        for topology in self._entries.values():
            if topology is not None:
                topology.unlink()
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class ResultCache:
    """LRU of normalized success records keyed by full cell identity."""

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max(1, int(max_entries))
        self._entries: "OrderedDict[GridCell, Dict[str, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cell: GridCell) -> bool:
        return cell in self._entries

    def get(self, cell: GridCell) -> Optional[RunRecord]:
        """The cached record for ``cell`` as a fresh object, or ``None``.

        Entries are stored as legacy dicts and parsed back per hit, so
        every caller owns an independent :class:`RunRecord` — a consumer
        mutating its copy (e.g. attaching a ``quality`` block) cannot
        poison the cache.
        """
        stored = self._entries.get(cell)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(cell)
        return RunRecord.from_dict(stored)

    def store(self, record: RunRecord) -> bool:
        """Cache a success record (normalized); failures are never cached.

        Failure records are excluded because they are the one place
        determinism can be violated from outside the cell — a transient
        host condition (memory pressure killing a solve, say) must not be
        replayed forever to every future requester.
        """
        if not record.ok:
            return False
        self._entries[record.cell] = normalized_record(record).to_dict()
        self._entries.move_to_end(record.cell)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return True

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
