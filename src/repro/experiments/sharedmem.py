"""Shared-memory topology transport for the batch runner.

A grid run executes many (program × engine) cells on the *same* graph.
Re-generating the graph in every worker process is the dominant fixed cost
for large instances — generator plus normalization plus CSR compilation —
and pickling a ``networkx`` graph through the pool queue is no cheaper.
Instead the parent process generates each unique topology **once**,
publishes its flat CSR arrays (``indptr``, ``indices``) into
``multiprocessing.shared_memory`` blocks, and ships only the block *names*
to the workers.  A worker re-attaches by name and reconstructs an
equivalent :class:`~repro.congest.network.Network` via
:meth:`Network.from_csr` — no graph generation, no big pickles.

Lifecycle: the parent owns the blocks (:meth:`SharedTopology.publish` …
:meth:`SharedTopology.unlink`); workers attach, copy the few hundred
kilobytes of CSR data into process-local arrays, and detach immediately
(:func:`attach_network`), so no cross-process lifetime coordination is
needed beyond "the parent unlinks after the pool is done".  The
streaming pool (`runner._iter_units_pool`) relies on exactly that
weak contract: handles ride inside dispatch-unit tasks on the pull
queue, any worker can attach any published handle (which is what lets
an unclaimed unit migrate to a surviving worker after a crash), and
the parent unlinks everything only after the drain loop finishes.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.congest.network import Network

__all__ = [
    "SharedTopologyHandle",
    "SharedTopology",
    "attach_network",
    "SharedStackedTopologyHandle",
    "SharedStackedTopology",
    "attach_stacked",
    "block_prefix",
]

_DTYPE = np.int64


def block_prefix(pid: Optional[int] = None) -> str:
    """Name prefix of the blocks process ``pid`` (default: this one)
    publishes, ``repro_<pid>_``: a leak check can tell them from any other
    process's blocks."""
    return f"repro_{os.getpid() if pid is None else pid}_"


def _create_block(nbytes: int) -> shared_memory.SharedMemory:
    """A fresh block of at least one byte named ``repro_<pid>_<token>``
    (22 characters at most, under the 31 macOS allows)."""
    while True:
        name = block_prefix() + secrets.token_hex(4)
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        except FileExistsError:  # pragma: no cover - a 32-bit token collision
            continue


@dataclass(frozen=True)
class SharedTopologyHandle:
    """Picklable descriptor of one published topology."""

    indptr_name: str
    indices_name: str
    n: int
    nnz: int
    bit_budget: Optional[int]


class SharedTopology:
    """Parent-side owner of one topology's shared CSR blocks."""

    def __init__(
        self,
        indptr_shm: shared_memory.SharedMemory,
        indices_shm: shared_memory.SharedMemory,
        handle: SharedTopologyHandle,
    ):
        self._indptr_shm = indptr_shm
        self._indices_shm = indices_shm
        self.handle = handle

    @classmethod
    def publish(cls, network: Network) -> "SharedTopology":
        """Copy ``network``'s CSR arrays into fresh shared-memory blocks."""
        indptr, indices = network.csr()
        indptr_arr = np.asarray(indptr, dtype=_DTYPE)
        indices_arr = np.asarray(indices, dtype=_DTYPE)
        indptr_shm = _create_block(indptr_arr.nbytes)
        indices_shm = _create_block(indices_arr.nbytes)
        np.ndarray(indptr_arr.shape, dtype=_DTYPE, buffer=indptr_shm.buf)[
            :
        ] = indptr_arr
        if indices_arr.size:
            np.ndarray(indices_arr.shape, dtype=_DTYPE, buffer=indices_shm.buf)[
                :
            ] = indices_arr
        handle = SharedTopologyHandle(
            indptr_name=indptr_shm.name,
            indices_name=indices_shm.name,
            n=network.n,
            nnz=int(indices_arr.size),
            bit_budget=network.bit_budget,
        )
        return cls(indptr_shm, indices_shm, handle)

    def close(self) -> None:
        """Detach the parent's mapping (blocks stay alive for workers)."""
        self._indptr_shm.close()
        self._indices_shm.close()

    def unlink(self) -> None:
        """Free the blocks; call exactly once, after every worker is done."""
        self.close()
        self._indptr_shm.unlink()
        self._indices_shm.unlink()


@dataclass(frozen=True)
class SharedStackedTopologyHandle:
    """Picklable descriptor of one published *group* of topologies.

    The batch strategy ships a whole stacked group — K same-family
    topologies of any mix of sizes and seeds (the group is *ragged*: a
    mixed-size sweep stacks too) — to a worker as two shared blocks:
    every instance's ``indptr`` concatenated, and every instance's
    ``indices`` concatenated, with per-instance ``(n, nnz, bit_budget)``
    shapes in the handle.  The per-instance tables are exactly the ragged
    offset information :class:`~repro.congest.engine.batched.StackedPlane`
    rebuilds on the worker side.  One publish/attach round-trip per group
    instead of K.
    """

    indptr_name: str
    indices_name: str
    node_counts: tuple
    nnz_counts: tuple
    bit_budgets: tuple


class SharedStackedTopology:
    """Parent-side owner of one stacked group's shared CSR blocks."""

    def __init__(
        self,
        indptr_shm: shared_memory.SharedMemory,
        indices_shm: shared_memory.SharedMemory,
        handle: SharedStackedTopologyHandle,
    ):
        self._indptr_shm = indptr_shm
        self._indices_shm = indices_shm
        self.handle = handle

    @classmethod
    def publish(cls, networks) -> "SharedStackedTopology":
        """Copy every network's CSR arrays into two shared blocks."""
        indptr_parts = []
        indices_parts = []
        node_counts = []
        nnz_counts = []
        budgets = []
        for net in networks:
            indptr, indices = net.csr()
            indptr_parts.append(np.asarray(indptr, dtype=_DTYPE))
            indices_parts.append(np.asarray(indices, dtype=_DTYPE))
            node_counts.append(net.n)
            nnz_counts.append(int(indices_parts[-1].size))
            budgets.append(net.bit_budget)
        indptr_all = np.concatenate(indptr_parts)
        indices_all = (
            np.concatenate(indices_parts)
            if indices_parts
            else np.zeros(0, dtype=_DTYPE)
        )
        indptr_shm = _create_block(indptr_all.nbytes)
        indices_shm = _create_block(indices_all.nbytes)
        np.ndarray(indptr_all.shape, dtype=_DTYPE, buffer=indptr_shm.buf)[
            :
        ] = indptr_all
        if indices_all.size:
            np.ndarray(indices_all.shape, dtype=_DTYPE, buffer=indices_shm.buf)[
                :
            ] = indices_all
        handle = SharedStackedTopologyHandle(
            indptr_name=indptr_shm.name,
            indices_name=indices_shm.name,
            node_counts=tuple(node_counts),
            nnz_counts=tuple(nnz_counts),
            bit_budgets=tuple(budgets),
        )
        return cls(indptr_shm, indices_shm, handle)

    def close(self) -> None:
        """Detach the parent's mapping (blocks stay alive for workers)."""
        self._indptr_shm.close()
        self._indices_shm.close()

    def unlink(self) -> None:
        """Free the blocks; call exactly once, after every worker is done."""
        self.close()
        self._indptr_shm.unlink()
        self._indices_shm.unlink()


def attach_stacked(handle: SharedStackedTopologyHandle) -> list:
    """Worker-side reconstruction of a published stacked group.

    Returns the K :class:`Network` instances in published order, each
    owning a copy of its CSR slice (lifetime independent of the blocks).
    """
    total_ptr = sum(n + 1 for n in handle.node_counts)
    total_idx = sum(handle.nnz_counts)
    indptr_shm = shared_memory.SharedMemory(name=handle.indptr_name)
    indices_shm = shared_memory.SharedMemory(name=handle.indices_name)
    try:
        indptr_all = np.ndarray(
            (total_ptr,), dtype=_DTYPE, buffer=indptr_shm.buf
        ).copy()
        indices_all = np.ndarray(
            (total_idx,), dtype=_DTYPE, buffer=indices_shm.buf
        ).copy()
    finally:
        indptr_shm.close()
        indices_shm.close()
    networks = []
    ptr_off = idx_off = 0
    for n, nnz, budget in zip(
        handle.node_counts, handle.nnz_counts, handle.bit_budgets
    ):
        networks.append(
            Network.from_csr(
                indptr_all[ptr_off : ptr_off + n + 1],
                indices_all[idx_off : idx_off + nnz],
                bit_budget=budget,
            )
        )
        ptr_off += n + 1
        idx_off += nnz
    return networks


def attach_network(handle: SharedTopologyHandle) -> Network:
    """Worker-side reconstruction of a published topology.

    Copies the CSR data out of the shared blocks (so the returned network's
    lifetime is independent of the blocks) and detaches immediately.
    """
    indptr_shm = shared_memory.SharedMemory(name=handle.indptr_name)
    indices_shm = shared_memory.SharedMemory(name=handle.indices_name)
    try:
        indptr = np.ndarray(
            (handle.n + 1,), dtype=_DTYPE, buffer=indptr_shm.buf
        ).copy()
        indices = np.ndarray(
            (handle.nnz,), dtype=_DTYPE, buffer=indices_shm.buf
        ).copy()
    finally:
        # Workers only close their mapping; the blocks stay registered with
        # the (pool-shared) resource tracker until the parent unlinks them.
        # Attaching re-registers the same name, but the tracker's cache is a
        # set, so the parent's single unlink still balances the books.
        indptr_shm.close()
        indices_shm.close()
    return Network.from_csr(indptr, indices, bit_budget=handle.bit_budget)
