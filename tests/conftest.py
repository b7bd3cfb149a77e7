"""Shared fixtures: small deterministic graphs used across the suite, and a
shared-memory leak check."""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import pytest

from repro.experiments.sharedmem import block_prefix
from repro.graphs.generators import (
    caterpillar_graph,
    clique_graph,
    geometric_graph,
    gnp_graph,
    grid_graph,
    random_tree,
    regular_graph,
    ring_graph,
    star_graph,
)
from repro.graphs.normalize import normalize_graph

SHM = Path("/dev/shm")


@pytest.fixture
def no_shared_memory_leak():
    """No shared-memory block this process publishes during the test
    survives it.  Only this process's ``repro_<pid>_*`` blocks are
    compared, so another process's blocks (a benchmark's, say) never
    count."""
    if not SHM.is_dir():
        pytest.skip("no /dev/shm to inspect")
    pattern = block_prefix() + "*"
    before = set(SHM.glob(pattern))
    yield
    leaked = sorted(path.name for path in set(SHM.glob(pattern)) - before)
    assert not leaked, leaked


@pytest.fixture
def path5() -> nx.Graph:
    return normalize_graph(nx.path_graph(5))


@pytest.fixture
def small_gnp() -> nx.Graph:
    return gnp_graph(30, 0.15, seed=1)


@pytest.fixture
def medium_gnp() -> nx.Graph:
    return gnp_graph(60, 0.08, seed=2)


@pytest.fixture
def small_geometric() -> nx.Graph:
    return geometric_graph(40, seed=3)


@pytest.fixture
def small_tree() -> nx.Graph:
    return random_tree(25, seed=4)


@pytest.fixture
def small_regular() -> nx.Graph:
    return regular_graph(20, 4, seed=5)


def graph_zoo() -> list:
    """A diverse, deterministic set of (name, graph) pairs for sweeps."""
    return [
        ("path", normalize_graph(nx.path_graph(8))),
        ("ring", ring_graph(12)),
        ("star", star_graph(9)),
        ("clique", clique_graph(7)),
        ("grid", grid_graph(4, 4)),
        ("tree", random_tree(18, seed=6)),
        ("caterpillar", caterpillar_graph(5, 2)),
        ("gnp", gnp_graph(24, 0.18, seed=7)),
        ("geometric", geometric_graph(26, seed=8)),
        ("regular", regular_graph(16, 4, seed=9)),
    ]


@pytest.fixture(params=graph_zoo(), ids=lambda pair: pair[0])
def zoo_graph(request) -> nx.Graph:
    return request.param[1]
