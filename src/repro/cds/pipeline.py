"""Theorem 1.4: deterministic O(ln Delta)-approximate connected dominating
set in the CONGEST model.

Pipeline:

1. dominating set ``S`` from one of the Section 3 MDS algorithms;
2. ``G_S`` (Claim 4.1); a tiny ``S`` falls back to the direct
   spanning-tree construction (|CDS| < 3|S|);
3. ruling set ``S'`` on ``G_S`` (paper: pairwise G-distance
   ``>= c' log^2 n``; the separation is a tunable scaled constant);
4. BFS-phase clustering of ``S`` around ``S'`` (Lemma 4.2) with pruned
   cluster trees;
5. connection-path selection (rules 1-3) giving the cluster graph ``G'_S``;
6. (derandomized) Baswana-Sen spanner on ``G'_S``;
7. output ``S`` + cluster-tree connectors + interior nodes of the witness
   paths of selected spanner edges.

The output is verified to be a connected dominating set; sizes of every
ingredient are recorded for E6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.analysis.verify import require_connected_dominating_set
from repro.cds.clustering import cluster_dominating_set
from repro.cds.connector import cds_from_spanning_tree
from repro.cds.gs_graph import build_gs_graph
from repro.cds.paths import select_connection_paths
from repro.cds.ruling import ruling_set
from repro.congest.cost import CostLedger, ruling_set_rounds
from repro.errors import GraphError
from repro.graphs.validation import require_connected
from repro.mds.deterministic import approx_mds_coloring, approx_mds_decomposition
from repro.mds.pipeline import MDSResult, PipelineParams
from repro.spanner.baswana_sen import (
    baswana_sen_spanner,
    derandomized_sampler,
    spanner_subgraph,
)

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class CDSResult:
    """Connected dominating set plus pipeline provenance."""

    graph: nx.Graph
    cds: Set[int]
    dominating_set: Set[int]
    ledger: CostLedger
    stats: Dict[str, float] = field(default_factory=dict)
    mds_result: Optional[MDSResult] = None
    route: str = ""

    @property
    def size(self) -> int:
        return len(self.cds)

    @property
    def overhead(self) -> float:
        """``|CDS| / |S|`` — the connection cost over the dominating set."""
        return len(self.cds) / max(1, len(self.dominating_set))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (for the CLI and downstream tooling)."""
        return {
            "route": self.route,
            "cds": sorted(self.cds),
            "cds_size": self.size,
            "mds_size": len(self.dominating_set),
            "overhead": self.overhead,
            "stats": dict(self.stats),
            "rounds_simulated": self.ledger.simulated_rounds,
            "rounds_charged": self.ledger.charged_rounds,
        }


def default_ruling_beta(n: int, scale: float = 1.0) -> int:
    """Separation for the ruling set on ``G_S``.

    The paper asks for G-distance ``c' log^2 n``; since one ``G_S`` hop is
    at most 3 G-hops, ``beta_GS = ceil(scale * log2(n)^2 / 3)`` gives the
    equivalent separation.  At laptop scale this is deliberately small so
    the clustering stage actually engages (scale down via ``scale``).
    """
    log_n = math.log2(max(2, n))
    return max(2, int(math.ceil(scale * log_n * log_n / 3.0)))


def approx_cds(
    graph: nx.Graph,
    eps: float = 0.5,
    mds: Optional[Set[int]] = None,
    mds_route: str = "coloring",
    params: Optional[PipelineParams] = None,
    ruling_beta: Optional[int] = None,
    ruling_scale: float = 0.25,
    spanner_phases: Optional[int] = None,
) -> CDSResult:
    """Theorem 1.4 pipeline.  Pass ``mds`` to reuse a precomputed set."""
    import networkx as nx

    require_connected(graph, "connected dominating set")
    n = graph.number_of_nodes()
    ledger = CostLedger()

    mds_result: Optional[MDSResult] = None
    if mds is None:
        if mds_route == "coloring":
            mds_result = approx_mds_coloring(graph, eps=eps, params=params)
        elif mds_route == "decomposition":
            mds_result = approx_mds_decomposition(graph, eps=eps, params=params)
        else:
            raise GraphError(f"unknown mds_route {mds_route!r}")
        s_nodes = set(mds_result.dominating_set)
        ledger.merge(mds_result.ledger, prefix="mds/")
    else:
        s_nodes = set(mds)

    stats: Dict[str, float] = {"s_size": float(len(s_nodes)), "n": float(n)}

    if len(s_nodes) <= 1:
        cds = set(s_nodes) or ({0} if n else set())
        require_connected_dominating_set(graph, cds, "CDS")
        stats["route"] = 0.0
        return CDSResult(graph, cds, s_nodes, ledger, stats, mds_result, "trivial")

    gsg = build_gs_graph(graph, s_nodes)
    ledger.charge("gs-construction", 3)

    beta = ruling_beta if ruling_beta is not None else default_ruling_beta(n, ruling_scale)
    ruling = ruling_set(gsg.gs, s_nodes, beta=beta)
    ledger.charge("ruling-set", ruling_set_rounds(n))
    stats["ruling_beta"] = float(beta)
    stats["num_centers"] = float(len(ruling.chosen))

    if len(ruling.chosen) <= 2:
        # Problem too small for the clustering/spanner machinery; the direct
        # spanning-tree construction is both exact-in-structure and cheaper.
        cds = cds_from_spanning_tree(gsg)
        ledger.charge("spanning-tree-cds", max(1, n))
        stats["tree_fallback"] = 1.0
        stats["cds_size"] = float(len(cds))
        return CDSResult(graph, cds, s_nodes, ledger, stats, mds_result, "tree")

    clustering = cluster_dominating_set(graph, s_nodes, ruling.chosen)
    ledger.charge("clustering-phases", 3 * clustering.phases)
    stats["clusters"] = float(len(clustering.trees))
    stats["cluster_phases"] = float(clustering.phases)
    stats["tree_nodes"] = float(clustering.total_tree_nodes)
    stats["max_tree_radius"] = float(clustering.max_radius)

    selection = select_connection_paths(graph, s_nodes, clustering)
    ledger.charge("path-selection", 4)
    stats["cluster_edges"] = float(len(selection.cluster_edges))
    stats["path_congestion"] = float(selection.max_congestion)

    cluster_graph = selection.cluster_graph()
    cluster_graph.add_nodes_from(range(len(clustering.trees)))
    if cluster_graph.number_of_nodes() > 1 and not nx.is_connected(cluster_graph):
        raise GraphError(
            "cluster graph G'_S disconnected; path selection rules failed"
        )

    spanner = baswana_sen_spanner(
        cluster_graph, derandomized_sampler(), phases=spanner_phases
    )
    # Each spanner phase costs O(log n) rounds over the selected paths.
    ledger.charge(
        "spanner", spanner.phases * max(1, math.ceil(math.log2(max(2, n))))
    )
    stats["spanner_edges"] = float(spanner.num_edges)
    stats["spanner_forced_balance"] = float(spanner.forced_balance_events)

    sub = spanner_subgraph(cluster_graph, spanner)
    if sub.number_of_nodes() > 1 and not nx.is_connected(sub):
        raise GraphError("spanner disconnected the cluster graph")

    cds: Set[int] = set(s_nodes)
    cds |= clustering.connector_nodes
    for a, b in spanner.edges:
        key = (a, b) if a < b else (b, a)
        path = selection.cluster_edges[key]
        cds.update(path[1:-1])

    require_connected_dominating_set(graph, cds, "Theorem 1.4 CDS")
    stats["cds_size"] = float(len(cds))
    stats["connectors"] = float(len(cds) - len(s_nodes))
    return CDSResult(graph, cds, s_nodes, ledger, stats, mds_result, "spanner")


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive_cds(network, engine: str, eps: float = 0.5, mds_route: str = "coloring"):
    """Run the Theorem 1.4 pipeline on a compiled topology.

    The pipeline is multi-stage (MDS, ruling set, clustering, spanner), so
    the requested engine is installed as the process default for the
    duration of the call — every simulated primitive inside the pipeline
    then runs on it — and restored afterwards.
    """
    from repro.congest.engine import default_engine_name, set_default_engine

    previous = default_engine_name()
    set_default_engine(engine)
    try:
        return approx_cds(network.graph, eps=eps, mds_route=mds_route)
    finally:
        set_default_engine(previous)


def _metrics_cds(network, result: "CDSResult") -> Dict[str, object]:
    """A simulation-shaped metrics block for the composite record.

    ``rounds`` counts the pipeline's actually-simulated rounds from its
    cost ledger; message totals are not metered through the composite
    stages, so they report 0 (the block keeps the standard keys so grid
    summaries and reports need no special casing).
    """
    return {
        "n": network.n,
        "max_degree": network.max_degree,
        "rounds": result.ledger.simulated_rounds,
        "total_messages": 0,
        "total_bits": 0,
        "max_message_bits": result.ledger.max_message_bits,
        "all_halted": True,
        "cds_size": result.size,
        "mds_size": len(result.dominating_set),
        "overhead": round(result.overhead, 4),
        "charged_rounds": result.ledger.charged_rounds,
    }


register_program(
    ProgramSpec(
        name="cds",
        description="Theorem 1.4 connected-dominating-set pipeline (composite)",
        drive=_drive_cds,
        metrics=_metrics_cds,
        default_params={"eps": 0.5, "mds_route": "coloring"},
        composite=True,
    )
)
