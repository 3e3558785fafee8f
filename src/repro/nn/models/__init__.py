"""The five GCN variants evaluated by the paper (Tab. IV)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import invalid_value_error

if TYPE_CHECKING:
    from repro.graphs.graph import Graph
    from repro.nn.models.base import GNNModel
    from repro.utils.rng import SeedLike


#: Tab. IV hidden dimensions: 16 for citation graphs, 64 for NELL/Reddit.
def hidden_dim_for(dataset_name: str) -> int:
    """Hidden width the paper uses for ``dataset_name`` (Tab. IV)."""
    return 16 if dataset_name in ("cora", "citeseer", "pubmed") else 64


def build_model(
    arch: str,
    graph: Graph,
    hidden_dim: int = None,
    num_layers: int = None,
    rng: SeedLike = None,
) -> GNNModel:
    """Construct one of the Tab. IV models sized for ``graph``.

    ``arch`` is one of ``gcn``, ``gin``, ``gat``, ``sage``, ``resgcn``.
    ``hidden_dim`` / ``num_layers`` default to the paper's settings.
    """
    from repro.nn.models.gat import GAT
    from repro.nn.models.gcn import GCN
    from repro.nn.models.gin import GIN
    from repro.nn.models.resgcn import ResGCN
    from repro.nn.models.sage import GraphSAGE

    arch = arch.lower()
    in_dim = graph.num_features
    out_dim = graph.num_classes
    if hidden_dim is not None and hidden_dim <= 0:
        # `hidden_dim or default` would silently swap 0 for the paper
        # width; an explicit non-positive width is a config mistake.
        raise invalid_value_error(
            "hidden_dim", hidden_dim,
            "a positive hidden width, or None for the paper default",
        )
    hidden = hidden_dim or hidden_dim_for(graph.name)
    if arch == "gcn":
        return GCN(in_dim, hidden, out_dim, num_layers=num_layers or 2, rng=rng)
    if arch == "gin":
        return GIN(in_dim, hidden, out_dim, num_layers=num_layers or 3, rng=rng)
    if arch == "gat":
        return GAT(in_dim, hidden_dim or 8, out_dim, heads=8, rng=rng)
    if arch in ("sage", "graphsage"):
        return GraphSAGE(in_dim, hidden, out_dim, rng=rng)
    if arch == "resgcn":
        return ResGCN(
            in_dim, hidden_dim or 128, out_dim, num_layers=num_layers or 28, rng=rng
        )
    raise ValueError(f"unknown architecture {arch!r}")


MODEL_ARCHS = ("gcn", "gin", "gat", "sage", "resgcn")

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("GNNModel", "GraphOps"),
    ".gcn": ("GCN",),
    ".gin": ("GIN",),
    ".gat": ("GAT", "GATLayer"),
    ".sage": ("GraphSAGE", "SAGELayer", "sample_neighbors"),
    ".resgcn": ("ResGCN",),
}, own=("build_model", "hidden_dim_for", "MODEL_ARCHS"))
