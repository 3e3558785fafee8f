"""Synthetic stand-ins for the paper's six datasets (Tab. III).

No network access is available, so each dataset is generated to match the
published statistics: node count, edge count (via average degree), feature
dimension, and class count. A ``scale`` parameter shrinks node counts and
feature dimensions proportionally for fast experimentation; the *paper-scale*
numbers are always recorded in ``Graph.meta["paper_stats"]`` so the hardware
model can also evaluate full-size workloads analytically.

Default scales keep every dataset trainable on a laptop within seconds while
preserving the relative ordering the paper's evaluation depends on
(Cora < CiteSeer < Pubmed < NELL < ArXiv < Reddit; Reddit is ~2 orders of
magnitude denser than the citation graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import UnknownDatasetError
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:
    from repro.graphs.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of one dataset (Tab. III) plus generator knobs."""

    name: str
    nodes: int
    edges: int
    features: int
    classes: int
    storage_mb: float
    intra_prob: float = 0.8
    default_scale: float = 1.0
    feature_scale_floor: int = 32

    @property
    def avg_degree(self) -> float:
        """Average undirected degree implied by the published counts."""
        return 2.0 * self.edges / self.nodes

    def scaled(self, scale: float) -> Dict[str, int]:
        """Node/feature counts after applying ``scale`` (degree preserved)."""
        nodes = max(int(round(self.nodes * scale)), 10 * self.classes)
        features = max(
            int(round(self.features * min(1.0, scale * 4))),
            self.feature_scale_floor,
        )
        return {"nodes": nodes, "features": features}


#: Published statistics from Tab. III of the paper.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "cora": DatasetSpec(
        "cora", 2708, 5429, 1433, 7, 15.0, intra_prob=0.81, default_scale=1.0
    ),
    "citeseer": DatasetSpec(
        "citeseer", 3312, 4372, 3703, 6, 47.0, intra_prob=0.74, default_scale=1.0
    ),
    "pubmed": DatasetSpec(
        "pubmed", 19717, 44338, 500, 3, 38.0, intra_prob=0.80, default_scale=0.25
    ),
    "nell": DatasetSpec(
        "nell", 65755, 266144, 5414, 210, 1300.0, intra_prob=0.9,
        default_scale=0.05, feature_scale_floor=64,
    ),
    "ogbn-arxiv": DatasetSpec(
        "ogbn-arxiv", 169343, 1166243, 128, 40, 103.0, intra_prob=0.65,
        default_scale=0.02,
    ),
    "reddit": DatasetSpec(
        "reddit", 232965, 114615892, 602, 41, 1800.0, intra_prob=0.7,
        default_scale=0.01,
    ),
}


def load_dataset(
    name: str, scale: Optional[float] = None, seed: SeedLike = 0
) -> Graph:
    """Generate the named dataset at ``scale`` (defaults per spec).

    The returned graph's ``meta`` carries the spec, the applied scale, and
    the paper-scale statistics.
    """
    from repro.graphs.generators import powerlaw_community_graph

    key = name.lower()
    if key not in DATASET_SPECS:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_SPECS)}"
        )
    spec = DATASET_SPECS[key]
    scale = spec.default_scale if scale is None else scale
    sizes = spec.scaled(scale)
    rng = ensure_rng(seed)
    # Reddit's published average degree (~984 stored nnz/node) is far above
    # what a scaled-down graph can support; cap it at the scaled node count.
    avg_degree = min(spec.avg_degree, max(2.0, sizes["nodes"] * 0.05))
    graph = powerlaw_community_graph(
        num_nodes=sizes["nodes"],
        avg_degree=avg_degree,
        num_features=sizes["features"],
        num_classes=spec.classes,
        intra_prob=spec.intra_prob,
        name=spec.name,
        rng=rng,
    )
    graph.meta.update(
        {
            "spec": spec,
            "scale": scale,
            # Recorded so paper-scale workload extraction can measure edge
            # pruning relative to the untouched generated graph.
            "generated_nnz": int(graph.adj.nnz),
            "paper_stats": {
                "nodes": spec.nodes,
                "edges": spec.edges,
                "features": spec.features,
                "classes": spec.classes,
                "storage_mb": spec.storage_mb,
            },
        }
    )
    return graph


def _loader(name: str) -> Callable[..., Graph]:
    def load(scale: Optional[float] = None, seed: SeedLike = 0) -> Graph:
        return load_dataset(name, scale=scale, seed=seed)

    load.__name__ = name.replace("-", "_")
    load.__doc__ = f"Generate the synthetic {name} dataset (see Tab. III)."
    return load


cora = _loader("cora")
citeseer = _loader("citeseer")
pubmed = _loader("pubmed")
nell = _loader("nell")
ogbn_arxiv = _loader("ogbn-arxiv")
reddit = _loader("reddit")
