"""Graph substrate: containers, synthetic datasets, normalization, stats.

The paper evaluates on six public datasets (Tab. III). This environment has
no network access, so ``repro.graphs.datasets`` generates synthetic graphs
matched to each dataset's published statistics (node/edge counts, feature
dimension, class count, power-law degree distribution, community structure),
optionally scaled down for laptop runtimes. Everything downstream — the
GCoD algorithm, the partitioner, and the hardware model — consumes only the
``Graph`` container defined here.
"""

from repro.graphs.graph import Graph
from repro.graphs.generators import powerlaw_community_graph
from repro.graphs.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    load_dataset,
    cora,
    citeseer,
    pubmed,
    nell,
    ogbn_arxiv,
    reddit,
)
from repro.graphs.normalize import symmetric_normalize, add_self_loops, row_normalize
from repro.graphs.stats import GraphStats, compute_stats
from repro.graphs.reorder import permute_graph, rcm_permutation

__all__ = [
    "Graph",
    "powerlaw_community_graph",
    "DATASET_SPECS",
    "DatasetSpec",
    "load_dataset",
    "cora",
    "citeseer",
    "pubmed",
    "nell",
    "ogbn_arxiv",
    "reddit",
    "symmetric_normalize",
    "add_self_loops",
    "row_normalize",
    "GraphStats",
    "compute_stats",
    "permute_graph",
    "rcm_permutation",
]
