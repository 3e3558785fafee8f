"""Graph substrate: containers, synthetic datasets, normalization, stats.

The paper evaluates on six public datasets (Tab. III). This environment has
no network access, so ``repro.graphs.datasets`` generates synthetic graphs
matched to each dataset's published statistics (node/edge counts, feature
dimension, class count, power-law degree distribution, community structure),
optionally scaled down for laptop runtimes. Everything downstream — the
GCoD algorithm, the partitioner, and the hardware model — consumes only the
``Graph`` container defined here.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graph": ("Graph",),
    ".generators": ("powerlaw_community_graph",),
    ".datasets": ("DATASET_SPECS", "DatasetSpec", "load_dataset", "cora",
                  "citeseer", "pubmed", "nell", "ogbn_arxiv", "reddit"),
    ".normalize": ("symmetric_normalize", "add_self_loops", "row_normalize"),
    ".stats": ("GraphStats", "compute_stats"),
    ".reorder": ("permute_graph", "rcm_permutation"),
})
