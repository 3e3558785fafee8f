"""GCoD Step-1 partitioning: degree classes, METIS-like splits, groups.

``partition_graph`` is the package's entry point: it bins nodes into degree
classes, splits every class into workload-balanced subgraphs with a
multilevel partitioner, distributes subgraphs round-robin over groups, and
returns a :class:`BlockLayout` describing the resulting block structure —
the object both the GCoD training pipeline and the accelerator's workload
extractor consume.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".degree_classes": ("degree_classes", "quantile_thresholds"),
    ".metis": ("metis_partition",),
    ".grouping": ("distribute_round_robin",),
    ".layout": ("BlockLayout", "partition_graph"),
})
