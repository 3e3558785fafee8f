"""GCoD: GCN acceleration via dedicated algorithm and accelerator co-design.

A complete Python reproduction of You et al., HPCA 2022
(arXiv:2112.11594). The package splits the way the paper does:

* :mod:`repro.graphs` / :mod:`repro.nn` — the GCN training substrate
  (synthetic Tab. III datasets, a small autograd engine, the five Tab. IV
  models);
* :mod:`repro.partition` / :mod:`repro.algorithm` — the split-and-conquer
  training algorithm (Sec. IV): degree classes, METIS-like subgraphs,
  groups; ADMM sparsify + polarize; structural patch pruning; early-bird
  tickets;
* :mod:`repro.hardware` — the two-pronged accelerator and baseline
  platform models (Sec. V);
* :mod:`repro.compression` — the Tab. VII baselines;
* :mod:`repro.evaluation` — one module per paper table/figure.

Quickstart::

    from repro import load_dataset, run_gcod, extract_workload
    from repro.hardware import GCoDAccelerator, AWBGCN

    graph = load_dataset("cora")
    result = run_gcod(graph, "gcn")
    workload = extract_workload(result.final_graph, result.layout, "gcn")
    print(GCoDAccelerator().run(workload).latency_s)
"""

from repro.graphs import Graph, load_dataset
from repro.nn import build_model, train_model
from repro.partition import partition_graph
from repro.algorithm import GCoDConfig, GCoDResult, run_gcod
from repro.hardware import extract_workload

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "load_dataset",
    "build_model",
    "train_model",
    "partition_graph",
    "GCoDConfig",
    "GCoDResult",
    "run_gcod",
    "extract_workload",
    "__version__",
]
