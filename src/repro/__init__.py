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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graphs.graph": ("Graph",),
    ".graphs.datasets": ("load_dataset",),
    ".nn.models": ("build_model",),
    ".nn.training": ("train_model",),
    ".partition.layout": ("partition_graph",),
    ".algorithm.config": ("GCoDConfig",),
    ".algorithm.pipeline": ("GCoDResult", "run_gcod"),
    ".hardware.workload": ("extract_workload",),
}, own=("__version__",))
