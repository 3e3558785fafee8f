"""Benchmark: fast SpMM kernel backends vs the reference loops (fig10 workload).

Acceptance gate for the kernel-backend subsystem: on the Fig. 10 large-graph
workloads (NELL / Reddit adjacencies at the fast-profile scale, feature
widths as trained), dispatching ``spmm`` through the ``vectorized`` and
``tiled`` backends must be at least 5x faster than the ``reference`` loop
kernels while producing the same numbers to 1e-10.
"""

import time

import numpy as np
from conftest import show

from repro.evaluation.context import ExperimentResult
from repro.graphs.normalize import symmetric_normalize
from repro.sparse import from_scipy, spmm

MIN_SPEEDUP = 5.0


def _best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


#: Aggregation feature width: GCN/GIN/SAGE aggregate hidden activations
#: (16 at the fast profile), not raw input features — that is the dense
#: operand every fig10 training SpMM actually sees.
HIDDEN_WIDTH = 16


def test_fast_spmm_backends_speedup_on_fig10_workload(ctx):
    rng = np.random.default_rng(0)
    rows = []
    for dataset, fmt in (("nell", "csr"), ("reddit", "csr"),
                         ("nell", "csc"), ("reddit", "csc")):
        graph = ctx.graph(dataset)
        a_hat = from_scipy(symmetric_normalize(graph.adj), fmt)
        b = rng.normal(size=(graph.num_nodes, HIDDEN_WIDTH))
        ref_out = spmm(a_hat, b, backend="reference")
        t_ref = _best_of(lambda: spmm(a_hat, b, backend="reference"), 3)
        for backend in ("vectorized", "tiled"):
            out = spmm(a_hat, b, backend=backend)
            np.testing.assert_allclose(out, ref_out, atol=1e-10)
            t_fast = _best_of(lambda: spmm(a_hat, b, backend=backend), 10)
            speedup = t_ref / max(t_fast, 1e-9)
            rows.append(
                (dataset, fmt, backend, graph.adj.nnz,
                 round(t_ref * 1e3, 2), round(t_fast * 1e3, 3),
                 round(speedup, 1))
            )

    show(ExperimentResult(
        name="SpMM kernel backends: reference loops vs vectorized/tiled",
        headers=("dataset", "format", "backend", "nnz", "reference (ms)",
                 "fast (ms)", "speedup"),
        rows=rows,
    ))
    for row in rows:
        assert row[-1] >= MIN_SPEEDUP, (
            f"{row[2]} SpMM only {row[-1]}x faster than reference "
            f"on {row[0]}/{row[1]} (need >= {MIN_SPEEDUP}x)"
        )
