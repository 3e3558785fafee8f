"""Integration tests: the full co-design loop on small inputs."""

import numpy as np
import pytest

from repro import GCoDConfig, extract_workload, load_dataset, run_gcod
from repro.hardware.accelerators import AWBGCN, GCoDAccelerator, HyGCN, pyg_cpu


@pytest.fixture(scope="module")
def full_run():
    graph = load_dataset("cora", scale=0.12, seed=0)
    config = GCoDConfig(
        pretrain_epochs=25, retrain_epochs=15,
        admm_iterations=2, admm_inner_steps=5, seed=0,
    )
    return graph, run_gcod(graph, "gcn", config)


def test_algorithm_to_hardware_loop(full_run):
    graph, result = full_run
    wl = extract_workload(result.final_graph, result.layout, "gcn",
                          paper_scale=True)
    wl_base = extract_workload(graph, None, "gcn", paper_scale=True)
    cpu = pyg_cpu().run(wl_base)
    gcod = GCoDAccelerator().run(wl)
    awb = AWBGCN().run(wl_base)
    hygcn = HyGCN().run(wl_base)
    # The paper's headline orderings, end to end from raw data.
    assert gcod.latency_s < awb.latency_s < hygcn.latency_s < cpu.latency_s
    assert cpu.latency_s / gcod.latency_s > 100.0


def test_accuracy_survives_codesign(full_run):
    _, result = full_run
    assert result.accuracy_final >= result.accuracy_pretrain - 0.05


def test_pipeline_deterministic(full_run):
    graph, result = full_run
    config = GCoDConfig(
        pretrain_epochs=25, retrain_epochs=15,
        admm_iterations=2, admm_inner_steps=5, seed=0,
    )
    result2 = run_gcod(graph, "gcn", config)
    assert result2.accuracy_final == pytest.approx(result.accuracy_final)
    assert (result2.final_graph.adj != result.final_graph.adj).nnz == 0


def test_all_archs_complete_pipeline():
    graph = load_dataset("cora", scale=0.06, seed=1)
    config = GCoDConfig(
        pretrain_epochs=8, retrain_epochs=5, admm_iterations=1,
        admm_inner_steps=3, num_subgraphs=4, seed=0,
    )
    for arch in ("gcn", "gin", "gat", "sage"):
        result = run_gcod(graph, arch, config)
        wl = extract_workload(result.final_graph, result.layout, arch)
        report = GCoDAccelerator().run(wl)
        assert report.latency_s > 0, arch
