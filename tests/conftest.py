"""Shared fixtures: small graphs and expensive session-scoped pipeline runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithm import GCoDConfig, run_gcod
from repro.graphs import Graph, powerlaw_community_graph
from repro.partition import partition_graph


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """~120-node power-law community graph; fast enough for any test."""
    return powerlaw_community_graph(
        num_nodes=120,
        avg_degree=6.0,
        num_features=40,
        num_classes=4,
        name="tiny",
        rng=7,
    )


@pytest.fixture(scope="session")
def small_graph() -> Graph:
    """~400-node graph for tests that need non-trivial structure."""
    return powerlaw_community_graph(
        num_nodes=400,
        avg_degree=8.0,
        num_features=64,
        num_classes=5,
        name="small",
        rng=11,
    )


@pytest.fixture(scope="session")
def partitioned(small_graph):
    """(reordered graph, layout) from GCoD Step 1 on the small graph."""
    return partition_graph(
        small_graph, num_classes=2, num_groups=2, num_subgraphs=6, rng=3
    )


@pytest.fixture(scope="session")
def fast_config() -> GCoDConfig:
    """A GCoD config small enough to run in test time."""
    return GCoDConfig(
        pretrain_epochs=20,
        retrain_epochs=12,
        admm_iterations=2,
        admm_inner_steps=5,
        num_subgraphs=6,
        seed=1,
    )


@pytest.fixture(scope="session")
def gcod_result(small_graph, fast_config):
    """A full (fast) GCoD pipeline run, shared across the suite."""
    return run_gcod(small_graph, "gcn", fast_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def pool_on_any_host(monkeypatch):
    """Let ``jobs=N`` fork N pool children on a host with fewer CPUs.

    The runtime caps a pool at the CPUs this process may use; tests that
    check pool behaviour (parity, failures) need real children even on a
    1-CPU runner.
    """
    import repro.runtime.runner as runner

    monkeypatch.setattr(runner, "effective_cpu_count", lambda: 64)
