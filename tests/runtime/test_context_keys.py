"""Regression tests: EvalContext cache keys must isolate backend/scale.

Before the runtime refactor, ``EvalContext._gcod`` was keyed by
``(dataset, arch)`` only. Contexts created via ``dataclasses.replace`` share
the underlying memo dictionaries, so a replaced context with a *different
kernel backend* (or different ``dataset_scales``) silently served the other
context's trained results. The memo key now includes both.
"""

from dataclasses import replace

import pytest

import repro.algorithm
import repro.graphs
from repro.evaluation.context import EvalContext


class _FakeGraph:
    name = "cora"


@pytest.fixture
def stubbed(monkeypatch):
    """Stub dataset generation and GCoD training with call counting."""
    calls = {"gcod": 0, "graph": 0}

    def fake_load(dataset, scale=None, seed=0):
        calls["graph"] += 1
        return _FakeGraph()

    def fake_run_gcod(graph, arch, config):
        calls["gcod"] += 1
        return ("result", calls["gcod"], arch, config.kernel_backend)

    # the producers in repro.runtime.runner import both per call
    monkeypatch.setattr(repro.graphs, "load_dataset", fake_load)
    monkeypatch.setattr(repro.algorithm, "run_gcod", fake_run_gcod)
    return calls


def test_gcod_memoizes_per_key(stubbed):
    ctx = EvalContext(profile="fast")
    first = ctx.gcod("cora", "gcn")
    assert ctx.gcod("cora", "gcn") is first
    assert stubbed["gcod"] == 1


def test_replaced_context_with_other_backend_does_not_share(stubbed):
    ctx = EvalContext(profile="fast")
    ctx.gcod("cora", "gcn")
    other = replace(ctx, kernel_backend="reference")
    # dataclasses.replace shares the memo dict — the historical trap:
    assert other._gcod is ctx._gcod
    result = other.gcod("cora", "gcn")
    assert stubbed["gcod"] == 2, "reference-backend context reused " \
                                 "the vectorized context's result"
    assert result[3] == "reference"
    # and the original context still sees its own entry (its None backend
    # resolved to the process default at run time)
    assert ctx.gcod("cora", "gcn")[3] == "vectorized"
    assert stubbed["gcod"] == 2


def test_replaced_context_with_other_profile_does_not_share(stubbed):
    # With an explicit dataset_scales override the effective scale is the
    # same under both profiles, so the profile itself must be in the key
    # (it selects the epoch budgets).
    ctx = EvalContext(profile="fast", dataset_scales={"cora": 0.1})
    ctx.gcod("cora", "gcn")
    full = replace(ctx, profile="full")
    assert full._gcod is ctx._gcod
    full.gcod("cora", "gcn")
    assert stubbed["gcod"] == 2


def test_replaced_context_with_other_scales_does_not_share(stubbed):
    ctx = EvalContext(profile="fast")
    ctx.gcod("cora", "gcn")
    shrunk = replace(ctx, dataset_scales={"cora": 0.01})
    assert shrunk._gcod is ctx._gcod
    shrunk.gcod("cora", "gcn")
    assert stubbed["gcod"] == 2


def test_graph_memo_includes_scale(stubbed):
    ctx = EvalContext(profile="fast")
    ctx.graph("cora")
    assert stubbed["graph"] == 1
    shrunk = replace(ctx, dataset_scales={"cora": 0.01})
    shrunk.graph("cora")
    assert stubbed["graph"] == 2


def test_store_keys_cover_backend_scale_profile():
    ctx = EvalContext(profile="fast")
    base = ctx.gcod_store_key("cora", "gcn")
    assert replace(ctx, kernel_backend="reference").gcod_store_key(
        "cora", "gcn").digest != base.digest
    assert replace(ctx, dataset_scales={"cora": 0.01}).gcod_store_key(
        "cora", "gcn").digest != base.digest
    assert replace(ctx, seed=7).gcod_store_key("cora", "gcn").digest \
        != base.digest
    assert replace(ctx, profile="full").gcod_store_key("cora", "gcn").digest \
        != base.digest
    # experiment keys react to the same knobs
    exp = ctx.experiment_store_key("fig09")
    assert replace(ctx, kernel_backend="reference").experiment_store_key(
        "fig09").digest != exp.digest
    assert ctx.experiment_store_key("fig10").digest != exp.digest
