"""Early-bird detection and the full 3-step pipeline."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.algorithm import EarlyBirdDetector, GCoDConfig, run_gcod
from repro.algorithm.earlybird import magnitude_mask, mask_distance
from repro.errors import ConfigError
from repro.nn.models import build_model
from repro.nn.training import train_model


def test_magnitude_mask_keeps_fraction(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    masks = magnitude_mask(model, prune_ratio=0.5)
    for mask in masks.values():
        keep = mask.mean()
        assert 0.4 < keep < 0.6


def test_magnitude_mask_skips_biases(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    masks = magnitude_mask(model, prune_ratio=0.5)
    assert all(m.ndim >= 2 for m in masks.values())


def test_mask_distance_zero_for_identical(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    m = magnitude_mask(model, 0.5)
    assert mask_distance(m, m) == 0.0


def test_mask_distance_detects_changes(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    a = magnitude_mask(model, 0.5)
    b = {k: ~v for k, v in a.items()}
    assert mask_distance(a, b) == 1.0


def test_detector_stops_training(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    detector = EarlyBirdDetector(threshold=0.5, patience=2)  # loose: fires fast
    result = train_model(model, tiny_graph, epochs=100, epoch_callback=detector)
    assert detector.found_epoch is not None
    assert result.epochs_run < 100


def test_detector_never_fires_with_zero_threshold(tiny_graph):
    model = build_model("gcn", tiny_graph, rng=0)
    detector = EarlyBirdDetector(threshold=0.0, patience=3)
    train_model(model, tiny_graph, epochs=10, epoch_callback=detector)
    assert detector.found_epoch is None


# ----------------------------------------------------------------------
# full pipeline (uses the session-scoped gcod_result fixture)
# ----------------------------------------------------------------------
def test_pipeline_preserves_accuracy(gcod_result, small_graph):
    # "without compromising the model accuracy": allow a small tolerance
    assert gcod_result.accuracy_final >= gcod_result.accuracy_pretrain - 0.08


def test_pipeline_prunes_edges(gcod_result):
    assert 0.0 < gcod_result.total_edge_reduction < 0.9


def test_pipeline_improves_dense_fraction(gcod_result):
    layout = gcod_result.layout
    before = layout.dense_fraction(gcod_result.partitioned_graph.adj)
    after = layout.dense_fraction(gcod_result.final_graph.adj)
    assert after > before  # polarization concentrates mass in blocks


def test_pipeline_reduces_polarization_loss(gcod_result):
    assert (
        gcod_result.admm.polarization_after
        <= gcod_result.admm.polarization_before + 1e-9
    )


def test_pipeline_graph_stays_symmetric(gcod_result):
    assert gcod_result.final_graph.validate_symmetric()


def test_pipeline_cost_breakdown_consistent(gcod_result):
    cost = gcod_result.cost_breakdown
    total = cost["step1_epochs"] + cost["step2_epochs"] + cost["step3_epochs"]
    assert total == pytest.approx(cost["total_epochs"])
    fractions = (
        cost["step1_fraction"] + cost["step2_fraction"] + cost["step3_fraction"]
    )
    assert fractions == pytest.approx(1.0)


def test_pipeline_stage_graphs_share_one_features_object(gcod_result):
    features = gcod_result.partitioned_graph.features
    assert gcod_result.tuned_graph.features is features
    assert gcod_result.final_graph.features is features


def test_pickled_result_holds_its_features_once(gcod_result):
    features = gcod_result.final_graph.features
    empty = sp.csr_matrix(features.shape)
    stripped = replace(gcod_result, **{
        stage: replace(getattr(gcod_result, stage), features=empty)
        for stage in ("partitioned_graph", "tuned_graph", "final_graph")
    })
    saved = len(pickle.dumps(gcod_result)) - len(pickle.dumps(stripped))
    assert saved <= 1.2 * len(pickle.dumps(features))


def test_pipeline_model_carries_no_gradients(gcod_result):
    assert all(p.grad is None for p in gcod_result.model.parameters())


def test_pipeline_summary_text(gcod_result):
    text = gcod_result.summary()
    assert "GCoD[gcn]" in text and "acc" in text


def test_config_validation():
    with pytest.raises(ConfigError):
        GCoDConfig(prune_ratio=1.5)
    with pytest.raises(ConfigError):
        GCoDConfig(num_classes=0)
    with pytest.raises(ConfigError):
        GCoDConfig(num_classes=4, num_subgraphs=2)
    with pytest.raises(ConfigError):
        GCoDConfig(patch_threshold=-1)


def test_auto_patch_size_scales():
    cfg = GCoDConfig(num_subgraphs=8)
    assert cfg.auto_patch_size(3200) == 100
    assert cfg.auto_patch_size(10) == 4  # floor
    explicit = GCoDConfig(patch_size=32)
    assert explicit.auto_patch_size(10**6) == 32


def test_pipeline_runs_on_other_arch(tiny_graph):
    cfg = GCoDConfig(
        pretrain_epochs=6, retrain_epochs=4, admm_iterations=1,
        admm_inner_steps=2, num_subgraphs=4, seed=0,
    )
    result = run_gcod(tiny_graph, "sage", cfg)
    assert result.arch == "sage"
    assert result.final_graph.adj.nnz > 0
