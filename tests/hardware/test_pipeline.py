"""Workload DAGs: parsing, evaluation, and the shared-accelerator merge.

The acceptance contract for the evaluator: a single-node DAG is
byte-identical to the legacy single-model path (``allocate([1.0])``
returns the full array), concurrent nodes time-slice the PE array, and
sequential phases sum their latencies.
"""

import dataclasses

import pytest

from repro.errors import ConfigError, UnknownDatasetError
from repro.hardware import extract_workload
from repro.hardware.accelerators.gcod import GCoDAccelerator
from repro.hardware.pipeline import (
    PipelineSettings,
    WorkloadGraph,
    WorkloadNode,
    evaluate_workload,
    full_pe_array,
    parse_workload,
    slice_workload,
    workload_from_json,
)
from repro.hardware.units import DEFAULT_PES, GCOD_CLOCK_HZ
from repro.runtime.keys import jsonable


# ----------------------------------------------------------------------
# shorthand parsing
# ----------------------------------------------------------------------
def test_parse_concurrent_pair():
    graph = parse_workload("cora/gcn+citeseer/gat")
    assert [n.name for n in graph.nodes] == ["cora/gcn", "citeseer/gat"]
    assert all(n.after == () for n in graph.nodes)
    assert len(graph.levels()) == 1
    assert graph.to_shorthand() == "cora/gcn+citeseer/gat"


def test_parse_pipelined_split_with_share():
    graph = parse_workload("cora/gcn/0@0.75 > cora/gcn/1")
    first, second = graph.nodes
    assert first.layers == (0, 0) and first.share == 0.75
    assert second.name == "cora/gcn#2"  # auto-suffixed duplicate
    assert second.layers == (1, 1)
    assert second.after == ("cora/gcn",)
    assert len(graph.levels()) == 2
    assert graph.to_shorthand() == "cora/gcn/0@0.75 > cora/gcn/1"


def test_parse_normalizes_case_and_whitespace():
    graph = parse_workload(" Cora/GCN + citeseer/GAT ")
    assert graph.to_shorthand() == "cora/gcn+citeseer/gat"


def test_parse_layer_range_token_roundtrip():
    node = parse_workload("cora/gcn/0-1").nodes[0]
    assert node.layers == (0, 1)
    assert node.token() == "cora/gcn/0-1"


@pytest.mark.parametrize("bad, match", [
    ("", "empty workload"),
    ("   ", "empty workload"),
    ("cora", "not of the form"),
    ("cora/gcn/1/2", "not of the form"),
    ("cora/gcn@zero", "not a number"),
    ("cora/gcn@0", "share must be positive"),
    ("cora/gcn/2-1", "0 <= start <= stop"),
    ("cora/gcn/x", "layer range"),
    ("cora/gcn >> cora/gcn", "empty phase"),
])
def test_parse_rejects_malformed(bad, match):
    with pytest.raises(ConfigError, match=match):
        parse_workload(bad)


def test_parse_validates_dataset_and_arch_eagerly():
    with pytest.raises(UnknownDatasetError, match="atlantis"):
        parse_workload("atlantis/gcn")
    with pytest.raises(ConfigError, match="unknown architecture"):
        parse_workload("cora/mlp-mixer")


# ----------------------------------------------------------------------
# graph validation, levels, shorthand limits
# ----------------------------------------------------------------------
def test_graph_rejects_empty_duplicates_and_self_deps():
    with pytest.raises(ConfigError, match="no nodes"):
        WorkloadGraph(name="w", nodes=())
    node = WorkloadNode(name="a", dataset="cora")
    with pytest.raises(ConfigError, match="duplicate node names"):
        WorkloadGraph(name="w", nodes=(node, node))
    with pytest.raises(ConfigError, match="depends on itself"):
        WorkloadGraph(name="w", nodes=(
            WorkloadNode(name="a", dataset="cora", after=("a",)),
        ))


def test_unknown_dependency_gets_a_suggestion():
    with pytest.raises(ConfigError, match=r"did you mean 'cora/gcn'\?"):
        WorkloadGraph(name="w", nodes=(
            WorkloadNode(name="cora/gcn", dataset="cora"),
            WorkloadNode(name="b", dataset="cora", after=("cora/gnc",)),
        ))


def test_dependency_cycle_raises():
    graph = WorkloadGraph(name="w", nodes=(
        WorkloadNode(name="a", dataset="cora", after=("b",)),
        WorkloadNode(name="b", dataset="cora", after=("a",)),
    ))
    with pytest.raises(ConfigError, match="dependency cycle"):
        graph.levels()


def test_sparse_dag_needs_json_form():
    # c depends on a only, but a's level also holds b: not expressible
    # as "phase > phase" shorthand.
    graph = WorkloadGraph(name="w", nodes=(
        WorkloadNode(name="a", dataset="cora"),
        WorkloadNode(name="b", dataset="citeseer"),
        WorkloadNode(name="c", dataset="cora", after=("a",)),
    ))
    assert [len(level) for level in graph.levels()] == [2, 1]
    with pytest.raises(ConfigError, match="use the JSON form"):
        graph.to_shorthand()


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------
def test_json_roundtrip_preserves_the_graph():
    graph = parse_workload("cora/gcn/0@0.75 > cora/gcn/1+citeseer/gat")
    assert workload_from_json(graph.to_jsonable()) == graph


@pytest.mark.parametrize("data, match", [
    ({"nodes": "cora"}, "'nodes' list"),
    ({"nodes": [{"dataset": "cora", "archh": "gcn"}]}, "unknown key"),
    ({"nodes": [{"arch": "gcn"}]}, "missing 'dataset'"),
    ({"nodes": [{"dataset": "cora", "layers": [1, 0]}]},
     r"0 <= start <= stop"),
    ({"nodes": [{"dataset": "cora", "layers": 1}]}, "'layers' wants"),
    ({"nodes": [{"dataset": "cora", "share": 0}]}, "must be positive"),
])
def test_json_rejects_malformed(data, match):
    with pytest.raises(ConfigError, match=match):
        workload_from_json(data)


# ----------------------------------------------------------------------
# layer slicing
# ----------------------------------------------------------------------
def test_slice_workload_takes_an_inclusive_range(partitioned):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    node = WorkloadNode(name="n", dataset="cora", layers=(0, 0))
    sliced = slice_workload(wl, node)
    assert sliced.layers == wl.layers[:1]
    assert sliced.name == f"{wl.name}[0-0]"
    # no range: the same object passes through untouched
    assert slice_workload(wl, WorkloadNode(name="n", dataset="cora")) is wl


def test_slice_workload_rejects_out_of_range(partitioned):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    node = WorkloadNode(name="n", dataset="cora", layers=(0, 5))
    with pytest.raises(ConfigError, match="out of range"):
        slice_workload(wl, node)


# ----------------------------------------------------------------------
# the shared PE array
# ----------------------------------------------------------------------
def test_full_pe_array_matches_platform_defaults():
    assert full_pe_array(PipelineSettings()).num_pes == DEFAULT_PES[32]
    assert full_pe_array(PipelineSettings(bits=8)).num_pes == \
        DEFAULT_PES[8]
    assert full_pe_array(PipelineSettings(hw_scale=0.5)).num_pes == \
        DEFAULT_PES[32] // 2
    assert full_pe_array(PipelineSettings()).clock_hz == GCOD_CLOCK_HZ
    with pytest.raises(ConfigError, match="supports bits in"):
        full_pe_array(PipelineSettings(bits=16))
    # the sweep's GCoD variant is the same array: one PE-count rule
    from repro.sweep.engine import _PointEvaluator

    evaluator = _PointEvaluator(None)
    for bits in (32, 8):
        for hw_scale in (0.5, 1.0, 2.0):
            shared = full_pe_array(
                PipelineSettings(bits=bits, hw_scale=hw_scale))
            variant = evaluator._gcod_platform(bits, hw_scale, 16).pes
            assert (variant.num_pes, variant.clock_hz) == \
                (shared.num_pes, shared.clock_hz)


# ----------------------------------------------------------------------
# evaluation + merge (extraction overridden: no training needed)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def settings_for(partitioned):
    """PipelineSettings factory with store-free extraction (the same
    hook the sweep engine injects its store-backed path through)."""
    graph, layout = partitioned

    def make(**kwargs):
        def extract_fn(node, _context):
            return extract_workload(graph, layout, node.arch)

        return PipelineSettings(extract_fn=extract_fn, **kwargs)

    return make


def test_single_node_dag_is_byte_identical_to_legacy(partitioned,
                                                     settings_for):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    legacy = GCoDAccelerator().run(wl)

    report = evaluate_workload(parse_workload("cora/gcn"), None,
                               settings_for())
    assert dict(report.node_pes) == {"cora/gcn": DEFAULT_PES[32]}
    (_, node_report), = report.node_reports
    assert jsonable(dataclasses.asdict(node_report)) == \
        jsonable(dataclasses.asdict(legacy))
    merged = report.merged()
    assert merged.latency_s == legacy.latency_s
    assert merged.combination == legacy.combination
    assert merged.aggregation == legacy.aggregation
    assert report.energy.total_j == legacy.energy.total_j
    assert report.offchip_bytes == legacy.offchip_bytes


def test_concurrent_nodes_split_the_array_and_take_the_max(settings_for):
    report = evaluate_workload(parse_workload("cora/gcn+cora/gat"), None,
                               settings_for())
    pes = dict(report.node_pes)
    assert pes == {"cora/gcn": DEFAULT_PES[32] // 2,
                   "cora/gat": DEFAULT_PES[32] // 2}
    latencies = [r.latency_s for _, r in report.node_reports]
    assert report.latency_s == max(latencies)
    assert report.notes["levels"] == 1.0
    # traffic and energy sum across nodes
    total = sum(r.energy.total_j for _, r in report.node_reports)
    assert report.energy.total_j == pytest.approx(total)


def test_sequential_phases_sum_their_latencies(settings_for):
    report = evaluate_workload(parse_workload("cora/gcn > cora/gat"),
                               None, settings_for())
    pes = dict(report.node_pes)
    # each phase has the whole array to itself
    assert set(pes.values()) == {DEFAULT_PES[32]}
    latencies = [r.latency_s for _, r in report.node_reports]
    assert report.latency_s == pytest.approx(sum(latencies))
    assert report.notes["levels"] == 2.0


def test_share_skews_the_allocation(settings_for):
    report = evaluate_workload(
        parse_workload("cora/gcn@0.75+cora/gat@0.25"), None,
        settings_for())
    pes = dict(report.node_pes)
    assert pes["cora/gcn"] == 3 * pes["cora/gat"]
    assert pes["cora/gcn"] + pes["cora/gat"] <= DEFAULT_PES[32]


def test_platform_name_tracks_bits(settings_for):
    assert evaluate_workload(parse_workload("cora/gcn"), None,
                             settings_for()).platform == "gcod"
    assert evaluate_workload(parse_workload("cora/gcn"), None,
                             settings_for(bits=8)).platform == "gcod-8bit"


def test_to_jsonable_is_json_clean(settings_for):
    import json

    report = evaluate_workload(parse_workload("cora/gcn+cora/gat"), None,
                               settings_for())
    payload = json.loads(json.dumps(report.to_jsonable()))
    assert set(payload["node_pes"]) == {"cora/gcn", "cora/gat"}
    assert payload["latency_s"] == report.latency_s
