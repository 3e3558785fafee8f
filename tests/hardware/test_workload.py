"""Workload extraction: layer specs, adjacency profiles, paper scaling."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.hardware import adjacency_profile, extract_workload, layer_specs
from repro.hardware.workload import LayerSpec, storage_bytes


# (shape, nnz, expected bytes in coo / csr / csc). COO holds two 4-byte
# indices and a 4-byte value per entry; CSR/CSC hold one pointer per
# row/column plus one, then an index and a value per entry.
STORAGE_CASES = {
    # 4 entries: 48 bytes in COO.
    "rectangular": ((3, 4), 4, (48, 48, 52)),
    # 600 entries on 50 columns: CSC's per-entry saving outweighs its
    # pointer array, so the sparser branch reads CSC (Sec. V-B).
    "square": ((50, 50), 600, (7200, 5004, 5004)),
    "empty": ((5, 0), 0, (0, 24, 4)),
}


@pytest.mark.parametrize("shape,nnz,expected", STORAGE_CASES.values(),
                         ids=STORAGE_CASES.keys())
def test_storage_bytes(shape, nnz, expected):
    got = tuple(storage_bytes(fmt, shape, nnz)
                for fmt in ("coo", "csr", "csc"))
    assert got == expected
    coo, _, csc = got
    assert csc <= coo + 4 * (shape[1] + 1)
    if nnz > shape[1] + 1:
        assert csc < coo


def test_gcn_layer_specs():
    specs = layer_specs("gcn", 1433, 16, 7, x_density=0.01)
    assert len(specs) == 2
    assert specs[0].f_in == 1433 and specs[0].f_out == 16
    assert specs[1].f_out == 7
    assert specs[0].x_density == pytest.approx(0.01)
    assert specs[1].x_density == 1.0  # hidden features are dense


def test_gin_has_three_layers_with_mlp():
    specs = layer_specs("gin", 100, 16, 5, 0.1)
    assert len(specs) == 3
    assert all(s.comb_multiplier == 2.0 for s in specs)
    assert specs[0].aggregation_dim == 100  # aggregates at input width


def test_gat_edge_compute():
    specs = layer_specs("gat", 100, 8, 5, 0.1)
    assert specs[0].edge_macs_per_nnz > 0
    assert specs[0].f_out == 64  # 8 heads x 8 hidden


def test_resgcn_depth():
    specs = layer_specs("resgcn", 128, 128, 40, 1.0, resgcn_layers=28)
    assert len(specs) == 30  # proj + 28 blocks + head
    assert not specs[0].aggregate and not specs[-1].aggregate


def test_unknown_arch_raises():
    with pytest.raises(ValueError):
        layer_specs("mlp-mixer", 10, 10, 2, 1.0)


def test_profile_without_layout(tiny_graph):
    profile = adjacency_profile(tiny_graph.adj, None)
    assert profile.nnz == tiny_graph.adj.nnz
    assert profile.sparse_nnz == profile.nnz
    assert profile.dense_nnz == 0
    assert profile.num_classes == 1


def test_profile_with_layout(partitioned):
    graph, layout = partitioned
    profile = adjacency_profile(graph.adj, layout)
    assert profile.dense_nnz + profile.sparse_nnz == profile.nnz
    assert 0 < profile.dense_fraction < 1
    assert profile.num_classes == layout.num_classes
    assert profile.num_subgraphs == layout.num_subgraphs


def test_workload_macs_sparse_vs_dense(partitioned):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    sparse = wl.total_macs(sparse_aware=True)
    dense = wl.total_macs(sparse_aware=False)
    assert sparse < dense  # features are sparse, accelerators exploit it


def test_agg_macs_proportional_to_nnz(partitioned):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    layer = wl.layers[0]
    assert wl.agg_macs(layer) == pytest.approx(
        wl.adjacency.nnz * layer.aggregation_dim
    )


def test_paper_scale_uses_meta(small_graph, partitioned):
    graph, layout = partitioned
    graph.meta["paper_stats"] = {
        "nodes": 10 * graph.num_nodes,
        "edges": 10 * graph.num_edges,
        "features": 500,
        "classes": 7,
    }
    wl = extract_workload(graph, layout, "gcn", paper_scale=True)
    assert wl.num_nodes == 10 * graph.num_nodes
    assert wl.layers[0].f_in == 500
    # structure ratios preserved
    raw = adjacency_profile(graph.adj, layout)
    assert wl.adjacency.dense_fraction == pytest.approx(
        raw.dense_fraction, rel=0.05
    )
    assert wl.adjacency.class_balance == raw.class_balance


def test_layout_comes_from_meta(gcod_result):
    wl = extract_workload(gcod_result.final_graph, None, "gcn")
    assert wl.adjacency.num_classes == gcod_result.layout.num_classes


def test_explicit_zero_hidden_rejected(partitioned):
    # `hidden or default` used to swap 0 for the dataset default; an
    # explicit non-positive width must fail in the AxisDef.coerce format.
    graph, layout = partitioned
    with pytest.raises(ConfigError,
                       match=r"hidden: invalid value 0 of type int"):
        extract_workload(graph, layout, "gcn", hidden=0)
    with pytest.raises(ConfigError,
                       match=r"hidden: invalid value -4 of type int"):
        extract_workload(graph, layout, "gcn", hidden=-4)
    # None still means "the dataset default"
    assert extract_workload(graph, layout, "gcn",
                            hidden=None).layers[0].f_out > 0


def test_build_model_rejects_zero_hidden_dim(tiny_graph):
    from repro.nn.models import build_model

    with pytest.raises(ConfigError,
                       match=r"hidden_dim: invalid value 0 of type int"):
        build_model("gcn", tiny_graph, hidden_dim=0)


def test_layout_branch_skip_fraction_measures_the_sparser_split(
        partitioned):
    # The structural-sparsity skip only applies to the sparser branch, so
    # the empty-column count must come from the split's remainder — not
    # the full matrix (whose CSC the layout branch no longer builds).
    graph, layout = partitioned
    profile = adjacency_profile(graph.adj, layout)
    _, sparse = layout.split(sp.csr_matrix(graph.adj))
    empty = int((np.diff(sp.csc_matrix(sparse).indptr) == 0).sum())
    assert profile.skipped_col_fraction == empty / graph.num_nodes


def test_feature_bytes(partitioned):
    graph, layout = partitioned
    wl = extract_workload(graph, layout, "gcn")
    layer = wl.layers[0]
    assert wl.feature_bytes(layer) == graph.num_nodes * layer.f_in * 4
    assert wl.output_bytes(layer) == graph.num_nodes * layer.f_out * 4
