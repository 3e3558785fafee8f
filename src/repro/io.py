"""Serialization: save/load graphs, layouts, and GCoD pipeline artifacts.

Everything is stored in a single ``.npz`` per object (numpy's portable
container) so trained graphs and layouts can be produced once and reused
across experiment runs, mirroring how the authors' released artifacts would
be consumed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.partition.layout import BlockLayout, SubgraphSpan

PathLike = Union[str, Path]


def save_graph(graph: Graph, path: PathLike) -> None:
    """Serialize a :class:`Graph` (adjacency, features, labels, masks, meta).

    The features are written as their CSR members (``features_data``,
    ``features_indices``, ``features_indptr``, ``features_shape``).
    """
    coo = graph.adj.tocoo()
    features = graph.features
    serializable_meta = {
        k: v for k, v in graph.meta.items()
        if isinstance(v, (int, float, str, bool))
    }
    np.savez_compressed(
        path,
        adj_row=coo.row,
        adj_col=coo.col,
        adj_data=coo.data,
        num_nodes=np.int64(graph.num_nodes),
        features_data=features.data,
        features_indices=features.indices,
        features_indptr=features.indptr,
        features_shape=np.asarray(features.shape, dtype=np.int64),
        labels=graph.labels,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
        name=np.bytes_(graph.name.encode()),
        meta_json=np.bytes_(json.dumps(serializable_meta).encode()),
    )


def load_graph(path: PathLike) -> Graph:
    """Load a graph saved by :func:`save_graph`.

    A file with a dense ``features`` member (the layout written before
    features were stored as CSR) still loads.
    """
    with np.load(path, allow_pickle=False) as data:
        n = int(data["num_nodes"])
        adj = sp.csr_matrix(
            (data["adj_data"], (data["adj_row"], data["adj_col"])),
            shape=(n, n),
        )
        meta = json.loads(bytes(data["meta_json"]).decode())
        return Graph(
            adj=adj,
            features=_load_features(data),
            labels=data["labels"],
            train_mask=data["train_mask"],
            val_mask=data["val_mask"],
            test_mask=data["test_mask"],
            name=bytes(data["name"]).decode(),
            meta=meta,
        )


def _load_features(data) -> Union[np.ndarray, sp.csr_matrix]:
    if "features" in data.files:
        return data["features"]
    return sp.csr_matrix(
        (
            data["features_data"],
            data["features_indices"],
            data["features_indptr"],
        ),
        shape=tuple(int(d) for d in data["features_shape"]),
    )


def save_layout(layout: BlockLayout, path: PathLike) -> None:
    """Serialize a :class:`BlockLayout`."""
    spans = np.array(
        [
            (s.subgraph_id, s.class_id, s.group_id, s.start, s.stop)
            for s in layout.spans
        ],
        dtype=np.int64,
    )
    np.savez_compressed(
        path,
        perm=layout.perm,
        node_class=layout.node_class,
        node_group=layout.node_group,
        node_subgraph=layout.node_subgraph,
        spans=spans,
        num_classes=np.int64(layout.num_classes),
        num_groups=np.int64(layout.num_groups),
    )


def load_layout(path: PathLike) -> BlockLayout:
    """Load a layout saved by :func:`save_layout`."""
    with np.load(path, allow_pickle=False) as data:
        spans = [
            SubgraphSpan(
                subgraph_id=int(row[0]),
                class_id=int(row[1]),
                group_id=int(row[2]),
                start=int(row[3]),
                stop=int(row[4]),
            )
            for row in data["spans"]
        ]
        return BlockLayout(
            perm=data["perm"],
            node_class=data["node_class"],
            node_group=data["node_group"],
            node_subgraph=data["node_subgraph"],
            spans=spans,
            num_classes=int(data["num_classes"]),
            num_groups=int(data["num_groups"]),
        )


def save_model_weights(named_weights: dict, path: PathLike) -> None:
    """Serialize a model ``state_dict`` (dotted names -> arrays)."""
    np.savez_compressed(path, **named_weights)


def load_model_weights(path: PathLike) -> dict:
    """Load weights saved by :func:`save_model_weights`."""
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k].copy() for k in data.files}
