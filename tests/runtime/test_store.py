"""Artifact store: keys, persistence, invalidation, corruption recovery."""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithm import GCoDConfig
from repro.runtime import keys as rkeys
from repro.runtime.backends import StoreBackendError
from repro.runtime.store import (
    ArtifactStore,
    default_cache_dir,
    get_or_compute,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _gcod_key(**overrides):
    params = dict(
        dataset="cora",
        scale=0.1,
        arch="gcn",
        config=GCoDConfig(pretrain_epochs=5, retrain_epochs=3),
        kernel_backend=None,
        seed=0,
        profile="fast",
    )
    params.update(overrides)
    return rkeys.gcod_key(**params)


# ----------------------------------------------------------------------
# key stability
# ----------------------------------------------------------------------
def test_same_inputs_same_digest():
    assert _gcod_key().digest == _gcod_key().digest


def test_config_change_changes_digest():
    base = _gcod_key()
    assert base.digest != _gcod_key(seed=1).digest
    assert base.digest != _gcod_key(scale=0.2).digest
    assert base.digest != _gcod_key(arch="gin").digest
    assert base.digest != _gcod_key(profile="full").digest
    assert base.digest != _gcod_key(
        config=GCoDConfig(pretrain_epochs=6, retrain_epochs=3)
    ).digest


def test_default_backend_spellings_share_digest():
    # None (process default) and the default's explicit name are the same run.
    assert _gcod_key().digest == _gcod_key(kernel_backend="vectorized").digest
    assert _gcod_key().digest != _gcod_key(kernel_backend="reference").digest
    # ... including inside the config itself.
    cfg = GCoDConfig(pretrain_epochs=5, retrain_epochs=3,
                     kernel_backend="vectorized")
    assert _gcod_key().digest == _gcod_key(config=cfg).digest


def test_schema_version_invalidates(monkeypatch):
    base = _gcod_key()
    monkeypatch.setattr(rkeys, "CODE_SCHEMA_VERSION",
                        rkeys.CODE_SCHEMA_VERSION + 1)
    assert _gcod_key().digest != base.digest


def test_hash_stable_across_processes():
    script = (
        "from repro.runtime import keys as rkeys\n"
        "from repro.algorithm import GCoDConfig\n"
        "key = rkeys.gcod_key('cora', 0.1, 'gcn',\n"
        "    GCoDConfig(pretrain_epochs=5, retrain_epochs=3),\n"
        "    None, 0, 'fast')\n"
        "print(key.digest)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == _gcod_key().digest


def test_jsonable_rejects_unhashable_types():
    with pytest.raises(TypeError):
        rkeys.stable_hash({"x": object()})


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_roundtrip_and_contains(tmp_path):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    payload = {"arr": np.arange(10.0), "nested": [1, "two", 3.0]}
    assert store.get(key) is None
    assert not store.contains(key)
    store.put(key, payload, summary={"note": "hello"})
    assert store.contains(key)
    loaded = store.get(key)
    np.testing.assert_array_equal(loaded["arr"], payload["arr"])
    assert loaded["nested"] == payload["nested"]


def test_invalidate_and_clear(tmp_path):
    store = ArtifactStore(str(tmp_path))
    k1, k2 = _gcod_key(), _gcod_key(seed=1)
    store.put(k1, "a")
    store.put(k2, "b")
    graph_key = rkeys.graph_key("cora", 0.1, 0)
    store.put(graph_key, "g")
    assert store.invalidate(k1)
    assert not store.invalidate(k1)  # already gone
    assert store.get(k1) is None and store.get(k2) == "b"
    assert store.clear(kind="gcod") == 1  # k2 only
    assert store.get(graph_key) == "g"
    # another process's in-flight atomic write must survive a clear ...
    tmp_part = os.path.join(store._dir("graph"), ".tmp-123.part")
    with open(tmp_part, "wb") as fh:
        fh.write(b"half-written")
    assert store.clear() == 1  # the graph
    assert os.path.exists(tmp_part)
    # ... but an orphan of a long-dead writer is reclaimed
    import time
    old = time.time() - 2 * store._STALE_TMP_S
    os.utime(tmp_part, (old, old))
    store.clear()
    assert not os.path.exists(tmp_part)
    assert store.stats()["total"]["entries"] == 0


def test_corrupted_entry_recovers(tmp_path):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    store.put(key, {"fine": True})
    with open(store._entry_path(key), "wb") as fh:
        fh.write(b"\x80\x05 this is not a pickle")
    assert store.get(key) is None  # corrupted -> miss
    assert not store.contains(key)  # ... and the entry was dropped
    store.put(key, {"fine": "again"})
    assert store.get(key) == {"fine": "again"}


def test_stats_and_entries(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put(_gcod_key(), "x", summary={"dataset": "cora"})
    store.put(rkeys.graph_key("cora", 0.1, 0), "y")
    stats = store.stats()
    assert stats["gcod"]["entries"] == 1
    assert stats["graph"]["entries"] == 1
    assert stats["total"]["entries"] == 2
    entries = list(store.entries())
    assert {e.kind for e in entries} == {"gcod", "graph"}
    gcod_entry = next(e for e in entries if e.kind == "gcod")
    assert gcod_entry.meta["summary"] == {"dataset": "cora"}
    assert gcod_entry.meta["key"]["dataset"] == "cora"


def test_empty_store_reads_do_not_touch_disk(tmp_path):
    root = tmp_path / "never-created"
    store = ArtifactStore(str(root))
    assert store.get(_gcod_key()) is None
    assert list(store.entries()) == []
    assert store.clear() == 0
    assert not root.exists()


def test_put_on_unwritable_root_degrades(tmp_path, capsys):
    # a plain file where the cache root should be: makedirs fails for any
    # uid (chmod-based setups are bypassed when tests run as root)
    root = tmp_path / "blocked"
    root.write_text("not a directory")
    store = ArtifactStore(str(root))
    key = _gcod_key()
    store.put(key, {"expensive": True})  # must not raise
    assert "could not persist" in capsys.readouterr().err
    assert store.get(key) is None


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == str(tmp_path / "custom")


# ---------------------------------------------------------------------------
# crash-safety: degrade on unpicklable payloads, one write per put,
# stale-temp reclamation
# ---------------------------------------------------------------------------

def test_put_unpicklable_artifact_degrades(tmp_path, capsys):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    store.put(key, lambda x: x)  # lambdas cannot be pickled; must not raise
    assert "could not persist" in capsys.readouterr().err
    assert not store.contains(key)
    assert store.get(key) is None
    # nothing half-written: no entry file under the kind directory
    assert not os.path.exists(store._entry_path(key))


def test_put_unpicklable_summary_degrades(tmp_path, capsys):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    # the artifact itself pickles fine; the *summary* cannot be made
    # canonical JSON (sets are rejected by jsonable)
    store.put(key, {"fine": True}, summary={"bad": {1, 2, 3}})
    assert "could not persist" in capsys.readouterr().err
    # degrade means no entry at all — never a blob with broken metadata
    assert not store.contains(key)
    # and the store still works afterwards
    store.put(key, {"fine": True}, summary={"good": 1})
    assert store.get(key) == {"fine": True}


def test_put_is_one_write_and_a_failed_write_is_invisible(tmp_path):
    """A put is a single backend write: if it fails, nothing is listable.

    The metadata header and the payload travel in the same blob, so no
    kill can leave an entry without its metadata.
    """
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    backend = store.backend
    writes = []
    real_write = backend.write

    def dying_write(kind, name, blob):
        writes.append(name)
        raise StoreBackendError("simulated kill")  # the entry never lands

    backend.write = dying_write
    try:
        store.put(key, {"expensive": True})  # degrades, must not raise
    finally:
        backend.write = real_write

    assert writes == [key.digest + ".pkl"]
    # the interrupted entry is invisible everywhere
    assert not store.contains(key)
    assert store.get(key) is None
    assert list(store.entries()) == []
    assert store.stats()["total"]["entries"] == 0
    # a later retry fully recovers
    store.put(key, {"expensive": True})
    assert store.get(key) == {"expensive": True}
    assert [e.digest for e in store.entries()] == [key.digest]


@pytest.mark.parametrize("garble", [
    lambda entry: entry.replace(b"\n", b" "),  # no header line at all
    lambda entry: b"not json" + entry[entry.index(b"\n"):],
    lambda entry: entry[:entry.index(b"\n") + 1] + b"\x80\x05 garbled",
], ids=["no-newline", "header-not-json", "payload-not-pickle"])
def test_garbled_entry_reads_as_a_miss_and_is_dropped(tmp_path, capsys,
                                                      garble):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    store.put(key, {"fine": True}, summary={"dataset": "cora"})
    path = store._entry_path(key)
    with open(path, "rb") as fh:
        entry = fh.read()
    with open(path, "wb") as fh:
        fh.write(garble(entry))
    assert store.get(key) is None
    assert "dropping corrupted entry" in capsys.readouterr().err
    assert not store.contains(key)


def test_entry_is_header_line_then_pickle(tmp_path):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    store.put(key, {"fine": True}, summary={"dataset": "cora"})
    [name] = os.listdir(store._dir("gcod"))
    assert name == key.digest + ".pkl"
    with open(store._entry_path(key), "rb") as fh:
        header, payload = fh.read().split(b"\n", 1)
    meta = json.loads(header)
    assert meta["summary"] == {"dataset": "cora"}
    assert meta["schema"] == rkeys.CODE_SCHEMA_VERSION
    assert meta["size_bytes"] == len(payload)
    assert pickle.loads(payload) == {"fine": True}


def test_header_is_canonical_json_of_meta(tmp_path):
    """``put`` serializes the key payload ``make_key`` already walked, and
    walks only the summary: the header bytes equal ``canonical_json`` of
    the whole metadata dict, numpy scalars and nested payloads included."""
    store = ArtifactStore(str(tmp_path))
    key = rkeys.make_key(
        "gcod", dataset="cora",
        config={"z": {"b": [1, 2.5, None], "a": (np.int64(3), np.float32(0.5))},
                "flag": np.bool_(True)},
    )
    assert key.digest == rkeys.stable_hash(key.payload)
    summary = {"acc": np.float64(0.8125), "n": np.int32(7),
               "per": [np.float32(0.25), np.int64(-2)], 3: ("x", None)}
    store.put(key, {"fine": True}, summary=summary)
    with open(store._entry_path(key), "rb") as fh:
        header = fh.read().split(b"\n", 1)[0]
    written = json.loads(header)
    meta = {
        "kind": key.kind,
        "digest": key.digest,
        "schema": rkeys.CODE_SCHEMA_VERSION,
        "created": written["created"],
        "size_bytes": written["size_bytes"],
        "key": key.payload,
        "summary": summary,
    }
    assert header == rkeys.canonical_json(meta).encode("utf-8")


def test_stale_temps_swept_on_init(tmp_path):
    root = tmp_path / "store"
    store = ArtifactStore(str(root))
    store.put(_gcod_key(), "x")
    kind_dir = root / "gcod"
    import time as _time
    old = kind_dir / ".tmp-dead-writer.part"
    old.write_bytes(b"z" * 128)
    ancient = _time.time() - 2 * ArtifactStore._STALE_TMP_S
    os.utime(old, (ancient, ancient))
    fresh = kind_dir / ".tmp-live-writer.part"
    fresh.write_bytes(b"y" * 64)

    reopened = ArtifactStore(str(root))
    # the dead writer's orphan was reclaimed on open...
    assert not old.exists()
    assert reopened.reclaimed_tmp == 1
    assert reopened.reclaimed_tmp_bytes == 128
    # ...the possibly-in-flight fresh one was left alone, and is visible
    # in stats under the tmp pseudo-kind (excluded from total)
    assert fresh.exists()
    stats = reopened.stats()
    assert stats["tmp"] == {"entries": 1, "bytes": 64}
    assert stats["total"]["entries"] == 1
    # the real entry survived the sweep
    assert reopened.get(_gcod_key()) == "x"


# ---------------------------------------------------------------------------
# get_or_compute: the one fetch/produce/persist protocol
# ---------------------------------------------------------------------------

class _Compute:
    """A counting ``compute`` callable."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def __call__(self):
        self.calls += 1
        return self.value


def test_get_or_compute_hit_never_computes(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put(_gcod_key(), {"stored": True})
    compute = _Compute({"fresh": True})
    assert get_or_compute(store, _gcod_key(), compute) == {"stored": True}
    assert compute.calls == 0


def test_get_or_compute_miss_computes_once_and_writes_summary(tmp_path):
    store = ArtifactStore(str(tmp_path))
    compute = _Compute({"n": 3})
    out = get_or_compute(store, _gcod_key(), compute,
                         summary=lambda a: {"n": a["n"]})
    assert out == {"n": 3} and compute.calls == 1
    assert get_or_compute(store, _gcod_key(), compute) == {"n": 3}
    assert compute.calls == 1
    [entry] = store.entries()
    assert entry.meta["summary"] == {"n": 3}


def test_get_or_compute_without_store_only_computes(tmp_path):
    compute = _Compute("x")
    assert get_or_compute(None, _gcod_key(), compute) == "x"
    assert get_or_compute(None, _gcod_key(), compute) == "x"
    assert compute.calls == 2  # nothing persisted, nothing memoized


def test_get_or_compute_recomputes_corrupted_entry(tmp_path, capsys):
    store = ArtifactStore(str(tmp_path))
    key = _gcod_key()
    store.put(key, {"fine": True})
    with open(store._entry_path(key), "wb") as fh:
        fh.write(b"\x80\x05 this is not a pickle")
    compute = _Compute({"fine": "again"})
    assert get_or_compute(store, key, compute) == {"fine": "again"}
    assert compute.calls == 1
    assert "dropping corrupted entry" in capsys.readouterr().err
    assert store.get(key) == {"fine": "again"}  # rewritten


def test_get_or_compute_unwritable_root_still_returns(tmp_path, capsys):
    root = tmp_path / "blocked"
    root.write_text("not a directory")
    store = ArtifactStore(str(root))
    compute = _Compute({"expensive": True})
    assert get_or_compute(store, _gcod_key(), compute) == {"expensive": True}
    assert "could not persist" in capsys.readouterr().err
    assert not store.contains(_gcod_key())


def test_stored_pipeline_loads_no_graph(tmp_path, monkeypatch):
    """A stored pipeline read back through ``EvalContext.gcod`` or a sweep
    evaluator never generates (or reads) its training graph."""
    import repro.graphs
    import repro.graphs.datasets
    from repro.evaluation import EvalContext
    from repro.runtime.keys import KIND_GRAPH
    from repro.sweep import SweepSpec
    from repro.sweep.engine import _PointEvaluator
    from repro.sweep.spec import expand

    def micro_ctx():
        return EvalContext(profile="fast", dataset_scales={"cora": 0.06},
                           store=ArtifactStore(str(tmp_path)))

    warmed = micro_ctx().gcod("cora", "gcn")
    micro_ctx().store.clear(kind=KIND_GRAPH)

    def no_graphs(*args, **kwargs):
        raise AssertionError("a store hit loaded a graph")

    monkeypatch.setattr(repro.graphs, "load_dataset", no_graphs)
    monkeypatch.setattr(repro.graphs.datasets, "load_dataset", no_graphs)

    ctx = micro_ctx()
    assert ctx.gcod("cora", "gcn").accuracy_final == warmed.accuracy_final
    ctx = micro_ctx()
    [point] = expand(SweepSpec(name="t", title="t",
                               axes={"dataset": ("cora",)}), ctx)
    pipeline = _PointEvaluator(ctx)._pipeline(point.gcod_task())
    assert pipeline.result.accuracy_final == warmed.accuracy_final
    assert ctx._graphs == {}
