"""A re-run of a finished sweep writes nothing to the store.

Re-rendering a sweep whose points are all stored only reads: the manifest
it would write is equal to the stored one, so neither ``begin_manifest``
nor ``execute_sweep``'s ``finally`` rewrites it (a shared store gets no
PUTs from viewers, and a local one no file replacements). Every run that
changes what the manifest records must still write it: one that
evaluates a point, one that is interrupted after progress, the same grid
under another registered name or title, and one that finds the stored
manifest corrupted.
"""

import os
import shutil

import pytest

from repro.runtime.runner import GCoDTaskError
from repro.runtime.store import ArtifactStore
from repro.sweep import SweepSpec, load_manifest, run_sweep, sweep_report_text
from repro.sweep import engine as eng
from repro.sweep.manifest import manifest_key

from tests.sweep.test_resume import micro_ctx

#: 8 points over 2 trained pipelines.
SPEC = SweepSpec(
    name="writes-grid",
    title="writes grid",
    axes={"C": (1, 2), "bits": (32, 8), "hw_scale": (0.5, 1.0)},
)


@pytest.fixture(scope="module")
def finished_store(tmp_path_factory):
    """A store holding SPEC's pipelines, points and manifest."""
    root = str(tmp_path_factory.mktemp("writes-ref") / "store")
    report = run_sweep(micro_ctx(ArtifactStore(root)), SPEC, jobs=1)
    return root, sweep_report_text(SPEC, report.results)


@pytest.fixture
def store(tmp_path, finished_store):
    root = str(tmp_path / "store")
    shutil.copytree(finished_store[0], root)
    return ArtifactStore(root)


def count_writes(monkeypatch, store):
    """Record the (kind, name) of every backend write from now on."""
    writes = []
    real = store.backend.write

    def write(kind, name, blob):
        writes.append((kind, name))
        return real(kind, name, blob)

    monkeypatch.setattr(store.backend, "write", write)
    return writes


def manifest_mtime(store, spec=SPEC):
    key = manifest_key(micro_ctx(store), spec)
    return os.stat(store._entry_path(key)).st_mtime_ns


def test_rerun_of_a_complete_sweep_writes_nothing(store, finished_store,
                                                  monkeypatch):
    before = manifest_mtime(store)
    writes = count_writes(monkeypatch, store)
    for _ in range(2):
        report = run_sweep(micro_ctx(store), SPEC, jobs=1)
        assert report.points_evaluated == 0
        assert sweep_report_text(SPEC, report.results) == finished_store[1]
    assert writes == []
    assert manifest_mtime(store) == before


def test_sweep_that_evaluates_a_point_writes_the_manifest(store,
                                                          monkeypatch):
    ctx = micro_ctx(store)
    point_keys = [p.key() for p in eng.expand(SPEC, ctx)]
    store.invalidate(point_keys[3])
    writes = count_writes(monkeypatch, store)
    report = run_sweep(micro_ctx(store), SPEC, jobs=1)
    assert report.points_evaluated == 1
    kinds = [kind for kind, _ in writes]
    assert kinds.count("sweep") == 1  # the one evaluated point
    assert kinds.count("manifest") >= 2  # at its start and at its end
    manifest = load_manifest(store, micro_ctx(store), SPEC)
    assert manifest.complete and manifest.done == manifest.planned


def test_interrupted_sweep_writes_its_progress(store, monkeypatch):
    ctx = micro_ctx(store)
    point_keys = [p.key() for p in eng.expand(SPEC, ctx)]
    for key in point_keys[2:]:
        store.invalidate(key)
    real_evaluate = eng._PointEvaluator.evaluate
    evaluated = []

    def dying_evaluate(self, point):
        if len(evaluated) >= 3:
            raise RuntimeError("power cut after 3 points")
        evaluated.append(point.label())
        return real_evaluate(self, point)

    monkeypatch.setattr(eng._PointEvaluator, "evaluate", dying_evaluate)
    writes = count_writes(monkeypatch, store)
    with pytest.raises(GCoDTaskError, match="power cut"):
        run_sweep(micro_ctx(store), SPEC, jobs=1)
    assert "manifest" in {kind for kind, _ in writes}
    manifest = load_manifest(store, micro_ctx(store), SPEC)
    assert not manifest.complete
    assert manifest.done == manifest.planned[:5]


@pytest.mark.parametrize("rename", [
    {"name": "writes-grid-renamed"},
    {"title": "another title"},
])
def test_same_grid_under_another_name_or_title_writes(store, monkeypatch,
                                                      rename):
    spec = SweepSpec(**{"name": SPEC.name, "title": SPEC.title,
                        "axes": dict(SPEC.axes), **rename})
    assert manifest_key(micro_ctx(store), spec) == \
        manifest_key(micro_ctx(store), SPEC)
    writes = count_writes(monkeypatch, store)
    report = run_sweep(micro_ctx(store), spec, jobs=1)
    assert report.points_evaluated == 0
    assert [kind for kind, _ in writes] == ["manifest"]
    manifest = load_manifest(store, micro_ctx(store), spec)
    assert (manifest.sweep, manifest.title) == (spec.name, spec.title)


def test_corrupted_manifest_is_rewritten(store, monkeypatch):
    key = manifest_key(micro_ctx(store), SPEC)
    with open(store._entry_path(key), "wb") as fh:
        fh.write(b"\x80\x05 not a pickle")
    writes = count_writes(monkeypatch, store)
    report = run_sweep(micro_ctx(store), SPEC, jobs=1)
    assert report.points_evaluated == 0
    assert [kind for kind, _ in writes] == ["manifest"]
    manifest = load_manifest(store, micro_ctx(store), SPEC)
    assert manifest.complete and manifest.done == manifest.planned
