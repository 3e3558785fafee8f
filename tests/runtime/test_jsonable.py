"""``jsonable`` gives the same output as its ``dataclasses.asdict`` form.

:func:`repro.runtime.keys.jsonable` feeds every cache key, so a change to
how it walks a value must not change a single digest. The reference below
is the earlier implementation, which deep-copied each dataclass through
``dataclasses.asdict`` before converting it. A hypothesis property checks
that both give the same output for nested dataclasses, dicts with non-str
keys, tuples, namedtuples, ``bool``/``int``/``float`` and numpy scalars,
and that both reject the same non-JSON values. Then the reference is
patched into the key module and every registered sweep's point digests
and the default pipeline/graph/experiment digests are recomputed.

Uses hypothesis when available and skips cleanly otherwise (the CI image
installs it).
"""

import collections
import dataclasses
from typing import Any

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.evaluation import EvalContext  # noqa: E402
from repro.evaluation.context import ALL_DATASETS  # noqa: E402
from repro.runtime import keys  # noqa: E402
from repro.runtime.registry import experiment_names  # noqa: E402
from repro.runtime.runner import build_task  # noqa: E402
from repro.sweep import all_sweeps  # noqa: E402
from repro.sweep.spec import expand  # noqa: E402


def reference_jsonable(obj: Any) -> Any:
    """The ``dataclasses.asdict`` implementation ``jsonable`` replaced."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        if getattr(obj, "ndim", 0) == 0:
            return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot build a stable cache key from {type(obj).__name__}")


@dataclasses.dataclass
class Box:
    value: Any
    extra: Any = None


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any = 0


Coord = collections.namedtuple("Coord", "x y")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
#: Dict keys that are not all strings; ``jsonable`` coerces each with str().
dict_keys = st.one_of(
    st.text(max_size=4),
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 3).map(np.int64),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Coord, children, children),
        st.dictionaries(dict_keys, children, max_size=4),
        st.builds(Box, children, children),
        st.builds(Pair, children, children),
    )


values = st.recursive(scalars, _containers, max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(values)
def test_jsonable_matches_the_asdict_reference(value):
    # repr is exact on key order and on type: it tells 1, 1.0, True and
    # np.float64(1.0) apart, and NaN from every number.
    assert repr(keys.jsonable(value)) == repr(reference_jsonable(value))


@pytest.mark.parametrize("bad", [
    np.zeros(3),
    np.array([1.5]),
    {1, 2},
    frozenset({"a"}),
    b"raw",
    object(),
])
@pytest.mark.parametrize("wrap", [
    lambda v: v,
    lambda v: [v],
    lambda v: {"k": (0, v)},
    lambda v: Box(Pair(v)),
])
def test_jsonable_rejects_what_the_reference_rejects(bad, wrap):
    with pytest.raises(TypeError):
        reference_jsonable(wrap(bad))
    with pytest.raises(TypeError):
        keys.jsonable(wrap(bad))


def _digests() -> dict:
    """Every registered sweep's planned point digests and the default
    context's pipeline, graph and experiment digests."""
    ctx = EvalContext(profile="fast")
    out = {}
    for spec in all_sweeps():
        out[f"sweep {spec.name}"] = [p.key().digest for p in expand(spec, ctx)]
    for dataset in ALL_DATASETS:
        out[f"graph {dataset}"] = keys.graph_key(
            dataset, ctx.scale_for(dataset), ctx.seed).digest
        for arch in ("gcn", "gat"):
            task = build_task(ctx, dataset, arch)
            out[f"gcod {dataset} {arch}"] = keys.gcod_key(
                task.dataset, task.scale, task.arch, task.config,
                task.kernel_backend, task.seed, task.profile).digest
    for name in experiment_names():
        out[f"experiment {name}"] = ctx.experiment_store_key(name).digest
    return out


def test_digests_unchanged_under_the_reference(monkeypatch):
    fast = _digests()
    monkeypatch.setattr(keys, "jsonable", reference_jsonable)
    assert _digests() == fast
    assert sum(len(v) for v in fast.values() if isinstance(v, list)) > 0
