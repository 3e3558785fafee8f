"""In-memory spans around the program's layer entry points.

The program itself records no spans, so the traced run wraps each layer's
public entry points from here: :meth:`Tracer.wrap_function` rebinds a
module-level function in every ``repro`` module that imported it, and
:meth:`Tracer.wrap_method` replaces a method on its class. A span records
its name, start, end, the span that was open on the same thread when it
started (its parent) and the thread. Counts are recorded by hooks at the
same boundaries. :meth:`Tracer.uninstall` puts every original back, so
untraced and traced passes can alternate in one process.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`); a layer's self time is the sum over its
spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, start, end, parent index or None, thread id)
Span = Tuple[str, float, float, Optional[int], int]

Hook = Callable[[tuple, dict, object], None]


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children may nest or overlap one another (spans of threads a parent
    waits for); overlap is counted once, and a child running past its
    parent's end only covers the part inside the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _tid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _tid) in enumerate(spans):
        covered = union_length(children.get(i, ()), start, end)
        out.append(max(end - start - covered, 0.0))
    return out


def rollup(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(table)


def covered_by_roots(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Wall time inside ``[lo, hi]`` covered by at least one root span."""
    return union_length(((s[1], s[2]) for s in spans if s[3] is None), lo, hi)


class Tracer:
    """Collects spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self.enabled = False

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def finished_spans(self) -> List[Span]:
        """Closed spans as tuples (open ones are dropped with their kids)."""
        keep = {i for i, s in enumerate(self.spans) if s[2] is not None}
        remap = {old: new for new, old in enumerate(sorted(keep))}
        out = []
        for i in sorted(keep):
            name, start, end, parent, tid = self.spans[i]
            out.append((name, start, end, remap.get(parent), tid))
        return out

    # -- wrapping ---------------------------------------------------------
    def wrapper(self, fn: Callable, name: Optional[str],
                hook: Optional[Hook] = None) -> Callable:
        """``fn`` recording a span ``name`` (None: counts only) and a hook."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._enter(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._exit(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, module, attr: str, value) -> None:
        """Point every loaded ``repro`` module's ``attr`` at ``value``
        wherever it names the same object as ``module.attr``."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self.patch(mod, attr, value)

    def wrap_function(self, module, attr: str, name: Optional[str],
                      hook: Optional[Hook] = None) -> None:
        """Rebind ``module.attr`` to a traced wrapper everywhere."""
        self.rebind(module, attr,
                    self.wrapper(getattr(module, attr), name, hook))

    def wrap_method(self, cls, attr: str, name: Optional[str],
                    hook: Optional[Hook] = None) -> None:
        """Replace ``cls.attr`` (only where ``cls`` defines it itself)."""
        if attr in cls.__dict__:
            self.patch(cls, attr,
                       self.wrapper(cls.__dict__[attr], name, hook))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        self.enabled = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
