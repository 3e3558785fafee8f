"""Shared pieces of the benchmark: statistics, checks, fingerprint, output.

Everything here is independent of the workloads so the unit tests in
``perfbench/tests`` can pin it down without running the program.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (p50 needs 20 samples, p99 needs 1000).
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile_supported(count: int, q: float) -> bool:
    """True if ``count`` samples leave at least ten beyond percentile ``q``."""
    return count * (1.0 - q / 100.0) >= MIN_TAIL_SAMPLES - 1e-9


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q`` (linear interpolation), or None when unsupported."""
    if not percentile_supported(len(samples), q):
        return None
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what or "operation failed")
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.op(bool(ok), f"check {name} failed" +
                       (f": {detail}" if detail else ""))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def digest(*parts: bytes) -> str:
    """SHA-256 over length-framed parts (so part boundaries matter)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# fidelity
# ----------------------------------------------------------------------
def paper_gap_pct(ctx, workloads, label: str) -> float:
    """|measured / paper - 1|, in %, of the mean GCoD-over-AWB-GCN speedup.

    ``workloads`` holds one ``(dataset, arch, gcod_workload)`` per trained
    pipeline; the AWB-GCN side runs the untreated graph of the same pair.
    """
    from repro.evaluation import reference

    plats = ctx.platforms()
    ratios = [
        plats["awb-gcn"].run(ctx.baseline_workload(ds, arch)).latency_s
        / plats["gcod"].run(wl).latency_s
        for ds, arch, wl in workloads
    ]
    measured = sum(ratios) / len(ratios)
    paper = reference.SPEEDUP_OVER["awb-gcn"]
    note(f"{label}: GCoD over AWB-GCN {measured:.4f}x over {len(ratios)} "
         f"pipelines (paper {paper}x)")
    return 100.0 * abs(measured / paper - 1.0)


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of ``pid`` (default: this process), in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(root: str) -> int:
    """Total size of the regular files under ``root`` (0 if absent)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                continue  # a temp file renamed away mid-walk
    return total


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def _blas() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {"library": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError) as exc:
        info["library"] = f"unknown ({type(exc).__name__})"
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(root, ".git", name)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return f"unavailable (unresolved {name})"


def fingerprint(root: str) -> Dict[str, object]:
    """Machine and code facts every result carries."""
    import numpy as np
    import scipy

    from repro.runtime import CODE_SCHEMA_VERSION
    from repro.sparse.kernels.compiled import numba_available
    from repro.utils import effective_cpu_count

    return {
        "effective_cpu_count": effective_cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": bool(numba_available()),
        "code_schema_version": CODE_SCHEMA_VERSION,
        "git_commit": _git_commit(root),
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def note(msg: str) -> None:
    """A diagnostic line (stdout, never the last line)."""
    print(msg, flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit_result(ledger: Ledger, metrics: Dict[str, Dict[str, object]]) -> None:
    """The result: the last stdout line, one JSON object."""
    for failure in ledger.failures:
        note(f"FAILED: {failure}")
    sys.stdout.write(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }) + "\n")
    sys.stdout.flush()
