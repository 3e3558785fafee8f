"""Rule ``determinism``: no wall clocks or entropy in reproducible paths.

The platform's headline guarantee is byte-identical warm reruns: a sweep
or report rendered from cached artifacts must equal the cold run bit for
bit, across processes and machines. That dies the moment key derivation
or output serialization consults a wall clock or an entropy source — so
inside the modules that build cache keys, aggregate sweep tables, or
serialize experiment results, calls like ``time.time()``,
``datetime.now()``, ``random.*``, and ``os.urandom()`` are banned
outright.

Legitimate uses keep an explicit allowlist: liveness metadata is *about*
wall time (the work ledger's ``claimed_at`` stamps, the store's
``created`` header field, stale-temp age checks) and never flows into
artifact bytes. Anything new either goes through the allowlist here or a
per-line ``# repro: lint-ok[determinism]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    import_origins,
    qualnames,
    resolve_call_name,
)

#: Exact dotted call names that are never deterministic.
BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
})

#: Modules whose *every* public call is an entropy source.
BANNED_MODULES = frozenset({"random", "secrets"})

#: Where determinism is load-bearing: key derivation, store contents,
#: sweep aggregation/serialization, and experiment rendering. (Timing
#: via ``time.perf_counter`` stays legal everywhere: wall-clock
#: accounting is deliberately kept out of the byte-stable outputs.)
SCOPE = (
    "runtime/",
    "sweep/",
    "evaluation/context.py",
    "evaluation/report.py",
)

#: ``(path, qualified name)`` pairs where a banned call is legitimate —
#: liveness/bookkeeping metadata that never reaches artifact bytes.
ALLOWLIST = frozenset({
    # store entry header: `created` records when the entry landed.
    ("runtime/store.py", "ArtifactStore.put"),
    # crash-debris reclamation compares file ages against wall time.
    ("runtime/backends.py", "LocalDirBackend.sweep_stale_temps"),
    # ledger claims carry their own wall-clock TTL lease.
    ("sweep/ledger.py", "WorkLedger._payload"),
    ("sweep/ledger.py", "WorkLedger.try_claim"),
})


class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "no wall clocks or entropy sources in key-derivation or "
        "output-serialization modules"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for src in ctx.iter_files(prefixes=SCOPE):
            origins = import_origins(src.tree)
            quals = qualnames(src.tree)
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = resolve_call_name(node, origins)
                if not name:
                    continue
                banned = name in BANNED_CALLS or \
                    name.split(".")[0] in BANNED_MODULES
                if not banned:
                    continue
                qual = quals.get(node, "<module>")
                if (src.rel, qual) in ALLOWLIST:
                    continue
                yield Finding(
                    rule=self.id,
                    path=src.rel,
                    line=node.lineno,
                    message=(
                        f"nondeterministic call {name}() in {qual} — "
                        f"this module feeds cache keys or byte-stable "
                        f"outputs"
                    ),
                    hint=(
                        "derive the value from inputs (seed, config, "
                        "stored artifacts); if this is liveness metadata "
                        "that never reaches artifact bytes, add the "
                        "(file, function) pair to the allowlist in "
                        "repro/analysis/rules/determinism.py or mark the "
                        "line `# repro: lint-ok[determinism]`"
                    ),
                )
