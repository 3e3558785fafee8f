"""Rule ``store-write``: store bytes move only through the backend.

The store's crash-safety guarantees (atomic writes, each entry one blob
with its metadata, stale-temp sweeps, content-verified HTTP PUTs) live
entirely in :mod:`repro.runtime.backends`. They hold only if nothing
else touches store files: one raw ``open(path, "w")`` or ``os.rename``
against a store root reintroduces every torn-write bug the backend was
built to kill.

Statically proving a path targets a store root is undecidable, so the
rule enforces the structural version: inside the store-adjacent packages
(``runtime/``, ``sweep/``) no module except ``runtime/backends.py`` may
perform raw filesystem writes — ``open`` in a writing mode,
``os.fdopen`` on a writable descriptor, ``os.rename``/``os.replace``,
or ``shutil.move``/``shutil.copy*``. Code that needs to persist bytes
goes through a :class:`~repro.runtime.backends.StoreBackend`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    import_origins,
    resolve_call_name,
)

#: Where raw writes are forbidden (the store-adjacent packages).
SCOPE = ("runtime/", "sweep/")

#: The one module allowed to move store bytes.
BACKEND_MODULE = "runtime/backends.py"

#: Calls that relocate or clobber files regardless of mode arguments.
MOVE_CALLS = frozenset({
    "os.rename",
    "os.replace",
    "shutil.move",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
})

#: Mode characters that make an ``open`` a write.
_WRITE_MODE_CHARS = set("wax+")


def _write_mode(node: ast.Call) -> bool:
    """True when an ``open``/``os.fdopen`` call opens for writing."""
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # bare open(path) reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return True  # dynamic mode: assume the worst


class StoreWriteRule(Rule):
    id = "store-write"
    description = (
        "no raw file writes or renames in runtime/ or sweep/ outside "
        "runtime/backends.py (atomicity lives in the backend)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for src in ctx.iter_files(prefixes=SCOPE,
                                  exclude=(BACKEND_MODULE,)):
            origins = import_origins(src.tree)
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = resolve_call_name(node, origins)
                if name in MOVE_CALLS:
                    yield Finding(
                        rule=self.id,
                        path=src.rel,
                        line=node.lineno,
                        message=f"raw {name}() in a store-adjacent "
                                f"module",
                        hint="route the write through a StoreBackend "
                             "(runtime/backends.py) so it inherits the "
                             "atomic-write and crash-safety guarantees",
                    )
                elif name in ("open", "io.open", "os.fdopen") and \
                        _write_mode(node):
                    yield Finding(
                        rule=self.id,
                        path=src.rel,
                        line=node.lineno,
                        message=f"raw {name}(..., 'w') in a "
                                f"store-adjacent module",
                        hint="persist bytes via StoreBackend.write / "
                             "put_if_absent — a raw write can leave a "
                             "torn entry under a valid name",
                    )
