"""Rule ``orphan``: every public definition has a caller.

A public top-level function or class that nothing references is code
that is read, tested and kept in step with its neighbours while no
result depends on it. This rule flags an undecorated public top-level
``def``/``class`` whose name is used nowhere outside its own body.

Uses are searched across the package and the ``perfbench/``,
``benchmarks/`` and ``examples/`` directories next to the ``src/``
directory the package sits in. A package outside a ``src/`` checkout (a
non-editable install, a bare copy) has no such directories to search, so
the rule checks no definition and reports that once instead.
``tests/`` is not searched: a definition only its own tests call is
still an orphan. A use is a
name or attribute read, a non-``__init__`` import, or a string
constant spelling the name (``getattr``-style wrapping by name). An
``__init__`` re-export import and an ``__all__`` entry are not uses,
nor is an entry of a lazy re-export table that assigns ``__all__``.
Decorated definitions are skipped: the decorator is their caller.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.core import Finding, LintContext, Rule

#: Directories next to ``src/`` whose code counts as a caller.
CALLER_DIRS = ("perfbench", "benchmarks", "examples")


def _checkout(root: str) -> Optional[str]:
    """The checkout holding the package ``root``, if it sits in ``src/``."""
    src_dir = os.path.dirname(os.path.abspath(root))
    if os.path.basename(src_dir) != "src":
        return None
    return os.path.dirname(src_dir)


def _caller_trees(repo: str) -> Iterator[ast.Module]:
    """Parsed modules of :data:`CALLER_DIRS` in the checkout ``repo``."""
    for name in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo, name)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        tree = ast.parse(fh.read(), filename=path)
                except (OSError, SyntaxError, ValueError):
                    continue  # not this package: its own tools report it
                yield tree


def _is_all(node: ast.AST) -> bool:
    """An assignment to ``__all__``, alone or unpacked beside others (the
    ``__all__, __getattr__, __dir__ = lazy_exports(...)`` re-export
    table)."""
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
        else [])
    return any(isinstance(n, ast.Name) and n.id == "__all__"
               for t in targets for n in ast.walk(t))


def _names_used(node: ast.AST, is_init: bool) -> Iterator[str]:
    """The name ``node`` itself uses, by the module docstring's definition."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        yield node.value
    elif isinstance(node, ast.ImportFrom) and not is_init:
        for alias in node.names:
            yield alias.name


def _uses(tree: ast.Module, is_init: bool) -> Iterator[Tuple[str, str]]:
    """``(name, enclosing top-level definition or "")`` per use."""
    for stmt in tree.body:
        if _is_all(stmt):
            # its names are re-exports, but the helper it calls is used
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    yield node.id, ""
            continue
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) else ""
        for node in ast.walk(stmt):
            for name in _names_used(node, is_init):
                yield name, owner


class OrphanRule(Rule):
    id = "orphan"
    description = (
        "every public top-level def/class is used outside its own body "
        "somewhere in the package, perfbench/, benchmarks/ or examples/"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        repo = _checkout(ctx.root)
        if repo is None:
            yield Finding(
                rule=self.id,
                path="__init__.py",
                line=1,
                message="cannot see perfbench/, benchmarks/ or examples/: "
                        "the package is not in a src/ checkout, so no "
                        "definition was checked",
                hint="lint the package inside its checkout "
                     "(`repro lint src/repro`), or leave this rule out "
                     "with --rules",
            )
            return
        outside = {name for tree in _caller_trees(repo)
                   for name, _ in _uses(tree, False)}
        # A use inside a same-named definition counts only for the
        # same-named definitions of other files.
        own: Dict[str, Set[str]] = {}
        for src in ctx.iter_files():
            is_init = src.rel.endswith("__init__.py")
            for name, owner in _uses(src.tree, is_init):
                if owner == name:
                    own.setdefault(name, set()).add(src.rel)
                else:
                    outside.add(name)
        for src in ctx.iter_files():
            for stmt in src.tree.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    continue
                name = stmt.name
                if name.startswith("_") or stmt.decorator_list:
                    continue
                if name in outside or any(
                    rel != src.rel for rel in own.get(name, ())
                ):
                    continue
                yield Finding(
                    rule=self.id,
                    path=src.rel,
                    line=stmt.lineno,
                    message=f"{name} is defined but never used outside "
                            f"its own body",
                    hint="delete it (and its re-exports and tests), or "
                         "mark a deliberate keeper with "
                         "`# repro: lint-ok[orphan]` and a reason",
                )
