"""The lint engine: parsed sources, findings, suppressions, rule plumbing.

``repro lint`` is a set of composable AST passes over the ``repro``
package's own source tree. This module owns everything the rules share:

* :class:`SourceFile` — one parsed module (text, AST, per-line
  suppressions) addressed by its path relative to the package root;
* :class:`LintContext` — the whole scanned tree plus helpers rules use to
  scope themselves (``iter_files``) and to cross-reference other modules
  (``get``);
* :class:`Finding` — one violation: rule id, file, line, message, and a
  fix hint;
* :class:`Rule` — the plugin interface every pass implements;
* :func:`run_rules` — execute rules over a context, applying per-line
  ``# repro: lint-ok[rule-id]`` suppressions.

Everything is stdlib-``ast`` based — no imports of the code under
analysis — so the passes also run over *mutated copies* of the tree
(tests seed violations into scratch packages and lint those).
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Per-line suppression: ``# repro: lint-ok[rule-a,rule-b]`` disables the
#: named rules on that line; bare ``# repro: lint-ok`` disables all rules.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok(?:\[([A-Za-z0-9_,\- ]*)\])?"
)

#: Suppression marker meaning "every rule".
ALL_RULES = "*"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at source with a fix hint."""

    rule: str
    #: path relative to the scanned package root, posix-style.
    path: str
    line: int
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file.

        Deliberately excludes ``line`` so grandfathered findings survive
        unrelated edits that shift code up or down.
        """
        return f"{self.rule}::{self.path}::{self.message}"

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }


@dataclasses.dataclass
class SourceFile:
    """One parsed module of the scanned tree."""

    rel: str
    path: str
    text: str
    tree: ast.Module
    #: line number -> rule ids suppressed there (:data:`ALL_RULES` = all).
    suppressions: Dict[int, Tuple[str, ...]]

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    def suppressed(self, rule: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        if ids is None:
            return False
        return ALL_RULES in ids or rule in ids


def _parse_suppressions(text: str) -> Dict[int, Tuple[str, ...]]:
    out: Dict[int, Tuple[str, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        raw = m.group(1)
        if raw is None:
            out[lineno] = (ALL_RULES,)
        else:
            ids = tuple(p.strip() for p in raw.split(",") if p.strip())
            out[lineno] = ids or (ALL_RULES,)
    return out


class LintContext:
    """Every parsed source file under one package root.

    ``root`` is the directory that *is* the package (the one containing
    ``runtime/``, ``sweep/``, ...). Files that fail to parse surface as
    ``parse-error`` findings rather than crashing the whole run: a lint
    tool that dies on a syntax error hides every other finding.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.files: Dict[str, SourceFile] = {}
        self.parse_errors: List[Finding] = []
        self._scan()

    def _scan(self) -> None:
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.startswith(".")
            )
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, self.root).replace(os.sep, "/")
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        text = fh.read()
                    tree = ast.parse(text, filename=path)
                except (OSError, SyntaxError, ValueError) as exc:
                    line = getattr(exc, "lineno", None) or 1
                    self.parse_errors.append(Finding(
                        rule="parse-error",
                        path=rel,
                        line=line,
                        message=f"cannot parse: {exc}",
                        hint="fix the syntax error; no other rule can "
                             "check this file until it parses",
                    ))
                    continue
                self.files[rel] = SourceFile(
                    rel=rel,
                    path=path,
                    text=text,
                    tree=tree,
                    suppressions=_parse_suppressions(text),
                )

    def get(self, rel: str) -> Optional[SourceFile]:
        """The parsed file at ``rel``, or ``None`` if absent/unparsable."""
        return self.files.get(rel)

    def iter_files(
        self,
        prefixes: Optional[Sequence[str]] = None,
        exclude: Sequence[str] = (),
    ) -> Iterator[SourceFile]:
        """Files under any of ``prefixes`` (all files when ``None``).

        A prefix is either a directory prefix (``"runtime/"``) or an
        exact relative path (``"evaluation/context.py"``); ``exclude``
        names exact relative paths to skip.
        """
        for rel in sorted(self.files):
            if rel in exclude:
                continue
            if prefixes is None or any(
                rel == p or (p.endswith("/") and rel.startswith(p))
                for p in prefixes
            ):
                yield self.files[rel]


class Rule:
    """The plugin interface: one composable AST pass.

    Subclasses set ``id``/``description`` and implement :meth:`check`,
    yielding :class:`Finding`\\ s. Rules must not import the code under
    analysis — AST only — so they keep working on scratch copies of the
    tree. A rule that needs cross-file context (e.g. the dataclass fields
    of one module against the key functions of another) looks siblings up
    through the context and *skips silently* when its subject files are
    absent: per-file rules run on any tree, structural rules need the
    real package layout.
    """

    id: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.id}>"


def run_rules(
    ctx: LintContext, rules: Iterable[Rule]
) -> List[Finding]:
    """Run ``rules`` over ``ctx``; returns unsuppressed findings, sorted.

    Per-line ``# repro: lint-ok[rule-id]`` comments on the *flagged line*
    suppress matching findings. Parse errors always surface (they cannot
    be suppressed by a comment in a file that does not parse).
    """
    findings: List[Finding] = list(ctx.parse_errors)
    for rule in rules:
        for finding in rule.check(ctx):
            src = ctx.files.get(finding.path)
            if src is not None and src.suppressed(finding.rule,
                                                  finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


# ----------------------------------------------------------------------
# shared AST helpers (used by several rules)
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for an attribute/name chain, ``""`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def import_origins(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import time`` -> ``{"time": "time"}``; ``from time import time`` ->
    ``{"time": "time.time"}``; ``from datetime import datetime as dt`` ->
    ``{"dt": "datetime.datetime"}``. Lets call-site names resolve to
    their true module paths without executing any imports.
    """
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = f"{node.module}.{alias.name}"
    return origins


def resolve_call_name(node: ast.Call, origins: Dict[str, str]) -> str:
    """The fully-qualified dotted name a call resolves to, best-effort."""
    name = dotted_name(node.func)
    if not name:
        return ""
    head, _, rest = name.partition(".")
    origin = origins.get(head)
    if origin:
        return f"{origin}.{rest}" if rest else origin
    return name


def qualnames(tree: ast.Module) -> Dict[ast.AST, str]:
    """Map every node to its enclosing ``Class.method`` qualified name.

    Module-level nodes map to ``"<module>"``. Used by allowlists that
    except specific functions (the ledger's ``claimed_at`` stamp, the
    store's ``created`` metadata) from an otherwise-banned pattern.
    """
    out: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_qual = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_qual = f"{qual}.{child.name}" if qual else child.name
            out[child] = child_qual or "<module>"
            visit(child, child_qual)

    visit(tree, "")
    return out


def dataclass_fields(class_node: ast.ClassDef) -> List[Tuple[str, str, str]]:
    """The annotated fields of a dataclass body, in declaration order.

    Returns ``(name, annotation_source, default_source)`` triples;
    ``ClassVar`` annotations and unannotated assignments are not fields.
    """
    fields: List[Tuple[str, str, str]] = []
    for stmt in class_node.body:
        if not isinstance(stmt, ast.AnnAssign) or \
                not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith("ClassVar"):
            continue
        default = ast.unparse(stmt.value) if stmt.value is not None else ""
        fields.append((stmt.target.id, annotation, default))
    return fields


def find_class(src: SourceFile, name: str) -> Optional[ast.ClassDef]:
    """The top-level class ``name`` in ``src``, or ``None``."""
    for node in src.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def literal_dict(src: SourceFile, name: str):
    """The literal value assigned to module-level constant ``name``.

    Returns ``None`` when absent or not a pure literal. Used to read
    declarations (``KEY_FIELD_COVERAGE``, ``CODE_SCHEMA_VERSION``) from
    source without importing it.
    """
    for node in src.tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                try:
                    return ast.literal_eval(value)
                except (ValueError, SyntaxError):
                    return None
    return None
