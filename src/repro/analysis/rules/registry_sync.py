"""Rule ``registry-sync``: registries and CLI surfaces cannot drift.

Five drift classes this catches, all of which have bitten registries
like this one before:

* an experiment module under ``evaluation/experiments/`` that never
  calls ``register_experiment`` — it imports fine, renders fine when
  called directly, and silently vanishes from ``repro report``;
* a module present in the directory but missing from the package
  ``__init__``'s imports — registration happens at import time, so an
  unimported module never registers at all;
* a CLI argument whose value set mirrors a registry (kernel backends,
  artifact kinds) but is spelled as a hard-coded literal — the PR 6 CLI
  listed artifact kinds by hand and silently omitted ``claim``. Such
  arguments must derive their ``choices`` from the registry (a name or
  call), never a literal tuple;
* a kernel-backend class under ``sparse/kernels/`` (a concrete ``name``
  on a ``*Backend`` subclass) that the kernels package never passes to
  ``register_backend(Cls())``. Such a backend imports fine but can never
  be requested: ``backend_choices()`` (and with it every CLI surface)
  omits it;
* a pipeline-stage class in ``hardware/pipeline.py`` (a concrete
  ``name`` on a ``*Stage`` subclass) that the module never passes to
  ``register_stage()`` — ``get_stage()`` would raise on the name every
  ``PipelineSettings.stages`` chain mentions it with.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
)

EXPERIMENTS_DIR = "evaluation/experiments/"
EXPERIMENTS_INIT = "evaluation/experiments/__init__.py"
REGISTER_CALL = "register_experiment"

KERNELS_DIR = "sparse/kernels/"
KERNELS_INIT = "sparse/kernels/__init__.py"
REGISTER_BACKEND_CALL = "register_backend"

PIPELINE_MODULE = "hardware/pipeline.py"
REGISTER_STAGE_CALL = "register_stage"

#: CLI arguments whose choices mirror a registry and must stay dynamic.
DYNAMIC_CHOICE_FLAGS = {
    "--kernel-backend": "the kernel registry "
                        "(repro.sparse.kernels.backend_choices)",
    "--kind": "the artifact-kind constants (repro.runtime.keys.ALL_KINDS)",
}


class RegistrySyncRule(Rule):
    id = "registry-sync"
    description = (
        "experiment modules register an ExperimentSpec, the experiments "
        "package imports them all, and registry-mirroring CLI choices "
        "are derived, not hard-coded"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._check_experiment_modules(ctx)
        yield from self._check_experiments_init(ctx)
        yield from self._check_cli_choices(ctx)
        yield from self._check_kernel_backends(ctx)
        yield from self._check_pipeline_stages(ctx)

    # ------------------------------------------------------------------
    def _experiment_modules(self, ctx: LintContext):
        for src in ctx.iter_files(prefixes=(EXPERIMENTS_DIR,)):
            if src.rel != EXPERIMENTS_INIT:
                yield src

    def _check_experiment_modules(self, ctx: LintContext):
        for src in self._experiment_modules(ctx):
            registers = any(
                isinstance(node, ast.Call) and
                dotted_name(node.func).split(".")[-1] == REGISTER_CALL
                for node in ast.walk(src.tree)
            )
            if not registers:
                yield Finding(
                    rule=self.id,
                    path=src.rel,
                    line=1,
                    message=(
                        "experiment module never calls "
                        f"{REGISTER_CALL}() — it will not appear in "
                        "`repro report` or the CLI"
                    ),
                    hint="register an ExperimentSpec (name, title, "
                         "runner, gcod_deps) via "
                         "repro.runtime.registry.register_experiment",
                )

    def _check_experiments_init(self, ctx: LintContext):
        init = ctx.get(EXPERIMENTS_INIT)
        if init is None:
            return  # partial tree
        imported = set()
        for node in ast.walk(init.tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(
                    alias.name.split(".")[-1] for alias in node.names
                )
        for src in self._experiment_modules(ctx):
            module = src.rel[len(EXPERIMENTS_DIR):-len(".py")]
            if "/" in module:
                continue  # nested helper packages are not experiment modules
            if module not in imported:
                yield Finding(
                    rule=self.id,
                    path=EXPERIMENTS_INIT,
                    line=1,
                    message=(
                        f"module {module!r} exists under "
                        f"{EXPERIMENTS_DIR} but is never imported — "
                        f"registration happens at import time, so its "
                        f"experiment never registers"
                    ),
                    hint=f"import {module} in {EXPERIMENTS_INIT} (and "
                         f"add it to __all__)",
                )

    # ------------------------------------------------------------------
    def _kernel_backend_classes(self, ctx: LintContext):
        """Concrete backend classes: ``class XBackend(...Backend)`` with a
        class-level ``name = "<literal>"`` other than ``abstract``."""
        for src in ctx.iter_files(prefixes=(KERNELS_DIR,)):
            if src.rel == KERNELS_INIT:
                continue
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not any(dotted_name(b).split(".")[-1].endswith("Backend")
                           for b in node.bases):
                    continue
                backend_name = None
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Name)
                            and stmt.targets[0].id == "name"
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)):
                        backend_name = stmt.value.value
                if backend_name is None or backend_name == "abstract":
                    continue
                yield src, node, backend_name

    def _check_kernel_backends(self, ctx: LintContext):
        init = ctx.get(KERNELS_INIT)
        if init is None:
            return  # partial tree
        registered_classes = set()
        for node in ast.walk(init.tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func).split(".")[-1]
                    == REGISTER_BACKEND_CALL
                    and node.args
                    and isinstance(node.args[0], ast.Call)):
                # register_backend(Cls())
                registered_classes.add(
                    dotted_name(node.args[0].func).split(".")[-1]
                )
        for src, cls, backend_name in self._kernel_backend_classes(ctx):
            if cls.name in registered_classes:
                continue
            yield Finding(
                rule=self.id,
                path=src.rel,
                line=cls.lineno,
                message=(
                    f"backend class {cls.name!r} (name="
                    f"{backend_name!r}) is never registered in "
                    f"{KERNELS_INIT} — backend_choices() and every CLI "
                    f"surface will omit it"
                ),
                hint=f"call {REGISTER_BACKEND_CALL}({cls.name}()) in "
                     f"{KERNELS_INIT}",
            )

    def _check_pipeline_stages(self, ctx: LintContext):
        """Every concrete ``*Stage`` class must be register_stage()-ed.

        Mirrors the kernel-backend check, except stages register in the
        module that defines them: a ``class XStage(Stage)`` with a
        class-level ``name = "<literal>"`` other than the ABC's
        ``"stage"`` placeholder needs a ``register_stage(XStage())``
        call somewhere in the same file.
        """
        src = ctx.get(PIPELINE_MODULE)
        if src is None:
            return  # partial tree
        registered = set()
        for node in ast.walk(src.tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func).split(".")[-1]
                    == REGISTER_STAGE_CALL
                    and node.args
                    and isinstance(node.args[0], ast.Call)):
                registered.add(
                    dotted_name(node.args[0].func).split(".")[-1]
                )
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(dotted_name(b).split(".")[-1].endswith("Stage")
                       for b in node.bases):
                continue
            stage_name = None
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == "name"
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    stage_name = stmt.value.value
            if stage_name is None or stage_name == "stage":
                continue  # the ABC's placeholder, or an abstract subclass
            if node.name in registered:
                continue
            yield Finding(
                rule=self.id,
                path=src.rel,
                line=node.lineno,
                message=(
                    f"stage class {node.name!r} (name={stage_name!r}) "
                    f"is never registered — get_stage({stage_name!r}) "
                    f"raises for every stage chain naming it"
                ),
                hint=f"call {REGISTER_STAGE_CALL}({node.name}()) at "
                     f"module level in {PIPELINE_MODULE}",
            )

    def _check_cli_choices(self, ctx: LintContext):
        cli = ctx.get("cli.py")
        if cli is None:
            return  # partial tree
        for node in ast.walk(cli.tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func).split(".")[-1] != "add_argument":
                continue
            flags = [
                a.value for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            flag = next((f for f in flags if f in DYNAMIC_CHOICE_FLAGS),
                        None)
            if flag is None:
                continue
            registry = DYNAMIC_CHOICE_FLAGS[flag]
            choices = next(
                (kw.value for kw in node.keywords if kw.arg == "choices"),
                None,
            )
            if choices is None:
                yield Finding(
                    rule=self.id,
                    path=cli.rel,
                    line=node.lineno,
                    message=f"{flag} validates nothing — its value set "
                            f"mirrors {registry}",
                    hint=f"pass choices= derived from {registry} so a "
                         f"typo exits 2 instead of silently matching "
                         f"nothing",
                )
            elif isinstance(choices, (ast.Tuple, ast.List, ast.Constant)):
                yield Finding(
                    rule=self.id,
                    path=cli.rel,
                    line=node.lineno,
                    message=(
                        f"{flag} hard-codes its choices — the list "
                        f"will drift from {registry} the next time an "
                        f"entry is added"
                    ),
                    hint=f"derive choices from {registry} instead of a "
                         f"literal",
                )
