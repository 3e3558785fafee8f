"""The import graph stays light: lazy package roots, and verbs that
never train load no scipy.

Every package root re-exports its public names through
:func:`repro._lazy.lazy_exports`; the first half checks that each of them
behaves like the eager ``from .mod import name`` it replaced. The second
half starts fresh interpreters and checks what the report planner and the
light CLI verbs leave in ``sys.modules``.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro._lazy import _ORIGINS

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

LAZY_PACKAGES = (
    "repro",
    "repro.algorithm",
    "repro.compression",
    "repro.evaluation",
    "repro.graphs",
    "repro.hardware",
    "repro.nn",
    "repro.nn.models",
    "repro.partition",
    "repro.serve",
    "repro.sparse.kernels",
    "repro.sweep",
    "repro.utils",
)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_exports(name):
    pkg = importlib.import_module(name)
    origins = _ORIGINS[name]
    assert list(pkg.__all__) == list(origins)
    for attr in pkg.__all__:
        defining = importlib.import_module(origins[attr])
        assert getattr(pkg, attr) is getattr(defining, attr), attr
    assert set(pkg.__all__) <= set(dir(pkg))
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        getattr(pkg, "no_such_export")
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)


def test_every_lazy_package_is_covered():
    for name in LAZY_PACKAGES:
        importlib.import_module(name)
    assert set(_ORIGINS) == set(LAZY_PACKAGES)


# ----------------------------------------------------------------------
# fresh interpreters
# ----------------------------------------------------------------------
#: Prints which of numpy/scipy the statements before it loaded.
_LOADED = (
    "sys.stderr.write('\\nLOADED ' + json.dumps(sorted(\n"
    "    m for m in ('numpy', 'scipy') if m in sys.modules)) + '\\n')\n"
)

#: What a cold ``repro report`` does before its first training run.
_PLAN_PROBE = (
    "import json, sys\n"
    "from repro.evaluation import EvalContext\n"
    "from repro.evaluation.report import report_results\n"
    "from repro.runtime.runner import plan_experiments\n"
    "from repro.runtime.store import ArtifactStore\n"
    "ctx = EvalContext(profile='fast', store=ArtifactStore(sys.argv[1]))\n"
    "plan = plan_experiments(ctx, ['tab06', 'multi-tenant'])\n"
    "assert len(plan.tasks) == 6, plan.describe()\n"
) + _LOADED

#: ``python -m repro ARGS``, then the report line.
_CLI = (
    "import json, runpy, sys\n"
    "sys.argv = ['repro'] + sys.argv[1:]\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code in (0, None), exc.code\n"
) + _LOADED


def _loaded(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("LOADED "), out.stderr
    return json.loads(last[len("LOADED "):])


def test_report_planning_loads_no_scipy(tmp_path):
    assert "scipy" not in _loaded(_PLAN_PROBE, tmp_path)


@pytest.mark.parametrize("argv, banned", [
    (["--help"], ["numpy", "scipy"]),
    (["lint", "--help"], ["numpy", "scipy"]),
    (["lint"], ["numpy", "scipy"]),
    (["cache", "ls"], ["scipy"]),
    (["cache", "stats"], ["scipy"]),
], ids=["help", "lint-help", "lint", "cache-ls", "cache-stats"])
def test_light_verbs_load_no_scipy(tmp_path, argv, banned):
    loaded = _loaded(_CLI, "--cache-dir", tmp_path / "store", *argv)
    assert not set(banned) & set(loaded), loaded


#: A two-child ``jobs=2`` sweep from a fresh interpreter whose planning
#: imported no training code; every module a child imports is logged.
_POOL_PROBE = (
    "import os, sys\n"
    "log = sys.argv[2]\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        with open(log, 'a') as fh:\n"
    "            fh.write(name + '\\n')\n"
    "def child():\n"
    "    with open(log, 'a') as fh:\n"
    "        fh.write('<fork>\\n')\n"
    "    sys.meta_path.insert(0, Spy())\n"
    "os.register_at_fork(after_in_child=child)\n"
    "import repro.runtime.runner as runner\n"
    "runner.effective_cpu_count = lambda: 2  # real children on any host\n"
    "from repro.evaluation import EvalContext\n"
    "from repro.runtime.store import ArtifactStore\n"
    "from repro.sweep.engine import run_sweep\n"
    "from repro.sweep.spec import SweepSpec\n"
    "ctx = EvalContext(store=ArtifactStore(sys.argv[1]),\n"
    "                  dataset_scales={'cora': 0.1})\n"
    "spec = SweepSpec(name='fork', title='fork',\n"
    "                 axes={'dataset': ('cora',), 'C': (1, 2),\n"
    "                       'bits': (32, 8)})\n"
    "run_sweep(ctx, spec, jobs=2)\n"
)


def test_pool_children_import_nothing(tmp_path):
    log = tmp_path / "child-imports.log"
    log.write_text("")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", _POOL_PROBE, str(tmp_path / "s"),
                    str(log)], env=env, check=True, timeout=300)
    lines = log.read_text().split()
    # one pool for the two trainings, one for the four points
    assert lines.count("<fork>") == 4
    assert [m for m in lines if m != "<fork>"] == []
