"""Each violation class, seeded into a scratch tree, fires its rule.

The acceptance contract: `repro lint` exits 0 on the shipped tree, and
seeding any of the six violation classes makes it exit 1 naming the
rule, file, and line.
"""

from __future__ import annotations

import pytest

from repro.analysis import lint_tree

from tests.analysis.conftest import append_to, rewrite


def findings_for(tree, rule=None, **kwargs):
    report = lint_tree(root=str(tree), **kwargs)
    if rule is None:
        return report.findings
    return [f for f in report.findings if f.rule == rule]


def test_shipped_tree_is_clean():
    report = lint_tree()  # the installed package
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.exit_code == 0


def test_scratch_copy_is_clean(scratch_tree):
    assert findings_for(scratch_tree) == []


# ----------------------------------------------------------------------
# rule 1: determinism
# ----------------------------------------------------------------------
def test_determinism_flags_wall_clock_in_keys(scratch_tree):
    append_to(scratch_tree / "runtime" / "keys.py", (
        "\n\ndef _stamp():\n"
        "    import time\n"
        "    return time.time()\n"
    ))
    hits = findings_for(scratch_tree, "determinism")
    assert len(hits) == 1
    assert hits[0].path == "runtime/keys.py"
    assert hits[0].line > 0
    assert "time.time" in hits[0].message


@pytest.mark.parametrize("snippet,name", [
    ("import random\nV = random.random()\n", "random.random"),
    ("import os\nV = os.urandom(8)\n", "os.urandom"),
    ("from datetime import datetime\nV = datetime.now()\n",
     "datetime.datetime.now"),
    ("from time import time\nV = time()\n", "time.time"),
])
def test_determinism_flags_each_entropy_source(scratch_tree, snippet,
                                               name):
    append_to(scratch_tree / "sweep" / "aggregate.py", "\n" + snippet)
    hits = findings_for(scratch_tree, "determinism")
    assert len(hits) == 1 and name in hits[0].message


def test_determinism_ignores_out_of_scope_modules(scratch_tree):
    # cli.py renders wall-clock timestamps (cache ls) legitimately: the
    # rule scopes to key-derivation/serialization modules only.
    append_to(scratch_tree / "cli.py",
              "\nimport time\nV = time.time()\n")
    assert findings_for(scratch_tree, "determinism") == []


def test_determinism_suppression_comment(scratch_tree):
    append_to(scratch_tree / "runtime" / "keys.py", (
        "\nimport time\n"
        "V = time.time()  # repro: lint-ok[determinism]\n"
    ))
    assert findings_for(scratch_tree, "determinism") == []


def test_allowlisted_uses_stay_clean(scratch_tree):
    # store `created` metadata, ledger `claimed_at`, stale-temp sweeps:
    # present in the real tree, allowlisted, so the copy lints clean.
    assert findings_for(scratch_tree, "determinism") == []


# ----------------------------------------------------------------------
# rule 2: key-coverage
# ----------------------------------------------------------------------
def test_new_gcod_config_field_without_key_update_fails(scratch_tree):
    """The acceptance criterion: a dummy field on GCoDConfig, with
    runtime/keys.py untouched, is a lint error naming the field."""
    rewrite(
        scratch_tree / "algorithm" / "config.py",
        "    kernel_backend: Optional[str] = None",
        "    kernel_backend: Optional[str] = None\n"
        "    dummy_knob: float = 1.0",
    )
    hits = findings_for(scratch_tree, "key-coverage")
    assert len(hits) == 1
    assert hits[0].path == "algorithm/config.py"
    assert "GCoDConfig.dummy_knob" in hits[0].message
    assert "bump" in hits[0].hint and "CODE_SCHEMA_VERSION" in hits[0].hint
    # the finding points at the seeded field's line
    lines = (scratch_tree / "algorithm" / "config.py").read_text() \
        .splitlines()
    assert "dummy_knob" in lines[hits[0].line - 1]


def test_covering_the_new_field_clears_the_finding(scratch_tree):
    rewrite(
        scratch_tree / "algorithm" / "config.py",
        "    kernel_backend: Optional[str] = None",
        "    kernel_backend: Optional[str] = None\n"
        "    dummy_knob: float = 1.0",
    )
    rewrite(
        scratch_tree / "runtime" / "keys.py",
        '            "kernel_backend",',
        '            "kernel_backend",\n            "dummy_knob",',
    )
    assert findings_for(scratch_tree, "key-coverage") == []


def test_stale_coverage_entry_is_flagged(scratch_tree):
    rewrite(
        scratch_tree / "runtime" / "keys.py",
        '            "kernel_backend",\n',
        '            "kernel_backend",\n            "ghost_field",\n',
    )
    hits = findings_for(scratch_tree, "key-coverage")
    assert len(hits) == 1
    assert "ghost_field" in hits[0].message
    assert hits[0].path == "runtime/keys.py"


def test_sweep_spec_fields_are_declared(scratch_tree):
    rewrite(
        scratch_tree / "sweep" / "spec.py",
        '    description: str = ""',
        '    description: str = ""\n    new_axis_knob: int = 0',
    )
    hits = findings_for(scratch_tree, "key-coverage")
    assert len(hits) == 1 and "SweepSpec.new_axis_knob" in hits[0].message


# ----------------------------------------------------------------------
# rule 4: store-write discipline
# ----------------------------------------------------------------------
def test_raw_write_in_store_module_is_flagged(scratch_tree):
    append_to(scratch_tree / "runtime" / "store.py", (
        "\n\ndef _sneaky(path, blob):\n"
        "    with open(path, 'wb') as fh:\n"
        "        fh.write(blob)\n"
    ))
    hits = findings_for(scratch_tree, "store-write")
    assert len(hits) == 1
    assert hits[0].path == "runtime/store.py"
    assert "open" in hits[0].message
    assert "StoreBackend" in hits[0].hint


def test_os_rename_in_sweep_is_flagged(scratch_tree):
    append_to(scratch_tree / "sweep" / "manifest.py", (
        "\nimport os\n\n"
        "def _swap(a, b):\n"
        "    os.rename(a, b)\n"
    ))
    hits = findings_for(scratch_tree, "store-write")
    assert len(hits) == 1 and "os.rename" in hits[0].message


def test_reads_and_backend_writes_stay_legal(scratch_tree):
    # backends.py itself is the allowed module, and plain reads are fine
    append_to(scratch_tree / "runtime" / "store.py", (
        "\n\ndef _peek(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
    ))
    assert findings_for(scratch_tree, "store-write") == []


# ----------------------------------------------------------------------
# rule 5: exception hygiene
# ----------------------------------------------------------------------
def test_silent_broad_except_is_flagged(scratch_tree):
    append_to(scratch_tree / "runtime" / "store.py", (
        "\n\ndef _swallow(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        return None\n"
    ))
    hits = findings_for(scratch_tree, "except-swallow")
    assert len(hits) == 1
    assert hits[0].path == "runtime/store.py"
    assert "except Exception" in hits[0].message


def test_reraise_and_stderr_note_are_accepted(scratch_tree):
    append_to(scratch_tree / "runtime" / "store.py", (
        "\n\ndef _wrap(fn):\n"
        "    import sys\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception as exc:\n"
        "        raise RuntimeError('wrapped') from exc\n"
        "\n\n"
        "def _degrade(fn):\n"
        "    import sys\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception as exc:\n"
        "        print('degraded:', exc, file=sys.stderr)\n"
        "        return None\n"
    ))
    assert findings_for(scratch_tree, "except-swallow") == []


def test_bare_except_is_flagged(scratch_tree):
    append_to(scratch_tree / "graphs" / "stats.py", (
        "\n\ndef _shrug(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except:\n"
        "        return 0\n"
    ))
    hits = findings_for(scratch_tree, "except-swallow")
    assert len(hits) == 1 and "bare except" in hits[0].message


# ----------------------------------------------------------------------
# rule 6: registry consistency
# ----------------------------------------------------------------------
def test_unregistered_experiment_module_is_flagged(scratch_tree):
    (scratch_tree / "evaluation" / "experiments" / "tab99_new.py") \
        .write_text(
            '"""A new experiment that forgot to register."""\n\n'
            "def run(context):\n"
            "    return None\n"
        )
    hits = findings_for(scratch_tree, "registry-sync")
    paths = {f.path for f in hits}
    assert "evaluation/experiments/tab99_new.py" in paths
    assert any("register_experiment" in f.message for f in hits)
    # and the package __init__ is flagged for not importing it
    assert "evaluation/experiments/__init__.py" in paths
    assert any("never imported" in f.message for f in hits)


def test_hardcoded_cli_choices_are_flagged(scratch_tree):
    rewrite(
        scratch_tree / "cli.py",
        "choices=backend_choices()",
        "choices=('reference', 'vectorized', 'tiled')",
    )
    hits = findings_for(scratch_tree, "registry-sync")
    assert len(hits) == 1
    assert hits[0].path == "cli.py"
    assert "--kernel-backend" in hits[0].message
    assert "drift" in hits[0].message


def test_unregistered_kernel_backend_is_flagged(scratch_tree):
    (scratch_tree / "sparse" / "kernels" / "turbo.py").write_text(
        '"""A new backend that forgot to register."""\n\n'
        "from repro.sparse.kernels.vectorized import VectorizedBackend\n\n\n"
        "class TurboBackend(VectorizedBackend):\n"
        '    name = "turbo"\n'
    )
    hits = findings_for(scratch_tree, "registry-sync")
    assert len(hits) == 1
    assert hits[0].path == "sparse/kernels/turbo.py"
    assert "TurboBackend" in hits[0].message
    assert "backend_choices()" in hits[0].message
    assert "register_backend(TurboBackend())" in hits[0].hint


def test_unregistered_pipeline_stage_is_flagged(scratch_tree):
    append_to(
        scratch_tree / "hardware" / "pipeline.py",
        "\n\nclass ShadowStage(Stage):\n"
        '    name = "shadow"\n\n'
        "    def run(self, state, settings, context):\n"
        "        pass\n",
    )
    hits = findings_for(scratch_tree, "registry-sync")
    assert len(hits) == 1
    assert hits[0].path == "hardware/pipeline.py"
    assert "ShadowStage" in hits[0].message
    assert "get_stage('shadow')" in hits[0].message
    assert "register_stage(ShadowStage())" in hits[0].hint


def test_registered_extra_stage_satisfies_stage_sync(scratch_tree):
    append_to(
        scratch_tree / "hardware" / "pipeline.py",
        "\n\nclass ShadowStage(Stage):\n"
        '    name = "shadow"\n\n'
        "    def run(self, state, settings, context):\n"
        "        pass\n\n\n"
        "register_stage(ShadowStage())\n",
    )
    assert findings_for(scratch_tree, "registry-sync") == []


def test_kind_filter_must_validate(scratch_tree):
    rewrite(
        scratch_tree / "cli.py",
        'p_cache.add_argument("--kind", default=None, choices=ALL_KINDS,',
        'p_cache.add_argument("--kind", default=None,',
    )
    hits = findings_for(scratch_tree, "registry-sync")
    assert len(hits) == 1 and "--kind" in hits[0].message


# ----------------------------------------------------------------------
# engine behavior
# ----------------------------------------------------------------------
def test_parse_error_surfaces_as_finding(scratch_tree):
    (scratch_tree / "runtime" / "broken.py").write_text("def oops(:\n")
    hits = findings_for(scratch_tree)
    assert any(f.rule == "parse-error" and f.path == "runtime/broken.py"
               for f in hits)


def test_rule_subset_selection(scratch_tree):
    append_to(scratch_tree / "runtime" / "keys.py",
              "\nimport time\nV = time.time()\n")
    # only the selected rule runs
    assert findings_for(scratch_tree, rules="store-write") == []
    hits = findings_for(scratch_tree, rules="determinism")
    assert [f.rule for f in hits] == ["determinism"]


def test_unknown_rule_gets_did_you_mean():
    from repro.analysis.rules import resolve_rules
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="did you mean 'determinism'"):
        resolve_rules("Determinism")
    with pytest.raises(ConfigError, match="choose from"):
        resolve_rules("zzz")


def test_baseline_grandfathers_findings(scratch_tree, tmp_path):
    from repro.analysis import lint_tree, write_baseline

    append_to(scratch_tree / "runtime" / "keys.py",
              "\nimport time\nV = time.time()\n")
    report = lint_tree(root=str(scratch_tree), use_baseline=False)
    assert report.exit_code == 1
    baseline = tmp_path / "baseline.json"
    write_baseline(str(baseline), report.findings)
    rebaselined = lint_tree(root=str(scratch_tree),
                            baseline=str(baseline))
    assert rebaselined.exit_code == 0
    assert len(rebaselined.baselined) == len(report.findings)
    # a *new* finding still fails against the same baseline
    append_to(scratch_tree / "runtime" / "keys.py",
              "import os\nW = os.urandom(4)\n")
    again = lint_tree(root=str(scratch_tree), baseline=str(baseline))
    assert again.exit_code == 1
    assert len(again.findings) == 1 and "os.urandom" in \
        again.findings[0].message
