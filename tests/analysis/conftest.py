"""Shared fixture: a mutable scratch copy of the real repro package.

The lint rules are pure AST passes, so they run unchanged over a copied
tree — which is how every violation class gets seeded and asserted
without touching the shipped sources.
"""

from __future__ import annotations

import os
import shutil

import pytest

import repro
from repro.analysis.rules.orphan import CALLER_DIRS
from repro.runtime.keys import CODE_SCHEMA_VERSION

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_ROOT))


@pytest.fixture()
def scratch_tree(tmp_path):
    """A full copy of the repro package, safe to mutate.

    The copy sits at ``src/repro`` beside copies of the caller
    directories, as in the checkout, so the orphan rule sees the same
    uses it sees in the shipped tree.
    """
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    dest = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE_ROOT, dest, ignore=ignore)
    for name in CALLER_DIRS:
        src = os.path.join(REPO_ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, tmp_path / name, ignore=ignore)
    return dest


def append_to(path, text):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


def rewrite(path, old, new):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert old in text, f"expected {old!r} in {path}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def bump_schema_version(tree):
    """Raise the scratch tree's CODE_SCHEMA_VERSION by one, whatever it is."""
    rewrite(
        tree / "runtime" / "keys.py",
        f"CODE_SCHEMA_VERSION = {CODE_SCHEMA_VERSION}",
        f"CODE_SCHEMA_VERSION = {CODE_SCHEMA_VERSION + 1}",
    )
