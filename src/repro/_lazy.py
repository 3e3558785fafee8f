"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imported every submodule up front made
``import repro`` load scipy, which ``repro --help``, ``repro lint`` and
the report planner never use. Each package instead declares which
submodule defines each public name::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".graph": ("Graph",),
        ".datasets": ("DATASET_SPECS", "load_dataset"),
    })

``from repro.graphs import Graph`` then imports ``repro.graphs.graph`` on
first access and caches the name in the package namespace, so the
second lookup is a plain attribute read. ``__all__`` (and with it
``from pkg import *``) and ``dir(pkg)`` list every exported name.
"""

from __future__ import annotations

import importlib
import sys
from importlib.util import resolve_name
from typing import Callable, Dict, List, Sequence, Tuple

#: package -> {exported name: absolute module that defines it}.
_ORIGINS: Dict[str, Dict[str, str]] = {}


def lazy_exports(
    package: str,
    table: Dict[str, Sequence[str]],
    own: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``table`` maps a module (relative to ``package`` when it starts with
    a dot) to the names it defines; ``own`` lists names the package's
    ``__init__`` defines itself, which ``__all__`` lists first.
    """
    origins = {name: package for name in own}
    for module, names in table.items():
        absolute = resolve_name(module, package)
        for name in names:
            origins[name] = absolute
    _ORIGINS[package] = origins
    namespace = sys.modules[package].__dict__
    for name, module in origins.items():
        if module == f"{package}.{name}":
            # Importing a submodule binds it on its package under its own
            # name, which would shadow a same-named export for good; so
            # such an export is bound now, after its submodule.
            namespace[name] = getattr(importlib.import_module(module), name)

    def __getattr__(name: str) -> object:
        module = origins.get(name)
        if module is None or module == package:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    return list(origins), __getattr__, __dir__
