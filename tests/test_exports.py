"""Every name a module exports resolves, and is listed once."""

import importlib
import pkgutil

import pytest

import liepencil

MODULES = [liepencil] + [
    importlib.import_module(f"liepencil.{info.name}")
    for info in pkgutil.iter_modules(liepencil.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve_once(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []
