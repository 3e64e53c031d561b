"""Every exported name resolves: stale exports fail here, not in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ringtoa

MODULES = sorted(m.name for m in pkgutil.iter_modules(ringtoa.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_attributes(name):
    mod = importlib.import_module(f"ringtoa.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"ringtoa.{name}.__all__ names undefined {missing}"


def test_package_imports_are_defined():
    tree = ast.parse(Path(ringtoa.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"ringtoa.{node.module}") if node.module else ringtoa
        for alias in node.names:
            assert hasattr(source, alias.name), f"{node.module}.{alias.name} is undefined"
            assert getattr(ringtoa, alias.asname or alias.name) is getattr(source, alias.name)
