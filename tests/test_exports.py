"""Every public name a module lists resolves, and the package re-exports
only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thinshell

MODULES = sorted(m.name for m in pkgutil.iter_modules(thinshell.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"thinshell.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed), "duplicate names in __all__"
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(thinshell.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        module = importlib.import_module(f"thinshell.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
