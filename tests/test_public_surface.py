"""The public surface: every name a module's ``__all__`` lists exists, and
the package re-exports only listed names, so that deleting a function
cannot leave a dangling export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hyperlip

MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperlip.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"hyperlip.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from hyperlip.{name} import *", {})


def test_the_package_imports_only_listed_names():
    tree = ast.parse(Path(hyperlip.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    unlisted = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
                if alias.name not in importlib.import_module(f"hyperlip.{node.module}").__all__]
    assert unlisted == []
