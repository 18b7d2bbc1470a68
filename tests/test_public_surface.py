"""The public surface: every name a module's ``__all__`` lists exists, and
the package re-exports only listed names, so that deleting a function
cannot leave a dangling export behind.  No module imports a name it never
reads, unless the benchmark's tracer patches that binding.  (The package's
own imports are its exports.)"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import ModuleType

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


def _unread_imports(path, exported):
    """The names the module at ``path`` imports and never reads, apart from
    those it lists in ``__all__`` (``exported``)."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - set(exported)


def test_every_unread_import_is_a_traced_binding():
    """``bench/tracing.py`` patches the bindings of its ``_SPANS`` and
    ``boxset._compile``; a module may keep those without reading them.  Any
    other unread import is left over from deleted code."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(owner.__name__, attr) for owner, attr, *_ in tracing._SPANS
              if isinstance(owner, ModuleType)} | {("hyperlip.boxset", "_compile")}
    stray = []
    for name in MODULES:
        module = importlib.import_module(f"hyperlip.{name}")
        stray += [(module.__name__, n) for n in _unread_imports(Path(module.__file__),
                                                                module.__all__)
                  if (module.__name__, n) not in traced]
    assert sorted(stray) == []
