"""The public surface of epc: every exported name resolves, and no module
imports a name it neither uses nor exports (a lint in stdlib ast, so it
needs no linter installed)."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import epc

MODULES = [module for module in (
    importlib.import_module(f"epc.{info.name}")
    for info in pkgutil.iter_modules(epc.__path__))
    if hasattr(module, "__all__")]
SOURCE = pathlib.Path(epc.__file__).parent


@pytest.mark.parametrize("module", [epc, *MODULES],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, (module.__name__, missing)


def test_optimal_k_is_exported():
    assert epc.optimal_k is epc.golomb.optimal_k


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression reads and __all__ does not
    list; a __future__ import binds none."""
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(p.name for p in SOURCE.glob("*.py")))
def test_no_unused_import(path):
    tree = ast.parse((SOURCE / path).read_text(), filename=path)
    assert _unused_imports(tree) == []
