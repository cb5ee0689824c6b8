"""The public surface of epc: every exported name resolves, README's
reference has an entry for each and names only what exists, and no module
imports a name it neither uses nor exports (a lint in stdlib ast, so it
needs no linter installed)."""
import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import epc

MODULES = [module for module in (
    importlib.import_module(f"epc.{info.name}")
    for info in pkgutil.iter_modules(epc.__path__))
    if hasattr(module, "__all__")]
SOURCE = pathlib.Path(epc.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [epc, *MODULES],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, (module.__name__, missing)


def test_optimal_k_is_exported():
    assert epc.optimal_k is epc.golomb.optimal_k


def _readme_prose() -> str:
    """README with its fenced blocks left out."""
    return re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"),
                  flags=re.M | re.S)


def test_the_readme_reference_has_an_entry_for_every_public_name():
    # an entry is a bullet that opens with the name in backticks, under the
    # library tour, before the next section
    tour = _readme_prose().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    entries = set(re.findall(r"^[-*] `([A-Za-z_]\w*)", tour, flags=re.M))
    assert [x for x in epc.__all__
            if x != "__version__" and x not in entries] == []


def _resolve(dotted: str):
    """The object a dotted name in README names: read from the epc package
    (its modules and public names), else from an importable module such as
    sys or math."""
    first, *rest = dotted.split(".")
    if first == "epc":
        value = epc
    elif hasattr(epc, first):
        value = getattr(epc, first)
    else:
        value = importlib.import_module(first)
    for part in rest:
        value = getattr(value, part)
    return value


def test_every_dotted_name_in_the_readme_resolves():
    # such as `codec._automaton`: a rename cannot leave a stale name behind
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                           _readme_prose()))
    stale = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            stale.append(name)
    assert names and stale == []


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


def _defined(tree: ast.Module) -> set[str]:
    """Names a module's own top-level statements define: its functions,
    classes and assignments, not its imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_a_submodule_exports_only_what_it_defines(module):
    # the package __init__ is the one re-exporter
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    assert sorted(set(module.__all__) - _defined(tree)) == []


@pytest.mark.parametrize("owner, name", [
    (epc.UnaryEndedCode, "from_lengths"), (epc.UnaryEndedCode, "describe"),
    (epc.UnaryTail(0), "start_index"), (epc.UnaryTail(0), "start_length")],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_retired_names_are_gone(owner, name):
    # UnaryEndedCode(head, spine) and str(code) answer these; a run record
    # starts where its code's head ends, at its spine plus one bits
    assert not hasattr(owner, name)
