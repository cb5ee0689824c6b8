"""What `import epc` loads: the code builders at once, the container codec,
the overflow solver, the sweeps and the command line front end on first use.
Each check runs in a fresh interpreter, since the other test modules import
every submodule at collection."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import epc

CORE = {"epc", "epc.errors", "epc.bits", "epc.numeric", "epc.models",
        "epc.huffman", "epc.golomb", "epc.light_tail"}
LAYERS = ("epc.codec", "epc.overflow", "epc.analysis")
# the package the tests import, so the child imports the same one
_ROOT = str(pathlib.Path(epc.__file__).resolve().parent.parent)


def _fresh(code: str, cwd=None, before: str = ""):
    """Run code after `import json, sys, epc` in a new interpreter, the code
    `before` ahead of that import, and return what it prints last, read as
    JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_ROOT, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", before + "import json, sys, epc\n" + code],
        env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           "if m == 'epc' or m.startswith('epc.'))))")


def test_import_loads_only_the_code_builders():
    assert set(_fresh(_LOADED)) == CORE


def test_no_layer_loads_dataclasses():
    # the value classes share one base: loading every layer loads no
    # dataclasses module, unless something loaded it before epc
    assert _fresh("""
import epc.codec, epc.overflow, epc.analysis, epc.cli
print(json.dumps([kept, "dataclasses" in sys.modules]))""",
                  before="import sys\nkept = 'dataclasses' in sys.modules\n"
                  ) in ([False, False], [True, True])


def test_a_lazy_name_is_its_modules_object():
    # read once, each name is its module's object (a module name the module
    # itself), then bound in the package
    assert _fresh("""
wrong = []
for name, module in epc._LAZY.items():
    value = getattr(epc, name)
    owner = sys.modules["epc." + module]
    if (value is not (owner if name == module else getattr(owner, name))
            or vars(epc)[name] is not value):
        wrong.append(name)
print(json.dumps(wrong))""") == []
    assert set(epc._LAZY.values()) == {"codec", "overflow", "analysis", "cli"}


def test_star_import_binds_every_exported_name():
    assert _fresh("""
names = {}
exec("from epc import *", names)
print(json.dumps(sorted(set(epc.__all__) - set(names))))""") == []


def test_dir_lists_every_exported_name():
    assert _fresh("print(json.dumps(sorted(set(epc.__all__) - "
                  "set(dir(epc)))))") == []


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'epc' has no attribute 'nonesuch'$"):
        getattr(epc, "nonesuch")


@pytest.mark.parametrize("argv, layers", [
    (["optimize", "--geometric", "0.9"], ()),
    (["huffman", "--weights", "w.txt"], ()),
    (["encode", "--golomb", "3", "--input", "s.txt", "--output", "c.epc"],
     ("epc.codec",)),
    (["decode", "--input", "g.epc"], ("epc.codec",)),
    (["overflow", "--geometric", "0.5", "--exponential", "0.5"],
     ("epc.overflow",)),
    (["sweep", "--figure", "3", "--ratio-start", "0.5", "--ratio-stop",
      "0.6", "--ratio-step", "0.1"], ("epc.analysis",)),
], ids=["optimize", "huffman", "encode", "decode", "overflow", "sweep"])
def test_a_subcommand_loads_only_its_layer(argv, layers, tmp_path):
    (tmp_path / "w.txt").write_text("0.5 0.25 0.25\n")
    (tmp_path / "s.txt").write_text("1 3 9\n")
    # 1, 3, 9 encoded with GolombCode(3)
    (tmp_path / "g.epc").write_bytes(
        b"EPC1\x01\x01\x03" + (3).to_bytes(8, "little") + b"\x53\x80")
    loaded = _fresh(f"""
import contextlib, io
import epc.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = epc.cli.run({argv!r})
assert status == 0, status
{_LOADED}""", cwd=tmp_path)
    assert [m for m in LAYERS if m in loaded] == list(layers)
    assert set(loaded) - set(LAYERS) == CORE | {"epc.cli"}
