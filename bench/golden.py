"""Golden outputs, checked once per invocation and untimed: the README's CLI
examples run in-process through epc.cli.run, the README library tour, and
the frozen container bytes of acceptance criterion 9."""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import math
import os
import shlex
import sys
import tempfile

# the README examples the benchmark replays, by subcommand
CLI_EXAMPLES = ("optimize", "optimize", "encode", "decode", "overflow")


class GoldenMismatch(Exception):
    pass


def _blocks(text: str, lang: str = "") -> list[str]:
    """Bodies of the fenced code blocks whose info string is `lang`."""
    blocks, body, info = [], None, ""
    for line in text.splitlines():
        if line.startswith("```"):
            if body is None:
                body, info = [], line[3:].strip()
            else:
                if info == lang:
                    blocks.append("\n".join(body) + "\n")
                body = None
        elif body is not None:
            body.append(line)
    return blocks


def _cli_examples(readme: str):
    """Yield (stdin text or None, argv, expected lines) per `$ epc` line."""
    for block in _blocks(readme):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ "):
                continue
            expected = []
            for out in lines[i + 1:]:
                if out.startswith("$ "):
                    break
                expected.append(out)
            while expected and not expected[-1].strip():
                expected.pop()
            stdin = None
            command = line[2:]
            if " | " in command:
                feed, command = command.split(" | ", 1)
                words = shlex.split(feed)
                if words[0] != "printf":
                    raise GoldenMismatch(f"unsupported pipe in {line!r}")
                stdin = words[1].encode().decode("unicode_escape")
            argv = shlex.split(command)
            if argv[0] == "epc" and argv[1] in CLI_EXAMPLES:
                yield stdin, argv[1:], expected


def _check_cli(epc, readme: str, workdir: str) -> None:
    cli = importlib.import_module("epc.cli")
    seen = []
    encoded = None
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for stdin, argv, expected in _cli_examples(readme):
            seen.append(argv[0])
            out = io.StringIO()
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out):
                    status = cli.run(argv)
            finally:
                sys.stdin = old_stdin
            got = out.getvalue().splitlines()
            if expected and expected[-1] == "...":
                expected, got_cmp = expected[:-1], got[:len(expected) - 1]
            else:
                got_cmp = got
            if status != 0 or got_cmp != expected:
                raise GoldenMismatch(
                    f"epc {' '.join(argv)}: exit {status}, printed {got!r}, "
                    f"README says {expected!r}")
            if argv[0] == "encode":
                encoded = stdin.split()
            if argv[0] == "decode" and got != encoded:
                raise GoldenMismatch(f"decode printed {got!r}, "
                                     f"encoded {encoded!r}")
    finally:
        os.chdir(here)
    if tuple(seen) != CLI_EXAMPLES:
        raise GoldenMismatch(f"README CLI examples found: {seen}")


def _matches(value, expected: str) -> bool:
    if repr(value) == expected:
        return True
    # prose for a tuple, as in "Golomb k=3, ln 4"
    if isinstance(value, tuple):
        parts = expected.split(", ")
        if len(parts) != len(value):
            return False
        for v, part in zip(value, parts):
            if part.startswith("ln "):
                if not math.isclose(v, math.log(float(part[3:])),
                                    rel_tol=1e-9):
                    return False
            elif str(v) != part:
                return False
        return True
    return False


def _check_tour(readme: str) -> None:
    section = readme.split("## Library tour", 1)[1]
    source = _blocks(section, "python")[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "<tour>",
                                 "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "<tour>", "exec"), namespace)
            if isinstance(stmt, ast.Assign):
                value = namespace[stmt.targets[0].id]
        # the expected value sits after "# -> ", inline or on the next line
        last = stmt.end_lineno - 1
        comment = lines[last].partition("# -> ")[2].strip()
        if not comment and last + 1 < len(lines) \
                and lines[last + 1].lstrip().startswith("# -> "):
            comment = lines[last + 1].partition("# -> ")[2].strip()
        if not comment:
            continue
        if not _matches(value, comment):
            raise GoldenMismatch(f"tour line {lines[last]!r} gives {value!r}, "
                                 f"README says {comment}")
        checked += 1
    if checked == 0:
        raise GoldenMismatch("no checked lines in the README library tour")


def check(epc, readme_path: str, scratch_dir: str) -> None:
    with open(readme_path) as fh:
        readme = fh.read()
    frozen = b"EPC1\x01\x01\x03" + (3).to_bytes(8, "little") + b"\x53\x80"
    blob = epc.encode([1, 3, 9], epc.GolombCode(3))
    if blob != frozen:
        raise GoldenMismatch(f"frozen container bytes changed: {blob!r}")
    with tempfile.TemporaryDirectory(prefix="golden-", dir=scratch_dir) as d:
        _check_cli(epc, readme, d)
    _check_tour(readme)
