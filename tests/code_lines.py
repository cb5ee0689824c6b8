"""Print the code lines of each module of a checkout's `src/epc`, and their
total: lines that hold code, counting no blank line, no comment and no
docstring.

    python3 tests/code_lines.py TREE

TREE is a checkout of this repository. A line counts when a statement or
an expression spans it and it is neither blank nor a comment alone. A
docstring is a string expression standing alone as the first statement of
a module, class or function; no line it spans counts.

Uses the standard library's ast alone; pytest does not collect it.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """How many lines of source hold code outside a docstring."""
    spanned, docstrings = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    return sum(1 for n in spanned - docstrings
               if text[n - 1].strip() and not text[n - 1].lstrip()
               .startswith("#"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    package = Path(argv[0]) / "src" / "epc"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules under {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
