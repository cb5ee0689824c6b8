"""Print the code lines of each module of a checkout's `src/epc`, and their
total: lines that hold code, counting no blank line, no comment and no
docstring.

    python3 tests/code_lines.py TREE
    python3 tests/code_lines.py PARENT CHANGE

TREE, PARENT and CHANGE are checkouts of this repository. Given two, it
prints each module's count in PARENT, in CHANGE and their difference
(CHANGE less PARENT), a module missing from a tree counting 0 there, then
the totals. A line counts when a statement or an expression spans it and
it is neither blank nor a comment alone. A docstring is a string
expression standing alone as the first statement of a module, class or
function; no line it spans counts.

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


def _counts(tree: str) -> dict[str, int] | None:
    """{module name: code lines} of a checkout's src/epc; None, after
    saying so, where it holds no module."""
    package = Path(tree) / "src" / "epc"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules under {package}", file=sys.stderr)
        return None
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in modules}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [_counts(tree) for tree in argv]
    if None in trees:
        return 2
    names = sorted(set().union(*trees))
    rows = [(name, [tree.get(name, 0) for tree in trees]) for name in names]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    for name, counts in rows:
        change = [f"{counts[1] - counts[0]:+6d}"] if len(counts) == 2 else []
        print("  ".join([f"{count:6d}" for count in counts] + change + [name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
