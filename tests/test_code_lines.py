"""tests/code_lines.py: one tree prints each module's code lines and the
total; two trees print both counts and their difference per module."""
import code_lines

_PARENT = {
    "a.py": '"""A module docstring."""\n\n# a comment\nx = 1\n',
    "b.py": "def f():\n    \"\"\"doc\"\"\"\n    return (1 +\n            2)\n",
}
_CHANGE = {
    "a.py": "x = 1\ny = 2\n",
    "c.py": "z = 3\n",
}


def _tree(root, modules):
    package = root / "src" / "epc"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    return str(root)


def test_one_tree_prints_each_module_then_the_total(tmp_path, capsys):
    # no docstring, comment or blank line counts; a statement counts every
    # line it spans
    assert code_lines.main([_tree(tmp_path, _PARENT)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     3  b.py", "     4  total"]


def test_two_trees_print_both_counts_and_their_difference(tmp_path, capsys):
    # a module missing from a tree counts 0 there
    trees = [_tree(tmp_path / "parent", _PARENT),
             _tree(tmp_path / "change", _CHANGE)]
    assert code_lines.main(trees) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1       2      +1  a.py",
        "     3       0      -3  b.py",
        "     0       1      +1  c.py",
        "     4       3      -1  total"]


def test_a_tree_with_no_module_or_a_third_tree_is_refused(tmp_path, capsys):
    tree = _tree(tmp_path / "tree", _PARENT)
    assert code_lines.main([tree, str(tmp_path / "empty")]) == 2
    assert "no modules under" in capsys.readouterr().err
    assert code_lines.main([tree, tree, tree]) == 2
    assert code_lines.main([]) == 2
