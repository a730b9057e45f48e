import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A docstring."""
    "a string statement" "of two literals"
    text = """a string
    that is code"""
    return (x,
            text)
''')
    # import, def, the assignment's two lines, the return's two lines
    assert code_lines.code_lines(source) == 6


def test_the_package_table_ends_with_the_total(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1]) > 0
    assert "category.py" in {name for name, _ in rows}
