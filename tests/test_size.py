"""tools/size.py counts code lines and branch lines as CHANGES defines them."""

import importlib.util
from pathlib import Path

SIZE = Path(__file__).resolve().parent.parent / "tools" / "size.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts as code


# a comment line
def f(xs):
    """Function docstring."""
    total = 0
    for x in xs:
        if x > 0:
            total += x
        elif x < -1:
            total -= 1
    while total > 10:
        total //= 2
    try:
        math.sqrt(total)
    except ValueError:
        pass
    text = """a string that is
not a docstring"""
    return [y for y in xs if y] if total else text


class C:
    """Class docstring."""

    value = {k: v for k, v in
             zip("ab", "cd")
             if k}
'''


def _load_size():
    spec = importlib.util.spec_from_file_location("memwave_tests_tools_size", SIZE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def, total, for, if, +=, elif, -=, while, //=, try, sqrt,
    # except, pass, both lines of the string, return, class, the three
    # lines of the dict comprehension
    assert _load_size().code_lines(SOURCE) == 21


def test_branch_lines_count_each_starting_line_once():
    # for, if, elif, while, except, the return line (a comprehension clause,
    # its if and a conditional expression), the dict comprehension's for
    # and its if on a line of their own
    assert _load_size().branch_lines(SOURCE) == 8


def test_counts_every_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1 if True else 2\n")
    assert _load_size().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["a.py", "21", "8"]
    assert lines[2].split() == ["b.py", "1", "1"]
    assert lines[3].split() == ["total", "22", "9"]
