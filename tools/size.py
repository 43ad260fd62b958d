"""Count the code lines and branch lines of each module of src/memwave.

Code lines are non-blank lines that hold a token other than a comment or a
docstring.  Branch lines are lines on which an `if`/`elif`, `for` or `while`
statement, an `except` clause, a conditional expression or a comprehension
clause starts, counted on the AST.

    python tools/size.py [DIR]

prints one line per module of DIR (default: src/memwave next to this
script) and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_BRANCHES = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler, ast.IfExp)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank lines holding a token other than a comment or a docstring."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def branch_lines(source: str) -> int:
    """Lines on which a branch starts: if/elif, for, while, except, a
    conditional expression, or a comprehension clause (its `for` or `if`)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BRANCHES):
            lines.add(node.lineno)
        elif isinstance(node, ast.comprehension):
            lines.add(node.target.lineno)
            lines.update(cond.lineno for cond in node.ifs)
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "memwave"
    total_code = total_branch = 0
    print(f"{'module':<20} {'code':>6} {'branch':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, branch = code_lines(source), branch_lines(source)
        total_code += code
        total_branch += branch
        print(f"{path.name:<20} {code:>6} {branch:>6}")
    print(f"{'total':<20} {total_code:>6} {total_branch:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
