"""Count the lines of each heatsource module two ways.

Usage: python tools/code_lines.py [FILE ...]

With no arguments it counts src/heatsource/*.py.  For each file it prints
the ``wc -l`` line count and the code-line count: lines that hold part of
a statement or expression once blank lines, comments and docstrings (the
first string statement of a module, class or function) are left out.
A last row sums both columns.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heatsource"


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that carry a code token outside a
    docstring."""
    docstrings = _docstring_lines(ast.parse(text))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type in skip:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in docstrings)
    return len(lines)


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    paths = paths or sorted(SRC.glob("*.py"))
    total_wc = total_code = 0
    for path in paths:
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{wc:6d} {code:6d}  {path.name}")
    print(f"{total_wc:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
