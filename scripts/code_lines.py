"""Count the code lines of the gds package, one count per module and the total.

A code line is a line that holds a token other than a comment, not
counting the lines of module, class and function docstrings.  Blank
lines, comment lines and docstrings are left out, so the count moves
only with the code itself.

Run from the repository root:

    python scripts/code_lines.py            # src/gds
    python scripts/code_lines.py DIR        # the .py files under DIR
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines = set()
    for token in tokens:
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gds"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
