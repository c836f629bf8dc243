"""Count code lines of Python modules.

A line counts when it holds a token other than a comment or layout (line
breaks, indentation) and is not part of a bare string-expression statement
(a docstring, or a string standing alone as an attribute docstring). A token
that spans lines, such as a triple-quoted string in an expression, counts on
every line it spans.

Usage: python3 tests/code_lines.py DIR [DIR ...]
prints one line per module (path relative to DIR) and a total per DIR.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    bare = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - bare)


def count_tree(root: Path) -> dict[str, int]:
    """Code lines of every module under root, keyed by its relative path."""
    return {
        str(p.relative_to(root)): code_lines(p.read_text(encoding="utf-8")) for p in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tests/code_lines.py DIR [DIR ...]", file=sys.stderr)
        return 2
    for arg in argv:
        counts = count_tree(Path(arg))
        for name, n in counts.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total ({arg})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
