"""Print the size of each ``src/covcast`` module, split by kind of line.

    python3 tools/src_lines.py

One row per module, then the total: all lines, docstring lines (the lines a
module, class or function docstring spans), comment lines (a comment and
nothing else), code lines (every other non-blank line) and blank lines.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "covcast"
COLUMNS = ("total", "docstring", "comment", "code", "blank")


def split(source: str) -> dict[str, int]:
    """The line counts of one module's source, by :data:`COLUMNS`."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    comment = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][: tok.start[1]].strip()
    } - docstring
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - docstring
    return {
        "total": len(lines),
        "docstring": len(docstring),
        "comment": len(comment),
        "code": len(lines) - len(docstring) - len(comment) - len(blank),
        "blank": len(blank),
    }


def main() -> None:
    rows = {path.stem: split(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>11}" for c in COLUMNS))


if __name__ == "__main__":
    main()
