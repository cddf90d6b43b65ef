"""Count the lines of the package's modules, per module and in total.

Prints two counts per file: every line, as ``wc -l`` counts them, and the
code lines, which leave out blank lines, ``#`` comment lines and the lines
of module, class and function docstrings (found with ``ast``).  It only
reports; it checks nothing.

    python3 scripts/line_count.py [directory]   # default: src/cqboxes
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cqboxes"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skipped and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *counts(path)) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
