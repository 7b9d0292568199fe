"""Count the lines of Python sources by kind: code, docstring, comment, blank.

Usage: python3 tools/source_lines.py PATH [PATH ...]

Docstrings are the string statements that open a module, class or
function; every line they span counts as a docstring line. A comment line
holds only a comment, and a blank line only whitespace; every other line
is code. A PATH is a directory, whose ``.py`` files are counted at any
depth, or a ``.py`` file; any other PATH is refused with exit status 2.
Prints one ``kind: count`` line per kind and the total. Uses the standard
library only.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    docs = docstring_lines(ast.parse(source))
    counts = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = "docstring" if number in docs else "blank" if not text else "comment" if text.startswith("#") else "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    files = []
    for root in map(Path, argv):
        if root.is_dir():
            files += sorted(root.rglob("*.py"))
        elif root.is_file() and root.suffix == ".py":
            files.append(root)
        else:
            print(f"error: {root} is neither a directory nor a .py file", file=sys.stderr)
            return 2
    total = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in files:
        for kind, n in count(path.read_text()).items():
            total[kind] += n
    for kind, n in total.items():
        print(f"{kind}: {n}")
    print(f"total: {sum(total.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
