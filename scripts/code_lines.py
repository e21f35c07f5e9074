"""Code-size yardstick: lines of code per module under src/tapsp/.

A line counts when it is not blank, not a comment and not part of a
docstring (the string statement opening a module, class or function).
The script prints one count per module and the total.

Example:
    python3 scripts/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tapsp"


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers held by docstrings anywhere in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if i not in skip and line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<24}{count:>6}")
    print(f"{'total':<24}{total:>6}")


if __name__ == "__main__":
    main()
