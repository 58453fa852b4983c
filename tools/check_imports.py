"""Report names that a module imports and never uses.

Run from the repository root:

    python tools/check_imports.py src tests

Every .py file under the given directories is parsed with ast.  A name
bound by an import statement counts as used when it appears as a name
anywhere in the module (attribute chains count by their first name) or
as a string in the module's __all__.  `from __future__` imports are
skipped.  Each unused name is printed as `path:line: name`, and the exit
status is 1 when there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never uses."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def main(roots: list[str]) -> int:
    hits = 0
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused_imports(ast.parse(path.read_text())):
                print(f"{path}:{line}: {name}")
                hits += 1
    return 1 if hits else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or ["src", "tests"]))
