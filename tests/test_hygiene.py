"""Source hygiene checks that need no linter: a stdlib `ast` scan."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blowup"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
