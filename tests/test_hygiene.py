"""Source hygiene checks that need no linter: a stdlib `ast` scan."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blowup"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _traced_layers():
    """The LAYERS literal of the benchmark tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_traced_layers_exist():
    # the tracer patches methods through the class __dict__ and functions by
    # module attribute; a renamed or deleted layer would crash a traced run
    missing = []
    for _, module_name, attr in _traced_layers():
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in getattr(owner, cls_name, object).__dict__
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing, "traced layers missing from blowup:\n" + "\n".join(missing)
