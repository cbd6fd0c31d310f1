"""Source hygiene checks that need no linter: a stdlib `ast` scan."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
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


def _references(node) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _private_definitions(tree):
    """(name, node) of each module-level _private function, class or constant
    and of each _private method of a module-level class; node is the
    definition whose own body does not count as a use."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            pairs = [(node.name, node)] + [
                (item.name, item) for item in node.body
                if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            pairs = [(node.name, node)]
        elif isinstance(node, ast.Assign):
            pairs = [(t.id, None) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            pairs = [(node.target.id, None)]
        else:
            continue
        yield from ((name, owner) for name, owner in pairs
                    if name.startswith("_") and not name.startswith("__"))


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_references(tree) for tree in trees.values()), Counter())
    found = [f"{module}: {name}" for module, tree in trees.items()
             for name, owner in _private_definitions(tree)
             if uses[name] == (_references(owner)[name] if owner else 0)]
    assert not found, "private names nothing uses:\n" + "\n".join(found)


def _callers(name: str):
    """(module, top-level definition) of every call of `name` in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None),
                                                          getattr(sub.func, "attr", None)):
                    found.add((path.stem, getattr(node, "name", None)))
    return found


def test_lowest_forms_are_read_in_one_place():
    # resolve, locate and curve branches all take their directions from one
    # root pass over a lowest form, `position.directions` or a chart's
    # `FirstNeighborhood.steps`; a second reader would drift from it
    assert _callers("_lowest") == {("position", "_integer_form")}
    assert {c for c in _callers("root_pass") if c[0] != "poly"} == \
        {("position", "_form_directions")}


def _readers(name: str):
    """(module, definition) of every read of the name `name` in the package,
    a method given as Class.method."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = ([(f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef)]
                      if isinstance(node, ast.ClassDef) else [(getattr(node, "name", None), node)])
            found.update((path.stem, owner) for owner, definition in owners
                         for sub in ast.walk(definition)
                         if isinstance(sub, ast.Name) and sub.id == name
                         and isinstance(sub.ctx, ast.Load))
    return found


def test_one_elimination_loop():
    # the gcd and the resultant both consume the one subresultant remainder
    # sequence; a second pseudo-division loop would be a second elimination
    assert _callers("_pseudo_rem") == {("poly", "_subresultants")}


def test_walks_down_a_path_take_their_steps_from_one_walker():
    # every walk down a minimal valuation's path stops at the cap in
    # `_MinimalBase.walk`; the monomial path and the chain's first level
    # are bounded by it before any walk
    assert _readers("WALK_CAP") == {("valuations", "_MinimalBase.walk"),
                                    ("valuations", "monomial_path"),
                                    ("families", "Chain.__post_init__")}


def test_the_gcd_runs_on_int_term_maps():
    # inside `poly` only `coefficient_gcd` calls the Poly wrapper; the gcd
    # and the reduced-pair arithmetic call `_gcd` on int term maps, so no
    # Fraction round trip creeps back between them
    assert {c for c in _callers("poly_gcd") if c[0] == "poly"} == {("poly", "coefficient_gcd")}


# Public names that nothing in the package references, kept on purpose.
UNUSED_PUBLIC_ALLOWED = {
    "Poly.subst_xy": "the poly.subst_xy layer of the benchmark tracer, and "
                     "the substitution the tests' chart oracle uses",
    "MoebiusMap.to_step": "part of the family \"map\" that the benchmark's "
                          "family queries parse; removing it is a benchmark change",
    "MoebiusMap.inverse": "as MoebiusMap.to_step",
}


def _public_definitions(tree):
    """(qualified name, name, node) of each module-level public function or
    class and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node


def _overrides(module: str, qualname: str) -> bool:
    """Whether a method overrides one a base class defines."""
    if "." not in qualname:
        return False
    cls_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"blowup.{module}"), cls_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def test_no_unused_public_names():
    # a name the package's __init__ exports is read there, as an import
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_references(tree) for tree in trees.values()), Counter())
    found = [f"{module}: {qualname}" for module, tree in trees.items()
             for qualname, name, owner in _public_definitions(tree)
             if uses[name] == _references(owner)[name]
             and qualname not in UNUSED_PUBLIC_ALLOWED
             and not _overrides(module, qualname)]
    assert not found, "public names nothing uses:\n" + "\n".join(found)


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


_RELOAD = """
import gc, sys, weakref
import blowup
names = [m for m in sys.modules if m == "blowup" or m.startswith("blowup.")]
old = [weakref.ref(value) for name in names for value in vars(sys.modules[name]).values()
       if isinstance(value, type) and value.__module__ == name]
for name in names:
    del sys.modules[name]
import blowup
gc.collect()
sys.exit(0 if all(ref() is None for ref in old) else 1)
"""


def test_unloaded_package_is_released():
    # a long-lived process that imports the package afresh (the benchmark
    # harness does, for every set-up) must not keep the old modules alive;
    # typing caches hold Union[...] and List[...] objects built over package
    # classes, and through those the modules that define them, so no class
    # of the first import may stay alive
    extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent)] + extra))
    result = subprocess.run([sys.executable, "-c", _RELOAD], env=env, timeout=60)
    assert result.returncode == 0, "the modules of the first import stayed alive"
