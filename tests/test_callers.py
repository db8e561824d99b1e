"""Every top-level function and class in src/fraudkit/, and every method
and property of its classes, has a caller.

A top-level definition counts as called when its name is referenced, as
a name or as an attribute, somewhere in src/fraudkit/ or perfbench/
outside the definition itself; a method or property only when it is
referenced as an attribute (x.name), so a function of the same name does
not stand in for it. A re-export from a package __init__ does not count,
and neither does a test: code only tests reach belongs in tests/.
Dunder methods are exempt, and so are methods that override a base
class from outside fraudkit (argparse calls them). The guard matches
names, not objects, so a method whose name is also an attribute of
something else passes.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fraudkit"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, scope=()):
    """(scope, node) for every node below node, where scope holds the
    qualified names of the definitions the node sits in."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, DEFINITIONS):
            inner = (*scope, f"{scope[-1]}.{child.name}" if scope else child.name)
        yield from _walk(child, inner)


def _definitions(tree):
    """(qualified name, class name or None, name) of each top-level
    definition and each method of a top-level class."""
    for top in tree.body:
        if isinstance(top, DEFINITIONS):
            yield top.name, None, top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, DEFINITIONS[:2]):
                    yield f"{top.name}.{node.name}", top.name, node.name


def _overrides_outside(path, class_name, name):
    """Whether the method overrides one of a base class outside fraudkit."""
    module = ".".join(("fraudkit", *path.relative_to(SRC).with_suffix("").parts))
    cls = getattr(importlib.import_module(module), class_name)
    return any(
        name in vars(base) for base in cls.__mro__[1:] if not base.__module__.startswith("fraudkit")
    )


def _uncalled(methods):
    """'file: qualified name' of each top-level definition (methods False)
    or each method (methods True) of src/fraudkit/ that has no caller."""
    src = sorted(SRC.rglob("*.py"))
    callers = [p for p in src if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    names, attributes = {}, {}  # name -> {(file, scope)} of each reference as x, as y.x
    for path in callers:
        for scope, node in _walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add((path, scope))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add((path, scope))
    unused = []
    for path in src:
        for qualname, class_name, name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if bool(class_name) != methods:
                continue
            if methods and (name.startswith("__") or _overrides_outside(path, class_name, name)):
                continue
            sites = attributes.get(name, set()) | (set() if methods else names.get(name, set()))
            if not any(f != path or qualname not in scope for f, scope in sites):
                unused.append(f"{path.relative_to(ROOT)}: {qualname}")
    return unused


def test_every_top_level_definition_has_a_caller():
    unused = _uncalled(methods=False)
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)


def test_every_method_has_a_caller():
    unused = _uncalled(methods=True)
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)
