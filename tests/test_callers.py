"""Every top-level function and class in src/fraudkit/ has a caller.

A definition counts as called when its name is referenced, as a name or
as an attribute, somewhere in src/fraudkit/ or perfbench/ outside the
definition itself. A re-export from a package __init__ does not count,
and neither does a test: code only tests reach belongs in tests/. The
guard matches bare names, so it cannot see methods, and a definition
whose name is also used for something else passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(path):
    """(owner, name) for each name referenced in the file, where owner is
    the top-level definition the reference sits in, or None."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


def test_every_top_level_definition_has_a_caller():
    src = sorted((ROOT / "src" / "fraudkit").rglob("*.py"))
    callers = [p for p in src if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    sites = {}  # name -> {(file, owner)} of each reference
    for path in callers:
        for owner, name in _references(path):
            sites.setdefault(name, set()).add((path, owner))
    unused = []
    for path in src:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, DEFINITIONS) and not sites.get(top.name, set()) - {(path, top.name)}:
                unused.append(f"{path.relative_to(ROOT)}: {top.name}")
    assert not unused, "no caller in src/ or perfbench/: " + ", ".join(unused)
