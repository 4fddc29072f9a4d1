"""Every name a ``gapindex`` module imports is read somewhere in it, and
only the modules that make user-facing collections build ``IntSet`` or
``SetCollection``.

``__init__`` only re-exports and ``from __future__`` imports set compiler
flags; every other import must be read, a ``# noqa: F401`` mark
notwithstanding. A name a tracer patches on a module is one the module
calls.

Below the public builders the index holds each set as an element tuple:
``sets`` ingests collections, ``persist`` decodes them and ``reductions``
derives them, and no other module wraps a set in an object.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gapindex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SET_BUILDERS = {"sets.py", "persist.py", "reductions.py"}
SET_TYPES = {"IntSet", "SetCollection"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from x import y, z as w  # noqa: F401\nfrom q import r, t\nprint(a, t)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: y", "line 4: w", "line 5: r"]


def set_constructions(source: str) -> list[str]:
    """Each call of ``IntSet`` or ``SetCollection``, by name or attribute."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SET_TYPES:
                calls.append(f"line {node.lineno}: {name}")
    return calls


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in SET_BUILDERS],
    ids=lambda p: p.name,
)
def test_only_the_collection_modules_build_set_objects(path):
    assert set_constructions(path.read_text()) == []


def test_the_check_finds_a_set_construction():
    source = ("from . import sets\nfrom .sets import IntSet\nx = IntSet((2,))\n"
              "y = sets.SetCollection(sets=(x,), universe=2)\nz = IntSet\n")
    assert set_constructions(source) == ["line 3: IntSet", "line 4: SetCollection"]
