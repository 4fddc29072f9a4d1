"""Every name a ``gapindex`` module imports is read somewhere in it.

``__init__`` only re-exports, ``from __future__`` imports set compiler
flags, and a line marked ``# noqa: F401`` keeps an import on purpose (a
name a tracer patches on the module, for example).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gapindex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
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
    assert unused_imports(source) == ["line 2: os", "line 5: r"]
