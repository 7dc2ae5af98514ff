"""Every name a ``defquant`` module imports is used in that module.

``__init__.py`` is left out: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

import defquant

MODULES = sorted(p for p in Path(defquant.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_import_kept_only_for_re_export_is_caught():
    source = "from .exactpoly import Poly, neumann\n\nx = Poly\n"
    assert unused_imports(source) == [(1, "neumann")]
