"""Static checks on the package source, made with the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, other than those it
    lists in ``__all__`` and ``from __future__`` features."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in read and name not in exported]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import json\nimport re\nre.compile('x')\n") == ["line 1: json"]
    assert unused_imports("from a import b, c as d\nprint(b)\n") == ["line 1: d"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
