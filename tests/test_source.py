"""Static checks on the package source, made with the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from emrkg.schema import GRAPH_LABELS, RELATION_ENDPOINTS

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


def error_classes(source: str, bases: set[str]) -> list[tuple[int, str]]:
    """The ``(line, name)`` of each class a module defines on one of
    ``bases``, or on a class it defines so; a base may be named bare or as
    a module attribute (``errors.DataError``)."""
    bases = set(bases)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) in bases for base in node.bases):
            bases.add(node.name)
            found.append((node.lineno, node.name))
    return found


def test_the_check_finds_an_error_class():
    source = ("class A(DataError): pass\nclass B(A): pass\nclass C(Exception): pass\n"
              "class D(errors.ConfigError): pass\nclass E(C, errors.A): pass\n")
    assert error_classes(source, {"DataError", "ConfigError"}) == [
        (1, "A"), (2, "B"), (4, "D"), (5, "E")]
    assert error_classes("class DataError(Exception): pass\n", {"DataError"}) == []


def test_only_errors_py_defines_an_error_class():
    """Every fault raises one of the three classes of ``errors.py``, which
    the CLI maps to exit codes 2, 3 and 4; no other module subclasses them."""
    errors_py = SRC / "emrkg" / "errors.py"
    defined = error_classes(errors_py.read_text(encoding="utf-8"), {"EmrkgError"})
    bases = {"EmrkgError", *(name for _, name in defined)}
    assert bases == {"EmrkgError", "ConfigError", "DataError", "InternalError"}
    found = [f"{path.relative_to(SRC)}:{line}: {name}" for path in MODULES if path != errors_py
             for line, name in error_classes(path.read_text(encoding="utf-8"), bases)]
    assert not found, f"{len(found)} error classes outside errors.py:\n" + "\n".join(found)


def schema_names(source: str, names: set[str]) -> list[tuple[int, str]]:
    """The ``(line, value)`` of each string constant in ``source`` that
    equals one of ``names``, in line order."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) is str
                  and node.value in names)


def test_the_check_finds_a_label_or_relation_name():
    source = ("x = 'Disease'\nif r == \"HasCheck\":\n    y = f'{x} Disease'\n"
              "z = ('disease', 'Diseases')\n\"\"\"Disease\"\"\"\n")
    assert schema_names(source, {"Disease", "HasCheck"}) == [
        (1, "Disease"), (2, "HasCheck"), (5, "Disease")]


def identifiers_named(source: str, names: set[str]) -> list[tuple[int, str]]:
    """The ``(line, identifier)`` of each name, attribute, argument, keyword
    or definition in ``source`` that is one of ``names``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            identifier = node.id
        elif isinstance(node, ast.Attribute):
            identifier = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            identifier = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            identifier = node.name
        else:
            continue
        if identifier in names:
            found.append((node.lineno, identifier))
    return sorted(found)


def test_the_check_finds_a_lower_case_label_identifier():
    source = ("disease = 1\nx.food\ndef f(drug, *, symptom=2): pass\nf(check=3)\n"
              "class patient: pass\ndiseases = 'disease'\nf(**kw)\n")
    names = {"disease", "food", "drug", "symptom", "check", "patient"}
    assert identifiers_named(source, names) == [
        (1, "disease"), (2, "food"), (3, "drug"), (3, "symptom"), (4, "check"), (5, "patient")]


def test_only_schema_py_names_a_graph_label_or_relation():
    """The type and relation design is written once, in ``schema.py``;
    every other module reads its tables and named labels, and names no
    identifier after a label in lower case."""
    names = set(GRAPH_LABELS) | set(RELATION_ENDPOINTS)
    lowered = {label.lower() for label in GRAPH_LABELS}
    schema_py = SRC / "emrkg" / "schema.py"
    found = []
    for path in MODULES:
        if path != schema_py:
            source = path.read_text(encoding="utf-8")
            found += [f"{path.relative_to(SRC)}:{line}: {value!r}"
                      for line, value in schema_names(source, names)]
            found += [f"{path.relative_to(SRC)}:{line}: identifier {value}"
                      for line, value in identifiers_named(source, lowered)]
    assert not found, f"{len(found)} labels or relations outside schema.py:\n" + "\n".join(found)


def numpy_imports(source: str) -> list[int]:
    """The line of each ``import numpy`` (of numpy or a submodule, at any
    depth of the module) and each ``from numpy... import`` in ``source``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").partition(".")[0] == "numpy")


def test_the_check_finds_a_numpy_import():
    source = ("import numpy\nimport numpy as np\nimport os, numpy.linalg\nfrom numpy import zeros\n"
              "from numpy.random import default_rng\nfrom emrkg._np import np\nimport numpyish\n"
              "from . import numpy\ndef f():\n    import numpy\n")
    assert numpy_imports(source) == [1, 2, 3, 4, 5, 10]


def test_no_src_module_imports_numpy():
    """Modules take ``np`` from ``emrkg._np``, which loads numpy at its
    first use without an import statement. An ``import numpy`` anywhere in
    ``src/`` would load it when ``emrkg.cli`` is imported, for every
    subcommand: the import system reads the lazy module's ``__spec__``."""
    found = [f"{path.relative_to(SRC)}:{line}" for path in MODULES
             for line in numpy_imports(path.read_text(encoding="utf-8"))]
    assert not found, (f"{len(found)} numpy imports in src/ (take np from emrkg._np):\n"
                       + "\n".join(found))


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module:line: qualified name`` of each function, class or method
    that ``sources`` (module name -> source) define and that no name or
    attribute in any of them reads. Dunder methods, which Python calls
    itself, are left out."""
    defined = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((module, node.lineno, prefix + node.name, node.name))
                    scopes.append((node, f"{prefix}{node.name}."))
                else:
                    scopes.append((node, prefix))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{line}: {qualified}" for module, line, qualified, name in sorted(defined)
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_the_check_finds_an_unreferenced_definition():
    sources = {"a": ("def used(): pass\ndef unused(): used()\nclass C:\n"
                     "    def m(self): pass\n    def __init__(self): pass\n"
                     "    def n(self): self.m()\n    def dead(self): pass\n"),
               "b": "import a\na.C().n\ndef outer():\n    def inner(): pass\n"}
    assert unreferenced_definitions(sources) == [
        "a:2: unused", "a:7: C.dead", "b:3: outer", "b:4: outer.inner"]


# what no src/ code names, and why it stays
_CALLED_FROM_OUTSIDE = {
    **{f"run_{name}": "_main runs subcommand x-y as run_x_y, looked up by name"
       for name in ("augment", "tag", "query", "pipeline")},
    "KnowledgeGraph.validate": "perfbench/run.py checks the fused graph's indexes with it",
}


def test_every_src_definition_is_referenced_by_src_code():
    """A function, class or method that no ``src/`` code names is dead,
    unless ``_CALLED_FROM_OUTSIDE`` says who calls it: code that only tests
    use belongs in ``tests/``."""
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8") for path in MODULES}
    found = [entry for entry in unreferenced_definitions(sources)
             if entry.rpartition(": ")[2] not in _CALLED_FROM_OUTSIDE]
    assert not found, f"{len(found)} definitions no src/ code names:\n" + "\n".join(found)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import json\nimport re\nre.compile('x')\n") == ["line 1: json"]
    assert unused_imports("from a import b, c as d\nprint(b)\n") == ["line 1: d"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
