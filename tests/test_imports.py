"""No module imports a name it never uses, and only algebra.py reads bit fields.

An `ast` scan of src/, tests/ and scripts/: every name an import statement
binds must be read somewhere in the same file.  Package `__init__.py` files
re-export their imports and `from __future__` imports switch on features,
so both are exempt.

A second scan keeps the packed JetVariable layout private to algebra.py: no
other module under src/ imports one of its bit-layout constants.

A third scan finds dead private helpers: every private (one leading
underscore) name that a module under src/varschouten/ defines at its top
level must be read, as a name or an attribute, somewhere in src/.

A fourth scan finds dead parameters: every parameter of every function and
lambda under src/varschouten/, except `self` and `cls`, must be read in its
body, so a knob that no caller sets cannot be left half removed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "line 2: b",
        "line 1: os",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


BIT_LAYOUT = {"_B", "_W", "_NMAX", "_KIND", "_SLOT", "_FIBER", "_ORDER", "_INDEX", "_STEP",
              "_CARRY", "_FIELD_MAX", "_COUNT_MAX"}


def bit_layout_imports(source: str) -> list[str]:
    """Bit-layout constants imported from the algebra module, relatively or by package path."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("algebra", 1), ("varschouten.algebra", 0))
        for alias in node.names
        if alias.name in BIT_LAYOUT
    )


def test_the_scan_sees_a_bit_layout_import():
    assert bit_layout_imports("from .algebra import _SLOT, Monomial\nfrom .cli import _B\n") == ["_SLOT"]
    assert bit_layout_imports("from varschouten.algebra import _FIBER as F, _add_term\n") == ["_FIBER"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "algebra.py"),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_algebra_reads_the_bit_layout(path):
    assert bit_layout_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Private names a module defines at its top level: functions, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Private top-level names of the sources that no source reads."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set().union(*map(private_definitions, sources)) - read)


def test_the_scan_sees_an_unreferenced_private_name():
    sources = ["_A, _B = 1, 2\nclass _C: pass\ndef _d():\n    return _A\n", "import m\nm._d()\n"]
    assert unreferenced_privates(sources) == ["_B", "_C"]


def test_every_private_name_in_src_is_referenced():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "varschouten").rglob("*.py"))]
    assert unreferenced_privates(sources) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters, other than self and cls, that their function or lambda never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {"self", "cls"} | {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        unread += [f"line {node.lineno}: {name}({p.arg})" for p in params
                   if p is not None and p.arg not in read]
    return unread


def test_the_scan_sees_an_unread_parameter():
    source = "class C:\n    def f(self, a, *b, c, **d):\n        return a, d\ng = lambda x, y: x\n"
    assert unread_parameters(source) == ["line 2: f(b)", "line 2: f(c)", "line 4: lambda(y)"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "varschouten").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_parameter_in_src_is_read(path):
    assert unread_parameters(path.read_text()) == []
