"""No module imports a name it never uses, and only algebra.py reads bit fields.

An `ast` scan of src/, tests/ and scripts/: every name an import statement
binds must be read somewhere in the same file.  Package `__init__.py` files
re-export their imports and `from __future__` imports switch on features,
so both are exempt.

A second scan keeps the packed JetVariable layout private to algebra.py: no
other module under src/ imports one of its bit-layout constants.
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
