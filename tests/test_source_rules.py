"""Source rules of the package: invariants are raised errors, so ``python -O``
keeps them, and arithmetic stays exact, so no float enters."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "supervogan").glob("*.py"))


def violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"line {node.lineno}: use of float")
    return out


def test_the_package_has_sources():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_float(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


def test_the_rules_catch_each_kind():
    source = "assert x\ny = 0.5\nz = float(y)\nw = 1j\n"
    assert len(violations(ast.parse(source))) == 4
