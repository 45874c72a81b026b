"""Source rules of the package: invariants are raised errors, so ``python -O``
keeps them, and arithmetic stays exact, so no float enters.  Every
``functools`` cache decorates a module-level function, where the benchmark's
cold rounds find and clear it; ``cached_property`` is not used.  The CLI's
parser is the only such cache: data derived from a diagram is kept in the
store of ``algebra``, which ``build_diagram.cache_clear()`` clears.  Every
function the benchmark's tracer wraps exists in the package, every name
a module imports is used there (``__init__.py`` re-exports are exempt), and
every module-level function or class that ``__all__`` does not export is
used somewhere in it or wrapped by that tracer: none is there for the tests
alone.  ``linalg.bareiss``, the one elimination loop, is named only by
``linalg.row_reduce`` and ``algebra._expansion_operator``, so every rational
inverse goes through ``row_reduce``."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "supervogan").glob("*.py"))


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


def unused_imports(tree: ast.Module) -> list[str]:
    """Every name an import binds that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name} imported but unused"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def unreferenced_definitions(trees: dict[str, ast.Module], kept) -> list[str]:
    """Every module-level function or class of ``trees`` (by module name),
    but a dunder or one ``kept(module, name)`` accepts, that no code outside
    its own body names, in any of ``trees``."""
    top = [(name, node) for name, tree in trees.items() for node in tree.body]
    names = {
        id(node): {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        for _, node in top
    }
    return [
        f"{module}.{node.name} is never used"
        for module, node in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and not kept(module, node.name)
        and not any(node.name in names[id(other)] for _, other in top if other is not node)
    ]


def unreferenced_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """Every private module-level function or class that no code outside its
    own body names, in any of ``trees`` (by module name)."""
    return unreferenced_definitions(trees, lambda module, name: not name.startswith("_"))


def users(trees: dict[str, ast.Module], name: str) -> list[str]:
    """Every module-level definition of ``trees`` (by module name) whose code
    names ``name``, bare or as an attribute, as ``module.definition``; and
    ``module`` for other module-level code that does, or that imports
    ``name`` under another name."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if any(
                isinstance(sub, ast.Name) and sub.id == name
                or isinstance(sub, ast.Attribute) and sub.attr == name
                or isinstance(sub, ast.alias) and sub.name == name and sub.asname not in (None, name)
                for sub in ast.walk(node)
            ):
                named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                found.add(f"{module}.{node.name}" if named else module)
    return sorted(found)


CACHES = {"lru_cache", "cache", "cached_property"}


def _cache_names(tree: ast.Module):
    """A function naming the ``functools`` cache an AST node refers to, if any."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names if a.name in CACHES)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")

    def cache(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr in CACHES:
                return node.attr
        return None

    return cache


def cache_violations(tree: ast.Module) -> list[str]:
    """Every reference to a ``functools`` cache that is not a decorator (bare
    or called) of a module-level function, and every ``cached_property``."""
    cache = _cache_names(tree)
    decorators = {
        id(dec.func if isinstance(dec, ast.Call) else dec)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for dec in node.decorator_list
    }
    found = [
        node
        for node in ast.walk(tree)
        if cache(node) and (cache(node) == "cached_property" or id(node) not in decorators)
    ]
    return [
        f"line {node.lineno}: {cache(node)} not on a module-level function"
        for node in sorted(found, key=lambda node: node.lineno)
    ]


def cached_functions(tree: ast.Module) -> list[str]:
    """Module-level functions under a ``functools`` cache decorator."""
    cache = _cache_names(tree)
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(cache(dec.func if isinstance(dec, ast.Call) else dec) for dec in node.decorator_list)
    ]


def test_the_package_has_sources():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_float(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_every_private_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unreferenced_private_definitions(trees) == []


def traced_functions(monkeypatch) -> set[tuple[str, str]]:
    """``bench/spans.py``'s ``TRACED``: the (module, name) pairs its tracer wraps."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return set(importlib.import_module("spans").TRACED)


def test_every_definition_outside_all_is_used(monkeypatch):
    """A module-level function or class that ``__all__`` does not export is
    named by other package code or wrapped by the benchmark's tracer: no
    definition in the package is there for the tests alone."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    exported = set(importlib.import_module("supervogan").__all__)
    traced = traced_functions(monkeypatch)

    def kept(module, name):
        return name in exported or (module, name) in traced

    assert unreferenced_definitions(trees, kept) == []


def test_one_elimination_loop_backs_every_rational_inverse():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert users(trees, "bareiss") == ["algebra._expansion_operator", "linalg.row_reduce"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_module_level_and_clearable(path):
    assert cache_violations(ast.parse(path.read_text(), str(path))) == []


def test_the_cli_parser_is_the_only_functools_cache():
    found = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in cached_functions(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["cli._parser"]


def test_every_traced_function_exists(monkeypatch):
    """``bench/spans.py``'s ``Tracer`` raises on a missing name, so removing a
    public function it wraps would break only the traced benchmark runs."""
    traced = traced_functions(monkeypatch)
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"supervogan.{module}"), name, None))
    ]
    assert missing == []


def test_the_rules_catch_each_kind():
    source = "assert x\ny = 0.5\nz = float(y)\nw = 1j\n"
    assert len(violations(ast.parse(source))) == 4


def test_the_import_rule_catches_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from json import dumps, loads as load\n"
        "from .vogan import flip\n"
        "import re\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return re.compile(dumps(x))\n"
    )
    assert unused_imports(ast.parse(source)) == [
        "line 2: os imported but unused",
        "line 3: system imported but unused",
        "line 4: load imported but unused",
        "line 5: flip imported but unused",
    ]


def test_the_private_definition_rule_catches_each_kind():
    trees = {
        "a": ast.parse(
            "def _used(): pass\n"
            "def _recursive(): return _recursive()\n"
            "class _Unused: pass\n"
            "def _by_attribute(): pass\n"
            "def public(): return _used()\n"
            "def __dunder__(): pass\n"
        ),
        "b": ast.parse("import a\nx = a._by_attribute\n"),
    }
    assert unreferenced_private_definitions(trees) == [
        "a._recursive is never used",
        "a._Unused is never used",
    ]


def test_the_exported_definition_rule_catches_each_kind():
    trees = {
        "a": ast.parse(
            "def exported(): pass\n"
            "def traced(): pass\n"
            "def test_only(): pass\n"
            "class TestOnly: pass\n"
            "def called(): pass\n"
            "def _private(): return called()\n"
        ),
        "b": ast.parse("import a\nx = a._private\ndef traced(): pass\n"),
    }
    kept = {("a", "exported"), ("a", "traced")}
    assert unreferenced_definitions(trees, lambda module, name: (module, name) in kept) == [
        "a.test_only is never used",
        "a.TestOnly is never used",
        "b.traced is never used",
    ]


def test_the_elimination_rule_catches_each_kind():
    trees = {
        "a": ast.parse(
            "def elim(): pass\n"
            "def allowed(): return elim()\n"
            "def nested():\n"
            "    def inner(): return elim()\n"
            "class C:\n"
            "    step = staticmethod(elim)\n"
            "def quoted(): return 'elim'\n"
            "f = elim\n"
        ),
        "b": ast.parse(
            "import a\n"
            "from a import elim\n"
            "def by_attribute(): return a.elim([])\n"
        ),
        "c": ast.parse("from a import elim as e\n"),
    }
    assert users(trees, "elim") == ["a", "a.C", "a.allowed", "a.nested", "b.by_attribute", "c"]


def test_the_cache_rule_catches_each_kind():
    source = (
        "import functools\n"
        "from functools import lru_cache, cached_property as cp\n"
        "@lru_cache(maxsize=None)\n"
        "def fine(x): pass\n"
        "@functools.cache\n"
        "def also_fine(x): pass\n"
        "class C:\n"
        "    @lru_cache\n"
        "    def method(self): pass\n"
        "    @cp\n"
        "    def prop(self): pass\n"
        "def outer():\n"
        "    @functools.lru_cache()\n"
        "    def inner(): pass\n"
        "wrapped = functools.cache(len)\n"
        "@functools.cached_property\n"
        "def top(): pass\n"
    )
    lines = [v.split(":")[0] for v in cache_violations(ast.parse(source))]
    assert lines == ["line 8", "line 10", "line 13", "line 15", "line 16"]
    assert cached_functions(ast.parse(source)) == ["fine", "also_fine", "top"]
