"""Source rules for the package modules, checked with the stdlib ``ast``.

Every name a package module imports is used in that module: a stand-in
for a linter's unused-import check (F401). The package's ``__init__.py``
imports to re-export and is skipped, and an import marked
``# noqa: F401`` is kept on purpose.

No module catches broadly: a bare ``except:``, ``except Exception`` or
``except BaseException`` would turn a numerical failure into a silent
fallback value instead of its exit code.

The package constructs a ``ProcessPoolExecutor`` at exactly one site,
the kept worker pool in ``harness``: a second site would start pools
that its slot neither reuses nor closes.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toposample"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
BROAD = {"Exception", "BaseException"}


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _broad_handlers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id for c in caught if isinstance(c, ast.Name)}
        if node.type is None or names & BROAD:
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    assert _broad_handlers(path) == []


def _pool_constructions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ProcessPoolExecutor"
    ]


def test_one_process_pool_construction():
    sites = [site for path in ALL_MODULES for site in _pool_constructions(path)]
    assert len(sites) == 1, sites
