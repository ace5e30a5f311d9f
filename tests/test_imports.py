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
that its slot neither reuses nor closes. Likewise ``topology`` calls
``threshold_system`` at exactly one site, ``_cell_systems``, the one
function that maps a scan cell to its points. And ``cli`` merges the
config file with the flags and emits a table at one site each,
``main``, which runs every command.

Every module-level function and class is referenced somewhere in the
package outside its own body, is exported in ``__all__``, or is a name
the benchmark's tracer wraps (``perfbench/tracing.TARGETS``): library
code that only tests call belongs in the tests.

Every ``fields.kept_value`` call keeps its value as a kind of the one
inventory, ``fields._kept``, which ``forget()`` empties, except the grid
``planner.place_grid`` keeps on its integral: a slot of its own would be
state that ``forget()`` misses.

Importing the package, building a Chebyshev-64 model, placing a grid
from its zero density and building every kind of threshold leave
``numpy.polynomial`` unimported: that is the set-up and planning of a
run, and an eager import would add to its start-up time. Likewise
importing the package and its command line, and calling ``forget()``
with nothing kept, leave the process pool's modules
(``concurrent.futures.process`` and ``multiprocessing``) unimported: only
a pooled trial pass needs them.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toposample as ts

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

PACKAGE = ROOT / "src" / "toposample"
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


def _calls(path, name):
    """Each call of ``name`` in ``path``, with the top-level statement that holds it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (f"{path.name}:{getattr(statement, 'name', statement.lineno)}", node)
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def _call_sites(path, name):
    """Each call of ``name`` in ``path``, as the top-level statement that holds it."""
    return [site for site, _ in _calls(path, name)]


def test_one_process_pool_construction():
    sites = [site for path in ALL_MODULES for site in _call_sites(path, "ProcessPoolExecutor")]
    assert len(sites) == 1, sites


def test_cli_merges_and_emits_at_one_site():
    for name in ("_merge_sections", "emit_table"):
        assert _call_sites(PACKAGE / "cli.py", name) == ["cli.py:main"], name


def test_topology_reads_the_threshold_system_at_one_site():
    assert _call_sites(PACKAGE / "topology.py", "threshold_system") == ["topology.py:_cell_systems"]


def test_every_kept_value_is_a_kind_of_the_one_inventory():
    calls = [
        (site, ast.unparse(node.args[0]), node.args[1])
        for path in ALL_MODULES
        for site, node in _calls(path, "kept_value")
    ]
    grids = [site for site, slots, _ in calls if slots == "cumulative.grid_slot"]
    assert grids == ["planner.py:place_grid"]
    kinds = [(slots, getattr(kind, "value", None)) for site, slots, kind in calls if site not in grids]
    assert kinds and all(slots == "_kept" and kind in ts.fields._kept for slots, kind in kinds), kinds


def _module_aliases(tree):
    """Names a module binds to a sibling package module (``from . import planner``)."""
    stems = {p.stem for p in MODULES}
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
        if alias.name in stems
    }


def _references(tree):
    """Names a module reads: bare names, and attributes of a sibling module.

    A definition's own body does not count as a reference to it, so
    recursion or a class naming itself does not keep it alive.
    """
    aliases = _module_aliases(tree)
    found = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                name = node.id
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_definition_has_a_caller():
    definitions, referenced = [], set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        referenced |= _references(tree)
    allowed = referenced | set(ts.__all__) | {attr for _, attr, *_ in tracing.TARGETS}
    assert [d for d in definitions if d.split(":")[1] not in allowed] == []


def test_self_and_attribute_references_keep_nothing_alive():
    tree = ast.parse(
        "from . import planner\n"
        "def walk(n):\n    return walk(n - 1)\n"
        "class Node:\n    def copy(self):\n        return Node()\n"
        "def grid(path):\n    return path.grid\n"
        "def place(m):\n    return planner.place_grid(m)\n"
    )
    assert _references(tree) == {"n", "path", "m", "planner", "place_grid"}


def _run_fresh(script):
    """The stdout of ``script`` run by a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    return out.stdout


def test_import_and_planning_leave_numpy_polynomial_unloaded():
    script = (
        "import sys\n"
        "import toposample as ts\n"
        "from toposample import planner\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "zeros, cumulative = planner._zero_mass(ts.chebyshev_model(64))\n"
        "planner.place_grid(cumulative, zeros, 16)\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "ts.threshold_zero(), ts.threshold_constant(0.3), ts.threshold_cubic_shift(0.5)\n"
        "ts.threshold_polynomial([0.1, -0.2, 0.05]).jet(0.5)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    assert _run_fresh(script).split() == ["False", "False", "False"]


def test_import_leaves_the_process_pool_unloaded():
    script = (
        "import sys\n"
        "import toposample\n"
        "import toposample.cli\n"
        "toposample.forget()\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    assert _run_fresh(script).split() == ["[]"]
