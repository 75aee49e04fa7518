"""Every module-level function in quiverext is reached from the package.

A function counts as reached when a name load outside its own body calls
or passes it: in another package function that is reached, in a class or
at module level in a package module, or in a script under `demos/`.
Imports alone do not count, so re-exporting a name from `__init__.py`
does not reach it.  Code that only tests call belongs in the tests
(`tests/naive.py`), not in the shipped package; the few public
conveniences the package keeps without a caller of its own are listed in
REACHED_BY_API with the reason each stays."""

import ast
from pathlib import Path

import quiverext

PACKAGE = Path(quiverext.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

REACHED_BY_API = {
    "zero_module": "public: the zero module, beside simple_module",
    "projective_module": "public: the indecomposable projective P(v), shifted",
    "semisimple_top": "public: the multiplicities of M / rM, read off top_lifts",
    "shift_rep": "public: M[h] with h's rank checked; the package builds _ShiftedRep",
    "ext_table": "public: ExtTable in one call; the CLI and comparison build it directly",
}


def loaded_names(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unreached_functions():
    """'file:line name' of each module-level function in the package that
    nothing reaches (see the module docstring)."""
    where = {}        # function name -> 'file:line'
    body_loads = {}   # function name -> names its body loads
    roots = set(REACHED_BY_API)
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                where[node.name] = "%s:%d" % (path.name, node.lineno)
                body_loads[node.name] = loaded_names(node) - {node.name}
            else:
                roots |= loaded_names(node)
    for path in DEMOS:
        roots |= loaded_names(ast.parse(path.read_text(), str(path)))
    reached = set()
    frontier = roots & where.keys()
    while frontier:
        reached |= frontier
        loads = set().union(*(body_loads[f] for f in frontier))
        frontier = loads & (where.keys() - reached)
    return sorted("%s %s" % (where[f], f) for f in where.keys() - reached)


def test_sources_found():
    assert {"modules.py", "corner.py", "cli.py"} <= {p.name for p in SOURCES}
    assert len(DEMOS) >= 3


def test_allowlist_names_package_functions():
    defined = {node.name for path in SOURCES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert set(REACHED_BY_API) <= defined


def test_every_function_is_reached():
    assert unreached_functions() == []
