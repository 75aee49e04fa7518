"""No class in quiverext defines `__getattr__`, nothing uses
`functools.cached_property`, and modules.py builds no functions.

A class with `__getattr__` loses the interpreter's specialized attribute
reads (CPython 3.11 and later), so every read on its instances, not only
the missing ones the hook serves, takes the slow path.  A value built on
first read is a `first_read` attribute instead (quiver.py), of a class
that holds the value's inputs as data: a module's or a map's action or
blocks, a cover's kernel and the steps after it, an engine's opposite and
a corner's e-to-f module.  `functools.cached_property` would take a lock
on each first read (Python 3.10-3.11) and set the value through the
instance `__dict__`, which on 3.11 slows every later read of the
instance's attributes, so the package uses its one descriptor only.  A
module, projective or map that held a
function to build it would put a function object, and its cells, in every
step a resolution keeps, for the cyclic garbage collector to walk: so
nothing in the package asks `callable(...)` of what it is given, and
modules.py has no nested `def` and no `lambda` but sort keys and the
class-level `_factors` default.  The checks read the package's source, so
a class or function nested anywhere is covered too."""

import ast
from pathlib import Path

import quiverext

SOURCES = sorted(Path(quiverext.__file__).parent.glob("*.py"))


def classes_with_getattr(path):
    """'file:line class' of each class in a source file whose body defines or
    assigns `__getattr__`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        names |= {t.id for item in node.body if isinstance(item, ast.Assign)
                  for t in item.targets if isinstance(t, ast.Name)}
        if "__getattr__" in names:
            found.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return found


def test_sources_found():
    assert {"modules.py", "algebra.py", "resolution.py"} <= {p.name for p in SOURCES}


def test_no_class_defines_getattr():
    assert [hit for path in SOURCES for hit in classes_with_getattr(path)] == []


def cached_properties(path):
    """'file:line' of each use of the name `cached_property` in a source
    file: a name, an attribute, an imported alias or a definition."""
    return ["%s:%d" % (path.name, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if "cached_property" in (getattr(node, field, None)
                                     for field in ("id", "attr", "name"))]


def test_no_cached_property():
    assert [hit for path in SOURCES for hit in cached_properties(path)] == []


def builder_functions(path):
    """'file:line what' of each `callable(...)` call in a source file and, in
    modules.py, each nested `def` and each `lambda` that is not a `key=`
    argument or the value of a class-level `_factors`."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "callable":
                found.append("%s:%d callable(" % (path.name, node.lineno))
            allowed |= {id(kw.value) for kw in node.keywords if kw.arg == "key"}
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                targets = getattr(item, "targets", ())
                if any(isinstance(t, ast.Name) and t.id == "_factors" for t in targets):
                    allowed |= {id(n) for n in ast.walk(item.value)}
    if path.name != "modules.py":
        return found
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            found += ["%s:%d def %s in %s" % (path.name, inner.lineno, inner.name, node.name)
                      for inner in ast.walk(node)
                      if inner is not node and isinstance(inner, ast.FunctionDef)]
        elif isinstance(node, ast.Lambda) and id(node) not in allowed:
            found.append("%s:%d lambda" % (path.name, node.lineno))
    return found


def test_no_builder_functions():
    assert [hit for path in SOURCES for hit in builder_functions(path)] == []
