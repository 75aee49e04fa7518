"""No class in quiverext defines `__getattr__`.

A class with `__getattr__` loses the interpreter's specialized attribute
reads (CPython 3.11 and later), so every read on its instances, not only
the missing ones the hook serves, takes the slow path.  A value built on
first read is a `functools.cached_property` instead.  The check reads the
package's source, so a class nested anywhere is covered too."""

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
