"""One form of "moved up by h" for each kind of object.

A shifted module is a `_ShiftedRep` and a shifted map a `_ShiftedMap`; a
shifted cover (`Cover.shifted`) builds its projective from the templates as
any cover does, and its epi is the base epi as a `_ShiftedMap`.  So no
projective or map keeps a `_shift_of` pair, and `Cover` is the only class
with a `shifted` method.  The checks read the package's source."""

import ast
from pathlib import Path

import quiverext

SOURCES = sorted(Path(quiverext.__file__).parent.glob("*.py"))


def test_no_shift_of_pair():
    assert [path.name for path in SOURCES if "_shift_of" in path.read_text()] == []


def test_only_cover_defines_shifted():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "shifted"
                    for item in node.body):
                found.append(node.name)
    assert found == ["Cover"]
