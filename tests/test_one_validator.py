"""The parser of algebra files raises none of the messages that `Quiver`
and `AlgebraPresentation` raise.

Each structural fault of a presentation (names, arrow ends, weights, the
truncation, the idempotent, relation terms) is checked once, by the
constructors, and `parse_algebra` only maps the error's item to its line.
A parser that checked one of them again would raise the constructor's
message itself; the check reads the package's source, so such a copy
fails here before any input reaches it."""

import ast
import re
from pathlib import Path

import quiverext

SOURCE_DIR = Path(quiverext.__file__).parent


def raised_messages(name):
    """The message of each `raise E("...")` or `raise E("..." % ...)` in a
    package source, each %-field written as a bare %."""
    path = SOURCE_DIR / name
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        arg = node.exc.args[0]
        if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
            arg = arg.left
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            found.add(re.sub(r"%[-+ #0-9.]*[a-z]", "%", arg.value))
    return found


def constructor_messages():
    return raised_messages("quiver.py") | raised_messages("algebra.py")


def test_messages_found():
    assert {"expected 'truncate <N>'", "bad arrow name %",
            "zero denominator in coefficient %"} <= raised_messages("algfile.py")
    assert {"duplicate vertex name %", "duplicate arrow name %",
            "arrow % has unknown % %", "truncation must be at least 2",
            "unknown vertex % in idempotent line", "repeated vertex in idempotent line",
            "unknown arrow %", "arrows % do not compose at %"} <= constructor_messages()


def test_parser_repeats_no_constructor_check():
    assert raised_messages("algfile.py") & constructor_messages() == set()
