"""The parser of algebra files and the corner's idempotent pair raise none
of the messages that `Quiver` and `AlgebraPresentation` raise.

Each structural fault of a presentation (names, arrow ends, weights, the
truncation, the idempotent, relation terms) is checked once, by the
constructors: `parse_algebra` only maps the error's item to its line, and
`IdempotentPair` checks its f-vertices with `Quiver.idempotent_vertices`.
A copy of one of those checks would raise the constructor's message, or a
shortening of it, itself; the check reads the package's source, so such a
copy fails here before any input reaches it."""

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


def repeats(messages):
    """The messages that some constructor message equals or starts with."""
    return {m for m in messages for c in constructor_messages() if c.startswith(m)}


def test_messages_found():
    assert {"expected 'truncate <N>'", "bad arrow name %",
            "zero denominator in coefficient %"} <= raised_messages("algfile.py")
    assert {"no idempotent line in the algebra description",
            "this check needs e to be a single vertex"} <= raised_messages("corner.py")
    assert {"duplicate vertex name %", "duplicate arrow name %",
            "arrow % has unknown % %", "truncation must be at least 2",
            "unknown vertex % in idempotent line", "repeated vertex in idempotent line",
            "the corner part must contain at least one vertex",
            "unknown arrow %", "arrows % do not compose at %"} <= constructor_messages()


def test_parser_repeats_no_constructor_check():
    assert repeats(raised_messages("algfile.py")) == set()


def test_corner_repeats_no_constructor_check():
    assert repeats(raised_messages("corner.py")) == set()
