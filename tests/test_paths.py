"""A path is an immutable value, and a presentation builds each relation
path in one pass from its first-applied arrow."""

import copy
import pickle

import pytest

from quiverext import Path, compose, parse_algebra
from quiverext.algebra import AlgebraPresentation, PresentationError
from quiverext.fields import QQ
from quiverext.quiver import Quiver

from conftest import FIXTURE_NAMES, fixture_text

FIELDS = (("b", "a"), "u", "w", (2, 1))


def test_path_equals_a_path_with_the_same_fields():
    p, q = Path(*FIELDS), Path(*FIELDS)
    assert p == q and not p != q
    assert hash(p) == hash(q) == hash(FIELDS)
    assert len({p, q}) == 1 and {p: 1}[q] == 1
    for i, other in enumerate([("a", "b"), "v", "v", (1, 2)]):
        fields = list(FIELDS)
        fields[i] = other
        assert p != Path(*fields)


def test_path_never_equals_a_tuple():
    p = Path(*FIELDS)
    assert p != FIELDS and FIELDS != p
    assert p != FIELDS[0] and p != p.arrows
    assert p not in [FIELDS] and FIELDS not in {p}


@pytest.mark.parametrize("name", ["arrows", "source", "target", "weight", "_hash", "other"])
def test_path_fields_cannot_be_assigned_or_deleted(name):
    p = Path(*FIELDS)
    with pytest.raises(AttributeError):
        setattr(p, name, None)
    with pytest.raises(AttributeError):
        delattr(p, name)
    assert p == Path(*FIELDS) and hash(p) == hash(FIELDS)


def test_path_copies_and_pickles():
    p = Path(*FIELDS)
    made = [copy.copy(p), copy.deepcopy(p)]
    made += [pickle.loads(pickle.dumps(p, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in made:
        assert type(q) is Path and q == p and hash(q) == hash(p)
        assert (q.arrows, q.source, q.target, q.weight) == FIELDS
        assert repr(q) == "ba"


def three_cycle():
    """a: u -> v, b: v -> w and c: w -> u, of weights 1, 2 and 4."""
    quiver = Quiver(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")])
    return AlgebraPresentation(quiver, 1, {"a": (1,), "b": (2,), "c": (4,)}, QQ, [], 4)


def test_path_from_arrows_equals_the_composite():
    pres = three_cycle()
    for names in [("a",), ("b", "a"), ("a", "c", "b"), ("c", "b", "a", "c")]:
        want = pres.arrow_path(names[-1])
        for name in reversed(names[:-1]):
            want = compose(pres.arrow_path(name), want)
        got = pres.path_from_arrows(names)
        assert got == want and hash(got) == hash(want)
        assert type(got.arrows) is tuple and got.arrows == names
    assert pres.path_from_arrows(["c", "b"]).weight == (6,)


@pytest.mark.parametrize("names, message", [
    ((), "empty path"),
    (("b", "x", "a"), "unknown arrow 'x'"),
    (("x", "a", "a"), "arrows x*a*a do not compose at 'a'"),
    (("a", "a", "x"), "unknown arrow 'x'"),
    # reading from the first-applied arrow, b*b fails before a*a
    (("a", "a", "b", "b"), "arrows a*a*b*b do not compose at 'b'"),
    (("c", "a", "b", "a"), "arrows c*a*b*a do not compose at 'a'"),
])
def test_path_from_arrows_errors(names, message):
    with pytest.raises(PresentationError) as err:
        three_cycle().path_from_arrows(names)
    assert str(err.value) == message


@pytest.mark.parametrize("relations, message", [
    ([[(1, ("b", "a"))], [(1, ("a",))]],
     "relation term a has length 1; relations must be combinations of paths "
     "of length >= 2"),
    ([[(1, ("b", "a"))], [(1, ("b", "a")), (1, ("a", "y"))]], "unknown arrow 'y'"),
    ([[(1, ("a", "a"))]], "arrows a*a do not compose at 'a'"),
])
def test_relation_term_errors(relations, message):
    pres = three_cycle()
    with pytest.raises(PresentationError) as err:
        AlgebraPresentation(pres.quiver, 1, pres.weights, QQ, relations, 4)
    assert str(err.value) == message


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_opposite_relations_are_the_reversed_paths(name):
    pres = parse_algebra(fixture_text(name))
    op = pres.opposite()
    assert len(op.relations) == len(pres.relations)
    for terms, op_terms in zip(pres.relations, op.relations):
        assert [c for c, _ in op_terms] == [c for c, _ in terms]
        for (_, p), (_, q) in zip(terms, op_terms):
            assert q.arrows == p.arrows[::-1]
            assert (q.source, q.target, q.weight) == (p.target, p.source, p.weight)
            assert q == op.path_from_arrows(q.arrows)
