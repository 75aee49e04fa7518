"""The opposite engine shares its engine's Groebner basis and word memo and
reads them backwards: one completion per algebra, no reference cycle, an
independent quotient oracle, and the same id verdicts as a freshly
completed opposite engine."""

import gc
import weakref

import pytest

from quiverext import build_engine, parse_algebra, parse_algebra_file
from quiverext.algebra import NormalFormEngine
from quiverext.modules import Representation, dual_to_opposite, simple_module
from quiverext.resolution import injective_dimension, projective_dimension

from conftest import (EXTERIOR2, EXTERIOR2_Z, EXTERIOR3_F3, EXTERIOR4, FIXTURE_NAMES, FIXTURES,
                      MIXED, MIXED_SIGN, NAK4, POLY_CORNER, fixture_text)
from naive import check_opposite_normal_forms, reference_opposite_engine

NAMED = {"EXTERIOR2": EXTERIOR2, "EXTERIOR2_Z": EXTERIOR2_Z, "EXTERIOR3_F3": EXTERIOR3_F3,
         "EXTERIOR4": EXTERIOR4, "MIXED": MIXED, "MIXED_SIGN": MIXED_SIGN,
         "POLY_CORNER": POLY_CORNER, "NAK4": NAK4}


def text_of(name):
    return NAMED.get(name) or fixture_text(name)


def dropped_engines(name):
    """Weak references to a fixture's engine and its opposite, each built
    with every template read, once both names are gone."""
    eng = build_engine(parse_algebra_file(str(FIXTURES / (name + ".alg"))))
    op = eng.opposite_engine
    for e in (eng, op):
        for v in e.quiver.vertices:
            e.projective_template(v)
    return [weakref.ref(eng), weakref.ref(op)]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_opposite_engine_forms_no_cycle(name):
    gc.disable()
    try:
        refs = dropped_engines(name)
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", FIXTURE_NAMES + sorted(NAMED))
def test_lone_opposite_engine_matches_local_elimination(name):
    # kept alone, the opposite engine outlives its engine and still gives
    # every normal form, checked against the opposite presentation's own
    # elimination
    gc.disable()
    try:
        eng = build_engine(parse_algebra(text_of(name)))
        base = weakref.ref(eng)
        op = eng.opposite_engine
        del eng
        assert base() is None
    finally:
        gc.enable()
    check_opposite_normal_forms(op)


def test_one_completion_per_algebra(monkeypatch):
    calls = []
    complete = NormalFormEngine._complete

    def counted(self):
        calls.append(self.pres)
        complete(self)

    monkeypatch.setattr(NormalFormEngine, "_complete", counted)
    eng = build_engine(parse_algebra(fixture_text("tri")))
    twice = eng.opposite_engine.opposite_engine
    assert calls == [eng.pres]
    assert twice.basis == eng.basis
    assert twice.opposite_engine.basis == eng.opposite_engine.basis


def reference_injective_dimension(engine, module, bound):
    """id as the pd of the dual over a freshly completed opposite engine."""
    ref = reference_opposite_engine(engine)
    dual = dual_to_opposite(engine, module)
    return projective_dimension(ref, Representation(ref, dual.dims, dual.action, check=True),
                                bound)


def verdict_key(v):
    c = v.certificate
    return (v.kind, v.value, None if c is None else (c.n0, c.period, tuple(c.shift)))


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["POLY_CORNER", "NAK4", "EXTERIOR2",
                                                  "EXTERIOR2_Z", "EXTERIOR3_F3"])
def test_id_verdicts_match_reference_opposite(name):
    eng = build_engine(parse_algebra(text_of(name)))
    for v in eng.quiver.vertices:
        s = simple_module(eng, v)
        assert verdict_key(injective_dimension(eng, s, 12)) == \
            verdict_key(reference_injective_dimension(eng, s, 12))
