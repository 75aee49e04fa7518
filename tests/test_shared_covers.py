"""Covers shared up to a degree shift equal covers computed afresh.

An engine keeps a weak reference to every cover `projective_cover` computes,
and covers a module that equals a kept one up to a degree shift by shifting
the kept cover.  Each cover of a resolution is compared, field by field,
with the cover of the same module on a fresh engine, whose store is empty."""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from quiverext import build_engine, parse_algebra
from quiverext import modules, resolution
from quiverext.fields import PrimeField
from quiverext.modules import (Representation, projective_cover, projective_module,
                               shift_rep, simple_module)
from quiverext.quiver import wadd
from quiverext.resolution import (MinimalResolution, combine_verdicts, global_dimension,
                                  minimal_resolution, projective_dimension)

from conftest import (EXTERIOR3_UNGRADED, FIXTURE_NAMES, POLY_CORNER, cyclic_nakayama,
                      fixture_text)

ALGEBRAS = FIXTURE_NAMES + ["poly_corner", "exterior3_ungraded"]
FIELDS = ["Q", "F3"]
# no syzygy of the ungraded exterior algebra recurs, and they grow
# quadratically, so its resolutions stop earlier
BOUNDS = {"exterior3_ungraded": 6}


def presentation(name, field):
    if name == "poly_corner":
        text = POLY_CORNER
    elif name == "exterior3_ungraded":
        text = EXTERIOR3_UNGRADED % "Q"
    else:
        text = fixture_text(name)
    pres = parse_algebra(text)
    return pres if field == "Q" else pres.with_field(PrimeField(3))


def stored(engine):
    """The number of entries in the engine's cover store: the covers it has
    computed, less those dropped after they were gone."""
    return sum(len(bucket) for bucket in engine.covers.values())


def assert_same_rep(a, b):
    assert list(a.dims.items()) == list(b.dims.items())
    assert list(a.action.items()) == list(b.action.items())


def assert_same_cover(got, want):
    p, q = got.projective, want.projective
    assert p.summands == q.summands
    assert p.gen_pos == q.gen_pos
    assert list(p.slots.items()) == list(q.slots.items())
    assert_same_rep(p.rep, q.rep)
    assert ([got.epi.column(key, i) for key, s in p.slots.items() for i in range(len(s))]
            == [want.epi.column(key, i) for key, s in q.slots.items() for i in range(len(s))])
    assert list(got.epi.blocks.items()) == list(want.epi.blocks.items())
    assert_same_rep(got.kernel, want.kernel)
    assert (list(got.kernel_inclusion.blocks.items())
            == list(want.kernel_inclusion.blocks.items()))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_shared_covers_equal_fresh_ones(name, field):
    # every simple on one engine, so later resolutions reuse earlier covers
    pres = presentation(name, field)
    eng = build_engine(pres)
    for v in eng.quiver.vertices:
        res = minimal_resolution(eng, simple_module(eng, v), BOUNDS.get(name, 12))
        for n, cover in enumerate(res.covers):
            assert_same_cover(cover, projective_cover(build_engine(pres), res.syzygy(n)))


def rescaled(rep):
    """rep with the basis of its k-th slice multiplied by 2^k: an isomorphic
    module on the same slices, with other action blocks."""
    eng = rep.engine
    scale = {key: eng.field.of(2 ** k) for k, key in enumerate(rep.dims)}
    action = {}
    for (name, g), m in rep.action.items():
        a = eng.quiver.arrow_by_name[name]
        target = scale[(a.target, wadd(g, eng.pres.weights[name]))]
        action[(name, g)] = m.scaled(target * eng.field.inv(scale[(a.source, g)]))
    return Representation(eng, rep.dims, action)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_equal_slices_with_other_action_blocks_are_covered_afresh(name):
    pres = presentation(name, "Q")
    eng = build_engine(pres)
    for v in eng.quiver.vertices:
        proj = projective_module(eng, v)
        kept = projective_cover(eng, proj.rep)
        for other in (rescaled(proj.rep), Representation(eng, proj.rep.dims, {})):
            other = shift_rep(other, (1,) * eng.group_rank)
            assert_same_cover(projective_cover(eng, other),
                              projective_cover(build_engine(pres), other))
        assert_same_cover(kept, projective_cover(build_engine(pres), proj.rep))


def test_resolving_nak_reuses_covers(monkeypatch):
    requested = []
    cover = resolution.projective_cover

    def counting_cover(engine, rep):
        requested.append(cover(engine, rep))
        return requested[-1]

    # the first cover is asked of resolution's name, a successor of modules'
    monkeypatch.setattr(resolution, "projective_cover", counting_cover)
    monkeypatch.setattr(modules, "projective_cover", counting_cover)
    eng = build_engine(presentation("nak", "Q"))
    steps = 0
    for v in eng.quiver.vertices:
        steps += len(minimal_resolution(eng, simple_module(eng, v), 12).covers)
    # the store serves some requests, and a step past a repeat makes none
    fresh = sum(c._base is None for c in requested)
    assert fresh < len(requested) < steps


def test_repeated_jobs_leave_no_more_entries_than_one():
    # a walk drops the entries of covers gone, so a long-lived engine's store
    # stays the size one job leaves
    eng = build_engine(parse_algebra(cyclic_nakayama(24, 5)))      # J^5 = 0
    first = global_dimension(eng, 50)
    assert first.is_infinite and first.certificate.period == 48
    one_job = stored(eng)
    for _ in range(49):
        verdict = global_dimension(eng, 50)
        assert verdict == first
        assert (verdict.certificate.n0, verdict.certificate.period,
                verdict.certificate.shift) == (0, 48, (120,))
        assert stored(eng) <= one_job


@pytest.mark.parametrize("n", range(4, 13))
def test_global_dimension_keeps_each_resolution_to_the_return(monkeypatch, n):
    # J^3 = 0: Omega^2 S_i = S_{i+3}[3], so a simple's resolution meets the
    # simples three vertices on, shifted, and recurs only after
    # 2n / gcd(3, n) steps; the bound stops short of that, so every simple
    # is resolved to it
    pres = parse_algebra(cyclic_nakayama(n, 3))
    bound = 2 * n // math.gcd(3, n) - 2
    fresh = [0]
    top_lifts = modules.top_lifts

    def counting(rep):
        fresh[0] += 1
        return top_lifts(rep)

    monkeypatch.setattr(modules, "top_lifts", counting)
    singly = []
    for v in pres.quiver.vertices:
        eng = build_engine(pres)
        singly.append(projective_dimension(eng, simple_module(eng, v), bound))
    fresh_singly, fresh[0] = fresh[0], 0

    covers = []
    pd_verdict = MinimalResolution.pd_verdict

    def recording(res, bound):
        assert all(c() is not None for c in covers)     # earlier ones are kept
        verdict = pd_verdict(res, bound)
        covers.extend(weakref.ref(c) for c in res.covers)
        return verdict

    monkeypatch.setattr(MinimalResolution, "pd_verdict", recording)
    eng = build_engine(pres)
    gc.disable()
    try:
        verdict = global_dimension(eng, bound)
        assert len(covers) == n * (bound + 1)
        assert [c for c in covers if c() is not None] == []
    finally:
        gc.enable()
    assert verdict == combine_verdicts(singly) == resolution.DimVerdict.at_least(bound)
    assert 0 < fresh[0] < fresh_singly


@st.composite
def shifted_syzygies(draw):
    pres = presentation(draw(st.sampled_from(ALGEBRAS[:-1])), draw(st.sampled_from(FIELDS)))
    eng = build_engine(pres)
    v = draw(st.sampled_from(eng.quiver.vertices))
    n = draw(st.integers(0, 5))
    h = draw(st.tuples(*[st.integers(-3, 3)] * eng.group_rank))
    return pres, eng, v, n, h


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(shifted_syzygies())
def test_cover_of_shifted_module_is_shifted_cover(case):
    pres, eng, v, n, h = case
    res = minimal_resolution(eng, simple_module(eng, v), n)
    moved = shift_rep(res.syzygy(n), h)
    want = projective_cover(build_engine(pres), moved)
    shifted = res.covers[n].shifted(moved, h)
    assert_same_cover(shifted, want)
    assert shifted.projective._where == want.projective._where
    # found in the store while the resolution holds the cover
    before = stored(eng)
    assert_same_cover(projective_cover(eng, moved), want)
    assert stored(eng) == before
