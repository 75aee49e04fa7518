"""Resolution steps past a repeat against steps computed each on its own.

A resolution is a chain of covers, each the successor of the last.  A cover
shifted from a base that is still alive takes its successor, its step map
(the differential), that map's rank, factors and JSON rows, and its
generator terms from the base, re-keyed by the shift.  Every differential
must equal the naive composite of `naive.naive_differential` block for
block and in its JSON rows, every list of generator terms its naive
recomputation, and `verify` must pass; a shifted step's blocks, factors,
rank and rows must be its base step's own objects, and a shifted epi's its
base epi's.  Once its base is gone, a shifted cover builds each of these on
first read as a fresh cover does.

A differential is read a slice at a time.  On resolutions nothing else has
read, the generator terms build no block of a step, a factor read before
any whole read solves as a `Factor` of the naive block does, and a later
whole read equals the naive composite and holds the slices read first.

A kept step is data: it holds no function object, and adds a bounded
number of objects for the cyclic garbage collector to walk."""

import gc
import re
import types
from pathlib import Path

import pytest
from hypothesis import given, settings

import quiverext
from quiverext import (AdmissibilityError, build_engine, corner_algebra, pair_from_presentation,
                       parse_algebra, parse_algebra_file, simple_module, simple_resolutions)
from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Factor
from quiverext.modules import _ShiftedMap, projective_cover, shift_rep, top_lifts
from quiverext.quiver import wsub, wzero
from quiverext.resolution import MinimalResolution

from conftest import (EXTERIOR3_F3, FIXTURE_NAMES, FIXTURES, MIXED_SIGN, NAK4, POLY_CORNER,
                      cyclic_nakayama, engine_from, fixture_text)
from naive import naive_differential, naive_generator_terms, naive_map_from_generator_images
from test_engine_generated import algebras

BOUND = 12


def assert_shared_map(d, b, h):
    """The map d is the map b moved up by h, sharing b's blocks, factors,
    rank and JSON rows."""
    for (v, g), block in d.blocks.items():
        assert block is b.blocks[(v, wsub(g, h))]
        assert d.factor((v, g)) is b.factor((v, wsub(g, h)))
    assert d.rank() == b.rank()
    assert d.to_json() is b.to_json()


def assert_steps_match_naive(eng, bound=BOUND):
    """Check every step of every simple's resolution through `bound`, and
    return the number of steps taken from a base, differential 0 (the
    epi of a shifted cover of the simple) included."""
    shared = 0
    for res in simple_resolutions(eng).values():
        res.extend_to(bound)
        # shifted epis form no chain: each moves an epi computed afresh
        assert not any(isinstance(c.epi._base, _ShiftedMap) for c in res.covers if c._base)
        base, h = res.covers[0]._live_base()
        if base is not None:
            shared += 1
            assert isinstance(res.differential(0), _ShiftedMap)
            assert_shared_map(res.differential(0), base.epi, h)
        for n in range(1, bound + 1):
            d = res.differential(n)
            want = naive_differential(res, n)
            assert d.source is res.term(n).rep and d.target is res.term(n - 1).rep
            assert d.blocks == want.blocks
            assert d.to_json() == want.to_json()
            assert res.generator_terms(n) == naive_generator_terms(res, n)
            base, h = res.covers[n - 1]._live_base()
            if base is None:
                continue
            shared += 1
            assert_shared_map(d, base.step, h)
            assert d.rank() == want.rank()
            assert res.generator_terms(n) is base.generator_terms
        assert res.verify()
    return shared


def assert_same_solves(got, block):
    """`got` is the `Factor` of `block` (None for a missing block): the same
    elimination, and the same first solution of each column and unit
    vector, consistent or not."""
    if block is None:
        assert got is None
        return
    want = Factor(block)
    assert (got.pivots, got.transform) == (want.pivots, want.transform)
    field = block.field
    units = [[field.one if i == j else field.zero for i in range(block.nrows)]
             for j in range(block.nrows)]
    for rhs in [block.col(j) for j in range(block.ncols)] + units:
        assert got.solve(rhs) == want.solve(rhs)


def naive_differential_at(res, n):
    """Differential n of `res` composed afresh; for n = 0 the cover's epi,
    every block a path action on the module applied to a top lift."""
    if n:
        return naive_differential(res, n).blocks
    images = [vec for _, _, vec in top_lifts(res.module)]
    return naive_map_from_generator_images(res.term(0), res.module, images,
                                           wzero(res.engine.group_rank))


def assert_sliced_steps_match_naive(eng, bound=BOUND):
    """On resolutions that no other reader has touched: the generator terms
    build no block of any step; then each differential, read first at
    every other source slice through `factor`, solves as the naive block's
    `Factor` does with no whole read, and its whole `blocks`, read after,
    equal the naive ones and hold the blocks read first.  Returns the
    number of covers computed afresh."""
    fresh = 0
    for res in simple_resolutions(eng).values():
        terms = [res.generator_terms(n) for n in range(1, bound + 1)]
        for cover in res.covers:
            fresh += cover._base is None
            if "step" in vars(cover):
                assert not {"blocks", "_built"} & set(vars(cover.step))
        read = []       # past a zero syzygy every step is one zero cover's
        for n in range(bound + 1):
            d = res.differential(n)
            if any(d is e for e in read):
                continue
            read.append(d)
            keys = list(d.source.dims)[::2]
            first = {key: d.block(key) for key in keys}
            want = naive_differential_at(res, n)
            for key in keys:
                assert_same_solves(d.factor(key), want.get(key))
            assert "blocks" not in vars(d)
            assert d.blocks == want
            assert all(d.blocks[key] is b for key, b in first.items() if b is not None)
        for n in range(1, bound + 1):
            assert terms[n - 1] == naive_generator_terms(res, n)
        assert res.verify()
    return fresh


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_steps_read_slice_by_slice(name, field):
    pres = parse_algebra_file(str(FIXTURES / (name + ".alg"))).with_field(field)
    corner = corner_algebra(build_engine(pres), pair_from_presentation(build_engine(pres)))
    for eng in (build_engine(pres), corner.corner_engine, build_engine(pres).opposite_engine):
        assert assert_sliced_steps_match_naive(eng) > 0


@pytest.mark.parametrize("n", range(1, 13))
def test_nakayama_steps_read_slice_by_slice(n):
    for loewy in (2, 3, 4):
        assert assert_sliced_steps_match_naive(build_engine(parse_algebra(
            cyclic_nakayama(n, loewy)))) > 0


@pytest.mark.parametrize("text,bound", [(POLY_CORNER, BOUND), (EXTERIOR3_F3, 4),
                                        (MIXED_SIGN, 6)],
                         ids=["poly_corner", "exterior3_f3", "mixed_sign"])
def test_in_test_algebras_read_slice_by_slice(text, bound):
    # the first two are not monomial: some kernel slices are eliminated, so
    # a generator's image is included through a basis; the third includes
    # images at slots that are not the first of their slice
    assert assert_sliced_steps_match_naive(build_engine(parse_algebra(text)), bound) > 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(algebras())
def test_generated_steps_read_slice_by_slice(case):
    text, _ = case
    try:
        eng = build_engine(parse_algebra(text))
    except AdmissibilityError:
        return
    assert_sliced_steps_match_naive(eng, 4)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_steps_match_naive(name, field):
    eng = build_engine(parse_algebra_file(str(FIXTURES / (name + ".alg"))).with_field(field))
    corner = corner_algebra(eng, pair_from_presentation(eng)).corner_engine
    shared = [assert_steps_match_naive(e) for e in (eng, corner, eng.opposite_engine)]
    assert shared[0] > 0     # each fixture's resolutions meet a shifted module


@pytest.mark.parametrize("n", range(1, 13))
def test_nakayama_steps_match_naive(n):
    for loewy in (2, 3, 4):
        # Omega^2 S_i = S_{i+L}[L]: the resolutions meet shifted simples
        # covered before
        assert assert_steps_match_naive(engine_from(cyclic_nakayama(n, loewy))) > 0


LAZY = ("kernel", "kernel_inclusion", "step", "generator_terms")


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["nak4"])
def test_shifted_cover_read_after_its_base_is_gone(name):
    # once its base is freed, a shifted cover builds each lazy attribute on
    # first read as a fresh cover does, with the same result
    pres = parse_algebra(NAK4 if name == "nak4" else fixture_text(name))
    h = (1,) * pres.group_rank
    for v in pres.quiver.vertices:
        # an engine of its own, so no earlier cover keeps the base alive
        eng = build_engine(pres)
        res = MinimalResolution(eng, simple_module(eng, v)).extend_to(1)
        moved = shift_rep(res.syzygy(1), h)
        shifted = res.covers[1].shifted(moved, h)
        assert shifted._live_base()[0] is not None
        del res
        gc.collect()
        assert shifted._live_base() == (None, None)
        assert not set(LAZY) & set(vars(shifted))
        want = projective_cover(build_engine(pres), moved)
        assert want._live_base() == (None, None)
        got_kernel, want_kernel = shifted.kernel, want.kernel
        assert list(got_kernel.dims.items()) == list(want_kernel.dims.items())
        assert list(got_kernel.action.items()) == list(want_kernel.action.items())
        assert shifted.kernel_inclusion.blocks == want.kernel_inclusion.blocks
        assert list(shifted.step.blocks.items()) == list(want.step.blocks.items())
        assert shifted.generator_terms == want.generator_terms
        assert set(LAZY) <= set(vars(shifted))


def test_kept_steps_load_the_collector_little():
    """Every simple of the 24-vertex cycle with J^5 = 0 resolved to 40 and
    kept: at most 20 objects more per kept cover, none of them a function.
    The package leaves the collector's settings alone."""
    eng = engine_from(cyclic_nakayama(24, 5))
    gc.collect()
    before = gc.get_objects()
    count = len(before)
    functions = [f for f in before if isinstance(f, types.FunctionType)]
    known = {id(f) for f in functions}      # held above, so no id is reused
    del before
    resolutions = simple_resolutions(eng)
    for res in resolutions.values():
        res.pd_verdict(40)
    gc.collect()
    after = gc.get_objects()
    covers = sum(len(res.covers) for res in resolutions.values())
    assert len(after) - count <= 20 * covers
    assert [f for f in after if isinstance(f, types.FunctionType) and id(f) not in known] == []
    for path in Path(quiverext.__file__).parent.glob("*.py"):
        assert not re.search(r"\bgc\.(disable|freeze|set_threshold)\b", path.read_text())
