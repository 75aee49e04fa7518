"""Resolution steps past a repeat against steps computed each on its own.

A resolution is a chain of covers, each the successor of the last.  A cover
shifted from a base that is still alive takes its successor, its step map
(the differential), that map's rank, factors and JSON rows, and its
generator terms from the base, re-keyed by the shift.  Every differential
must equal the naive composite of `naive.naive_differential` block for
block and in its JSON rows, every list of generator terms its naive
recomputation, and `verify` must pass; a shifted step's blocks, factors,
rank and rows must be its base step's own objects.  Once its base is gone,
a shifted cover builds each of these on first read as a fresh cover does.

A kept step is data: it holds no function object, and adds a bounded
number of objects for the cyclic garbage collector to walk."""

import gc
import re
import types
from pathlib import Path

import pytest

import quiverext
from quiverext import (build_engine, corner_algebra, pair_from_presentation,
                       parse_algebra, parse_algebra_file, simple_module, simple_resolutions)
from quiverext.fields import QQ, PrimeField
from quiverext.modules import projective_cover, shift_rep
from quiverext.quiver import wsub
from quiverext.resolution import MinimalResolution

from conftest import FIXTURE_NAMES, FIXTURES, NAK4, cyclic_nakayama, engine_from, fixture_text
from naive import naive_differential, naive_generator_terms

BOUND = 12


def assert_steps_match_naive(eng, bound=BOUND):
    """Check every step of every simple's resolution through `bound`, and
    return the number of steps taken from a base."""
    shared = 0
    for res in simple_resolutions(eng).values():
        res.extend_to(bound)
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
            b = base.step
            for (v, g), block in d.blocks.items():
                assert block is b.blocks[(v, wsub(g, h))]
                assert d.factor((v, g)) is b.factor((v, wsub(g, h)))
            assert d.rank() == b.rank() == want.rank()
            assert d.to_json() is b.to_json()
            assert res.generator_terms(n) is base.generator_terms
        assert res.verify()
    return shared


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
