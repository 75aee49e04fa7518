"""A resolution step computes only what is read.

A cover keeps its projective and epi and computes its kernel on first read;
`kernel_dims` reads the kernel's slice dimensions off the cover, dim P - dim M
slice by slice, as the epi is onto.  Verdicts and the periodicity scan
read only those dimensions (`MinimalResolution.syzygy_dims`), so the last
step of a bounded resolution computes no kernel, and a kernel's inclusion
builds its blocks only when read.  Nothing lazy may refer back to its owner:
a dropped resolution is freed without the cyclic garbage collector."""

import gc
import weakref

import pytest
from hypothesis import given, settings

from quiverext import (AdmissibilityError, build_engine, corner_algebra, ext_table,
                       pair_from_presentation, parse_algebra, simple_module,
                       simple_resolutions)
from quiverext import modules
from quiverext.resolution import MinimalResolution

from conftest import EXTERIOR3_F3, FIXTURE_NAMES, NAK4, cyclic_nakayama, engine_for, \
    engine_from
from test_engine_generated import algebras


def assert_lazy_dims_exact(res):
    """Every cover's kernel_dims, and the resolution's syzygy_dims, equal the
    slices of the kernel, in order; the last kernel is computed here."""
    for n, cover in enumerate(res.covers):
        dims = list(res.syzygy_dims(n + 1).items())
        assert dims == list(cover.kernel_dims.items())
        assert dims == list(cover.kernel.dims.items())
        assert dims == list(res.syzygy(n + 1).dims.items())


def engines_of(name):
    eng = engine_for(name)
    return [eng, corner_algebra(eng, pair_from_presentation(eng)).corner_engine,
            eng.opposite_engine]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_dims_on_fixtures(name):
    for eng in engines_of(name):
        for res in simple_resolutions(eng).values():
            res.pd_verdict(12)
            assert_lazy_dims_exact(res)


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_dims_on_nakayama_cycles(n):
    for loewy in (2, 3, 4):
        eng = engine_from(cyclic_nakayama(n, loewy))
        for res in simple_resolutions(eng).values():
            res.pd_verdict(4 * n)
            assert_lazy_dims_exact(res)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(algebras())
def test_kernel_dims_on_generated_algebras(case):
    text, _ = case
    try:
        eng = build_engine(parse_algebra(text))
    except AdmissibilityError:
        return
    for res in simple_resolutions(eng).values():
        res.extend_to(4)
        assert_lazy_dims_exact(res)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of `kernel_subrep` calls so far, as a one-item list."""
    calls = [0]
    original = modules.kernel_subrep

    def counting(mmap):
        calls[0] += 1
        return original(mmap)

    monkeypatch.setattr(modules, "kernel_subrep", counting)
    return calls


@pytest.mark.parametrize("bound", range(5))
def test_ext_table_computes_one_kernel_per_step_below_the_bound(kernel_calls, bound):
    # no syzygy of the exterior algebra recurs, so nothing is shared or scanned
    table = ext_table(build_engine(parse_algebra(EXTERIOR3_F3)), bound)
    assert kernel_calls[0] == bound
    (res,) = table.resolutions.values()
    assert len(res.covers) == bound + 1


def test_finite_pd_last_cover_computes_no_kernel(kernel_calls):
    eng = engine_for("a2")
    finite = 0     # simples of positive pd
    for v in eng.quiver.vertices:
        res = MinimalResolution(build_engine(eng.pres), simple_module(eng, v))
        kernel_calls[0] = 0
        verdict = res.pd_verdict(12)
        assert verdict.is_finite
        finite += verdict.value > 0
        assert kernel_calls[0] == len(res.covers) - 1 == verdict.value
        assert not res.syzygy_dims(verdict.value + 1)
        assert res.syzygy(verdict.value + 1).is_zero()
        assert kernel_calls[0] == verdict.value + 1
    assert finite


@pytest.mark.parametrize("text", [NAK4, EXTERIOR3_F3], ids=["nak4", "exterior3_f3"])
def test_dropped_resolution_is_freed_without_the_cycle_collector(text):
    eng = build_engine(parse_algebra(text))
    gc.disable()
    try:
        res = {v: MinimalResolution(eng, simple_module(eng, v))
               for v in eng.quiver.vertices}
        for r in res.values():
            r.pd_verdict(6)
        # shifted covers, one with its kernel unread and one with it read
        v = eng.quiver.vertices[0]
        moved = modules.shift_rep(res[v].syzygy(1), (1,) * eng.group_rank)
        shifted = [modules.projective_cover(eng, moved) for _ in range(2)]
        assert shifted[0]._base is not None
        shifted[1].kernel
        covers = [c for r in res.values() for c in r.covers] + shifted
        objects = covers + [c.epi for c in covers] + [c.projective for c in covers]
        objects += [c.projective.rep for c in covers]
        objects += [r.syzygy(n) for r in res.values() for n in range(1, len(r.covers))]
        objects.append(shifted[1].kernel)
        # inclusions whose blocks are built lazily: every other one read
        inclusions = [c.kernel_inclusion for r in res.values() for c in r.covers[:-1]]
        inclusions.append(shifted[1].kernel_inclusion)
        assert all("_build_blocks" in inc.__dict__ for inc in inclusions)
        for inc in inclusions[::2]:
            inc.blocks
        objects += inclusions
        refs = [weakref.ref(x) for x in objects]
        del res, r, moved, shifted, covers, objects, inclusions, inc
        assert [ref() for ref in refs if ref() is not None] == []
    finally:
        gc.enable()
