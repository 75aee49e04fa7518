"""What a resolution step builds on first read, and in which order.

A kernel takes its parent's slice order, which is already the one slice
order, so it is not sorted again.  A one-summand projective's action is its
template's own blocks re-keyed by the shift, in the template's order; a sum
of several places the blocks at their offsets.  Every value built on first
read is a `first_read` attribute, stored on the instance by its first read."""

import pytest

from quiverext import build_engine, modules, parse_algebra
from quiverext.algebra import NormalFormEngine
from quiverext.corner import CornerPresentation
from quiverext.modules import (Cover, ModuleMap, Projective, ProjectiveMap, _in_order,
                               projective_module, simple_module)
from quiverext.quiver import first_read, wadd, wzero
from quiverext.resolution import global_dimension, simple_resolutions

from conftest import FIXTURE_NAMES, POLY_CORNER, cyclic_nakayama, fixture_text
from naive import naive_projective

NAMES = FIXTURE_NAMES + ["poly_corner"]


def engine(name):
    """A fresh engine, so that no cover kept from another test is shared."""
    return build_engine(parse_algebra(POLY_CORNER if name == "poly_corner"
                                      else fixture_text(name)))


@pytest.fixture
def kernels(monkeypatch):
    """Every kernel `kernel_subrep` builds while the test runs."""
    built = []
    kernel_subrep = modules.kernel_subrep

    def recorded(mmap):
        out = kernel_subrep(mmap)
        built.append(out[0])
        return out

    monkeypatch.setattr(modules, "kernel_subrep", recorded)
    return built


def assert_in_order(rep):
    assert list(rep.dims) == _in_order(rep.engine, rep.dims)


@pytest.mark.parametrize("name", NAMES)
def test_kernels_keep_the_one_slice_order(name, kernels):
    eng = engine(name)
    for res in simple_resolutions(eng).values():
        res.extend_to(6)
        for n in range(8):
            assert_in_order(res.syzygy(n))
    assert kernels
    for kernel in kernels:
        assert_in_order(kernel)


def test_nakayama24_kernels_keep_the_one_slice_order(kernels):
    eng = build_engine(parse_algebra(cyclic_nakayama(24, 5)))
    assert global_dimension(eng, 50).is_infinite
    assert len(kernels) >= 24
    for kernel in kernels:
        assert_in_order(kernel)


def shifts(eng):
    k = eng.group_rank
    return [wzero(k), tuple(range(1, k + 1)), tuple(-2 for _ in range(k))]


@pytest.mark.parametrize("name", NAMES)
def test_one_summand_action_is_the_template_blocks_in_order(name):
    eng = engine(name)
    arrows = eng.quiver.arrows_from
    for v in eng.quiver.vertices:
        t = eng.projective_template(v)
        for g in shifts(eng):
            rep = projective_module(eng, v, g).rep
            keys = [(arrow, wadd(d, g)) for (_, d), blocks in t.blocks_from.items()
                    for arrow, _, _ in blocks]
            assert list(rep.action) == keys
            # slice by slice, then in quiver arrow order
            assert keys == [(a.name, h) for w, h in rep.dims for a in arrows[w]
                            if (a.name, h) in rep.action]
            for (_, d), blocks in t.blocks_from.items():
                for arrow, _, b in blocks:
                    assert rep.action[(arrow, wadd(d, g))] is b


@pytest.mark.parametrize("name", NAMES)
def test_sum_action_matches_the_slot_by_slot_reference(name):
    eng = engine(name)
    vs = eng.quiver.vertices
    zero, up, down = shifts(eng)
    cases = [[(v, zero), (w, zero)] for v in vs for w in vs]
    cases += [[(v, zero), (v, up), (w, down)] for v in vs for w in vs]
    for summands in cases:
        proj = Projective(eng, summands)
        _, _, _, dims, action = naive_projective(eng, summands)
        assert list(proj.rep.dims.items()) == list(dims.items())
        assert list(proj.rep.action) == list(action)
        assert all(proj.rep.action[key] == b for key, b in action.items())


class Counted:
    calls = 0

    @first_read
    def value(self):
        """A list, made once."""
        Counted.calls += 1
        return [Counted.calls]


def test_first_read_stores_the_value_and_never_calls_again():
    Counted.calls = 0
    obj = Counted()
    first = obj.value
    assert obj.value is first and vars(obj) == {"value": first}
    assert Counted.calls == 1
    assert Counted().value == [2]


def test_first_read_from_the_class_is_the_descriptor():
    assert isinstance(Counted.value, first_read)
    assert Counted.value.__doc__ == "A list, made once."
    for cls, name in [(Cover, "kernel"), (ModuleMap, "_factors"), (ProjectiveMap, "blocks"),
                      (NormalFormEngine, "opposite_engine"), (CornerPresentation, "e_to_f")]:
        assert isinstance(vars(cls)[name], first_read)


def test_an_instance_assignment_overrides_first_read():
    Counted.calls = 0
    obj = Counted()
    obj.value = "set"
    assert obj.value == "set" and Counted.calls == 0
    # a cover's kernel sets its inclusion, and the kernel its shape, this way
    eng = engine("pos")
    cover = modules.projective_cover(eng, simple_module(eng, "1"))
    assert "kernel_inclusion" not in vars(cover)
    kernel = cover.kernel
    assert "kernel_inclusion" in vars(cover)
    assert vars(kernel)["shape"] is cover.kernel_shape


@pytest.mark.parametrize("name", NAMES)
def test_each_syzygy_shape_is_computed_once_with_its_cover(name, monkeypatch):
    eng = engine(name)
    resolutions = simple_resolutions(eng)
    shape = modules._shape
    calls = []
    monkeypatch.setattr(modules, "_shape", lambda *args: calls.append(args) or shape(*args))
    for res in resolutions.values():
        res.extend_to(5)
        # the module's, and one per cover for its kernel, the scan's included
        assert len(calls) == 1 + len({id(cover) for cover in res.covers})
        del calls[:]
        for n in range(1, 7):
            syzygy = res.syzygy(n)
            assert vars(syzygy)["shape"] is res.covers[n - 1].kernel_shape
            assert syzygy.shape == shape(eng, syzygy.dims)


@pytest.mark.parametrize("name", NAMES)
def test_a_shifted_epi_rekeys_its_base_blocks_on_first_read(name):
    eng = engine(name)
    h = (3,) * eng.group_rank
    for res in simple_resolutions(eng).values():
        res.extend_to(3)
        for n, cover in enumerate(res.covers):
            shifted = cover.shifted(modules.shift_rep(res.syzygy(n), h), h).epi
            assert "blocks" not in vars(shifted)
            blocks = shifted.blocks
            assert list(blocks) == [modules._moved(key, h) for key in cover.epi.blocks]
            assert all(blocks[modules._moved(key, h)] is b
                       for key, b in cover.epi.blocks.items())
            fresh = modules.projective_cover(engine(name), shifted.target).epi
            assert list(fresh.blocks.items()) == list(blocks.items())
