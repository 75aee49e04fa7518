"""Slice-stored kernels and subrepresentations against the dense per-column
reference in naive.py, the checks at the dense-to-block conversion, and the
order in which slices are visited."""

import random
import zlib

import pytest

from quiverext import ModuleMap, build_engine, parse_algebra_file
from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Matrix
from quiverext.modules import (Projective, _subrep_from_homogeneous, kernel_subrep,
                               projective_cover, projective_module, simple_module)
from quiverext.quiver import wadd

from conftest import (FIXTURE_NAMES, FIXTURES, SEMISIMPLE2, engine_for, engine_from,
                      random_homogeneous_vectors)
from naive import (dense_degrees, dense_generated, dense_kernel, dense_view, direct_sum,
                   map_from_dense, rep_from_dense, subrep_generated, vector_from_dense)


def _engine(name, field):
    pres = parse_algebra_file(str(FIXTURES / (name + ".alg")))
    return build_engine(pres.with_field(field))


def _dense_vector(rep, v, g, coords):
    """A slice vector in the layout of the dense view."""
    degrees = dense_degrees(rep)[v]
    vec = [rep.engine.field.zero] * len(degrees)
    start = degrees.index(g)
    vec[start:start + len(coords)] = coords
    return vec


def _assert_same(got, want):
    sub, incl = got
    degrees, action, inclusion = want
    assert dense_degrees(sub) == degrees
    dense = dense_view(sub)
    for name, rows in action.items():
        assert dense[name].rows == rows
    dense = incl.dense()
    for v, rows in inclusion.items():
        assert dense[v].rows == rows
    sub._verify()
    incl._verify()


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sliced_path_matches_dense_reference(name, field):
    eng = _engine(name, field)
    vertices = eng.quiver.vertices
    zero = (0,) * eng.group_rank
    one = (1,) * eng.group_rank
    # the cover of the top of the algebra, plus a shifted second copy of P_0
    cover = Projective(eng, [(v, zero) for v in vertices] + [(vertices[0], one)])
    rng = random.Random(zlib.crc32(("%s/%s" % (name, field.name)).encode()))
    for _ in range(6):
        picked = random_homogeneous_vectors(cover.rep, rng, rng.randint(1, 3))
        if not picked:
            continue
        dense = [(v, g, _dense_vector(cover.rep, v, g, vec)) for v, g, vec in picked]
        _assert_same(subrep_generated(cover.rep, picked),
                     dense_generated(cover.rep, dense))
        # kernels of the map sending free generators onto the picked vectors,
        # once degree-preserving and once with a uniform degree drop
        for grade in (zero, one):
            source = Projective(eng, [(v, wadd(g, grade)) for v, g, _ in picked])
            phi = source.map_from_generator_images(
                cover.rep, [vec for _, _, vec in picked], grade=grade)
            phi._verify()
            _assert_same(kernel_subrep(phi), dense_kernel(phi))


def test_span_not_closed_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "u")
    identity = ModuleMap(p.rep, p.rep, {key: Matrix.identity(eng.field, n)
                                        for key, n in p.rep.dims.items()})
    key, gen = identity.column(*p.gen_pos[0])
    with pytest.raises(ValueError, match="span is not closed under the action"):
        _subrep_from_homogeneous(p.rep, {key: [gen]}, {})


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_column_is_image_of_unit_vector(name):
    eng = engine_for(name)
    covers = [projective_cover(eng, simple_module(eng, v)) for v in eng.quiver.vertices]
    for mmap in [m for c in covers for m in (c.epi, c.kernel_inclusion)]:
        for key, n in mmap.source.dims.items():
            for i in range(n):
                unit = [eng.field.zero] * n
                unit[i] = eng.field.one
                tkey, col = mmap.column(key, i)
                assert tkey == key
                b = mmap.blocks.get(key)
                assert col == (b.apply(unit) if b is not None
                               else [eng.field.zero] * mmap.target.dims.get(key, 0))
    # a missing block is the zero map onto its target slice
    p = projective_module(eng, eng.quiver.vertices[0])
    zero_map = ModuleMap(p.rep, p.rep, {})
    for key, n in p.rep.dims.items():
        assert zero_map.column(key, n - 1) == (key, [eng.field.zero] * n)


def test_vector_outside_its_degree_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "v").rep
    # the generator e_v lies in degree 0 of the dense view [e_v, b]
    gen = _dense_vector(p, "v", (0,), [eng.field.one])
    assert vector_from_dense(p, "v", (0,), gen) == [eng.field.one]
    with pytest.raises(ValueError, match="vector at v is not homogeneous"):
        vector_from_dense(p, "v", (1,), gen)


def test_non_homogeneous_map_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "v").rep
    field = eng.field
    # the identity with a nonzero degree drop, and e_v -> b at drop zero
    e_to_b = Matrix.zeros(field, 2, 2)
    degrees = dense_degrees(p)["v"]
    e_to_b.rows[degrees.index((1,))][degrees.index((0,))] = field.one
    for blocks, grade in (({"v": Matrix.identity(field, 2)}, (1,)), ({"v": e_to_b}, None)):
        with pytest.raises(ValueError, match="map at v is not homogeneous"):
            map_from_dense(p, p, blocks, grade=grade, check=False)


def test_slices_visit_vertices_then_increasing_degree():
    eng = engine_from(SEMISIMPLE2)
    rep = rep_from_dense(eng, {"v": ((2,), (0,), (2,)), "u": ((1,),)}, {})
    # vertices in quiver order, then degrees increasing, whatever the
    # order the slices are given in
    assert list(rep.dims.items()) == [(("u", (1,)), 1), (("v", (0,)), 1),
                                      (("v", (2,)), 2)]
    assert dense_degrees(rep) == {"u": ((1,),), "v": ((0,), (2,), (2,))}
    # that order fixes the order of cover summands
    assert projective_cover(eng, rep).projective.summands == (
        ("u", (1,)), ("v", (0,)), ("v", (2,)), ("v", (2,)))
    # a direct sum visits its degrees in the same order
    both = direct_sum([simple_module(eng, "v", (3,)), rep])
    assert list(both.dims) == [("u", (1,)), ("v", (0,)), ("v", (2,)), ("v", (3,))]
    # a projective visits its degrees in increasing order, and the dense
    # view reads back into the same blocks
    eng = engine_for("e41")
    p = Projective(eng, [("u", (1,)), ("v", (0,)), ("u", (0,))])
    for v in eng.quiver.vertices:
        degs = [g for u, g in p.rep.dims if u == v]
        assert degs == sorted(degs)
    assert list(p.rep.dims) == list(p.slots)
    kernel = projective_cover(eng, simple_module(eng, "v")).kernel
    for rep in (p.rep, kernel):
        assert rep_from_dense(eng, dense_degrees(rep), dense_view(rep)) == rep
