"""The degree-sliced kernels and subrepresentations against the dense
per-column reference in naive.py, plus the checks that guard the slicing."""

import random
import zlib

import pytest

from quiverext import ModuleMap, build_engine, parse_algebra_file
from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Matrix
from quiverext.modules import (Projective, _subrep_from_homogeneous, kernel_subrep,
                               projective_module, random_homogeneous_vectors,
                               subrep_generated)
from quiverext.quiver import wadd

from conftest import FIXTURE_NAMES, FIXTURES, engine_for
from naive import dense_generated, dense_kernel


def _engine(name, field):
    pres = parse_algebra_file(str(FIXTURES / (name + ".alg")))
    return build_engine(pres.with_field(field))


def _assert_same(got, want):
    sub, incl = got
    degrees, action, inclusion = want
    assert sub.degrees == degrees
    for name, rows in action.items():
        assert sub.action[name].rows == rows
    for v, rows in inclusion.items():
        assert incl.blocks[v].rows == rows
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
        by_vertex = {}
        for v, g, vec in picked:
            by_vertex.setdefault(v, []).append((g, vec))
        _assert_same(subrep_generated(cover.rep, by_vertex),
                     dense_generated(cover.rep, by_vertex))
        # kernels of the map sending free generators onto the picked vectors,
        # once degree-preserving and once with a uniform degree drop
        for grade in (zero, one):
            source = Projective(eng, [(v, wadd(g, grade)) for v, g, _ in picked])
            phi = source.map_from_generator_images(
                cover.rep, [(v, vec) for v, _, vec in picked], grade=grade)
            phi._verify()
            _assert_same(kernel_subrep(phi), dense_kernel(phi))


def test_span_not_closed_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "u")
    v, gen = p.generator_vector(0)
    with pytest.raises(ValueError, match="span is not closed under the action"):
        _subrep_from_homogeneous(p.rep, {v: [((0,), gen)]})


def test_vector_outside_its_degree_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "v")
    v, gen = p.generator_vector(0)
    with pytest.raises(ValueError, match="not homogeneous"):
        _subrep_from_homogeneous(p.rep, {v: [((1,), gen)]})


def test_kernel_of_non_homogeneous_map_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "v").rep
    field = eng.field
    # the identity with a nonzero degree drop, and e_v -> b at drop zero
    shifted = ModuleMap(p, p, {"v": Matrix.identity(field, 2)}, grade=(1,), check=False)
    e_to_b = Matrix.zeros(field, 2, 2)
    e_to_b.rows[p.degree_slice("v", (1,))[0]][p.degree_slice("v", (0,))[0]] = field.one
    tilted = ModuleMap(p, p, {"v": e_to_b}, check=False)
    for mmap in (shifted, tilted):
        with pytest.raises(ValueError, match="not homogeneous"):
            kernel_subrep(mmap)


def test_slices_follow_degrees():
    eng = engine_for("e41")
    p = Projective(eng, [("u", (0,)), ("v", (0,)), ("u", (1,))])
    for v in eng.quiver.vertices:
        degs = p.rep.degrees[v]
        slices = p.rep.slices[v]
        assert list(slices) == list(dict.fromkeys(degs))
        assert sorted(i for idx in slices.values() for i in idx) == list(range(len(degs)))
        for g, idx in slices.items():
            assert idx == p.rep.degree_slice(v, g)
            assert all(degs[i] == g for i in idx)
        assert p.rep.degree_slice(v, (99,)) == []
