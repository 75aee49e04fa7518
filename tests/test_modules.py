import random
import re

import pytest

from quiverext import (dual_to_opposite, hom_space, module_iso_test, projective_cover,
                       projective_module, semisimple_top, shift_rep, simple_module, zero_module)
from quiverext.linalg import Matrix
from quiverext.modules import Projective, kernel_subrep

from conftest import KB2, POLY_CORNER, engine_for, engine_from, random_homogeneous_vectors
from naive import (direct_sum, map_from_dense, naive_projective, quotient_rep,
                   radical_subspaces, rep_from_dense, subrep_generated)


def test_simple_module_dims():
    eng = engine_for("e24")
    s = simple_module(eng, "u")
    assert s.dim_vector() == {"u": 1, "v": 0}
    eng41 = engine_for("e41")
    sv = simple_module(eng41, "v")
    assert sv.dim_vector() == {"u": 0, "v": 1, "w": 0}


def test_simple_shift_moves_degree():
    eng = engine_for("e24")
    s = simple_module(eng, "u", shift=(3,))
    assert s.dims == {("u", (3,)): 1}
    assert s.dim_vector() == {"u": 1, "v": 0}


@pytest.mark.parametrize("make", [simple_module, projective_module])
@pytest.mark.parametrize("shift", [(1, 2), ()])
def test_shift_of_the_wrong_rank_is_refused(make, shift):
    eng = engine_for("pos")
    with pytest.raises(ValueError, match="has rank %d, but the grading group has rank 1$"
                       % len(shift)):
        make(eng, "2", shift=shift)


@pytest.mark.parametrize("h", [(1,), (1, 2, 3)])
def test_shift_rep_refuses_a_shift_of_the_wrong_rank(h):
    s = simple_module(engine_from(POLY_CORNER), "2")
    with pytest.raises(ValueError, match=r"^shift %s has rank %d, but the grading group has "
                       r"rank 2$" % (re.escape(repr(h)), len(h))):
        shift_rep(s, h)
    assert shift_rep(s, (1, 2)).dims == {("2", (1, 2)): 1}


def test_projective_bases():
    eng = engine_for("e24")
    pv = projective_module(eng, "v")
    assert pv.total_dim == 2
    assert sorted(repr(p) for (w, _), slots in pv.slots.items() if w == "v"
                  for _, p in slots) == ["b", "e_v"]
    eng41 = engine_for("e41")
    pv41 = projective_module(eng41, "v")
    assert pv41.total_dim == 4
    names = sorted(repr(p) for slots in pv41.slots.values() for _, p in slots)
    assert names == ["b", "c", "cb", "e_v"]


def test_projective_top_is_simple():
    for name in ["e24", "e41", "pos", "tri"]:
        eng = engine_for(name)
        for v in eng.quiver.vertices:
            p = projective_module(eng, v, shift=(2,))
            assert semisimple_top(p.rep) == [(v, (2,), 1)]


def test_top_of_direct_sum_of_simples():
    eng = engine_for("e24")
    s = simple_module(eng, "u")
    both = direct_sum([s, s])
    assert semisimple_top(both) == [("u", (0,), 2)]


def test_top_of_radical_e41():
    eng = engine_for("e41")
    cover = projective_cover(eng, simple_module(eng, "v"))
    rad = cover.kernel  # rad P_v
    assert rad.total_dim == 3
    assert semisimple_top(rad) == [("v", (1,), 1), ("w", (1,), 1)]


def test_dim_top_plus_radical():
    rng = random.Random(3)
    for name in ["e24", "e41", "pos", "nak", "tri"]:
        eng = engine_for(name)
        for v in eng.quiver.vertices:
            p = projective_module(eng, v).rep
            top = sum(m for _, _, m in semisimple_top(p))
            cover = projective_cover(eng, p)
            # for a projective, the cover kernel is zero and rad = dim - top
            assert cover.kernel.total_dim == 0
            rad_dim = sum(1 for slots in projective_module(eng, v).slots.values()
                          for _, p in slots if p.length >= 1)
            assert p.total_dim == top + rad_dim


def test_dim_top_plus_radical_generic():
    rng = random.Random(31)
    for name in ["e24", "e41", "tri"]:
        eng = engine_for(name)
        big = direct_sum([projective_module(eng, v).rep
                          for v in eng.quiver.vertices])
        for _ in range(5):
            vecs = random_homogeneous_vectors(big, rng, 3)
            sub, _ = subrep_generated(big, vecs)
            top = sum(m for _, _, m in semisimple_top(sub))
            rad = sum(s.dim for s in radical_subspaces(sub).values())
            assert sub.total_dim == top + rad


def test_cover_of_simple_e41():
    eng = engine_for("e41")
    cover = projective_cover(eng, simple_module(eng, "v"))
    assert cover.projective.summands == (("v", (0,)),)
    assert cover.kernel.total_dim == 3
    slots = sorted(repr(p) for slots in cover.projective.slots.values()
                   for _, p in slots)
    assert slots == ["b", "c", "cb", "e_v"]


def test_cover_of_projective_is_identity():
    eng = engine_for("pos")
    p = projective_module(eng, "1").rep
    cover = projective_cover(eng, p)
    assert cover.kernel.total_dim == 0
    assert cover.projective.summands == (("1", (0,)),)


def test_cover_of_zero():
    eng = engine_for("e24")
    cover = projective_cover(eng, zero_module(eng))
    assert cover.projective.is_zero()
    assert cover.kernel.total_dim == 0


def test_shift_round_trip_exact():
    eng = engine_for("pos")
    m = projective_module(eng, "1").rep
    shifted = shift_rep(shift_rep(m, (4,)), (-4,))
    assert shifted == m


def test_dual_double_dual():
    eng = engine_for("e41")
    m = projective_module(eng, "v").rep
    d = dual_to_opposite(eng, m)
    dd = dual_to_opposite(eng.opposite_engine, d)
    assert dd.dims == m.dims
    status, _ = module_iso_test(dd, m)
    assert status == "isomorphic"


def test_dual_of_projective_a2():
    eng = engine_for("a2")
    d = dual_to_opposite(eng, projective_module(eng, "u").rep)
    assert d.dim_vector() == {"u": 1, "v": 1}
    # the dual of the big projective is the injective envelope of the socle
    assert semisimple_top(d) == [("v", (-1,), 1)]


def test_iso_reflexive_and_distinguishing():
    eng = engine_for("e24")
    su, sv = simple_module(eng, "u"), simple_module(eng, "v")
    assert module_iso_test(su, su)[0] == "isomorphic"
    assert module_iso_test(su, sv)[0] == "not_isomorphic"


def test_iso_syzygy_of_kb2():
    # over K[b]/(b^2) the first syzygy of the simple is the simple shifted
    eng = engine_from(KB2)
    cover = projective_cover(eng, simple_module(eng, "v"))
    target = shift_rep(simple_module(eng, "v"), (1,))
    status, witness = module_iso_test(cover.kernel, target)
    assert status == "isomorphic"
    witness._verify()


def test_construction_asserts_relations():
    eng = engine_from(KB2)
    # grading-compatible action whose square is nonzero violates b*b = 0
    z, o = eng.field.zero, eng.field.one
    with pytest.raises(ValueError, match="relation does not act as zero"):
        rep_from_dense(
            eng, {"v": ((0,), (1,), (2,))},
            {"b": Matrix(eng.field, [[z, z, z], [o, z, z], [z, o, z]])})


def test_construction_asserts_grading():
    eng = engine_from(KB2)
    with pytest.raises(ValueError, match="not homogeneous"):
        # degree slot mismatch: b should raise degree by 1
        rep_from_dense(
            eng, {"v": ((0,), (5,))},
            {"b": Matrix(eng.field, [[eng.field.zero, eng.field.zero],
                                     [eng.field.one, eng.field.zero]])})


def test_hom_space_endomorphisms_of_projective():
    eng = engine_for("e24")
    pu = projective_module(eng, "u").rep
    endos = hom_space(pu, pu)
    # P_u has graded endomorphism ring K (it is generated in one degree)
    assert len(endos) == 1
    assert endos[0].is_iso()


def test_subrep_and_quotient_dims():
    eng = engine_for("e41")
    b = projective_module(eng, "v").rep
    rng = random.Random(9)
    vecs = random_homogeneous_vectors(b, rng, 2)
    sub, incl = subrep_generated(b, vecs)
    quot, proj = quotient_rep(b, incl)
    assert sub.total_dim + quot.total_dim == b.total_dim
    # the projection is onto with kernel exactly the subrep
    k, _ = kernel_subrep(proj)
    assert k.total_dim == sub.total_dim
    incl._verify()
    proj._verify()


def test_module_map_verification_catches_noncommuting():
    eng = engine_from(KB2)
    p = projective_module(eng, "v").rep
    s = simple_module(eng, "v")
    # homogeneous, but S -> P_v, s -> e_v does not commute with b
    bad = {"v": Matrix(eng.field, [[eng.field.one], [eng.field.zero]])}
    with pytest.raises(ValueError, match="does not commute"):
        map_from_dense(s, p, bad)


# a kills p, b does not: on the shared slice at w, the summand P_u acts by b
# alone and P_w by a and b
FORK = """
field Q
group trivial
vertices u w x y
arrow p u w
arrow a w x
arrow b w y
truncate 3
rel a*p
"""


def test_projective_action_keys_follow_arrow_order_across_summands():
    eng = engine_from(FORK)
    summands = [("u", ()), ("w", ())]
    proj = Projective(eng, summands)
    action = naive_projective(eng, summands)[4]
    assert list(proj.rep.action) == list(action) == [("p", ()), ("a", ()), ("b", ())]
    assert all(proj.rep.action[key] == m for key, m in action.items())
