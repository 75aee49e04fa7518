"""`module_iso_test` decides each of its three isomorphic paths correctly,
and refutes on a differing arrow block rank before any Hom space.

An exact repeat gets the identity; a conjugate of an indecomposable module
with local End is decided by a Hom basis element; a conjugate of a sum of
two copies of one indecomposable has no Hom basis element that is an
isomorphism, so the sampling decides.  Every witness is re-checked, and two
calls return the same witness blocks."""

import random

import pytest

from quiverext import (Representation, build_engine, hom_space, module_iso_test,
                       parse_algebra, projective_module, simple_module)
from quiverext import modules, resolution
from quiverext.linalg import Matrix
from quiverext.quiver import wadd
from quiverext.resolution import minimal_resolution

from conftest import EXTERIOR2_Z, cyclic_nakayama, engine_from
from naive import direct_sum

FIELDS = ["field Q", "field F 3"]


def engine_over(text, field):
    return engine_from(text.replace("field Q", field))


def conjugate(rep, rng):
    """rep carried by a random invertible change of basis on each slice."""
    field = rep.engine.field
    change = {}
    for key, n in rep.dims.items():
        s = None
        while s is None or s.rank() < n:
            s = Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        change[key] = s
    arrows, weights = rep.engine.quiver.arrow_by_name, rep.engine.pres.weights
    action = {}
    for (name, g), b in rep.action.items():
        a = arrows[name]
        action[(name, g)] = (change[(a.target, wadd(g, weights[name]))] @ b
                             @ change[(a.source, g)].inverse())
    return Representation(rep.engine, dict(rep.dims), action)


def decided(M, N):
    """The witness of two calls, checked to be the same isomorphism."""
    first, second = module_iso_test(M, N), module_iso_test(M, N)
    assert first[0] == second[0] == "isomorphic"
    witness = first[1]
    assert witness.blocks == second[1].blocks
    assert witness.is_iso()
    witness._verify()
    return witness


@pytest.mark.parametrize("field", FIELDS)
def test_conjugate_of_a_local_module_is_decided_by_a_hom_basis_element(field):
    # the exterior algebra on two loops is local, so End of its regular
    # module is the degree-0 part of the algebra: the field
    eng = engine_over(EXTERIOR2_Z, field)
    M = projective_module(eng, "v").rep
    assert sorted(M.dims.values()) == [1, 1, 2]
    N = conjugate(M, random.Random(5))
    assert N != M
    witness = decided(M, N)
    assert any(witness.blocks == h.blocks for h in hom_space(M, N))


@pytest.mark.parametrize("field", FIELDS)
def test_conjugate_of_a_repeated_summand_is_decided_by_sampling(field):
    eng = engine_over(EXTERIOR2_Z, field)
    X = projective_module(eng, "v").rep
    M = direct_sum([X, X])
    N = conjugate(M, random.Random(7))
    assert N != M
    homs = hom_space(M, N)
    assert len(homs) == 4       # End(X + X) is 2 x 2 matrices over the field
    assert not any(h.is_iso() for h in homs)
    witness = decided(M, N)
    assert not any(witness.blocks == h.blocks for h in homs)


@pytest.fixture
def no_hom_space(monkeypatch):
    def refuse(M, N):
        raise AssertionError("hom_space reached")

    monkeypatch.setattr(modules, "hom_space", refuse)


@pytest.mark.parametrize("field", FIELDS)
def test_exact_repeat_gets_the_identity_without_a_hom_space(field, no_hom_space):
    eng = engine_over(cyclic_nakayama(1, 3), field)
    M = projective_module(eng, "0").rep
    assert len(M.dims) == 3
    # the same blocks, the slices given in reverse order, come back in order
    N = Representation(eng, dict(reversed(M.dims.items())), dict(M.action))
    assert list(N.dims) == list(M.dims)
    assert N == M
    for other in (M, N):
        witness = decided(M, other)
        assert witness.blocks == {key: Matrix.identity(eng.field, n)
                                  for key, n in M.dims.items()}


@pytest.mark.parametrize("field", FIELDS)
def test_a_differing_block_rank_refutes_without_a_hom_space(field, no_hom_space):
    # P_v and the sum of its simple tops have the same slices, and the
    # arrows act on the first but not on the second
    eng = engine_over(EXTERIOR2_Z, field)
    M = projective_module(eng, "v").rep
    N = Representation(eng, dict(M.dims), {})
    assert module_iso_test(M, N) == ("not_isomorphic", None)
    assert module_iso_test(N, M) == ("not_isomorphic", None)


# a local algebra over F_3 whose syzygies of S_v repeat their slices but
# not their arrow block ranks: the Hom basis and sampling left these pairs
# undetermined (3 at bound 8, after 31 s)
LOCAL_F3 = """
field F 3
group trivial
vertices v
arrow a v v
arrow b v v
truncate 3
rel b*b + -2*a*a
rel -2*b*a + -2*a*a*a
"""


def test_syzygies_of_differing_block_ranks_are_refuted(no_hom_space, monkeypatch):
    verdicts = []
    iso_test = resolution.module_iso_test

    def recorded(M, N):
        out = iso_test(M, N)
        verdicts.append(out[0])
        return out

    monkeypatch.setattr(resolution, "module_iso_test", recorded)
    eng = build_engine(parse_algebra(LOCAL_F3))
    res = minimal_resolution(eng, simple_module(eng, "v"), 6)
    assert verdicts == ["not_isomorphic"] * 2
    assert res.certificate is None
    assert res.pd_verdict(6).is_undetermined
