import random
import zlib

import pytest

from quiverext import (AdmissibilityError, AlgebraFileError, build_engine,
                       parse_algebra)
from quiverext.algfile import format_algebra

from conftest import (E24_TRIVIAL, MIXED, MIXED_SIGN, engine_for,
                      engine_from, fixture_text)
from naive import naive_dimension, naive_path_count_from


def test_parse_e24():
    pres = parse_algebra(fixture_text("e24"))
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 2
    assert pres.truncation == 3
    assert pres.f_vertices == ("v",)


def test_parse_e41():
    pres = parse_algebra(fixture_text("e41"))
    assert len(pres.quiver.vertices) == 3
    assert len(pres.quiver.arrows) == 3
    assert pres.f_vertices == ("u", "w")


def test_parse_point_algebra():
    pres = parse_algebra("vertices v\ntruncate 2\n")
    eng = build_engine(pres)
    assert eng.dim == 1


def test_parse_errors():
    with pytest.raises(AlgebraFileError):
        parse_algebra("field F 6\nvertices v\ntruncate 2\n")  # non-prime
    with pytest.raises(AlgebraFileError):
        parse_algebra("vertices v\ntruncate 1\n")  # truncation too small
    with pytest.raises(AlgebraFileError):
        parse_algebra("vertices v\narrow a v w\ntruncate 2\n")  # unknown vertex
    with pytest.raises(AlgebraFileError) as err:
        parse_algebra("vertices v\nbogus line\ntruncate 2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(AlgebraFileError):
        # relations must have length >= 2
        parse_algebra("group Z 1\nvertices v\narrow b v v 1\ntruncate 2\nrel b\n")


def test_engine_dimensions_against_naive_oracle():
    # frozen values, re-derived here by the independent brute-force oracle
    assert naive_dimension(fixture_text("e24")) == 4
    assert naive_dimension(fixture_text("e41")) == 10
    assert naive_dimension(fixture_text("pos")) == 5
    assert naive_dimension(fixture_text("nak")) == 6
    assert naive_dimension(fixture_text("tri")) == 9
    for name, expected in [("e24", 4), ("e41", 10), ("pos", 5),
                           ("nak", 6), ("tri", 9), ("a2", 3)]:
        eng = engine_for(name)
        assert eng.dim == expected == naive_dimension(fixture_text(name))


def test_e24_basis_names():
    eng = engine_for("e24")
    assert [repr(p) for p in eng.basis] == ["e_u", "e_v", "a", "b"]


def test_e41_basis_names():
    eng = engine_for("e41")
    assert [repr(p) for p in eng.basis] == \
        ["e_u", "e_v", "e_w", "a", "b", "c", "ba", "ca", "cb", "cba"]


def test_multiplication_examples():
    eng = engine_for("e24")
    assert (eng.arrow_element("b") * eng.arrow_element("a")).is_zero()
    ev = eng.vertex_element("v")
    assert ev * ev == ev
    eng41 = engine_for("e41")
    cba = eng41.arrow_element("c") * (eng41.arrow_element("b") * eng41.arrow_element("a"))
    assert not cba.is_zero()
    assert [repr(p) for p in cba.terms] == ["cba"]


def test_noncomposable_multiply_is_zero():
    eng = engine_for("e41")
    assert (eng.arrow_element("a") * eng.arrow_element("c")).is_zero()


def test_one_is_identity():
    eng = engine_for("tri")
    one = eng.one()
    for p in eng.basis:
        x = eng.element({p: eng.field.one})
        assert one * x == x
        assert x * one == x


def test_opposite_presentation():
    pres = parse_algebra(fixture_text("e24"))
    op = pres.opposite()
    a = op.quiver.arrow_by_name["a"]
    assert (a.source, a.target) == ("v", "u")
    rels = [["*".join(p.arrows) for _, p in terms] for terms in op.relations]
    assert rels == [["b*b"], ["a*b"]]
    assert build_engine(op).dim == 4


def test_opposite_dimension_matches():
    for name in ["e24", "e41", "pos", "nak", "tri"]:
        eng = engine_for(name)
        assert eng.opposite_engine.dim == eng.dim


def test_admissibility_failure_reports_witness():
    # e41 with truncation 3 leaves the length-3 path cba alive
    bad = fixture_text("e41").replace("truncate 4", "truncate 3")
    with pytest.raises(AdmissibilityError) as err:
        build_engine(parse_algebra(bad))
    assert err.value.witness.length == 3


def test_admissibility_failure_infinite_dimensional():
    # alternating loops of weight +1/-1 with only square relations never die
    text = """
group Z 1
vertices v
arrow x v v 1
arrow y v v -1
truncate 4
rel x*x
rel y*y
"""
    with pytest.raises(AdmissibilityError):
        build_engine(parse_algebra(text))


def test_mixed_sign_weights_supported():
    eng = engine_from(MIXED_SIGN)
    # e, x, y, xy, yx, xyx, yxy
    assert eng.dim == 7
    assert eng.pres.mixed_length_relations is False
    # xy is a positive-length path of identity weight
    xy = eng.arrow_element("x") * eng.arrow_element("y")
    assert not xy.is_zero()
    assert xy.weight() == (0,)


def test_mixed_length_relation_engine():
    eng = engine_from(MIXED)
    # x*x reduces to y^4: basis e, x, y, yy, yyy, yyyy
    assert eng.dim == 6
    assert eng.pres.mixed_length_relations is True
    xx = eng.arrow_element("x") * eng.arrow_element("x")
    y = eng.arrow_element("y")
    y4 = y * y * y * y
    assert xx == y4
    assert not xx.is_zero()


def test_trivial_group_mode():
    eng = engine_from(E24_TRIVIAL)
    assert eng.dim == 4
    assert eng.group_rank == 0
    assert all(p.weight == () for p in eng.basis)


def _random_element(eng, rng, homogeneous=False):
    if homogeneous:
        by_w = {}
        for p in eng.basis:
            by_w.setdefault(p.weight, []).append(p)
        paths = by_w[rng.choice(sorted(by_w))]
    else:
        paths = eng.basis
    terms = {}
    for p in paths:
        c = rng.randint(-2, 2)
        if c:
            terms[p] = eng.field.of(c)
    return eng.element(terms)


@pytest.mark.parametrize("name", ["e24", "e41", "pos", "nak", "tri"])
def test_normal_form_properties(name):
    eng = engine_for(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(20):
        x = _random_element(eng, rng)
        y = _random_element(eng, rng)
        z = _random_element(eng, rng)
        # idempotence: elements are stored in normal form
        assert eng.element(x.terms) == x
        # multiplicativity of reduction is built into the element product;
        # associativity is the real content
        assert (x * y) * z == x * (y * z)


def test_normal_form_multiplicative_mixed():
    eng = engine_from(MIXED)
    rng = random.Random(11)
    for _ in range(30):
        x = _random_element(eng, rng)
        y = _random_element(eng, rng)
        z = _random_element(eng, rng)
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("name", ["e24", "pos", "tri"])
def test_grading_preserved(name):
    eng = engine_for(name)
    rng = random.Random(5)
    for _ in range(20):
        x = _random_element(eng, rng, homogeneous=True)
        y = _random_element(eng, rng, homogeneous=True)
        if x.is_zero() or y.is_zero():
            continue
        prod = x * y
        if not prod.is_zero():
            from quiverext.quiver import wadd
            assert prod.weight() == wadd(x.weight(), y.weight())


def test_dimension_identity_per_block():
    # dim equals path count minus assembled relation rank, fixture by fixture
    for name in ["e24", "e41", "pos", "nak", "tri"]:
        eng = engine_for(name)
        n_paths = sum(len(ps) for ps in eng.paths_by_length[:eng.truncation])
        n_reduced = sum(1 for ps in eng.paths_by_length[:eng.truncation]
                        for p in ps if p not in eng.basis_index)
        assert eng.dim == n_paths - n_reduced


def test_projective_dim_against_naive():
    text = fixture_text("e41")
    assert naive_path_count_from(text, "v") == 4
    eng = engine_for("e41")
    assert len(eng.basis_paths_from("v")) == 4
    assert len(eng.basis_paths_from("u")) == naive_path_count_from(text, "u") == 5


def test_format_round_trip():
    for name in ["e24", "e41", "pos", "nak", "tri", "a2"]:
        pres = parse_algebra(fixture_text(name))
        text = format_algebra(pres)
        pres2 = parse_algebra(text)
        assert build_engine(pres2).dim == engine_for(name).dim
        assert format_algebra(pres2) == text


def test_fp_field_mode():
    text = fixture_text("pos").replace("field Q", "field F 5")
    eng = build_engine(parse_algebra(text))
    assert eng.dim == 5
    assert eng.field.p == 5
