import random
import time
import zlib

import pytest

from quiverext import (AdmissibilityError, AlgebraFileError, build_engine,
                       parse_algebra)
from quiverext.algfile import format_algebra
from quiverext.fields import QQ, PrimeField

from conftest import (E24_TRIVIAL, EXTERIOR2_Z, EXTERIOR4, FIXTURE_NAMES, MIXED,
                      MIXED_SIGN, NAK4, POLY_CORNER, RATIONAL, engine_for, engine_from,
                      fixture_text)
from naive import (engine_paths, naive_normal_forms, naive_padded_rows,
                   naive_path_count_from, rref_rows)


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
    for name, expected in [("e24", 4), ("e41", 10), ("pos", 5),
                           ("nak", 6), ("tri", 9), ("a2", 3)]:
        naive_dim = len(naive_normal_forms(fixture_text(name))[1])
        assert engine_for(name).dim == expected == naive_dim


# the tip ab of the second relation divides the tip aab of the first, which
# goes back to be reduced to baa - bbb
REQUEUED = """
field Q
group trivial
vertices v
arrow a v v
arrow b v v
truncate 5
rel a*a*b + -1*b*b*b
rel a*b + -1*b*a
rel a*a*a
rel b*b*b*b
"""

NORMAL_FORM_CASES = {
    "MIXED": MIXED, "MIXED_SIGN": MIXED_SIGN, "POLY_CORNER": POLY_CORNER, "NAK4": NAK4,
    "EXTERIOR2_Z": EXTERIOR2_Z, "RATIONAL_2_3": RATIONAL % "2/3", "EXTERIOR4": EXTERIOR4,
    "REQUEUED": REQUEUED,
}


@pytest.mark.parametrize("name", FIXTURE_NAMES + list(NORMAL_FORM_CASES))
def test_normal_forms_against_naive_oracle(name):
    text = NORMAL_FORM_CASES.get(name) or fixture_text(name)
    eng = engine_from(text)
    reductions, basis = naive_normal_forms(text)

    def key(p):
        return (p.arrows, p.source, p.target)

    assert [key(p) for p in eng.basis] == basis
    short = [p for ps in engine_paths(eng, eng.truncation - 1) for p in ps]
    assert len(short) == len(reductions)
    for p in short:
        assert {key(q): c for q, c in eng.nf_path(p).items()} == reductions[key(p)]


# 2/3 has no value in F3
PADDING_CASES = [(name, field) for name in FIXTURE_NAMES + list(NORMAL_FORM_CASES)
                 for field in ("Q", "F3") if (name, field) != ("RATIONAL_2_3", "F3")]


@pytest.mark.parametrize("name, field", PADDING_CASES)
def test_padded_rows_against_all_pairs_reference(name, field):
    # every Groebner basis element tip + tail lies in I + J^(N+1): adding it
    # to the all-pairs padded rows of its (source, target, weight) block
    # leaves the rank alone
    text = NORMAL_FORM_CASES.get(name) or fixture_text(name)
    pres = parse_algebra(text).with_field(QQ if field == "Q" else PrimeField(3))
    eng = build_engine(pres)
    blocks = naive_padded_rows(eng)
    for tip, tail in eng._tails.items():
        element = {pres.path_from_arrows(w): pres.field.of(c)
                   for w, c in {tip: 1, **tail}.items()}
        any_path = next(iter(element))
        rows = blocks[(any_path.source, any_path.target, any_path.weight)]
        cols = sorted({p for row in rows for p in row} | set(element),
                      key=lambda p: (p.length, p.arrows))
        dense = [[row.get(p, pres.field.zero) for p in cols] for row in rows]
        char = pres.field.characteristic
        rank = len(rref_rows(dense, len(cols), char)[1])
        extended = dense + [[element.get(p, pres.field.zero) for p in cols]]
        assert len(rref_rows(extended, len(cols), char)[1]) == rank, (tip, tail)


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


# alternating loops of weight +1/-1 with only square relations never die
ALTERNATING_LOOPS = """
group Z 1
vertices v
arrow x v v 1
arrow y v v -1
truncate 4
rel x*x
rel y*y
"""

# xy is the tip of x*y - y*x, so yx is the one standard path of length 2;
# the loops are listed y first, so xy comes before yx in the walk
COMMUTING_SQUARES = """
group trivial
vertices v
arrow y v v
arrow x v v
truncate 2
rel x*x
rel y*y
rel x*y + -1*y*x
"""


# e41 with truncation 3 leaves the length-3 path cba alive
E41_TRUNCATE3 = fixture_text("e41").replace("truncate 4", "truncate 3")


@pytest.mark.parametrize("text, witness", [
    (E41_TRUNCATE3, "cba"),
    (ALTERNATING_LOOPS, "yxyx"),
    (ALTERNATING_LOOPS.replace("truncate 4", "truncate 12"), "yx" * 6),
    (ALTERNATING_LOOPS.replace("truncate 4", "truncate 14"), "yx" * 7),
    (COMMUTING_SQUARES, "yx"),
], ids=["e41_truncate3", "alternating_loops", "alternating_loops_truncate12",
        "alternating_loops_truncate14", "commuting_squares"])
def test_admissibility_failure_reports_witness(text, witness):
    pres = parse_algebra(text)
    with pytest.raises(AdmissibilityError) as err:
        build_engine(pres)
    assert repr(err.value.witness) == witness
    assert err.value.witness.length == pres.truncation
    assert str(err.value) == (
        "ideal is not admissible at the stated truncation: path %s of length %d "
        "does not reduce to 0" % (witness, pres.truncation))


# three anticommuting loops with no square relation: every one of the 3^N
# paths of length N has a nonzero normal form, but only (N + 1)(N + 2)/2 of
# them are standard
ANTICOMMUTING_LOOPS = """
group trivial
vertices v
arrow x v v
arrow y v v
arrow z v v
truncate 14
rel x*y + y*x
rel x*z + z*x
rel y*z + z*y
"""


def test_admissibility_witness_comes_from_the_standard_walk():
    start = time.perf_counter()
    with pytest.raises(AdmissibilityError) as err:
        build_engine(parse_algebra(ANTICOMMUTING_LOOPS))
    assert time.perf_counter() - start < 1.0
    assert repr(err.value.witness) == "x" * 14


def exterior_text(names, group, field, truncation):
    """The exterior algebra on square-zero anticommuting loops, each of
    weight 1 when the group is Z."""
    weight = " 1" if group == "Z 1" else ""
    lines = ["field %s" % field, "group %s" % group, "vertices v"]
    lines += ["arrow %s v v%s" % (x, weight) for x in names]
    lines += ["truncate %d" % truncation]
    lines += ["rel %s*%s" % (x, x) for x in names]
    lines += ["rel %s*%s + %s*%s" % (x, y, y, x)
              for i, x in enumerate(names) for y in names[i + 1:]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("group", ["Z 1", "trivial"])
@pytest.mark.parametrize("field", ["Q", "F 3"])
def test_exterior5_engines(group, field):
    # 2^5 basis paths, one per subset of the generators, on both sides
    eng = build_engine(parse_algebra(exterior_text("xyzuw", group, field, 6)))
    for e in (eng, eng.opposite_engine):
        assert e.dim == 32
        assert all(len(set(p.arrows)) == p.length for p in e.basis)
        assert len({frozenset(p.arrows) for p in e.basis}) == 32


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
        short = engine_paths(eng, eng.truncation - 1)
        n_paths = sum(len(ps) for ps in short)
        basis = set(eng.basis)
        n_reduced = sum(1 for ps in short for p in ps if p not in basis)
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
