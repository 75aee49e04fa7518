import random
import zlib
from itertools import product

import pytest

from quiverext import (ext_table, generation_window_check, gk_estimate,
                       gk_estimate_from_dims, yoneda_product)
from quiverext.quiver import wadd

from conftest import (EXTERIOR2, EXTERIOR2_Z, EXTERIOR4, FIXTURE_NAMES, KB2, POLY_CORNER,
                      SEMISIMPLE2, engine_for, engine_from)
from naive import ext_combination
from oracle import ext_oracle

KB3 = """
field Q
group Z 1
vertices v
arrow b v v 1
truncate 4
rel b*b*b
"""


def test_ext_dim_zero_counts_vertices():
    for name in ["e24", "e41", "pos", "nak", "tri"]:
        eng = engine_for(name)
        table = ext_table(eng, 2)
        assert table.total_dim_at(0) == len(eng.quiver.vertices)


def test_kb2_table_constant_one():
    eng = engine_from(KB2)
    table = ext_table(eng, 12)
    for n in range(13):
        assert table.entry(n, "v", "v", (n,)) == 1
        assert table.total_dim_at(n) == 1


def test_a2_table():
    eng = engine_for("a2")
    table = ext_table(eng, 6)
    assert table.entry(1, "u", "v", (1,)) == 1
    for n in range(2, 7):
        assert table.total_dim_at(n) == 0


@pytest.mark.parametrize("g", [(1,), (1, 0, 0)])
def test_entry_refuses_a_degree_of_the_wrong_rank(g):
    table = ext_table(engine_from(POLY_CORNER), 3)
    assert table.entry(1, "2", "2", (1, 0)) == 1
    with pytest.raises(ValueError, match="has rank %d, but the grading group has rank 2$"
                       % len(g)):
        table.entry(1, "2", "2", g)


def test_semisimple_table_concentrated_in_degree_zero():
    eng = engine_from(SEMISIMPLE2)
    table = ext_table(eng, 5)
    assert table.total_dim_at(0) == 2
    for n in range(1, 6):
        assert table.total_dim_at(n) == 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_totals_by_degree_match_a_scan(name):
    # the totals read the entries grouped by degree; a plain scan of every
    # entry must give the same values, in the same order, at the CLI bound
    eng = engine_for(name)
    table = ext_table(eng, 40)
    vs = eng.quiver.vertices
    for n in range(42):
        rows = [(k[1:], d) for k, d in table.entries.items() if k[0] == n]
        assert list(table.dims_at(n).items()) == rows
        assert table.total_dim_at(n) == sum(d for _, d in rows)
        for u in vs:
            for v in vs:
                assert table.entry_total(n, u, v) == sum(
                    d for (a, b, _), d in rows if (a, b) == (u, v))
    assert sum(table.total_dim_at(n) for n in range(41)) == sum(table.entries.values())


def test_oracle_spot_values():
    a2 = engine_for("a2")
    assert ext_oracle(a2, "u", "v", 1) == 1
    assert ext_oracle(a2, "u", "u", 1) == 0
    kb2 = engine_from(KB2)
    assert ext_oracle(kb2, "v", "v", 3) == 1
    ss = engine_from(SEMISIMPLE2)
    for n in range(1, 4):
        assert ext_oracle(ss, "u", "u", n) == 0
        assert ext_oracle(ss, "u", "v", n) == 0


@pytest.mark.parametrize("name", ["e24", "e41", "pos", "nak", "tri", "a2"])
def test_oracle_matches_table(name):
    eng = engine_for(name)
    table = ext_table(eng, 6)
    for u in eng.quiver.vertices:
        for v in eng.quiver.vertices:
            for n in range(0, 7):
                assert table.entry_total(n, u, v) == ext_oracle(eng, u, v, n), \
                    (name, u, v, n)


def test_exterior_square_growth():
    # two commuting square-zero loops: Ext^n has dimension n + 1
    eng = engine_from(EXTERIOR2)
    table = ext_table(eng, 8)
    for n in range(9):
        assert table.total_dim_at(n) == n + 1
    for n in range(4):
        assert ext_oracle(eng, "v", "v", n) == n + 1


def test_exterior4_table_over_z4():
    # rank 4 takes the generic degree arithmetic: Ext of the exterior algebra
    # on four loops is the polynomial ring, one class in each degree g in N^4
    table = ext_table(engine_from(EXTERIOR4), 3)
    assert table.entries == {(sum(g), "v", "v", g): 1
                             for g in product(range(4), repeat=4) if sum(g) <= 3}
    assert len(table.entries) == 35


def test_yoneda_powers_nonzero_kb2():
    eng = engine_from(KB2)
    table = ext_table(eng, 12)
    xi = table.basis_classes(1)[0]
    power = xi
    for n in range(2, 11):
        power = yoneda_product(table, xi, power)
        assert power.degree == n
        assert not power.is_zero()
        assert power.target_degree == (n,)


def test_yoneda_unit_laws():
    eng = engine_for("pos")
    table = ext_table(eng, 6)
    for x in table.basis_classes(1) + table.basis_classes(2):
        left = yoneda_product(table, table.identity_class(x.target_vertex), x)
        right = yoneda_product(table, x, table.identity_class(x.source))
        assert left == x
        assert right == x


def test_yoneda_noncomposable_is_zero():
    eng = engine_for("a2")
    table = ext_table(eng, 4)
    x = table.basis_classes(1, source="u")[0]   # S_u -> S_v
    z = yoneda_product(table, x, x)             # x source u, target v: not composable
    assert z.is_zero()
    assert z.degree == 2


def test_yoneda_degree_additivity():
    eng = engine_from(EXTERIOR2)
    table = ext_table(eng, 6)
    for x in table.basis_classes(2):
        for y in table.basis_classes(1):
            z = yoneda_product(table, x, y)
            assert z.degree == 3
            if not z.is_zero():
                assert z.target_degree == wadd(x.target_degree, y.target_degree)


@pytest.mark.parametrize("name", ["nak", "pos", "tri"])
def test_yoneda_associativity_random_triples(name):
    eng = engine_for(name)
    table = ext_table(eng, 6)
    rng = random.Random(zlib.crc32(name.encode()))
    classes = [c for n in range(1, 3) for c in table.basis_classes(n)]
    triples = 0
    for _ in range(200):
        if triples >= 12:
            break
        x, y, z = (classes[rng.randrange(len(classes))] for _ in range(3))
        if x.source != y.target_vertex or y.source != z.target_vertex:
            continue
        if x.degree + y.degree + z.degree > 6:
            continue
        triples += 1
        left = yoneda_product(table, yoneda_product(table, x, y), z)
        right = yoneda_product(table, x, yoneda_product(table, y, z))
        assert left == right
    assert triples > 0


def test_yoneda_bilinearity():
    # over Z the exterior algebra has one Ext slot per degree, of
    # dimension n + 1, so classes of one degree can be added
    eng = engine_from(EXTERIOR2_Z)
    field = eng.field
    table = ext_table(eng, 4)
    a, b = table.basis_classes(1)
    y1, y2, y3 = table.basis_classes(2)
    one, c1, c2 = field.one, field.of(2), field.of(-3)
    for y in (y1, y2, y3):
        assert not yoneda_product(table, a, y).is_zero()
        assert (yoneda_product(table, ext_combination([(one, a), (one, b)]), y)
                == ext_combination([(one, yoneda_product(table, a, y)),
                                    (one, yoneda_product(table, b, y))]))
    for x in (a, b):
        assert (yoneda_product(table, x, ext_combination([(c1, y1), (c2, y3)]))
                == ext_combination([(c1, yoneda_product(table, x, y1)),
                                    (c2, yoneda_product(table, x, y3))]))


def test_generation_kb2_degree_one_generates():
    eng = engine_from(KB2)
    table = ext_table(eng, 8)
    rep = generation_window_check(table, 1, 8)
    assert rep.success
    assert rep.first_failure is None


def test_generation_semisimple_vacuous():
    eng = engine_from(SEMISIMPLE2)
    table = ext_table(eng, 6)
    rep = generation_window_check(table, 1, 6)
    assert rep.success


def test_generation_kb3_needs_degree_two():
    # over K[b]/(b^3) the degree-1 class squares to zero, so degree-1 classes
    # do not generate; degree <= 2 classes do
    eng = engine_from(KB3)
    table = ext_table(eng, 8)
    xi = table.basis_classes(1)[0]
    assert yoneda_product(table, xi, xi).is_zero()
    rep1 = generation_window_check(table, 1, 6)
    assert not rep1.success
    assert rep1.first_failure == 2
    rep2 = generation_window_check(table, 2, 8)
    assert rep2.success


def test_generation_pos_example():
    eng = engine_for("pos")
    table = ext_table(eng, 10)
    rep = generation_window_check(table, 2, 10)
    assert rep.success


def test_gk_estimates_synthetic():
    ones = [1] * 70
    slope, resid = gk_estimate_from_dims(ones, 20, 60)
    assert abs(slope - 1.0) < 0.1
    finite = [2, 1] + [0] * 70
    slope, _ = gk_estimate_from_dims(finite, 20, 60)
    assert abs(slope) < 0.02
    linear = [n + 1 for n in range(70)]
    slope, resid = gk_estimate_from_dims(linear, 20, 60)
    assert abs(slope - 2.0) < 0.15
    assert resid < 0.05


def test_gk_estimate_degenerate_range():
    with pytest.raises(ValueError):
        gk_estimate_from_dims([1] * 10, 4, 5)


def test_gk_from_table():
    eng = engine_from(KB2)
    table = ext_table(eng, 30)
    slope, _ = gk_estimate(table, 15, 30)
    assert abs(slope - 1.0) < 0.1


def test_undetermined_flag_propagates():
    eng = engine_from(EXTERIOR2)
    table = ext_table(eng, 5)
    assert table.undetermined == {"v"}
    eng2 = engine_for("pos")
    assert ext_table(eng2, 6).undetermined == set()
