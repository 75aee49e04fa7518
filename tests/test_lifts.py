"""Lifted chain maps commute with the differentials.

Both lifts built on `lift_chain_map` are checked as chain maps: the lifts
of Ext classes through minimal resolutions (Yoneda products), and the
transport maps psi from corner resolutions into the restricted
resolutions of the algebra (product compatibility).

Products read off the basis lifts an Ext table stores are checked against
products that lift their right factor afresh, and a stored lift extended
to a greater depth against a fresh lift of that depth.  The generator
images of every step, which lifts evaluate without building the rest of
each map, are checked against the eager reference lift of `naive.py`.
A restricted differential keeps the algebra's map and its factors: each
psi equals the psi lifted through blocks restricted and copied at once.
"""

import random
import zlib

import pytest

from quiverext import (ExtClass, IdempotentPair, apply_F, build_engine, corner_algebra,
                       ext_table, lift_cocycle, parse_algebra, yoneda_product)
from quiverext.comparison import TransportCorrespondence
from quiverext.corner import apply_F_map
from quiverext.ext import lift_chain_map
from quiverext.fields import PrimeField
from quiverext.quiver import wzero

from conftest import (EXTERIOR2_Z, FIXTURE_NAMES, MIXED_SIGN, POLY_CORNER,
                      engine_for, engine_from, fixture_text)
from naive import (ext_combination, naive_apply_F_map, naive_column, naive_lift_chain_map,
                   naive_lift_cocycle, naive_yoneda_product)

CASES = FIXTURE_NAMES + ["POLY_CORNER"]
IN_TEST = {"POLY_CORNER": POLY_CORNER, "MIXED_SIGN": MIXED_SIGN,
           "EXTERIOR2_Z": EXTERIOR2_Z}


def engine_of(name):
    return engine_from(IN_TEST[name]) if name in IN_TEST else engine_for(name)


def engine_and_f(name):
    if name == "POLY_CORNER":
        return engine_from(POLY_CORNER), ["2"]
    eng = engine_for(name)
    return eng, list(eng.pres.f_vertices)


def assert_chain_map(lifts, src_diff, tgt_diff):
    """tgt_diff(k) o lifts[k] == lifts[k-1] o src_diff(k) for k >= 1."""
    for k in range(1, len(lifts)):
        assert (tgt_diff(k).compose(lifts[k]).dense()
                == lifts[k - 1].compose(src_diff(k)).dense()), "step %d" % k


# mixed-sign weights put radical paths into a generator's own degree
@pytest.mark.parametrize("name", CASES + ["MIXED_SIGN"])
def test_cocycle_lifts_are_chain_maps(name):
    table = ext_table(engine_of(name), 5)
    field = table.engine.field
    classes = [y for n in range(4) for y in table.basis_classes(n)]
    assert classes
    for y in classes:
        n = y.degree
        lifts = lift_cocycle(table, y, 2)
        assert len(lifts) == 3
        res_a = table.resolutions[y.source]
        res_b = table.resolutions[y.target_vertex]
        assert_chain_map(lifts, lambda k: res_a.differential(n + k),
                         res_b.differential)
        # phi_0 followed by the augmentation onto S_b is y itself
        base = res_b.differential(0).compose(lifts[0])
        p_n = res_a.term(n)
        for idx, summand in enumerate(p_n.summands):
            on_b = summand == (y.target_vertex, y.target_degree)
            want = [y.coeffs.get(idx, field.zero)] if on_b else []
            assert base.column(*p_n.gen_pos[idx])[1] == want


@pytest.mark.parametrize("name", CASES)
def test_transport_maps_are_chain_maps(name):
    eng, f_vertices = engine_and_f(name)
    corner = corner_algebra(eng, IdempotentPair(eng, f_vertices))
    lam = ext_table(eng, 4)
    cor = ext_table(corner.corner_engine, 4)
    tc = TransportCorrespondence(corner, lam, cor, 4)
    for u in f_vertices:
        psi = tc.psi[u]
        assert len(psi) == 5
        res_lam = lam.resolutions[u]
        res_cor = cor.resolutions[u]

        def f_diff(k):
            return apply_F_map(corner, res_lam.differential(k),
                               source_F=psi[k].target, target_F=psi[k - 1].target)

        assert_chain_map(psi, res_cor.differential, f_diff)
        f_aug = apply_F_map(corner, res_lam.differential(0),
                            source_F=psi[0].target,
                            target_F=apply_F(corner, res_lam.module))
        assert f_aug.compose(psi[0]).dense() == res_cor.differential(0).dense()


def test_cocycle_at_wrong_vertex_raises():
    eng = engine_for("a2")
    table = ext_table(eng, 3)
    y = next(c for c in table.basis_classes(1) if c.target_vertex != c.source)
    wrong = ExtClass(y.degree, y.source, y.source, y.target_degree, y.coeffs)
    with pytest.raises(AssertionError, match="different vertex"):
        lift_cocycle(table, wrong, 1)


@pytest.mark.parametrize("name", CASES + ["MIXED_SIGN"])
def test_stored_products_match_fresh_lifts(name):
    table = ext_table(engine_of(name), 5)
    pairs = 0
    for m in range(6):
        for n in range(6 - m):
            for x in table.basis_classes(m):
                for y in table.basis_classes(n):
                    if y.target_vertex == x.source:
                        assert (yoneda_product(table, x, y)
                                == naive_yoneda_product(table, x, y))
                        pairs += 1
    assert pairs


@pytest.mark.parametrize("name", CASES + ["MIXED_SIGN", "EXTERIOR2_Z"])
def test_stored_products_linear_in_right_factor(name):
    table = ext_table(engine_of(name), 5)
    field = table.engine.field
    rng = random.Random(zlib.crc32(name.encode()))
    checked = 0
    for n in range(1, 4):
        slots = {}
        for y in table.basis_classes(n):
            slots.setdefault(y.key(), []).append(y)
        for classes in slots.values():
            y = ext_combination([(field.of(rng.choice([-3, -2, -1, 1, 2, 3])), c)
                                 for c in classes], field.characteristic)
            for m in range(0, 6 - n):
                for x in table.basis_classes(m):
                    if x.source == y.target_vertex:
                        assert (yoneda_product(table, x, y)
                                == naive_yoneda_product(table, x, y))
                        checked += 1
    assert checked


@pytest.mark.parametrize("name", ["nak", "POLY_CORNER", "EXTERIOR2_Z"])
def test_extended_lift_equals_fresh_lift(name):
    table = ext_table(engine_of(name), 5)
    for n in range(3):
        for y in table.basis_classes(n):
            (idx,) = y.coeffs
            short = table.basis_lift(y.source, n, idx, 1)
            assert len(short) == 2
            extended = table.basis_lift(y.source, n, idx, 3)
            assert extended[:2] == short
            assert table.basis_lift(y.source, n, idx, 2) is extended
            fresh = lift_cocycle(table, y, 3)
            assert ([phi.dense() for phi in extended]
                    == [phi.dense() for phi in fresh])


def test_product_with_cocycle_off_its_slot_raises():
    # P^1 of S_v in e41 has the summands (v, 1) and (w, 1)
    eng = engine_for("e41")
    table = ext_table(eng, 3)
    y = next(c for c in table.basis_classes(1, source="v")
             if c.target_vertex == "v")
    wrong = ExtClass(1, "v", "v", y.target_degree,
                     {0: eng.field.one, 1: eng.field.one})
    assert not wrong.is_zero()
    with pytest.raises(AssertionError, match="different vertex"):
        yoneda_product(table, table.identity_class("v"), wrong)


def assert_generator_images(lifts, source, start, want):
    for k, (phi, images) in enumerate(zip(lifts, want)):
        proj = source.term(start + k)
        got = [phi.column(*pos)[1] for pos in proj.gen_pos]
        assert got == images, "step %d" % k


@pytest.mark.parametrize("field", ["Q", "F3"])
@pytest.mark.parametrize("name", CASES)
def test_lifts_match_eager_reference(name, field):
    text = POLY_CORNER if name == "POLY_CORNER" else fixture_text(name)
    pres = parse_algebra(text)
    if field == "F3":
        pres = pres.with_field(PrimeField(3))
    eng = build_engine(pres)
    table = ext_table(eng, 5)
    for n in range(3):
        for y in table.basis_classes(n):
            (idx,) = y.coeffs
            table.basis_lift(y.source, n, idx, 1)
            # extended from the stored prefix of depth 1
            lifts = table.basis_lift(y.source, n, idx, 3)
            assert_generator_images(lifts, table.resolutions[y.source], n,
                                    naive_lift_cocycle(table, y, 3))
    f_vertices = ["2"] if name == "POLY_CORNER" else list(eng.pres.f_vertices)
    corner = corner_algebra(eng, IdempotentPair(eng, f_vertices))
    cor = ext_table(corner.corner_engine, 4)
    tc = TransportCorrespondence(corner, table, cor, 4)
    for u in f_vertices:
        res_lam = table.resolutions[u]
        res_cor = cor.resolutions[u]
        f_terms = [apply_F(corner, res_lam.module)] + \
            [apply_F(corner, res_lam.term(k).rep) for k in range(5)]
        f_diffs = [apply_F_map(corner, res_lam.differential(k),
                               source_F=f_terms[k + 1], target_F=f_terms[k])
                   for k in range(5)]
        aug = res_cor.differential(0)
        rhs0 = [naive_column(aug, *pos) for pos in res_cor.term(0).gen_pos]
        want = naive_lift_chain_map(res_cor, 0, rhs0, f_diffs,
                                    wzero(corner.corner_engine.group_rank))
        assert_generator_images(tc.psi[u], res_cor, 0, want)


@pytest.mark.parametrize("name", ["POLY_CORNER", "pos", "tri"])
def test_psi_equals_psi_through_eager_restrictions(name):
    eng, f_vertices = engine_and_f(name)
    corner = corner_algebra(eng, IdempotentPair(eng, f_vertices))
    lam = ext_table(eng, 6)
    cor = ext_table(corner.corner_engine, 6)
    tc = TransportCorrespondence(corner, lam, cor, 6)
    for u in f_vertices:
        res_lam, res_cor = lam.resolutions[u], cor.resolutions[u]
        f_terms = [apply_F(corner, res_lam.module)] + \
            [apply_F(corner, res_lam.term(k)) for k in range(7)]
        eager, kept = [], []
        for k in range(7):
            d = res_lam.differential(k)
            eager.append(naive_apply_F_map(corner, d, f_terms[k + 1], f_terms[k]))
            kept.append(apply_F_map(corner, d, source_F=f_terms[k + 1], target_F=f_terms[k]))
            # at each f-vertex slice, the restriction's factor is the map's own
            for key in f_terms[k + 1].dims:
                assert kept[k].factor(key) is d.factor(key)
            assert kept[k].dense() == eager[k].dense()
        aug = res_cor.differential(0)
        rhs0 = [aug.column(*pos)[1] for pos in res_cor.term(0).gen_pos]
        want = lift_chain_map(res_cor, 0, rhs0, eager, wzero(corner.corner_engine.group_rank))
        assert len(tc.psi[u]) == len(want) == 7
        for got, phi in zip(tc.psi[u], want):
            assert got.dense() == phi.dense()
