"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from quiverext import (DimVerdict, IdempotentPair, apply_F,
                       build_engine, corner_algebra, ext_table,
                       f_lambda_e_module, gexact_condition, gk_estimate,
                       global_dimension, generation_window_check,
                       injective_dimension, module_iso_test, parse_algebra,
                       projective_dimension, projective_module,
                       restricted_ext_table, simple_module, shift_rep,
                       verify_comparison, yoneda_product)
from quiverext.cli import main as cli_main
from quiverext.comparison import compute_abc
from quiverext.corner import apply_F_map
from quiverext.quiver import compose, wadd
from quiverext.resolution import MinimalResolution

from conftest import KB2, engine_for, engine_from, random_homogeneous_vectors
from naive import direct_sum, engine_paths, quotient_rep, subrep_generated
from oracle import ext_oracle

ALL = ["e24", "e41", "a2", "pos", "nak", "tri"]


def corner_for(name):
    eng = engine_for(name)
    return corner_algebra(eng, IdempotentPair(eng, eng.pres.f_vertices))


def report(k, text):
    print("ACCEPTANCE %d PASS: %s" % (k, text))


def test_criterion_1_example_24_corner():
    start = time.perf_counter()
    c = corner_for("e24")
    assert c.dim == 2
    assert c.arrow_names == ["a_b"]
    rels = [[p.arrows for _, p in terms] for terms in c.presentation.relations]
    assert rels == [[("a_b", "a_b")]]
    fle, check = f_lambda_e_module(c)
    assert check["splits"]
    res = MinimalResolution(c.corner_engine, fle)
    verdict = res.pd_verdict(12)
    assert verdict.is_infinite
    cert = verdict.certificate
    assert (cert.n0, cert.period, cert.shift) == (0, 1, (1,))
    res.verify()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "corner of e24 is the dual numbers on one loop (dim 2); the "
              "e-to-f module is certified of infinite projective dimension "
              "with a period-1 shift-1 certificate (%.2fs)" % elapsed)


def test_criterion_2_example_41(capsys, fixtures_dir):
    start = time.perf_counter()
    c = corner_for("e41")
    assert len(c.arrow_paths) == 2
    assert c.arrow_names == ["a_ca", "a_cba"]
    assert c.dim == 4
    assert global_dimension(c.corner_engine, 10) == DimVerdict.finite(1)
    eng = engine_for("e41")
    sv = simple_module(eng, "v")
    assert projective_dimension(eng, sv, 10).is_infinite
    assert injective_dimension(eng, sv, 10).is_infinite
    code = cli_main(["compare", str(fixtures_dir / "e41.alg"), "--bound", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "hypotheses unmet" in captured.err
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "e41 corner has exactly the arrows a_ca, a_cba, dim 4, global "
              "dimension 1; the middle simple has certified infinite pd and "
              "id; compare exits 2 with hypotheses unmet (%.2fs)" % elapsed)


def test_criterion_3_pos_comparison():
    start = time.perf_counter()
    eng = engine_for("pos")
    pair = IdempotentPair(eng, eng.pres.f_vertices)
    c = corner_algebra(eng, pair)
    t = compute_abc(eng, pair, 40, corner=c)
    assert (t.a.value, t.b.value, t.c.value, t.T) == (1, 0, 0, 2)
    # independent verification of the thresholds by the non-minimal oracle
    assert ext_oracle(eng, "1", "2", 1) == 1
    assert all(ext_oracle(eng, "1", v, 2) == 0 for v in eng.quiver.vertices)
    op = eng.opposite_engine
    assert all(ext_oracle(op, "1", v, 1) == 0 for v in op.quiver.vertices)
    fle, _ = f_lambda_e_module(c)
    free = shift_rep(projective_module(c.corner_engine, "2").rep, (1,))
    assert module_iso_test(fle, free)[0] == "isomorphic"
    # the full comparison at bound 40, window covering (2, 12]
    rep = verify_comparison(eng, pair, bound=40, window=10, corner=c)
    assert rep["verdict"] == "PASS"
    assert [row["n"] for row in rep["window"]] == list(range(3, 13))
    for row in rep["window"]:
        assert row["match"]
        assert row["lambda_dims"] == [{"source": "2", "target": "2",
                                       "g": [row["n"]], "dim": 1}]
    assert rep["products"]["iso"] and not rep["products"]["mismatches"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "pos thresholds (a, b, c, T) = (1, 0, 0, 2) oracle-verified; "
              "bigraded dims equal (single slot of dim 1) on (2, 12]; "
              "products compatible; verdict PASS at bound 40 (%.2fs)" % elapsed)


@pytest.mark.parametrize("name", ALL)
def test_criterion_4_oracle_equivalence(name):
    eng = engine_for(name)
    table = ext_table(eng, 10)
    for u in eng.quiver.vertices:
        for v in eng.quiver.vertices:
            for n in range(11):
                assert table.entry_total(n, u, v) == ext_oracle(eng, u, v, n), \
                    (name, u, v, n)
    report(4, "%s: table entries equal the non-minimal Hom-complex oracle "
              "for all simple pairs and n <= 10" % name)


def test_criterion_5_structural_invariants():
    start = time.perf_counter()
    rng = random.Random(505)
    for name in ALL:
        eng = engine_for(name)
        _check_normal_form_laws(eng, rng)
        for v in eng.quiver.vertices:
            res = MinimalResolution(eng, simple_module(eng, v))
            res.extend_to(6)
            res.verify()
        c = corner_algebra(eng, IdempotentPair(eng, eng.pres.f_vertices))
        _, check = f_lambda_e_module(c)
        assert check["splits"]
        _check_F_exact_on_random_ses(c, rng, count=100)
        pair = c.pair
        t = compute_abc(eng, pair, 12, corner=c)
        if t.all_finite:
            table = ext_table(eng, max(12, t.T + 4))
            restricted_ext_table(table, pair, t)   # asserts full = restricted
            fset = set(pair.f_vertices)
            for u in eng.quiver.vertices:
                res = table.resolutions[u]
                for n in range(t.b.value + 1, 13):
                    from quiverext import belongs_to
                    assert belongs_to(res.summands(n), fset), (name, u, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "normal-form laws, resolution exactness and minimality, "
              "restriction exactness on 100 random short exact sequences per "
              "fixture, corner decomposition and presentation isomorphism, "
              "belongs-to-f and restricted-table assertions (%.1fs)" % elapsed)


def _check_normal_form_laws(eng, rng):
    paths = [p for ps in engine_paths(eng, eng.truncation - 1) for p in ps]

    def raw():
        terms = {}
        for p in rng.sample(paths, min(len(paths), 5)):
            c = rng.randint(-2, 2)
            if c:
                terms[p] = eng.field.of(c)
        return terms

    for _ in range(25):
        x, y = raw(), raw()
        nx = eng.nf_terms(x)
        # idempotence
        assert eng.nf_terms(nx) == nx
        # multiplicativity: reduce-then-multiply equals multiply-then-reduce
        prod_raw = {}
        for p, cp in x.items():
            for q, cq in y.items():
                if q.target != p.source or p.length + q.length >= eng.truncation:
                    continue
                full = compose(p, q)
                prod_raw[full] = prod_raw.get(full, eng.field.zero) + cp * cq
        lhs = eng.nf_terms(prod_raw)
        rhs = (eng.element(x) * eng.element(y)).terms
        assert lhs == rhs


def _check_F_exact_on_random_ses(c, rng, count):
    eng = c.engine
    projs = [projective_module(eng, v).rep for v in eng.quiver.vertices]
    for _ in range(count):
        big = direct_sum([projs[rng.randrange(len(projs))],
                          projs[rng.randrange(len(projs))]])
        vecs = random_homogeneous_vectors(big, rng, 2)
        sub, incl = subrep_generated(big, vecs)
        quot, proj = quotient_rep(big, incl)
        fa, fb, fc = (apply_F(c, r) for r in (sub, big, quot))
        fi = apply_F_map(c, incl, source_F=fa, target_F=fb)
        fp = apply_F_map(c, proj, source_F=fb, target_F=fc)
        assert fa.total_dim - fb.total_dim + fc.total_dim == 0
        assert fi.rank() == fa.total_dim
        assert fp.rank() == fc.total_dim
        assert fb.total_dim - fp.rank() == fi.rank()


def test_criterion_6_gexact_property():
    rng = random.Random(66011)
    found = 0
    attempts = 0
    while found < 50 and attempts < 3000:
        attempts += 1
        text = _random_algebra(rng)
        try:
            eng = build_engine(parse_algebra(text))
        except Exception:
            continue
        v = eng.quiver.vertices[0]
        if any(a.source == a.target == v for a in eng.quiver.arrows):
            continue
        res = MinimalResolution(eng, simple_module(eng, v)).extend_to(1)
        if not res.syzygy(2).is_zero():
            continue
        f = [w for w in eng.quiver.vertices if w != v]
        if not f:
            continue
        c = corner_algebra(eng, IdempotentPair(eng, f))
        out = gexact_condition(c)
        assert out["hypothesis"] is True
        assert out["conclusion"] is True, text
        found += 1
    assert found == 50
    report(6, "50 seeded random admissible no-loop algebras with pd(S_e) <= 1 "
              "all satisfy the corner conclusion pd(fLe) <= 1 (0 violations, "
              "%d candidates drawn)" % attempts)


def _random_algebra(rng):
    nv = rng.randrange(2, 5)
    vertices = ["v%d" % i for i in range(nv)]
    lines = ["group Z 1", "vertices " + " ".join(vertices)]
    arrows = []
    for i in range(rng.randrange(2, 6)):
        s = rng.choice(vertices)
        t = rng.choice(vertices)
        arrows.append(("q%d" % i, s, t))
        lines.append("arrow q%d %s %s 1" % (i, s, t))
    rels = []
    for _ in range(rng.randrange(0, 4)):
        a = rng.choice(arrows)
        b = [x for x in arrows if x[1] == a[2]]
        if b:
            bb = rng.choice(b)
            rels.append("rel %s*%s" % (bb[0], a[0]))
    lines.extend(sorted(set(rels)))
    lines.append("truncate 3")
    return "\n".join(lines) + "\n"


def test_criterion_7_yoneda_algebra():
    eng = engine_from(KB2)
    table = ext_table(eng, 12)
    xi = table.basis_classes(1)[0]
    power = xi
    for n in range(2, 11):
        power = yoneda_product(table, xi, power)
        assert not power.is_zero(), n
    # unit law with degree-0 classes
    for x in table.basis_classes(3):
        assert yoneda_product(table, x, table.identity_class(x.source)) == x
        assert yoneda_product(table, table.identity_class(x.target_vertex), x) == x
    # associativity and degree additivity on random composable triples
    rng = random.Random(77)
    for name in ["pos", "nak", "tri"]:
        teng = engine_for(name)
        t = ext_table(teng, 6)
        classes = [cl for n in range(1, 3) for cl in t.basis_classes(n)]
        done = 0
        for _ in range(300):
            if done >= 10:
                break
            x, y, z = (classes[rng.randrange(len(classes))] for _ in range(3))
            if x.source != y.target_vertex or y.source != z.target_vertex:
                continue
            if x.degree + y.degree + z.degree > 6:
                continue
            left = yoneda_product(t, yoneda_product(t, x, y), z)
            right = yoneda_product(t, x, yoneda_product(t, y, z))
            assert left == right
            assert left.degree == x.degree + y.degree + z.degree
            if not left.is_zero():
                assert left.target_degree == wadd(
                    x.target_degree, wadd(y.target_degree, z.target_degree))
            done += 1
        assert done > 0
    report(7, "Yoneda products: xi^n nonzero for n <= 10 over the dual "
              "numbers, unit laws hold, associativity and bidegree "
              "additivity verified on random composable triples")


def test_criterion_8_gk_and_generation_agreement():
    for name in ["pos", "a2"]:
        eng = engine_for(name)
        pair = IdempotentPair(eng, eng.pres.f_vertices)
        c = corner_algebra(eng, pair)
        t = compute_abc(eng, pair, 20, corner=c)
        bound = 40
        lam = ext_table(eng, bound)
        cor = ext_table(c.corner_engine, bound)
        gen_bound = max(1, t.T)
        lam_gen = generation_window_check(lam, gen_bound, t.T + 10)
        cor_gen = generation_window_check(cor, gen_bound, t.T + 10)
        assert lam_gen.success == cor_gen.success
        lam_slope, _ = gk_estimate(lam, bound // 2, bound)
        cor_slope, _ = gk_estimate(cor, bound // 2, bound)
        assert abs(lam_slope - cor_slope) < 0.15, name
    report(8, "generation windows agree on both sides for pos and a2; GK "
              "slope estimates differ by < 0.15 (heuristic tolerance)")
