import json
from pathlib import Path

from quiverext import (ExtTable, IdempotentPair, apply_F, compute_abc,
                       corner_algebra, ext_table, restricted_ext_table,
                       semisimple_top, simple_module, verify_comparison)
from quiverext import comparison, ext, modules
from quiverext.comparison import (TransportCorrespondence,
                                  verify_product_compatibility)
from quiverext.resolution import MinimalResolution

from conftest import POLY_CORNER, engine_for, engine_from

GOLDEN = Path(__file__).resolve().parent / "golden"


def pair_and_corner(name):
    eng = engine_for(name)
    pair = IdempotentPair(eng, eng.pres.f_vertices)
    return eng, pair, corner_algebra(eng, pair)


def test_relations_checked_once_per_summand_vertex(monkeypatch):
    # F(P_1) and F(P_2) once each, then the simple S_2 and the dual module
    # of the injective dimension; the restricted resolution terms not again
    calls = []
    check = modules.Representation._verify
    monkeypatch.setattr(modules.Representation, "_verify",
                        lambda rep: calls.append(rep) or check(rep))
    eng = engine_from(POLY_CORNER)
    report = verify_comparison(eng, IdempotentPair(eng, ["2"]), bound=8, window=5)
    assert report["verdict"] == "PASS"
    assert len(calls) <= 4


def test_compute_abc_pos():
    eng, pair, corner = pair_and_corner("pos")
    t = compute_abc(eng, pair, 20, corner=corner)
    assert (t.a.value, t.b.value, t.c.value) == (1, 0, 0)
    assert t.T == 2


def test_compute_abc_a2():
    eng, pair, corner = pair_and_corner("a2")
    t = compute_abc(eng, pair, 10, corner=corner)
    # S_u is injective over the one-arrow quiver, so b = 0 and T = 2
    assert (t.a.value, t.b.value, t.c.value) == (1, 0, 0)
    assert t.T == 2


def test_compute_abc_tri():
    eng, pair, corner = pair_and_corner("tri")
    t = compute_abc(eng, pair, 20, corner=corner)
    assert (t.a.value, t.b.value, t.c.value) == (1, 1, 0)
    assert t.T == 3


def test_compute_abc_e41_infinite():
    eng, pair, corner = pair_and_corner("e41")
    t = compute_abc(eng, pair, 10, corner=corner)
    assert t.a.is_infinite
    assert t.b.is_infinite
    assert t.T is None
    assert t.unmet_reasons()


def test_compute_abc_empty_e():
    eng = engine_for("e24")
    pair = IdempotentPair(eng, ["u", "v"])
    t = compute_abc(eng, pair, 10)
    assert (t.a.value, t.b.value, t.c.value) == (-1, -1, -1)
    assert t.T == 0


def test_restricted_table_pos():
    eng, pair, corner = pair_and_corner("pos")
    table = ext_table(eng, 8)
    t = compute_abc(eng, pair, 8, corner=corner)
    restricted = restricted_ext_table(table, pair, t)
    for (n, u, v, g), d in table.entries.items():
        if n > 1:
            assert (n, u, v, g) in restricted
            assert u == v == "2"
    # degree 1 has an entry from the e-simple that restriction removes
    assert table.entry(1, "1", "2", (1,)) == 1
    assert (1, "1", "2", (1,)) not in restricted


def test_restricted_table_a2_zero_beyond_one():
    eng, pair, corner = pair_and_corner("a2")
    table = ext_table(eng, 6)
    t = compute_abc(eng, pair, 6, corner=corner)
    restricted = restricted_ext_table(table, pair, t)
    assert all(n <= 1 for (n, _, _, _) in restricted)


def test_restricted_equals_full_when_e_empty():
    eng = engine_for("e24")
    pair = IdempotentPair(eng, ["u", "v"])
    table = ext_table(eng, 6)
    t = compute_abc(eng, pair, 6)
    assert restricted_ext_table(table, pair, t) == table.entries


def test_verify_comparison_pos():
    eng, pair, corner = pair_and_corner("pos")
    report = verify_comparison(eng, pair, bound=40, window=10, corner=corner)
    assert report["verdict"] == "PASS"
    assert [row["n"] for row in report["window"]] == list(range(3, 13))
    for row in report["window"]:
        assert row["match"]
        assert row["lambda_dims"] == [{"source": "2", "target": "2",
                                       "g": [row["n"]], "dim": 1}]
    assert report["products"]["iso"]
    assert report["products"]["checked"] > 0
    assert not report["products"]["mismatches"]
    assert report["generation"]["agree"]
    assert report["gk"]["delta"] < 0.15


def test_verify_comparison_a2():
    eng, pair, corner = pair_and_corner("a2")
    report = verify_comparison(eng, pair, bound=20, window=5, corner=corner)
    assert report["verdict"] == "PASS"
    for row in report["window"]:
        assert row["lambda_dims"] == [] and row["corner_dims"] == []


def test_verify_comparison_tri():
    eng, pair, corner = pair_and_corner("tri")
    report = verify_comparison(eng, pair, bound=24, window=8, corner=corner)
    assert report["verdict"] == "PASS"
    assert all(row["match"] for row in report["window"])
    assert report["products"]["checked"] > 0
    assert not report["products"]["mismatches"]


def test_verify_comparison_e41_unmet():
    eng, pair, corner = pair_and_corner("e41")
    report = verify_comparison(eng, pair, bound=10, window=4, corner=corner)
    assert report["verdict"] == "HYPOTHESES_UNMET"
    assert any(r.startswith("a = infinite") for r in report["unmet"])
    assert report["diagnostics"]["lambda_ext"]
    assert report["diagnostics"]["corner_ext"]


def test_verify_comparison_undetermined_at_tiny_bound():
    eng = engine_for("nak")
    pair = IdempotentPair(eng, eng.pres.f_vertices)
    report = verify_comparison(eng, pair, bound=1, window=2)
    assert report["verdict"] == "UNDETERMINED"


def test_verify_comparison_f_everything():
    eng = engine_for("e24")
    pair = IdempotentPair(eng, ["u", "v"])
    report = verify_comparison(eng, pair, bound=14, window=6)
    assert report["verdict"] == "PASS"
    assert report["hypotheses"]["T"] == 0
    assert all(row["match"] for row in report["window"])


def test_pd_equivalence_rows():
    eng, pair, corner = pair_and_corner("pos")
    report = verify_comparison(eng, pair, bound=20, window=6, corner=corner)
    rows = {r["module"]: r for r in report["pd_equivalence"]}
    assert rows["S_2"]["agree"] is True
    assert rows["S_2"]["lambda"].startswith("infinite")


def test_transported_tops_match_corner_resolution():
    # beyond the threshold, the restriction of the big resolution has the
    # same tops as the corner's own minimal resolution
    for name in ["pos", "a2", "tri"]:
        eng, pair, corner = pair_and_corner(name)
        t = compute_abc(eng, pair, 12, corner=corner)
        hi = t.T + 5
        for u in pair.f_vertices:
            res = MinimalResolution(eng, simple_module(eng, u)).extend_to(hi)
            cres = MinimalResolution(corner.corner_engine,
                                     simple_module(corner.corner_engine, u))
            cres.extend_to(hi)
            for n in range(t.T + 1, hi + 1):
                f_top = sorted((v, g, m) for v, g, m in
                               semisimple_top(apply_F(corner, res.term(n).rep)))
                expected = {}
                for v, g in cres.summands(n):
                    expected[(v, g)] = expected.get((v, g), 0) + 1
                assert f_top == sorted((v, g, m) for (v, g), m in expected.items())


def test_verify_comparison_polynomial_corner():
    # the corner Ext ring is a polynomial ring on two degree-one classes,
    # so window degrees carry several group-degree slots and the product
    # check exercises genuinely commuting structure constants
    eng = engine_from(POLY_CORNER)
    pair = IdempotentPair(eng, ["2"])
    report = verify_comparison(eng, pair, bound=8, window=4)
    assert report["hypotheses"]["T"] == 2
    assert report["verdict"] == "PASS"
    for row in report["window"]:
        assert row["match"]
        assert len(row["lambda_dims"]) == row["n"] + 1
        assert all(d["dim"] == 1 for d in row["lambda_dims"])
    assert report["products"]["checked"] >= 16
    assert not report["products"]["mismatches"]
    # the loop simples never certify (their syzygies grow), which is
    # reported as context without weakening the exact window verdict
    assert report["open_pd_sources"]["lambda"] == ["2"]


def test_polynomial_corner_report_matches_golden():
    # window dimensions, product compatibility and generation, byte for byte
    eng = engine_from(POLY_CORNER)
    report = verify_comparison(eng, IdempotentPair(eng, ["2"]), bound=8, window=5)
    blocks = {k: report[k] for k in ("window", "products", "generation")}
    assert (json.dumps(blocks, indent=2, sort_keys=True) + "\n"
            == (GOLDEN / "poly_corner_compare.json").read_text())


def test_product_check_transports_each_class_once(monkeypatch):
    # 198 transports in the product check, of 39 distinct classes: each is
    # pulled back once
    pulled = []
    pull_back = comparison.pull_back

    def counting(*args):
        pulled.append(1)
        return pull_back(*args)

    monkeypatch.setattr(comparison, "pull_back", counting)
    eng = engine_from(POLY_CORNER)
    report = verify_comparison(eng, IdempotentPair(eng, ["2"]), bound=8, window=5)
    assert report["verdict"] == "PASS"
    assert len(pulled) == 39


def test_generation_check_computes_no_product_into_a_full_part(monkeypatch):
    # degrees 3-7 of each table have parts (source, target vertex, degree)
    # of dimension 1; a part filled by one product takes no other, so each
    # table computes 30 products, not the 50 before the first full span
    counts = []
    product = ext.yoneda_product

    def counting(*args):
        counts[-1] += 1
        return product(*args)

    check = ext.generation_window_check

    def counted(table, gen_bound, check_bound):
        counts.append(0)
        return check(table, gen_bound, check_bound)

    monkeypatch.setattr(ext, "yoneda_product", counting)
    monkeypatch.setattr(comparison, "generation_window_check", counted)
    eng = engine_from(POLY_CORNER)
    report = verify_comparison(eng, IdempotentPair(eng, ["2"]), bound=8, window=5)
    assert counts == [30, 30]
    assert report["generation"]["lambda"]["success"]
    assert report["generation"]["corner"]["success"]


def test_verify_comparison_resolves_each_module_once(resolutions_built):
    # the two simples, the corner simple, the dual simple over the opposite
    # algebra (b) and the e-to-f module (c); nothing is kept on the engine,
    # so a second call builds them all again
    eng = engine_from(POLY_CORNER)
    pair = IdempotentPair(eng, ["2"])
    counts = []
    for _ in range(2):
        start = len(resolutions_built)
        verify_comparison(eng, pair, bound=8, window=5)
        counts.append(len(resolutions_built) - start)
    assert counts == [5, 5]


def test_product_compatibility_direct():
    eng, pair, corner = pair_and_corner("pos")
    lam = ExtTable(eng, 12)
    cor = ExtTable(corner.corner_engine, 12)
    out = verify_product_compatibility(corner, lam, cor, 2, 8)
    assert out["iso"] and out["checked"] > 0 and not out["mismatches"]


def test_transport_correspondence_nonzero():
    eng, pair, corner = pair_and_corner("pos")
    lam = ExtTable(eng, 8)
    cor = ExtTable(corner.corner_engine, 8)
    tc = TransportCorrespondence(corner, lam, cor, 8)
    for n in range(3, 8):
        for x in lam.basis_classes(n, source="2"):
            tx = tc.transport_class(x)
            assert not tx.is_zero()
            assert tx.target_degree == x.target_degree
