from math import comb, gcd

import pytest

from quiverext import (DimVerdict, belongs_to, global_dimension,
                       injective_dimension, minimal_resolution,
                       projective_dimension, simple_module, zero_module)
from quiverext import modules, resolution
from quiverext.ext import ExtTable
from quiverext.resolution import MinimalResolution, combine_verdicts, simple_resolutions

from conftest import (EXTERIOR2, EXTERIOR3_UNGRADED, KB2, NAK4, SEMISIMPLE2, E24_TRIVIAL,
                      cyclic_nakayama, engine_for, engine_from)


def test_a2_simple_resolution_stops():
    eng = engine_for("a2")
    res = minimal_resolution(eng, simple_module(eng, "u"), 4)
    assert res.summands(0) == [("u", (0,))]
    assert res.summands(1) == [("v", (1,))]
    assert res.syzygy(2).is_zero()
    assert res.pd_verdict(4) == DimVerdict.finite(1)
    res.verify()


def test_kb2_periodic_certificate():
    eng = engine_from(KB2)
    res = minimal_resolution(eng, simple_module(eng, "v"), 8)
    cert = res.certificate
    assert cert is not None
    assert (cert.n0, cert.period, cert.shift) == (0, 1, (1,))
    assert all(res.summands(n) == [("v", (n,))] for n in range(8))
    verdict = res.pd_verdict(8)
    assert verdict.is_infinite
    res.verify()


def test_e41_simple_v_periodic():
    eng = engine_for("e41")
    res = minimal_resolution(eng, simple_module(eng, "v"), 8)
    assert res.summands(0) == [("v", (0,))]
    assert sorted(res.summands(1)) == [("v", (1,)), ("w", (1,))]
    assert all(res.summands(n) == [("v", (n,))] for n in range(2, 8))
    assert res.pd_verdict(8).is_infinite
    res.verify()


def test_pd_of_zero_module():
    eng = engine_for("e24")
    assert projective_dimension(eng, zero_module(eng), 4) == DimVerdict.finite(-1)


def test_injective_dimension_examples():
    a2 = engine_for("a2")
    # S_u is its own injective envelope over the one-arrow quiver
    assert injective_dimension(a2, simple_module(a2, "u"), 6) == DimVerdict.finite(0)
    assert injective_dimension(a2, simple_module(a2, "v"), 6) == DimVerdict.finite(1)
    e41 = engine_for("e41")
    assert injective_dimension(e41, simple_module(e41, "v"), 10).is_infinite


def test_injective_dimension_semisimple():
    eng = engine_from(SEMISIMPLE2)
    for v in eng.quiver.vertices:
        assert injective_dimension(eng, simple_module(eng, v), 4) == DimVerdict.finite(0)


def test_global_dimension():
    assert global_dimension(engine_from(SEMISIMPLE2), 4) == DimVerdict.finite(0)
    assert global_dimension(engine_for("a2"), 6) == DimVerdict.finite(1)
    assert global_dimension(engine_for("e41"), 10).is_infinite
    point = engine_from("vertices v\ntruncate 2\n")
    assert global_dimension(point, 4) == DimVerdict.finite(0)


def test_nakayama_period_three():
    eng = engine_for("nak")
    res = minimal_resolution(eng, simple_module(eng, "3"), 6)
    cert = res.certificate
    assert cert is not None and cert.period == 3 and cert.shift == (3,)
    res.verify()


def test_at_least_verdict_small_bound():
    eng = engine_for("nak")
    verdict = projective_dimension(eng, simple_module(eng, "3"), 1)
    assert verdict.is_undetermined
    assert verdict.bound == 1


def test_growing_syzygies_stay_undetermined():
    eng = engine_from(EXTERIOR2)
    res = MinimalResolution(eng, simple_module(eng, "v"))
    verdict = res.pd_verdict(6)
    assert verdict.is_undetermined
    # syzygy dimensions strictly increase, so no periodicity exists
    dims = [res.syzygy(n).total_dim for n in range(1, 7)]
    assert dims == sorted(dims) and len(set(dims)) == len(dims)


def test_trivial_group_periodicity():
    eng = engine_from(E24_TRIVIAL)
    res = minimal_resolution(eng, simple_module(eng, "v"), 6)
    cert = res.certificate
    assert cert is not None
    assert cert.shift == ()
    assert res.pd_verdict(6).is_infinite


@pytest.mark.parametrize("field", ["Q", "F 3"])
def test_ungraded_exterior_ext_is_symmetric_algebra(field):
    # Ext of the exterior algebra on three generators is the symmetric
    # algebra on three degree-one classes: dim Ext^n(S, S) = C(n+2, 2)
    eng = engine_from(EXTERIOR3_UNGRADED % field)
    table = ExtTable(eng, 6)
    assert table.entries == {(n, "v", "v", ()): comb(n + 2, 2) for n in range(7)}
    for res in table.resolutions.values():
        assert res.verify()


def test_resolution_minimality_and_exactness_all_fixtures():
    for name in ["e24", "e41", "pos", "nak", "tri"]:
        eng = engine_for(name)
        for v in eng.quiver.vertices:
            res = minimal_resolution(eng, simple_module(eng, v), 6)
            res.verify()


def test_certified_infinite_has_bounded_nonzero_syzygies():
    eng = engine_for("e41")
    res = minimal_resolution(eng, simple_module(eng, "v"), 12)
    assert res.certificate is not None
    dims = [res.syzygy(n).total_dim for n in range(1, 13)]
    assert all(d > 0 for d in dims)
    assert max(dims) <= max(dims[:res.certificate.n0 + res.certificate.period])


def test_belongs_to():
    assert belongs_to([("v", (1,)), ("v", (2,))], {"v"})
    assert not belongs_to([("v", (1,)), ("w", (1,))], {"v"})
    assert belongs_to([], {"v"})


def test_combine_verdicts():
    f1, f3 = DimVerdict.finite(1), DimVerdict.finite(3)
    inf = DimVerdict.infinite(None)
    at2 = DimVerdict.at_least(2)
    assert combine_verdicts([]) == DimVerdict.finite(-1)
    assert combine_verdicts([f1, f3]) == f3
    assert combine_verdicts([f1, inf, at2]).is_infinite
    assert combine_verdicts([f1, at2]).is_undetermined


def test_resolution_json_shape():
    eng = engine_for("pos")
    res = minimal_resolution(eng, simple_module(eng, "2"), 3)
    doc = res.to_json()
    assert [s["n"] for s in doc["steps"]] == [0, 1, 2, 3]
    assert doc["steps"][0]["summands"] == [["2", [0]]]
    assert "certificate" in doc


def test_pd_verdict_stops_once_settled():
    a2 = engine_for("a2")
    res = MinimalResolution(a2, simple_module(a2, "u"))
    assert res.pd_verdict(40) == DimVerdict.finite(1)
    assert len(res.covers) == 2          # Omega^2 = 0 is read off cover 1
    nak4 = engine_from(NAK4)
    res = MinimalResolution(nak4, simple_module(nak4, "1"))
    assert res.pd_verdict(40).is_infinite
    assert len(res.covers) == 8          # the certificate needs Omega^8


def test_over_extended_resolution_trusts_only_in_bound_certificates():
    eng = engine_from(NAK4)
    cert = MinimalResolution(eng, simple_module(eng, "1")).pd_verdict(20).certificate
    k = cert.n0 + cert.period
    assert k == 8
    res = MinimalResolution(eng, simple_module(eng, "1")).extend_to(k + 2)
    assert res.certificate is not None
    fresh = MinimalResolution(eng, simple_module(eng, "1")).pd_verdict(k - 2)
    assert res.pd_verdict(k - 2) == DimVerdict.at_least(k - 2) == fresh
    assert res.pd_verdict(k - 1).is_infinite
    # an Ext table on an over-extended store agrees with a fresh one
    store = simple_resolutions(eng)
    for r in store.values():
        r.extend_to(k + 2)
    shared = ExtTable(eng, k - 2, resolutions=store)
    assert shared.undetermined == ExtTable(eng, k - 2).undetermined == {"1", "2", "3", "4"}
    assert ExtTable(eng, k - 1, resolutions=store).undetermined == set()


@pytest.mark.parametrize("loewy", [3, 4, 5])
@pytest.mark.parametrize("n", range(6, 13))
def test_cyclic_nakayama_certificate(n, loewy):
    # Omega^2 S_i = S_{i+L}[L], so Omega^{2k} S_0 = S_0[kL] first for
    # k = n / gcd(L, n); the odd syzygies are uniserial of length L - 1 >= 2
    eng = engine_from(cyclic_nakayama(n, loewy))
    k = n // gcd(loewy, n)
    verdict = projective_dimension(eng, simple_module(eng, "0"), 2 * k)
    assert verdict.is_infinite
    cert = verdict.certificate
    assert (cert.n0, cert.period, cert.shift) == (0, 2 * k, (k * loewy,))
    assert cert.witness.is_iso()


def test_zero_cover_reused_after_zero_syzygy(monkeypatch):
    covers = []
    cover = resolution.projective_cover

    def counting_cover(engine, rep):
        covers.append(rep)
        return cover(engine, rep)

    # the first cover is asked of resolution's name, a successor of modules'
    monkeypatch.setattr(resolution, "projective_cover", counting_cover)
    monkeypatch.setattr(modules, "projective_cover", counting_cover)
    eng = engine_for("a2")
    res = minimal_resolution(eng, simple_module(eng, "u"), 10)
    assert len(covers) == 3              # S_u, Omega^1 and the zero Omega^2
    assert all(res.covers[n] is res.covers[2] for n in range(3, 11))
    assert [step["summands"] for step in res.to_json()["steps"]][2:] == [[]] * 9
    res.verify()


def test_global_dimension_stops_at_first_infinite_simple(resolutions_built):
    eng = engine_for("e41")
    assert list(eng.quiver.vertices) == ["u", "v", "w"]
    assert global_dimension(eng, 10).is_infinite      # S_v is the first
    assert [r.module.dims for r in resolutions_built] == [{("u", (0,)): 1},
                                                          {("v", (0,)): 1}]
