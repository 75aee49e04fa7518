"""Resolution terms past a periodicity certificate, read off the period.

Once Omega^{n0+t} ~ Omega^{n0}[h] is certified, `MinimalResolution.summands`
reads P^n for a step not yet covered as P^b[kh], with b taken from step n0
on, P^0 included: every cover lists its summands by vertex, then by degree.
These tests compare each read-off with the term a real extension computes,
as lists (summand order indexes Ext classes), and check that an Ext table
resolves a certified simple only to its certificate."""

import pytest

from quiverext import (ExtTable, MinimalResolution, corner_algebra,
                       pair_from_presentation, projective_cover, shift_rep,
                       simple_module, simple_resolutions)

from conftest import FIXTURE_NAMES, cyclic_nakayama, engine_for, engine_from
from naive import direct_sum


def read_off_matches(res, bound=40):
    """Read P^0 .. P^top off the period, top three periods past the
    certificate, then extend to top for real and compare.  False when the
    resolution has no certificate."""
    res.pd_verdict(bound)
    c = res.certificate
    if c is None:
        return False
    top = c.n0 + 4 * c.period + 1
    read = [res.summands(n) for n in range(top + 1)]
    assert len(res.covers) <= c.n0 + c.period < top
    res.extend_to(top)
    assert read == [list(res.term(n).summands) for n in range(top + 1)]
    return True


def engines_of(name):
    eng = engine_for(name)
    return {"lambda": eng,
            "corner": corner_algebra(eng, pair_from_presentation(eng)).corner_engine,
            "opposite": eng.opposite_engine}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_read_off_equals_real_terms_on_fixtures(name):
    certified = 0
    for eng in engines_of(name).values():
        for res in simple_resolutions(eng).values():
            certified += read_off_matches(res)
    if name not in ("a2", "e41"):
        assert certified


@pytest.mark.parametrize("n", range(1, 13))
def test_read_off_equals_real_terms_on_nakayama_cycles(n):
    for loewy in (2, 3, 4):
        eng = engine_from(cyclic_nakayama(n, loewy))
        assert all(read_off_matches(res) for res in simple_resolutions(eng).values())


def test_read_off_starts_at_the_module_when_n0_is_zero():
    # K[x]/(x^3), K the radical of the projective: M = K[5] + K is given
    # with its slices out of degree order, and Omega^2 M ~ M[3]
    eng = engine_from(cyclic_nakayama(1, 3))
    k = projective_cover(eng, simple_module(eng, "0")).kernel
    res = MinimalResolution(eng, direct_sum([shift_rep(k, (5,)), k]))
    assert res.pd_verdict(10).is_infinite
    c = res.certificate
    assert (c.n0, c.period, c.shift) == (0, 2, (3,))
    # M sorts its slices, so P^0 is sorted and P^0 shifted by h is P^2
    assert res.summands(0) == [("0", (1,)), ("0", (6,))]
    assert [(v, (g[0] + 3,)) for v, g in res.summands(0)] == [("0", (4,)), ("0", (9,))]
    assert read_off_matches(res)
    assert list(res.term(2).summands) == [("0", (4,)), ("0", (9,))]


@pytest.mark.parametrize("name", ["pos", "tri", "nak", "e24"])
def test_ext_table_resolves_only_to_the_certificate(name):
    eng = engine_for(name)
    table = ExtTable(eng, 200)
    certified = [res for res in table.resolutions.values() if res.certificate]
    assert certified
    for res in certified:
        c = res.certificate
        assert len(res.covers) <= c.n0 + c.period
    store = simple_resolutions(eng)
    for res in store.values():
        res.extend_to(60)
    resolved = ExtTable(eng, 60, resolutions=store)
    assert resolved.entries == {key: d for key, d in table.entries.items() if key[0] <= 60}
    assert resolved.undetermined == table.undetermined
