"""Slot-spanned kernels and tops against the references in naive.py.

`kernel_subrep` reads the kernel of a slice whose nonzero columns have
pairwise disjoint supports off its columns with no image, and the action
between two such slices off the parent's block, with no elimination.  The
slices it reads so are exactly those whose block is slot-like by the row
rule (no row with two nonzero entries, `naive.zero_columns`).  Over a
monomial algebra every block of an epi in a resolution of simples is
slot-like; over the exterior algebra some are not, and an arrow may join a
slot-spanned slice to an eliminated one.  Every cover of every simple,
through step 6, must give the dense reference's kernel, action and
inclusion, and every syzygy the top of `naive.naive_top_lifts`; and which
path runs is counted."""

import pytest
from hypothesis import given, settings

from quiverext import (AdmissibilityError, build_engine, corner_algebra, ext_table,
                       global_dimension, pair_from_presentation, parse_algebra,
                       parse_algebra_file, simple_resolutions)
from quiverext import modules
from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Matrix, Subspace
from quiverext.modules import (Projective, Representation, _kernel_slots,
                               _subrep_from_homogeneous, kernel_subrep, projective_module,
                               top_lifts)
from quiverext.quiver import wadd

from conftest import (EXTERIOR3_F3, FIXTURE_NAMES, FIXTURES, cyclic_nakayama, engine_for,
                      engine_from)
from naive import dense_kernel, naive_top_lifts, zero_columns as by_rows
from test_engine_generated import algebras
from test_slices import _assert_same

BOUND = 6
FIELDS = [QQ, PrimeField(3)]
FIELD_IDS = ["Q", "F3"]


def covers_to(eng, bound=BOUND):
    """Every cover of every simple's resolution through step `bound`."""
    out = []
    for res in simple_resolutions(eng).values():
        res.extend_to(bound)
        out += res.covers
    return out


def assert_kernels_match_dense(eng, bound=BOUND):
    for cover in covers_to(eng, bound):
        got = kernel_subrep(cover.epi)
        _assert_same(got, dense_kernel(cover.epi))
        assert got[0] == cover.kernel
        assert got[1].blocks == cover.kernel_inclusion.blocks
        slice_kinds(cover.epi)
        assert top_lifts(cover.kernel) == naive_top_lifts(cover.kernel)


def slice_kinds(mmap):
    """{source slice: "slots" or "eliminated"}, as `kernel_subrep` reads it
    off the map's columns, after checking that the slot-spanned slices and
    their slots are those the row rule finds on the blocks."""
    columns = mmap.columns()
    slots = {key: _kernel_slots(columns.get(key, {}), n) for key, n in mmap.source.dims.items()}
    assert slots == {key: by_rows(mmap.blocks[key]) if key in mmap.blocks else list(range(n))
                     for key, n in mmap.source.dims.items()}
    return {key: "eliminated" if s is None else "slots" for key, s in slots.items()}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_kernels_match_dense(name, field):
    eng = build_engine(parse_algebra_file(str(FIXTURES / (name + ".alg"))).with_field(field))
    corner = corner_algebra(eng, pair_from_presentation(eng)).corner_engine
    for e in (eng, corner, eng.opposite_engine):
        assert_kernels_match_dense(e)


@pytest.mark.parametrize("field", ["Q", "F 3"])
@pytest.mark.parametrize("n", range(1, 13))
def test_nakayama_kernels_match_dense_and_span_slots(n, field):
    for loewy in (2, 3, 4):
        text = cyclic_nakayama(n, loewy).replace("field Q", "field " + field)
        eng = engine_from(text)
        covers = covers_to(eng)
        # monomial: every slice is slot-spanned
        assert all(kind == "slots" for c in covers for kind in slice_kinds(c.epi).values())
        for cover in covers:
            _assert_same(kernel_subrep(cover.epi), dense_kernel(cover.epi))
            assert top_lifts(cover.kernel) == naive_top_lifts(cover.kernel)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(algebras())
def test_generated_kernels_match_dense(case):
    text, _ = case
    try:
        eng = build_engine(parse_algebra(text))
    except AdmissibilityError:
        return
    assert_kernels_match_dense(eng)


def joined_kinds(mmap):
    """The (source, target) kinds of the slices each arrow of the kernel
    joins, after checking the kernel against the dense reference."""
    got = kernel_subrep(mmap)
    _assert_same(got, dense_kernel(mmap))
    assert top_lifts(got[0]) == naive_top_lifts(got[0])
    kinds = slice_kinds(mmap)
    weights = mmap.source.engine.pres.weights
    arrows = mmap.source.engine.quiver.arrow_by_name
    return {(kinds[(arrows[name].source, g)],
             kinds[(arrows[name].target, wadd(g, weights[name]))])
            for name, g in got[0].action}


def test_arrows_join_slot_spanned_and_eliminated_slices():
    eng = engine_from(EXTERIOR3_F3)
    # a resolution of the simple: eliminated slices act into slot-spanned ones
    joined = set().union(*(joined_kinds(c.epi) for c in covers_to(eng, 2)))
    assert ("eliminated", "slots") in joined
    # Lambda[y] + Lambda[x] + Lambda[y] -> Lambda, onto y, x and 0: in degree
    # y the block is [1 0], slot-like with kernel the third generator, whose
    # x-multiple lies in degree x + y, where x(1st) and y(2nd) both go to xy
    x, y = (1, 0, 0), (0, 1, 0)
    target = projective_module(eng, "v").rep
    source = Projective(eng, [("v", y), ("v", x), ("v", y)])
    one, zero = eng.field.one, eng.field.zero
    epi = source.map_from_generator_images(target, [[one], [one], [zero]])
    epi._verify()
    assert ("slots", "eliminated") in joined_kinds(epi)


def test_slot_like_blocks():
    eng = engine_for("e24")
    one, zero, two = eng.field.one, eng.field.zero, eng.field.of(2)
    cases = [([[zero, two, zero], [one, zero, zero]], [2]),    # one entry per column
             ([[zero, zero]], [0, 1]),
             ([[one, zero, zero], [two, zero, zero]], [1, 2]),  # two in a column
             ([[one, zero], [zero, one], [one, zero]], []),
             ([[one, one]], None),                             # two in a row
             ([[zero, one, zero], [one, zero, two]], None)]
    for rows, zero_columns in cases:
        m = Matrix(eng.field, rows)
        assert by_rows(m) == zero_columns
        cols = {j: m.col(j) for j in range(m.ncols) if any(m.col(j))}
        assert _kernel_slots(cols, m.ncols) == zero_columns
        if zero_columns is not None:
            assert m.nullspace() == [[one if i == j else zero for i in range(m.ncols)]
                                     for j in zero_columns]


def test_unit_vector_span_not_closed_raises():
    eng = engine_for("e24")
    p = projective_module(eng, "u")
    key, i = p.gen_pos[0]
    with pytest.raises(ValueError, match="span is not closed under the action"):
        _subrep_from_homogeneous(p.rep, {}, {key: [i]})
    # the radical is closed: its slots span a subrepresentation
    radical = {k: [j for j in range(n) if (k, j) != (key, i)] for k, n in p.rep.dims.items()}
    sub, incl = _subrep_from_homogeneous(p.rep, {}, radical)
    sub._verify()
    incl._verify()
    assert sub.total_dim == p.rep.total_dim - 1
    # two copies of P_u: the first generator and every slot of an arrow's
    # target slice but the first generator's image there
    p = Projective(eng, [p.summands[0]] * 2)
    key, i = p.gen_pos[0]
    (name, g), block = next(iter(p.rep.action.items()))
    assert g == key[1] and block.nrows == 2
    target = (eng.quiver.arrow_by_name[name].target, wadd(g, eng.pres.weights[name]))
    row = block.col(i).index(eng.field.one)
    with pytest.raises(ValueError, match="span is not closed under the action"):
        _subrep_from_homogeneous(p.rep, {}, {key: [i], target: [1 - row]})


@pytest.fixture
def counted(monkeypatch):
    """{"solve": n, "rref": n}: the `Matrix.solve` and `Matrix.rref` calls
    made under `kernel_subrep` so far."""
    counts = {"solve": 0, "rref": 0}
    inside = [False]

    def counting(name):
        original = getattr(Matrix, name)

        def wrapper(self, *args):
            counts[name] += inside[0]
            return original(self, *args)
        return wrapper

    kernel = modules.kernel_subrep

    def marked(mmap):
        inside[0] = True
        try:
            return kernel(mmap)
        finally:
            inside[0] = False

    for name in counts:
        monkeypatch.setattr(Matrix, name, counting(name))
    monkeypatch.setattr(modules, "kernel_subrep", marked)
    return counts


def test_nakayama24_kernels_need_no_elimination(counted):
    eng = build_engine(parse_algebra(cyclic_nakayama(24, 5)))
    assert global_dimension(eng, 50).is_infinite
    assert counted == {"solve": 0, "rref": 0}


def test_exterior_kernels_still_eliminate(counted):
    ext_table(build_engine(parse_algebra(EXTERIOR3_F3)), 3)
    assert counted["solve"] > 0
    assert counted["rref"] > 0


def test_nakayama24_epis_build_no_blocks_until_verified():
    eng = build_engine(parse_algebra(cyclic_nakayama(24, 5)))
    resolutions = simple_resolutions(eng)
    for res in resolutions.values():
        assert res.pd_verdict(50).is_infinite
    epis = [c.epi for res in resolutions.values() for c in res.covers]
    assert all("blocks" not in vars(epi) for epi in epis)
    res = resolutions[eng.quiver.vertices[0]]
    assert res.verify()
    assert all("blocks" in vars(c.epi) for c in res.covers)


def columns_into(rep):
    """{slice: the nonzero arrow columns into it}."""
    arrows = rep.engine.quiver.arrow_by_name
    out = {}
    for (name, g), m in rep.action.items():
        key = (arrows[name].target, wadd(g, rep.engine.pres.weights[name]))
        out.setdefault(key, []).extend(c for c in zip(*m.rows) if any(c))
    return out


@pytest.fixture
def added(monkeypatch):
    """The number of `Subspace.add` calls so far, as a one-item list."""
    calls = [0]
    add = Subspace.add

    def counting(self, vec):
        calls[0] += 1
        return add(self, vec)

    monkeypatch.setattr(Subspace, "add", counting)
    return calls


def test_exterior_tops_mix_hit_rows_and_elimination(added):
    eng = engine_from(EXTERIOR3_F3)
    syzygies = [c.kernel for c in covers_to(eng, 3)]
    kinds = set()
    for rep in syzygies:
        into = columns_into(rep)
        # only the slices with a column of two nonzero entries eliminate
        mixed = {key for key, cols in into.items()
                 if any(sum(1 for x in c if x) > 1 for c in cols)}
        kinds.update("eliminated" if key in mixed else "hit rows" for key in into)
        added[0] = 0
        got = top_lifts(rep)
        assert added[0] == sum(len(into[key]) for key in mixed)
        assert got == naive_top_lifts(rep)
    assert kinds == {"eliminated", "hit rows"}


def test_top_with_a_two_entry_column_falls_back(added):
    # e24: a: u -> v, b: v -> v with b*a = b*b = 0.  a hits (v, 1) in the
    # column (1, 1), and b sends it on to (v, 2) by the unit columns 1, -1
    eng = engine_for("e24")
    one = eng.field.one
    rep = Representation(eng, {("u", (0,)): 1, ("v", (1,)): 2, ("v", (2,)): 1},
                         {("a", (0,)): Matrix(eng.field, [[one], [one]]),
                          ("b", (1,)): Matrix(eng.field, [[one, -one]])})
    got = top_lifts(rep)
    assert added[0] == 1
    assert got == naive_top_lifts(rep) == [("u", (0,), [one]),
                                           ("v", (1,), [eng.field.zero, one])]
