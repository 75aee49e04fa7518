"""Slot-spanned kernels against the dense reference in naive.py.

`kernel_subrep` reads the kernel of a missing or slot-like block (no row
with two nonzero entries) off its zero columns, and the action between two
such slices off the parent's block, with no elimination.  Over a monomial
algebra every block of an epi in a resolution of simples is slot-like; over
the exterior algebra some are not, and an arrow may join a slot-spanned
slice to an eliminated one.  Every cover of every simple, through step 6,
must give the dense reference's kernel, action and inclusion; and which
path runs is counted."""

import pytest
from hypothesis import given, settings

from quiverext import (AdmissibilityError, build_engine, corner_algebra, ext_table,
                       global_dimension, pair_from_presentation, parse_algebra,
                       parse_algebra_file, simple_resolutions)
from quiverext import modules
from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Matrix
from quiverext.modules import (Projective, _subrep_from_homogeneous, _zero_columns,
                               kernel_subrep, projective_module)
from quiverext.quiver import wadd

from conftest import (EXTERIOR3_F3, FIXTURE_NAMES, FIXTURES, cyclic_nakayama, engine_for,
                      engine_from)
from naive import dense_kernel
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


def slice_kinds(mmap):
    """{source slice: "slots" or "eliminated"}, as `kernel_subrep` sees it."""
    return {key: "eliminated" if key in mmap.blocks and _zero_columns(mmap.blocks[key]) is None
            else "slots" for key in mmap.source.dims}


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
        assert _zero_columns(m) == zero_columns
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
