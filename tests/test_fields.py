"""The scalar contract: over Q a value is an int when it is an integer and a
Fraction only when it is not; `inv` is the one way to divide.  Over F_p the
elimination kernel runs on residues and hands back only the field's interned
elements."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverext import build_engine, parse_algebra
from quiverext.fields import QQ, GFElement, PrimeField, scalar_to_json
from quiverext.linalg import Factor, Matrix, Subspace

from conftest import EXTERIOR3_F3
from naive import rref_rows


def is_int(x):
    return type(x) is int


def test_rational_constants_and_coercion_are_ints():
    assert is_int(QQ.zero) and QQ.zero == 0
    assert is_int(QQ.one) and QQ.one == 1
    assert is_int(QQ.of(Fraction(4, 2))) and QQ.of(Fraction(4, 2)) == 2
    assert is_int(QQ.of("-6/3")) and QQ.of("-6/3") == -2
    assert QQ.of("2/3") == Fraction(2, 3)


def test_rational_inverse():
    assert is_int(QQ.inv(-1)) and QQ.inv(-1) == -1
    assert is_int(QQ.inv(Fraction(1))) and QQ.inv(Fraction(1)) == 1
    assert QQ.inv(2) == Fraction(1, 2)
    assert is_int(QQ.inv(Fraction(1, 3))) and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_inverse():
    f5 = PrimeField(5)
    assert f5.inv(f5.of(2)) == f5.of(3)
    for v in range(1, 5):
        assert f5.inv(f5.of(v)) * f5.of(v) == f5.one
    with pytest.raises(ZeroDivisionError):
        f5.inv(f5.zero)


def test_integral_values_serialise_alike():
    assert scalar_to_json(2) == scalar_to_json(Fraction(4, 2)) == 2
    assert scalar_to_json(Fraction(1, 2) * 2) == 1
    assert scalar_to_json(Fraction(-3, 2)) == "-3/2"


# mostly small ints, with zeros and non-integral fractions mixed in
SCALARS = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(SCALARS, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(st.lists(SCALARS, min_size=2, max_size=2),
                        min_size=nrows, max_size=nrows))
    return rows, ncols, rhs


def as_fractions(rows):
    return [[Fraction(x) for x in r] for r in rows]


def assert_exact(values):
    assert all(type(x) in (int, Fraction) for x in values), values


def flat(rows):
    return [x for r in rows for x in r]


def results(rows, ncols, rhs):
    m = Matrix(QQ, rows, ncols=ncols)
    r, pivots = m.rref()
    b = Matrix(QQ, rhs, ncols=2)
    many = m.solve(b)
    single = m.solve([row[0] for row in rhs])
    space = Subspace(QQ, ncols)
    grew = [space.add(row) for row in rows]
    return {
        "rref": (r.rows, pivots),
        "nullspace": m.nullspace(),
        "solve": None if many is None else many.rows,
        "solve_single": single,
        "subspace": (grew, space.basis(), space.pivot_of_row),
    }


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_mixed_entries_match_all_fraction_entries(data):
    rows, ncols, rhs = data
    mixed = results(rows, ncols, rhs)
    fractions = results(as_fractions(rows), ncols, as_fractions(rhs))
    assert mixed == fractions
    assert_exact(flat(mixed["rref"][0]))
    assert_exact(flat(mixed["nullspace"]))
    assert_exact(flat(mixed["solve"] or []))
    assert_exact(mixed["solve_single"] or [])
    assert_exact(flat(mixed["subspace"][1]))


# -- Matrix.solve over Q against the plain elimination of tests/naive.py -------

@st.composite
def rational_systems(draw):
    """A x = B over Q, with 0-4 rows and columns and 0-3 right-hand sides;
    half of the systems are consistent by construction (B = A X0)."""
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    width = draw(st.integers(0, 3))

    def block(n, m):
        return [[QQ.of(x) for x in draw(st.lists(SCALARS, min_size=m, max_size=m))]
                for _ in range(n)]

    rows = block(nrows, ncols)
    if draw(st.booleans()):
        x0 = block(ncols, width)
        rhs = [[QQ.of(sum(a * x0[k][j] for k, a in enumerate(row))) for j in range(width)]
               for row in rows]
    else:
        rhs = block(nrows, width)
    return rows, ncols, rhs, width


def reference_solve(rows, ncols, rhs, width):
    """The first solution of A x = B from `rref_rows` of [A | B]: each pivot
    variable read off its row, every free variable zero; None when [A | B]
    has a pivot among B's columns."""
    aug, pivots = rref_rows([r + b for r, b in zip(rows, rhs)], ncols + width)
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[0] * width for _ in range(ncols)]
    for row, pc in zip(aug, pivots):
        x[pc] = row[ncols:]
    return x


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rational_systems())
def test_rational_solve_matches_plain_elimination(data):
    rows, ncols, rhs, width = data
    m = Matrix(QQ, rows, ncols=ncols)
    many = m.solve(Matrix(QQ, rhs, ncols=width))
    want = reference_solve(rows, ncols, rhs, width)
    assert (None if many is None else many.rows) == want
    # None exactly when the system is inconsistent
    consistent = (len(rref_rows(rows, ncols)[1])
                  == len(rref_rows([r + b for r, b in zip(rows, rhs)], ncols + width)[1]))
    assert (many is None) == (not consistent)
    if many is not None:
        assert many.shape == (ncols, width)
        assert_exact(flat(many.rows))
        assert m @ many == Matrix(QQ, rhs, ncols=width)
        # first-solution rule: every free variable is zero
        pivots = rref_rows(rows, ncols)[1]
        assert all(not x for j in range(ncols) if j not in pivots for x in many.rows[j])
    for j in range(width):
        single = m.solve([row[j] for row in rhs])
        col = reference_solve(rows, ncols, [[row[j]] for row in rhs], 1)
        assert single == (None if col is None else [x for (x,) in col])


# -- Factor against Matrix.solve -----------------------------------------------

FACTOR_FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5)}


@st.composite
def factored_systems(draw):
    """A x = b over Q (with Fractions), F2, F3 or F5, with 0-5 rows and
    columns; A = L R through an inner dimension that may be below both, so
    many systems are rank deficient, and half of the right-hand sides are
    consistent by construction (b = A x0)."""
    field = FACTOR_FIELDS[draw(st.sampled_from(sorted(FACTOR_FIELDS)))]
    scalars = SCALARS if field is QQ else st.integers(0, field.p - 1)
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    inner = draw(st.integers(0, 5))

    def block(n, m):
        return Matrix(field, [[field.of(x) for x in
                               draw(st.lists(scalars, min_size=m, max_size=m))]
                              for _ in range(n)], ncols=m)

    a = block(nrows, inner) @ block(inner, ncols)
    if draw(st.booleans()):
        b = a.apply(block(1, ncols).rows[0] if ncols else [])
    else:
        b = block(1, nrows).rows[0] if nrows else []
    return a, [block(1, nrows).rows[0] if nrows else [] for _ in range(2)] + [b]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(factored_systems())
def test_factor_solves_as_matrix_solve(data):
    a, rhs = data
    factor = Factor(a)
    rank = a.rank()
    for b in rhs:
        want = a.solve(b)
        got = factor.solve(b)
        assert got == want
        # None exactly when the system is inconsistent
        consistent = rank == Matrix(a.field, [r + [x] for r, x in zip(a.rows, b)],
                                    ncols=a.ncols + 1).rank()
        assert (got is None) == (not consistent)
        if got is not None:
            assert a.apply(got) == b
            if a.field is QQ:
                assert_exact(got)
            else:
                assert_interned(a.field, got)


# -- the F_p kernel against the plain elimination of tests/naive.py -----------

PRIME_FIELDS = {p: PrimeField(p) for p in (2, 3, 5, 7)}


@st.composite
def prime_field_matrices(draw):
    field = PRIME_FIELDS[draw(st.sampled_from(sorted(PRIME_FIELDS)))]
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    residues = st.integers(0, field.p - 1)

    def rows_of(n, m):
        return [[field.of(x) for x in draw(st.lists(residues, min_size=m, max_size=m))]
                for _ in range(n)]

    return field, rows_of(nrows, ncols), ncols, rows_of(nrows, 2), rows_of(1, ncols)[0]


def reference(field, rows, ncols, rhs, vec):
    """What every kernel result must be, from `rref_rows` and plain element
    arithmetic."""
    z = field.zero
    red, pivots = rref_rows(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    nullspace = []
    for j in free:
        v = [z] * ncols
        v[j] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[j]
        nullspace.append(v)

    def solve(b_rows, width):
        aug, aug_pivots = rref_rows([r + b for r, b in zip(rows, b_rows)], ncols + width)
        if any(pc >= ncols for pc in aug_pivots):
            return None
        x = [[z] * width for _ in range(ncols)]
        for row, pc in zip(aug, aug_pivots):
            x[pc] = row[ncols:]
        return x

    residue = list(vec)
    for row, pc in zip(red, pivots):
        f = residue[pc]
        residue = [a - f * b for a, b in zip(residue, row)]
    grew = [len(rref_rows(rows[:i + 1], ncols)[1]) > len(rref_rows(rows[:i], ncols)[1])
            for i in range(len(rows))]
    single = solve([r[:1] for r in rhs], 1)
    return {
        "rref": (red + [[z] * ncols for _ in range(len(rows) - len(red))], pivots),
        "nullspace": nullspace,
        "solve": solve(rhs, 2),
        "solve_single": None if single is None else [r[0] for r in single],
        "subspace": (grew, red, pivots, residue),
    }


def assert_interned(field, values):
    for x in values:
        assert x is field.elements[x.v], x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(prime_field_matrices())
def test_prime_field_kernel_matches_plain_elimination(data):
    field, rows, ncols, rhs, vec = data
    m = Matrix(field, rows, ncols=ncols)
    r, pivots = m.rref()
    many = m.solve(Matrix(field, rhs, ncols=2))
    single = m.solve([row[0] for row in rhs])
    space = Subspace(field, ncols)
    grew = [space.add(row) for row in rows]
    residue = space.reduce(vec)
    got = {
        "rref": (r.rows, pivots),
        "nullspace": m.nullspace(),
        "solve": None if many is None else many.rows,
        "solve_single": single,
        "subspace": (grew, space.basis(), space.pivot_of_row, residue),
    }
    assert got == reference(field, rows, ncols, rhs, vec)
    assert space.contains(vec) == (not any(residue))
    for rows_out in (r.rows, got["nullspace"], many.rows if many else [],
                     [single or []], space.basis(), [residue]):
        assert_interned(field, flat(rows_out))


def test_engine_build_eliminates_without_element_arithmetic(monkeypatch):
    calls = {"in_rref": 0, "arithmetic": 0}
    rref = Matrix.rref

    def traced_rref(self):
        calls["in_rref"] += 1
        try:
            return rref(self)
        finally:
            calls["in_rref"] -= 1

    def counted(op):
        def wrapper(self, other):
            if calls["in_rref"]:
                calls["arithmetic"] += 1
            return op(self, other)
        return wrapper

    pres = parse_algebra(EXTERIOR3_F3)
    monkeypatch.setattr(Matrix, "rref", traced_rref)
    monkeypatch.setattr(GFElement, "__mul__", counted(GFElement.__mul__))
    monkeypatch.setattr(GFElement, "__sub__", counted(GFElement.__sub__))
    eng = build_engine(pres)
    assert eng.dim == 8
    assert calls == {"in_rref": 0, "arithmetic": 0}
