"""The scalar contract: over Q a value is an int when it is an integer and a
Fraction only when it is not; `inv` is the one way to divide."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverext.fields import QQ, PrimeField, scalar_to_json
from quiverext.linalg import Matrix, Subspace


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
