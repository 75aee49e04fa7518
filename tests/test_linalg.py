import random
from fractions import Fraction

import pytest

from quiverext.fields import QQ, PrimeField
from quiverext.linalg import Matrix, Subspace


def test_rref_known():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    r, pivots = m.rref()
    assert pivots == [0]
    assert r.rows[0] == [Fraction(1), Fraction(2)]
    assert r.rows[1] == [Fraction(0), Fraction(0)]


def test_rank_and_nullspace():
    m = Matrix(QQ, [[Fraction(1), Fraction(1), Fraction(0)],
                    [Fraction(0), Fraction(1), Fraction(1)]])
    assert m.rank() == 2
    ns = m.nullspace()
    assert len(ns) == 1
    assert m.apply(ns[0]) == [Fraction(0), Fraction(0)]


def test_zero_shapes():
    z = Matrix(QQ, [], ncols=3)
    assert z.rank() == 0
    assert len(z.nullspace()) == 3
    m = Matrix.zeros(QQ, 3, 0)
    assert m.rank() == 0
    assert m.nullspace() == []
    assert m.solve([QQ.zero] * 3) == []
    assert m.solve([QQ.one, QQ.zero, QQ.zero]) is None


def test_solve_first_solution_rule():
    m = Matrix(QQ, [[Fraction(1), Fraction(1)]])
    x = m.solve([Fraction(5)])
    # free variable set to zero
    assert x == [Fraction(5), Fraction(0)]


def test_solve_inconsistent():
    m = Matrix(QQ, [[Fraction(1)], [Fraction(1)]])
    assert m.solve([Fraction(1), Fraction(2)]) is None


def test_inverse():
    m = Matrix(QQ, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(QQ, 2)


def test_random_rank_nullity_over_q_and_f5():
    rng = random.Random(7)
    for field in (QQ, PrimeField(5)):
        for _ in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = Matrix(field, [[field.of(rng.randint(-3, 3)) for _ in range(cols)]
                               for _ in range(rows)])
            ns = m.nullspace()
            assert m.rank() + len(ns) == cols
            for v in ns:
                assert all(not x for x in m.apply(v))
            rhs = m.apply([field.of(rng.randint(-2, 2)) for _ in range(cols)])
            sol = m.solve(rhs)
            assert sol is not None
            assert m.apply(sol) == rhs


def test_subspace_membership():
    s = Subspace(QQ, 3)
    assert s.add([Fraction(1), Fraction(1), Fraction(0)])
    assert s.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not s.add([Fraction(1), Fraction(2), Fraction(1)])
    assert s.dim == 2
    assert s.contains([Fraction(2), Fraction(3), Fraction(1)])
    assert not s.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_f5_arithmetic():
    f5 = PrimeField(5)
    a = f5.of(3)
    assert (f5.zero, f5.one, a) == (0, 1, 3)
    assert f5.of(a + a) == 1
    assert f5.of(a * a) == 4
    assert a * f5.inv(f5.of(2)) * f5.of(2) % 5 == a
    assert f5.neg(a) == 2 and f5.neg(f5.zero) == 0
    assert f5.of(Fraction(1, 2)) == f5.of(3) == f5.of(-2) == f5.of("8")


def test_apply_shapes_and_zero_vectors():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert m.apply([QQ.zero, QQ.zero]) == [Fraction(0), Fraction(0)]
    assert Matrix.zeros(QQ, 3, 0).apply([]) == [Fraction(0)] * 3
    assert Matrix(QQ, [], ncols=3).apply([QQ.one, QQ.zero, QQ.one]) == []
    with pytest.raises(ValueError):
        m.apply([QQ.one])


def test_apply_sparse_vectors_match_dense_product():
    rng = random.Random(7)
    for field in (QQ, PrimeField(5)):
        for _ in range(30):
            rows, cols = rng.randrange(0, 6), rng.randrange(0, 9)
            m = Matrix(field, [[field.of(rng.choice([0, 0, 0, rng.randint(-3, 3)]))
                                for _ in range(cols)] for _ in range(rows)], ncols=cols)
            vec = [field.zero] * cols
            for j in rng.sample(range(cols), min(cols, rng.randrange(0, 3))):
                vec[j] = field.of(rng.randint(1, 4))
            p = field.characteristic
            want = [sum(a * x for a, x in zip(r, vec)) for r in m.rows]
            assert m.apply(vec) == ([x % p for x in want] if p else want)
