"""The scalar contract: over Q a value is an int when it is an integer and a
Fraction only when it is not; `inv` is the one way to divide.  Over F_p a
value is its residue, an int in [0, p), everywhere: in matrices, normal
forms, resolutions, Ext classes and corner presentations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverext import build_engine, parse_algebra
from quiverext.algebra import AlgebraElement
from quiverext.comparison import TransportCorrespondence, verify_comparison
from quiverext.corner import IdempotentPair, corner_algebra
from quiverext.ext import ExtClass, ExtTable, pull_back, yoneda_product
from quiverext.fields import QQ, PrimeField, scalar_to_json
from quiverext.linalg import Factor, Matrix, Subspace
from quiverext.quiver import wadd

from conftest import (EXTERIOR3_F3, EXTERIOR3_UNGRADED, FIXTURE_NAMES, POLY_CORNER,
                      fixture_text)
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
        assert f5.inv(f5.of(v)) * f5.of(v) % 5 == f5.one
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
                assert_residues(a.field, got)


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
    """What every kernel result must be, from `rref_rows` and plain residue
    arithmetic."""
    p = field.p
    z = 0
    red, pivots = rref_rows(rows, ncols, p)
    free = [j for j in range(ncols) if j not in pivots]
    nullspace = []
    for j in free:
        v = [z] * ncols
        v[j] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[j] % p
        nullspace.append(v)

    def solve(b_rows, width):
        aug, aug_pivots = rref_rows([r + b for r, b in zip(rows, b_rows)], ncols + width, p)
        if any(pc >= ncols for pc in aug_pivots):
            return None
        x = [[z] * width for _ in range(ncols)]
        for row, pc in zip(aug, aug_pivots):
            x[pc] = row[ncols:]
        return x

    residue = list(vec)
    for row, pc in zip(red, pivots):
        f = residue[pc]
        residue = [(a - f * b) % p for a, b in zip(residue, row)]
    grew = [len(rref_rows(rows[:i + 1], ncols, p)[1]) > len(rref_rows(rows[:i], ncols, p)[1])
            for i in range(len(rows))]
    single = solve([r[:1] for r in rhs], 1)
    return {
        "rref": (red + [[z] * ncols for _ in range(len(rows) - len(red))], pivots),
        "nullspace": nullspace,
        "solve": solve(rhs, 2),
        "solve_single": None if single is None else [r[0] for r in single],
        "subspace": (grew, red, pivots, residue),
    }


def assert_residues(field, values):
    """Every value is a plain int in [0, p)."""
    bad = [x for x in values if type(x) is not int or not 0 <= x < field.p]
    assert not bad, bad[:5]


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
        assert_residues(field, flat(rows_out))


# -- products and sums over F_p against plain % p arithmetic -------------------

@st.composite
def prime_field_products(draw):
    """A (m x k), B (k x n), C (m x n), a vector of length k and a scalar
    over F2, F3, F5 or F7; their products and sums leave [0, p) unless
    they are reduced."""
    p = draw(st.sampled_from(sorted(PRIME_FIELDS)))
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    residues = st.integers(0, p - 1)

    def rows_of(r, c):
        return [draw(st.lists(residues, min_size=c, max_size=c)) for _ in range(r)]

    return (PRIME_FIELDS[p], rows_of(m, k), rows_of(k, n), rows_of(m, n),
            rows_of(1, k)[0], draw(residues), k, n)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(prime_field_products())
def test_prime_field_products_and_sums_match_plain_arithmetic(data):
    field, a, b, c, vec, s, k, n = data
    p = field.p
    ma, mb, mc = Matrix(field, a, ncols=k), Matrix(field, b, ncols=n), Matrix(field, c, ncols=n)
    product = ma @ mb
    want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)]
            for i in range(len(a))]
    assert product.rows == want
    assert ma.apply(vec) == [sum(x * y for x, y in zip(row, vec)) % p for row in a]
    total = product + mc
    assert total.rows == [[(x + y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(want, c)]
    assert mc.scaled(s).rows == [[s * x % p for x in r] for r in c]
    for result in (product, total, mc.scaled(s)):
        assert result.shape == (len(a), n)
        assert_residues(field, flat(result.rows))
    assert_residues(field, ma.apply(vec))


# -- every scalar a pipeline makes over F_p is a residue -----------------------

def record_scalars(monkeypatch):
    """Spy on the holders of scalars for the rest of the test: returns a
    function listing every scalar now in a Matrix, ExtClass or
    AlgebraElement made since, and in every vector handed to
    `Subspace.add` or `Factor.solve`.  A missed reduction mod p reaches one
    of these even where a later step would reduce it again."""
    made, vectors = [], []
    owning = Matrix._owning

    def _owning(field, rows, ncols):
        made.append(rows)
        return owning(field, rows, ncols)

    monkeypatch.setattr(Matrix, "_owning", staticmethod(_owning))
    for cls, rows_of in ((Matrix, lambda m: m.rows),
                         (ExtClass, lambda c: [c.coeffs.values()]),
                         (AlgebraElement, lambda e: [e.terms.values()])):
        def spy_init(self, *args, _init=cls.__init__, _rows_of=rows_of, **kwargs):
            _init(self, *args, **kwargs)
            made.append(_rows_of(self))
        monkeypatch.setattr(cls, "__init__", spy_init)
    for cls, name in ((Subspace, "add"), (Factor, "solve")):
        def spy_vector(self, vec, _method=getattr(cls, name)):
            vectors.append(list(vec))
            return _method(self, vec)
        monkeypatch.setattr(cls, name, spy_vector)
    return lambda: [x for rows in made for r in rows for x in r] + \
        [x for v in vectors for x in v]


def pipeline_scalars(text, p):
    """Run one algebra over F_p: engine, templates, every simple's
    resolution to step 6 (kernels and periodicity witnesses included), Ext
    products through degree 4 of classes with coefficient -1 on every
    summand of a slot, and the corner presentation, comparison and
    transport of those classes for the algebra's idempotent (all vertices
    when it names none).  Returns the scalars it holds outside
    the spied types: relations, Groebner tails, normal forms, algebra
    products scaled by -1, and the pull-backs and node images of the
    stored lifts."""
    pres = parse_algebra(text).with_field(PrimeField(p))
    eng = build_engine(pres)
    out = [c for rel in pres.relations for c, _ in rel]
    out += [c for tail in eng._tails.values() for c in tail.values()]
    out += [c for nf in eng._normal_forms.values() for c in nf.values()]
    negated = [eng.element({q: p - 1}) for q in eng.basis]
    out += [c for x in negated for y in negated
            for c in (x * y - y).scaled(p - 1).terms.values()]
    for v in eng.quiver.vertices:
        eng.projective_template(v)
    table = ExtTable(eng, 4)
    for res in table.resolutions.values():
        for n in range(7):
            res.differential(n)
        for cover in res.covers[:7]:
            cover.kernel_inclusion.blocks
    minus = {}
    for n in range(1, 4):
        slots = {}
        for y in table.basis_classes(n):
            slots.setdefault(y.key(), {}).update(dict.fromkeys(y.coeffs, p - 1))
        minus[n] = table.basis_classes(n) + [ExtClass(*key, c) for key, c in slots.items()]
    for m in range(1, 4):
        for n in range(1, 5 - m):
            for x in minus[m]:
                for y in minus[n]:
                    yoneda_product(table, x, y)
    # each product's pull-backs on their own, before the product sums them
    for (u, n, idx), lifts in table.lifts.items():
        v, g = table.resolutions[u].summands(n)[idx]
        for k, phi in enumerate(lifts):
            for x in minus.get(k, ()):
                if x.source == v:
                    out += pull_back(x, phi, table.resolutions[u].term(n + k),
                                     table.resolutions[v].term(k),
                                     wadd(x.target_degree, g)).values()
        out += [c for phi in lifts for vecs in phi._memo if vecs
                for x in vecs if x is not None for c in x]
    pair = IdempotentPair(eng, pres.f_vertices or eng.quiver.vertices)
    corner = corner_algebra(eng, pair)
    verify_comparison(eng, pair, bound=6, window=3, corner=corner)
    transport = TransportCorrespondence(corner, table, ExtTable(corner.corner_engine, 3), 3)
    for n in range(1, 4):
        for x in minus[n]:
            if {x.source, x.target_vertex} <= set(pair.f_vertices):
                transport.transport_class(x)
    return out


# the ungraded exterior algebra has Ext slots of multiplicity above one, so
# pull-backs sum over several generators
PIPELINES = {"EXTERIOR3_F3": EXTERIOR3_F3, "EXTERIOR3_UNGRADED": EXTERIOR3_UNGRADED % "Q",
             "POLY_CORNER": POLY_CORNER}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", FIXTURE_NAMES + list(PIPELINES))
def test_pipeline_scalars_are_residues(monkeypatch, name, p):
    text = PIPELINES.get(name) or fixture_text(name)
    spied = record_scalars(monkeypatch)
    scalars = pipeline_scalars(text, p) + spied()
    assert scalars
    assert_residues(PrimeField(p), scalars)


def test_repeated_relation_term_sums_to_a_residue():
    # b*a named twice: 2 + 2 = 4 = 1 in F3, kept as the residue 1
    pres = parse_algebra("field F 3\nvertices u v w\narrow a u v\narrow b v w\n"
                         "arrow c u v\narrow d v w\ntruncate 3\n"
                         "rel 2*b*a + 2*b*a + d*c\n")
    assert [[(c, p.arrows) for c, p in rel] for rel in pres.relations] == \
        [[(1, ("b", "a")), (1, ("d", "c"))]]
