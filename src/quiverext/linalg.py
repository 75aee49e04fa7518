"""Exact dense linear algebra over Q or F_p.

Entries are the field's plain scalars (see fields.py): ints and Fractions
over Q, residues in [0, p) over F_p.  Reduced row echelon form is the
single primitive; rank, kernels and solving are derived from it, with
exact field arithmetic.  `rref` and `solve` share one elimination kernel
per field (`_eliminate`): `solve` puts the augmented rows [A | B] in RREF,
with no intermediate matrix, and reads the solution off them.  Over F_p
the kernel reduces mod p after each update and inverts a pivot by
pow(x, p - 2, p), in the word-size style of Dumas, Giorgi and Pernet's
FFLAS/FFPACK (ACM TOMS 2008) but with no floating point; over Q it inverts
a pivot by `field.inv`, never by `/`.  Products and sums (`@`, `apply`,
`+`, `scaled`) accumulate each entry and reduce it mod p once.

Each step scales the pivot row where it is nonzero and updates the other
rows only where the pivot row is nonzero: over F_p by a loop over the pivot
row's nonzero columns past the pivot, then setting the pivot column to 0;
over Q by one comprehension per row that skips the multiply at a zero.

Elimination is O(n^3) in the matrix size, so callers keep matrices small:
graded modules are stored as one block per (vertex, degree) slice, so every
rref, nullspace and solve runs on one block, with all right-hand sides of a
block in one solve.  `apply` reads only the nonzero entries of its vector.
Zero-dimensional shapes (0 x n, m x 0) are legal throughout.
"""

from bisect import bisect


def _rref_mod(rows, ncols, p):
    """Put rows of residues mod p in RREF in place; return the pivot columns."""
    nrows = len(rows)
    pivots = []
    for pc in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if rows[i][pc]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        x = prow[pc]
        if x != 1:
            inv = pow(x, p - 2, p)
            for j in range(pc, ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv % p
        cols = [j for j in range(pc + 1, ncols) if prow[j]]
        vals = [prow[j] for j in cols]
        for row in rows:
            f = row[pc]
            if f and row is not prow:
                for j, b in zip(cols, vals):
                    row[j] = (row[j] - f * b) % p
                row[pc] = 0
        pivots.append(pc)
        if r + 1 == nrows:
            break
    return pivots


def _rref_exact(rows, ncols, inv):
    """Put rows of rationals in RREF in place; return the pivot columns."""
    nrows = len(rows)
    pivots = []
    for pc in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if rows[i][pc]:
                break
        else:
            continue
        prow = rows[i]
        x = prow[pc]
        if x != 1:
            c = inv(x)
            prow = [c * a if a else a for a in prow]
        rows[i] = rows[r]
        rows[r] = prow
        for k, row in enumerate(rows):
            f = row[pc]
            if f and k != r:
                rows[k] = [a - f * b if b else a for a, b in zip(row, prow)]
        pivots.append(pc)
        if r + 1 == nrows:
            break
    return pivots


def _eliminate(field, rows, ncols):
    """Put rows in RREF in place, with the field's kernel; return the pivot
    columns."""
    p = field.characteristic
    if p:
        return _rref_mod(rows, ncols, p)
    return _rref_exact(rows, ncols, field.inv)


def _minus_multiple(row, f, prow, p):
    """row - f * prow, computed only where prow is nonzero."""
    if p:
        return [(a - f * b) % p if b else a for a, b in zip(row, prow)]
    return [a - f * b if b else a for a, b in zip(row, prow)]


class Matrix:
    """A dense matrix with entries in a fixed exact field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @staticmethod
    def _owning(field, rows, ncols):
        """A matrix on fresh rows of length ncols, taken without a copy."""
        m = Matrix.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @staticmethod
    def zeros(field, m, n):
        z = field.zero
        return Matrix._owning(field, [[z] * n for _ in range(m)], n)

    @staticmethod
    def identity(field, n):
        m = Matrix.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @staticmethod
    def from_columns(field, cols, nrows):
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length mismatch")
        rows = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(nrows)]
        return Matrix._owning(field, rows, len(cols))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j):
        return [r[j] for r in self.rows]

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch %s @ %s" % (self.shape, other.shape))
            p = self.field.characteristic
            rows = [[0] * other.ncols for _ in range(self.nrows)]
            for ri, oi in zip(self.rows, rows):
                for k in range(self.ncols):
                    a = ri[k]
                    if not a:
                        continue
                    rk = other.rows[k]
                    for j in range(other.ncols):
                        b = rk[j]
                        if b:
                            oi[j] += a * b
            if p:
                rows = [[x % p for x in r] for r in rows]
            return Matrix._owning(self.field, rows, other.ncols)
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.field.characteristic
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for ri in self.rows:
            acc = 0
            for j, x in support:
                a = ri[j]
                if a:
                    acc += a * x
            out.append(acc)
        return [x % p for x in out] if p else out

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        p = self.field.characteristic
        pairs = zip(self.rows, other.rows)
        rows = ([[(a + b) % p for a, b in zip(r1, r2)] for r1, r2 in pairs] if p else
                [[a + b for a, b in zip(r1, r2)] for r1, r2 in pairs])
        return Matrix._owning(self.field, rows, self.ncols)

    def scaled(self, c):
        p = self.field.characteristic
        rows = ([[c * a % p for a in r] for r in self.rows] if p else
                [[c * a for a in r] for r in self.rows])
        return Matrix._owning(self.field, rows, self.ncols)

    def transpose(self):
        out = Matrix.zeros(self.field, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.rows[j][i] = self.rows[i][j]
        return out

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self):
        return "Matrix(%d x %d)" % self.shape

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        field = self.field
        rows = [list(r) for r in self.rows]
        pivots = _eliminate(field, rows, self.ncols)
        rank = len(pivots)
        out = rows[:rank] + [[field.zero] * self.ncols for _ in range(self.nrows - rank)]
        return Matrix._owning(field, out, self.ncols), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of length-ncols vectors.

        The basis vector for free column j has a 1 in position j; order
        follows increasing free-column index, so the result is canonical.
        """
        r, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        z = self.field.zero
        neg = self.field.neg
        for j in free:
            v = [z] * self.ncols
            v[j] = self.field.one
            for i, pc in enumerate(pivots):
                v[pc] = neg(r.rows[i][j])
            basis.append(v)
        return basis

    def solve(self, rhs):
        """Solve self @ x = rhs for one vector or many (Matrix rhs).

        Free variables are set to zero (first-solution pivot rule), so the
        result is deterministic.  Returns None when inconsistent.
        """
        field = self.field
        single = not isinstance(rhs, Matrix)
        b = [[x] for x in rhs] if single else rhs.rows
        width = 1 if single else rhs.ncols
        if len(b) != self.nrows:
            raise ValueError("rhs length mismatch")
        n = self.ncols
        rows = [r + s for r, s in zip(self.rows, b)]
        pivots = _eliminate(field, rows, n + width)
        if pivots and pivots[-1] >= n:
            return None
        out = [[field.zero] * width for _ in range(n)]
        for i, pc in enumerate(pivots):
            out[pc] = rows[i][n:]
        if single:
            return [r[0] for r in out]
        return Matrix._owning(field, out, width)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        inv = self.solve(Matrix.identity(self.field, self.nrows))
        if inv is None:
            raise ValueError("singular matrix")
        return inv

    def to_json(self):
        from .fields import scalar_to_json
        return [[scalar_to_json(a) for a in r] for r in self.rows]


class Factor:
    """A matrix A (m x n) eliminated once, to solve A x = b for many b.

    [A | I] is put in RREF, [E | T], so T is invertible with
    T A = E.  For any b, the first r = rank A entries of T b are the
    solution `Matrix.solve` returns (free variables zero) at the pivot
    columns of E, and the other m - r entries are all zero exactly when
    A x = b is consistent.  T is kept as its rows.
    """

    __slots__ = ("field", "ncols", "pivots", "transform")

    def __init__(self, matrix):
        field = self.field = matrix.field
        n = self.ncols = matrix.ncols
        m = matrix.nrows
        rows = []
        for i, r in enumerate(matrix.rows):
            row = r + [0] * m
            row[n + i] = 1
            rows.append(row)
        self.pivots = [pc for pc in _eliminate(field, rows, n + m) if pc < n]
        self.transform = [row[n:] for row in rows]

    def solve(self, vec):
        """The first solution of A x = vec (a plain list), or None when
        there is none."""
        field = self.field
        p = field.characteristic
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = [field.zero] * self.ncols
        rank = len(self.pivots)
        for i, row in enumerate(self.transform):
            acc = 0
            for j, x in support:
                t = row[j]
                if t:
                    acc += t * x
            if p:
                acc %= p
            if acc:
                if i >= rank:
                    return None
                out[self.pivots[i]] = acc
        return out


class Subspace:
    """An incrementally built subspace of K^n, kept in reduced row echelon
    form: `echelon` holds its rows in increasing order of their pivot
    columns `pivot_of_row`."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.echelon = []       # reduced rows
        self.pivot_of_row = []  # pivot column per echelon row

    def _reduce(self, v):
        """Residue of the row v modulo the subspace."""
        p = self.field.characteristic
        for row, pc in zip(self.echelon, self.pivot_of_row):
            f = v[pc]
            if f:
                v = _minus_multiple(v, f, row, p)
        return v

    def reduce(self, vec):
        """Residue of vec modulo the subspace (a fresh list)."""
        return self._reduce(list(vec))

    def contains(self, vec):
        return not any(self._reduce(vec))

    def add(self, vec):
        """Add vec to the span.  Returns True when the dimension grew."""
        field = self.field
        p = field.characteristic
        v = self._reduce(list(vec))
        for pc, x in enumerate(v):
            if x:
                break
        else:
            return False
        if x != 1:
            c = field.inv(x)
            v = [a * c % p for a in v] if p else [c * a if a else a for a in v]
        # back-substitute into existing rows to stay reduced
        for i, row in enumerate(self.echelon):
            f = row[pc]
            if f:
                self.echelon[i] = _minus_multiple(row, f, v, p)
        i = bisect(self.pivot_of_row, pc)
        self.echelon.insert(i, v)
        self.pivot_of_row.insert(i, pc)
        return True

    @property
    def dim(self):
        return len(self.echelon)

    def basis(self):
        return [list(r) for r in self.echelon]
