"""Exact dense linear algebra over Q or F_p.

Reduced row echelon form is the single primitive; rank, kernels and solving
are derived from it, with exact field arithmetic.  Over Q an entry is an
int or a Fraction (see fields.py), so a pivot is inverted by `field.inv`,
never by `/`.  Elimination is O(n^3) in the matrix size, so callers keep
matrices small: graded modules are stored as one block per (vertex, degree)
slice, so every rref, nullspace and solve runs on one block, with all
right-hand sides of a block in one solve.  `apply` reads only the nonzero
entries of its vector.
Zero-dimensional shapes (0 x n, m x 0) are legal throughout.
"""


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

    def copy(self):
        return Matrix(self.field, self.rows, ncols=self.ncols)

    def col(self, j):
        return [r[j] for r in self.rows]

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch %s @ %s" % (self.shape, other.shape))
            z = self.field.zero
            out = Matrix.zeros(self.field, self.nrows, other.ncols)
            for i in range(self.nrows):
                ri = self.rows[i]
                oi = out.rows[i]
                for k in range(self.ncols):
                    a = ri[k]
                    if not a:
                        continue
                    rk = other.rows[k]
                    for j in range(other.ncols):
                        b = rk[j]
                        if b:
                            oi[j] = oi[j] + a * b
            return out
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        z = self.field.zero
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for ri in self.rows:
            acc = None
            for j, x in support:
                a = ri[j]
                if a:
                    acc = a * x if acc is None else acc + a * x
            out.append(z if acc is None else acc)
        return out

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(self.field,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def scaled(self, c):
        return Matrix(self.field, [[c * a for a in r] for r in self.rows], ncols=self.ncols)

    def transpose(self):
        out = Matrix.zeros(self.field, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.rows[j][i] = self.rows[i][j]
        return out

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(self.field,
                      [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))

    def __repr__(self):
        return "Matrix(%d x %d)" % self.shape

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        m = self.copy()
        pivots = []
        pr = 0
        for pc in range(m.ncols):
            pivot_row = None
            for i in range(pr, m.nrows):
                if m.rows[i][pc]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m.rows[pr], m.rows[pivot_row] = m.rows[pivot_row], m.rows[pr]
            inv = m.field.inv(m.rows[pr][pc])
            m.rows[pr] = [inv * a for a in m.rows[pr]]
            for i in range(m.nrows):
                if i != pr and m.rows[i][pc]:
                    f = m.rows[i][pc]
                    m.rows[i] = [a - f * b for a, b in zip(m.rows[i], m.rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == m.nrows:
                break
        return m, pivots

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
        for j in free:
            v = [z] * self.ncols
            v[j] = self.field.one
            for i, pc in enumerate(pivots):
                v[pc] = -r.rows[i][j]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """Solve self @ x = rhs for one vector or many (Matrix rhs).

        Free variables are set to zero (first-solution pivot rule), so the
        result is deterministic.  Returns None when inconsistent.
        """
        single = not isinstance(rhs, Matrix)
        if single:
            b = Matrix.from_columns(self.field, [list(rhs)], self.nrows)
        else:
            b = rhs
        if b.nrows != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = self.hstack(b)
        r, pivots = aug.rref()
        for pc in pivots:
            if pc >= self.ncols:
                return None
        z = self.field.zero
        out = Matrix.zeros(self.field, self.ncols, b.ncols)
        for i, pc in enumerate(pivots):
            for j in range(b.ncols):
                out.rows[pc][j] = r.rows[i][self.ncols + j]
        if single:
            return out.col(0)
        return out

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


class Subspace:
    """An incrementally built subspace of K^n, kept in row echelon form."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.echelon = []       # reduced rows
        self.pivot_of_row = []  # pivot column per echelon row

    def reduce(self, vec):
        """Residue of vec modulo the subspace (a fresh list)."""
        v = list(vec)
        for row, p in zip(self.echelon, self.pivot_of_row):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return all(not a for a in self.reduce(vec))

    def add(self, vec):
        """Add vec to the span.  Returns True when the dimension grew."""
        v = self.reduce(vec)
        for p in range(self.n):
            if v[p]:
                inv = self.field.inv(v[p])
                v = [inv * a for a in v]
                # back-substitute into existing rows to stay reduced
                for i, row in enumerate(self.echelon):
                    if row[p]:
                        f = row[p]
                        self.echelon[i] = [a - f * b for a, b in zip(row, v)]
                self.echelon.append(v)
                self.pivot_of_row.append(p)
                order = sorted(range(len(self.echelon)), key=lambda i: self.pivot_of_row[i])
                self.echelon = [self.echelon[i] for i in order]
                self.pivot_of_row = [self.pivot_of_row[i] for i in order]
                return True
        return False

    @property
    def dim(self):
        return len(self.echelon)

    def basis(self):
        return [list(r) for r in self.echelon]
