"""Exact scalar arithmetic: the rationals and prime fields F_p.

All linear algebra in this package runs over one of these two kinds of
field, and matrix code is field-agnostic.  A rational is a Python int when
it is an integer and a fractions.Fraction only when it is not: the two mix
exactly under + - * and compare and hash alike, so an integral Fraction
left by arithmetic (1/2 * 2) is harmless.  Prime-field elements are small
wrapper objects supporting the same operators.  Since int / int is a
float, no code divides scalars: it multiplies by `field.inv(x)`, an int
for x = +-1 over Q, which raises ZeroDivisionError when x is zero.

A prime field interns its elements: `field.elements[v]` is the one
element of residue v in [0, p) that the field hands out, made the first
time it is asked for, and `zero` and `one` are `elements[0]` and
`elements[1]`.  Elimination (linalg.py) runs on the plain residues and
reads its results back through this table, so it makes no element per
entry.  Arithmetic between elements still makes new ones; they compare
and hash by residue, so the two kinds mix freely.
"""

from fractions import Fraction


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GFElement:
    """An element of F_p, stored as an int in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return "%d" % self.v


class RationalField:
    """The field Q of exact rationals."""

    name = "Q"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def of(self, x):
        q = Fraction(x)
        return q.numerator if q.denominator == 1 else q

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 1 or x == -1:
            return int(x)
        return self.of(1 / Fraction(x))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class _Residues(dict):
    """The interned elements of F_p by residue, each made on first use."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, v):
        x = self[v] = GFElement(self.p, v)
        return x


class PrimeField:
    """The field F_p for a prime p."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p
        self.elements = _Residues(p)
        self.zero = self.elements[0]
        self.one = self.elements[1]

    def of(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, Fraction):
            return self.elements[x.numerator * self.inv(self.of(x.denominator)).v % self.p]
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, int):
            return self.elements[x % self.p]
        raise TypeError("cannot coerce %r into F_%d" % (x, self.p))

    def inv(self, x):
        if not x.v:
            raise ZeroDivisionError("inverse of zero in F_p")
        return self.elements[pow(x.v, self.p - 2, self.p)]

    def neg(self, x):
        return self.elements[-x.v % self.p]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def field_from_name(name):
    """Parse a field descriptor: "Q", or "F<p>" / "F <p>" for a prime p."""
    text = name.strip()
    if text == "Q":
        return QQ
    if text.startswith("F"):
        rest = text[1:].strip()
        if rest.isdigit():
            return PrimeField(int(rest))
    raise ValueError("unknown field %r (expected Q or F<prime>)" % name)


def scalar_to_json(x):
    """Serialize a field element: int when integral, "a/b" otherwise."""
    if isinstance(x, GFElement):
        return x.v
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator)
    return int(x)
