"""Exact scalar arithmetic: the rationals and prime fields F_p.

All linear algebra in this package runs over one of these two kinds of
field, and every scalar is a plain Python number.  A rational is an int
when it is an integer and a fractions.Fraction only when it is not: the
two mix exactly under + - * and compare and hash alike, so an integral
Fraction left by arithmetic (1/2 * 2) is harmless.  An element of F_p is
its residue, an int in [0, p), as in the word-size representation of
Dumas, Giorgi and Pernet's FFLAS/FFPACK (ACM TOMS 2008).  Python's ints do
not wrap, so every place that adds or multiplies scalars reduces its
result mod p itself, once per accumulated value: it reads
p = field.characteristic once and keeps x % p if p else x, and Q, whose
characteristic is 0, runs the same loops unreduced.  Since int / int is a
float, no code divides scalars: it multiplies by `field.inv(x)`, an int
for x = +-1 over Q, which raises ZeroDivisionError when x is zero.
"""

from fractions import Fraction


# Above this modulus trial division takes too long, and a product of two
# residues no longer fits a machine word.
MAX_MODULUS = 2 ** 31 - 1
_TOO_LARGE = "modulus %s is too large (at most %d)"


def is_prime(n):
    """Primality by trial division, for n up to MAX_MODULUS; a larger n
    raises ValueError."""
    if n > MAX_MODULUS:
        raise ValueError(_TOO_LARGE % (n, MAX_MODULUS))
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field Q of exact rationals."""

    name = "Q"

    def __init__(self):
        # instance attributes: the interpreter reads them faster than class
        # attributes, and every matrix product reads `characteristic`
        self.characteristic = 0
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


class PrimeField:
    """The field F_p for a prime p, its elements the residues in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1

    def of(self, x):
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, int):
            return x % self.p
        raise TypeError("cannot coerce %r into F_%d" % (x, self.p))

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(x, self.p - 2, self.p)

    def neg(self, x):
        return -x % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def prime_field(text):
    """F_p for the modulus p written in `text`, or None when `text` is not
    a string of ASCII digits.  The number of digits is tested before int()
    reads them, so a long modulus is refused at once; a composite or too
    large p raises ValueError from PrimeField, which tests it once."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_MODULUS)):
        raise ValueError(_TOO_LARGE % (digits, MAX_MODULUS))
    return PrimeField(int(digits))


def field_from_name(name):
    """Parse a field descriptor: "Q", or "F<p>" / "F <p>" for a prime p."""
    text = name.strip()
    if text == "Q":
        return QQ
    if text.startswith("F"):
        field = prime_field(text[1:].strip())
        if field is not None:
            return field
    raise ValueError("unknown field %r (expected Q or F<prime>)" % name)


def scalar_to_json(x):
    """Serialize a field element: int when integral, "a/b" otherwise."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return "%d/%d" % (x.numerator, x.denominator)
    return int(x)
