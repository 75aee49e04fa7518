import functools
from pathlib import Path

import pytest

from quiverext import build_engine, parse_algebra, parse_algebra_file
from quiverext.resolution import MinimalResolution

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = ["e24", "e41", "a2", "pos", "nak", "tri"]

# small in-test algebras used across the suite
KB2 = """
field Q
group Z 1
vertices v
arrow b v v 1
truncate 3
rel b*b
"""

SEMISIMPLE2 = """
field Q
group Z 1
vertices u v
truncate 2
"""

# two square-zero commuting loops, graded over Z^2; syzygies grow forever
EXTERIOR2 = """
field Q
group Z 2
vertices v
arrow x v v 1 0
arrow y v v 0 1
truncate 3
rel x*x
rel y*y
rel x*y + -1*y*x
"""

# the same algebra graded over Z: Ext^n is one slot of dimension n + 1
EXTERIOR2_Z = """
field Q
group Z 1
vertices v
arrow x v v 1
arrow y v v 1
truncate 3
rel x*x
rel y*y
rel x*y + -1*y*x
"""

# three square-zero commuting loops over F3, graded over Z^3: Ext^n(S, S[g])
# is one-dimensional for each g in N^3 with |g| = n
EXTERIOR3_F3 = """
field F 3
group Z 3
vertices v
arrow x v v 1 0 0
arrow y v v 0 1 0
arrow z v v 0 0 1
truncate 4
rel x*x
rel y*y
rel z*z
rel x*y + -1*y*x
rel x*z + -1*z*x
rel y*z + -1*z*y
"""

# the exterior algebra on three square-zero commuting loops with no grading,
# so every summand of P^n lies in the one slice (v, ())
EXTERIOR3_UNGRADED = """
field %s
group trivial
vertices v
arrow x v v
arrow y v v
arrow z v v
truncate 4
rel x*x
rel y*y
rel z*z
rel x*y + -1*y*x
rel x*z + -1*z*x
rel y*z + -1*z*y
"""

# four square-zero commuting loops over Q, graded over Z^4: one basis path
# in each weight in {0,1}^4, dimension 16
EXTERIOR4 = """
field Q
group Z 4
vertices v
arrow x v v 1 0 0 0
arrow y v v 0 1 0 0
arrow z v v 0 0 1 0
arrow w v v 0 0 0 1
truncate 5
rel x*x
rel y*y
rel z*z
rel w*w
rel x*y + -1*y*x
rel x*z + -1*z*x
rel x*w + -1*w*x
rel y*z + -1*z*y
rel y*w + -1*w*y
rel z*w + -1*w*z
"""

# a relation mixing path lengths 2 and 4 of equal weight
MIXED = """
field Q
group Z 1
vertices v
arrow x v v 2
arrow y v v 1
truncate 6
rel x*x + -1*y*y*y*y
rel x*y
rel y*x
rel y*y*y*y*y
"""

# trivially graded variant of the e24 quiver
E24_TRIVIAL = """
field Q
group trivial
vertices u v
arrow a u v
arrow b v v
truncate 3
rel b*b
rel b*a
"""

# weights of mixed sign: the paths xy and yx live in the identity degree
MIXED_SIGN = """
field Q
group Z 1
vertices v
arrow x v v 1
arrow y v v -1
truncate 5
rel x*x
rel y*y
rel x*y*x*y
rel y*x*y*x
"""


# f = 2 has a polynomial corner Ext ring on two degree-one classes
POLY_CORNER = """
field Q
group Z 2
vertices 1 2
arrow x 1 2 1 0
arrow p 2 2 1 0
arrow q 2 2 0 1
truncate 4
rel p*p
rel q*q
rel p*q + -1*q*p
idempotent f = 2
"""

# rational coefficients: the first relation's coefficient is filled in
RATIONAL = """
field Q
group Z 1
vertices u v
arrow a u v 1
arrow b u v 1
arrow c v u 1
truncate 3
rel %s*c*a + c*b
rel a*c
rel b*c
"""

# cyclic Nakayama algebra with J^3 = 0: Omega^2 S_i = S_{i+3}[3], so every
# simple first recurs at step 8
NAK4 = """
field Q
group Z 1
vertices 1 2 3 4
arrow a1 1 2 1
arrow a2 2 3 1
arrow a3 3 4 1
arrow a4 4 1 1
truncate 4
rel a3*a2*a1
rel a4*a3*a2
rel a1*a4*a3
rel a2*a1*a4
"""


def cyclic_nakayama(n, loewy):
    """The cyclic Nakayama algebra with n vertices and J^loewy = 0, arrows of
    weight 1."""
    lines = ["field Q", "group Z 1", "vertices " + " ".join(str(i) for i in range(n))]
    lines += ["arrow a%d %d %d 1" % (i, i, (i + 1) % n) for i in range(n)]
    lines.append("truncate %d" % (loewy + 1))
    lines += ["rel " + "*".join("a%d" % ((i + j) % n) for j in reversed(range(loewy)))
              for i in range(n)]
    return "\n".join(lines) + "\n"


def random_homogeneous_vectors(rep, rng, count):
    """Random homogeneous vectors (v, g, coordinates) of rep, for property tests."""
    slices = list(rep.dims.items())
    out = []
    if not slices:
        return out
    field = rep.engine.field
    for _ in range(count):
        (v, g), n = slices[rng.randrange(len(slices))]
        vec = [field.of(rng.randint(-2, 2)) for _ in range(n)]
        if any(vec):
            out.append((v, g, vec))
    return out


@functools.cache
def fixture_text(name):
    return (FIXTURES / (name + ".alg")).read_text()


@functools.cache
def engine_for(name):
    return build_engine(parse_algebra_file(str(FIXTURES / (name + ".alg"))))


@functools.cache
def engine_from(text):
    return build_engine(parse_algebra(text))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def resolutions_built(monkeypatch):
    """The list of every MinimalResolution constructed during the test."""
    built = []
    init = MinimalResolution.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MinimalResolution, "__init__", counting_init)
    return built
