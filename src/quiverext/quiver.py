"""Quivers, integer weight vectors, and paths.

Grading groups are free abelian Z^k (k = 0 gives the trivial group), so a
weight is a length-k tuple of ints, and every degree should have the
engine's rank k.  The entry points that take a degree from a caller
(`simple_module`, `projective_module`, `shift_rep`, `ExtTable.entry`) check
it with `checked_degree`; the hot constructors never do.  `wadd` and `wsub`
build the (vertex, degree) slice keys, thousands per resolution, so for
k <= 3 they are written out: a tuple display costs 0.05-0.2 us where
`tuple(map(add, a, b))` costs 0.3-0.6 us (timeit, Python 3.10-3.13).
Higher ranks take the generic path.

Paths store their arrows in function composition order: the RIGHTMOST
arrow acts first, matching the convention that the product p*q means
"first q, then p".  A path is an immutable slotted value whose hash is
computed once, when it is made.
"""

from dataclasses import dataclass
from operator import add, neg, sub


class PresentationError(ValueError):
    """A malformed presentation.  `item` names the input at fault:
    "vertices", "truncate", "idempotent", ("arrow", i) or ("relation", i)
    for the i-th arrow or relation (from 0), or None when no one input is,
    so that a reader of a file can name the line that holds it."""

    def __init__(self, message, item=None):
        self.item = item
        super().__init__(message)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver: ordered vertices and named arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        if not self.vertices:
            raise PresentationError("a quiver needs at least one vertex", "vertices")
        self.vertex_index = {}
        for v in self.vertices:
            if v in self.vertex_index:
                raise PresentationError("duplicate vertex name %r" % v, "vertices")
            self.vertex_index[v] = len(self.vertex_index)
        self.arrow_by_name = {}
        self.arrows_from = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            if a.name in self.arrow_by_name:
                raise PresentationError("duplicate arrow name %r" % a.name, ("arrow", i))
            for end, v in (("source", a.source), ("target", a.target)):
                if v not in self.vertex_index:
                    raise PresentationError("arrow %s has unknown %s %r" % (a.name, end, v),
                                            ("arrow", i))
            self.arrow_by_name[a.name] = a
            self.arrows_from[a.source].append(a)

    def idempotent_vertices(self, vertices):
        """`vertices` as a tuple, checked: known, distinct and at least one."""
        vertices = tuple(vertices)
        for v in vertices:
            if v not in self.vertex_index:
                raise PresentationError("unknown vertex %r in idempotent line" % v, "idempotent")
        if len(set(vertices)) != len(vertices):
            raise PresentationError("repeated vertex in idempotent line", "idempotent")
        if not vertices:
            raise PresentationError("the corner part must contain at least one vertex",
                                    "idempotent")
        return vertices

    def opposite(self):
        """Same vertex and arrow names, every arrow reversed."""
        return Quiver(self.vertices, [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))


def wzero(k):
    return (0,) * k


def checked_degree(g, k, name="shift"):
    """A caller's degree g as a tuple, refused unless it has rank k."""
    g = tuple(g)
    if len(g) != k:
        raise ValueError("%s %r has rank %d, but the grading group has rank %d"
                         % (name, g, len(g), k))
    return g


def wadd(a, b):
    k = len(a)
    if k == 1:
        return (a[0] + b[0],)
    if k == 2:
        return (a[0] + b[0], a[1] + b[1])
    if k == 3:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    return tuple(map(add, a, b))


def wneg(a):
    return tuple(map(neg, a))


def wsub(a, b):
    k = len(a)
    if k == 1:
        return (a[0] - b[0],)
    if k == 2:
        return (a[0] - b[0], a[1] - b[1])
    if k == 3:
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    return tuple(map(sub, a, b))


class first_read:
    """An attribute computed on first read and set on the instance, where
    it, or an instance assignment, hides this non-data descriptor.  Unlike
    `functools.cached_property` it takes no lock, and it sets no value
    through `__dict__`, which makes CPython 3.11 drop the instance's inline
    values and slows every later read on it."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.name, value)
        return value


class Path:
    """A path in a quiver, arrows in composition order (rightmost first).

    Length-0 paths are vertices; their weight is the identity (zero vector).
    A path is an immutable slotted value, equal only to a path with the same
    fields; its hash, that of the tuple of its fields, is computed once.
    """

    __slots__ = ("arrows", "source", "target", "weight", "_hash")

    def __init__(self, arrows, source, target, weight):
        _set_arrows(self, arrows)
        _set_source(self, source)
        _set_target(self, target)
        _set_weight(self, weight)
        _set_hash(self, hash((arrows, source, target, weight)))

    def __setattr__(self, name, value=None):
        raise AttributeError("a Path is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return type(other) is Path and self.__reduce__() == other.__reduce__()

    def __reduce__(self):
        return Path, (self.arrows, self.source, self.target, self.weight)

    @property
    def length(self):
        return len(self.arrows)

    @property
    def is_vertex(self):
        return not self.arrows

    def name(self):
        if self.is_vertex:
            return "e_" + self.source
        return "".join(self.arrows)

    def __repr__(self):
        return self.name()


# the slots' own setters: `Path.__setattr__` refuses every assignment
_set_arrows, _set_source, _set_target, _set_weight, _set_hash = (
    Path.__dict__[name].__set__ for name in Path.__slots__)


def vertex_path(vertex, k):
    return Path((), vertex, vertex, wzero(k))


def opposite_path(p):
    """p as a path of the opposite quiver: its arrows reversed, its ends swapped."""
    return Path(p.arrows[::-1], p.target, p.source, p.weight)


def compose(p, q):
    """The path p*q: first traverse q, then p.  Requires q.target == p.source."""
    if q.target != p.source:
        raise ValueError("paths do not compose: %r * %r" % (p, q))
    if p.is_vertex:
        return q
    if q.is_vertex:
        return p
    return Path(p.arrows + q.arrows, q.source, p.target, wadd(p.weight, q.weight))

