"""Finite-dimensional graded modules over a quiver algebra, as representations.

Every map here is homogeneous, so graded data is stored by (vertex, degree)
slice: one matrix per arrow and source slice, one per source slice of a
module map, a missing block meaning zero.  A homogeneous vector is
(v, g, coordinates on slice (v, g)).  Every module visits its slices in one
order, vertex by vertex in quiver order, then by increasing degree
(`_in_order`); a shift keeps it, and it fixes the order of cover summands.
Dense per-vertex matrices appear only as output: `ModuleMap.dense` lays the
slices of each vertex out one after another.  Every module and map is built
from blocks, so the grading holds by construction; shapes, relations and
commutation are checked on the blocks.  Nothing changes once built, and
blocks may be shared between modules.  Constructors take plain
dicts.  What is built on first read is a `first_read` attribute of a small
class that holds its inputs as data, never a function: the action of a
shifted module (`_ShiftedRep`) or of a sum of projectives (`_SumRep`), a
module's shape, a cover's kernel and the steps after it, and a map's blocks,
one slice at a time (`ModuleMap.block`).  Each resolution step reads a few,
so the package has its own descriptor (quiver.py): a first read costs a
third of a `functools.cached_property` one, and later reads keep their fast
path.

Projectives are assembled from the engine's per-vertex templates of the
indecomposable projectives (`NormalFormEngine.projective_template`), built
once per engine: their slices, their arrow blocks, and a prefix tree of
their basis paths, in the engine's walk order.  A one-summand projective is
its template moved: it shares the template's slot lists and blocks.  A sum
is block diagonal in the template blocks and shares every block that one
summand fills on its own.  A map out of a projective (`ProjectiveMap`) is
kept as its generator images; the image of any other slot is evaluated on
demand, walking its summand's prefix tree one matrix-vector product per
node and keeping each node's image.  Its columns come from a walk over
every node, and a block from its slice's nodes.

A kernel is spanned by slots wherever it can be.  `kernel_subrep` reads
each source slice of a map off its nonzero columns {column: image}
(`columns`, a `ProjectiveMap`'s node images).  When their supports are
pairwise disjoint (no row of the block has two nonzero entries), the kernel
there is the unit vectors at the columns with no image (what `nullspace`
returns).  Between two such slices the kernel's action is the parent's
block restricted to their slots, or the block itself when the slots fill
both slices.  Other slices build their block and take its nullspace, and an
arrow out of one costs a product, into one a solve.  A differential is read
a slice at a time (`block`): a lift builds only the blocks it solves against.
Over a monomial algebra, such as a Nakayama cycle, every slice is
slot-spanned in a resolution of a simple: its syzygies are direct sums of
path-generated modules (Green-Happel-Zacharia, Illinois J. Math. 29, 1985),
and a cover sends the slot q of a summand with generator image p to 0 or to
the slot qp, distinct for distinct (q, p).  An exterior algebra still needs
elimination on some slices.  Tops are read off hit rows (`top_lifts`).

Covers are shared up to a degree shift.  The engine keeps, for its
lifetime, a weak reference to every cover `projective_cover` computes,
keyed by the covered module's shape: its slices taken relative to its first
slice's degree, in order (`_shape`, which the periodicity scan keys
syzygies by too; `engine.covers`), computed once: a module keeps its
`shape`, and a kernel takes its cover's `kernel_shape`, which the scan
reads first.  A module whose key and action blocks, at the keys moved by
h = (its first degree) - (the kept module's first degree), equal those of
a kept module is covered by that module's cover shifted by h
(`Cover.shifted`).  Every step of a cover commutes with the shift and is
deterministic, so this is the cover a fresh computation gives,
and a periodic syzygy (Omega^{n0+t} ~ Omega^{n0}[h]), or one that is a
shifted module met before such as a shifted simple, is not covered again.
A shifted step is data: each shifted part holds its base and h, and
re-keys the base's on first read.  The projective is built from the
templates at the moved summands, as any cover's is (a one-summand
projective is its template moved); the epi, the kernel's inclusion and the
step map are `_ShiftedMap`s, with the base's blocks, factors, rank and JSON
rows; the kernel is a `_ShiftedRep`; the successor is the base's successor
shifted, with no store walk, and the generator terms are the base's list.
A kept cover is found while its resolution, or any other caller, still
holds it; a walk drops the entries of covers gone.  The reference is weak
because every cover refers to its engine: a strong one would leave each
engine in a reference cycle that only the cyclic garbage collector frees.
"""

import random
import weakref
from collections import Counter
from itertools import islice

from .linalg import Factor, Matrix, Subspace
from .quiver import checked_degree, first_read, wadd, wneg, wsub, wzero


def _unit(field, n, i):
    vec = [field.zero] * n
    vec[i] = field.one
    return vec


def _product(x, y):
    """x @ y, with None standing for a zero block."""
    return None if x is None or y is None else x @ y


def _same(x, y):
    """Equal blocks, with None standing for zero."""
    if x is None or y is None:
        rest = y if x is None else x
        return rest is None or rest.is_zero()
    return x == y


def _in_order(engine, keys):
    """Slice keys in the one slice order: vertex in quiver order, then degree."""
    index = engine.quiver.vertex_index
    return sorted(keys, key=lambda key: (index[key[0]], key[1]))


def _shape(engine, dims):
    """(the slices (v, g - s, n) of `dims`, in order; s): s is the first
    slice's degree, zero for no slice.  A shift keeps the slice order, so
    two modules have one shape exactly when the slices of one are those of
    the other moved by the difference of their s."""
    start = next(iter(dims))[1] if dims else wzero(engine.group_rank)
    return tuple((v, wsub(g, start), n) for (v, g), n in dims.items()), start


def _moved(key, h):
    """Slice key (v, g) moved up by h."""
    return key[0], wadd(key[1], h)


def _block(field, cols, n):
    """The block with n columns whose nonzero ones are {column: image}."""
    nrows = len(next(iter(cols.values())))
    zero = [field.zero] * nrows
    return Matrix.from_columns(field, [cols.get(j, zero) for j in range(n)], nrows)


def _assemble(field, row_slices, col_slices, blocks, shift):
    """The one dense view: the matrix with blocks {g: Matrix}, block g from
    column slice g to row slice g + shift, where the slices [(g, n)] lie one
    after another."""
    offset = {}
    nrows = 0
    for g, n in row_slices:
        offset[g] = nrows
        nrows += n
    out = Matrix.zeros(field, nrows, sum(n for _, n in col_slices))
    c = 0
    for g, n in col_slices:
        b = blocks.get(g)
        if b is not None:
            r = offset[wadd(g, shift)]
            for i, row in enumerate(b.rows):
                out.rows[r + i][c:c + n] = row
        c += n
    return out


class Representation:
    """A graded left module, stored by (vertex, degree) slice.

    `dims[(v, g)]` is the dimension of each nonempty slice, in the one slice
    order (`_in_order`) whatever the caller's order.  `action[(a, g)]` is
    the matrix of arrow a from slice (a.source, g) to slice (a.target,
    g + W(a)); it is missing when zero.  The constructor takes both as
    dicts.  A module whose action is built on first read is a subclass that
    holds the action's inputs and makes `action` a `first_read` attribute
    (`_ShiftedRep`, `_SumRep`).
    """

    def __init__(self, engine, dims, action, check=True):
        self.engine = engine
        self.dims = {key: dims[key] for key in _in_order(engine, dims) if dims[key]}
        self.action = action
        if check:
            self._verify()

    def _verify(self):
        weights = self.engine.pres.weights
        arrows = self.engine.quiver.arrow_by_name
        for (name, g), m in self.action.items():
            a = arrows[name]
            shape = (self.dims.get((a.target, wadd(g, weights[name])), 0),
                     self.dims.get((a.source, g), 0))
            if m.shape != shape:
                raise ValueError("action of %s on degree %s has shape %s, expected %s"
                                 % (name, list(g), m.shape, shape))
        for rel in self.engine.pres.uniform_relations:
            for v, g in self.dims:
                if v != rel.source:
                    continue
                acc = None
                for c, p in rel.terms:
                    m = self.path_action(p, g)
                    if m is not None:
                        acc = m.scaled(c) if acc is None else acc + m.scaled(c)
                if acc is not None and not acc.is_zero():
                    raise ValueError("relation does not act as zero")

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        out = dict.fromkeys(self.engine.quiver.vertices, 0)
        for (v, _), n in self.dims.items():
            out[v] += n
        return out

    def is_zero(self):
        return not self.dims

    def path_action(self, path, g):
        """The matrix by which a path acts on slice (path.source, g), into
        slice (path.target, g + weight of the path); None when it is zero."""
        n = self.dims.get((path.source, g))
        if not n:
            return None
        if path.is_vertex:
            return Matrix.identity(self.engine.field, n)
        weights = self.engine.pres.weights
        m = None
        for name in reversed(path.arrows):
            b = self.action.get((name, g))
            if b is None:
                return None
            m = b if m is None else b @ m
            g = wadd(g, weights[name])
        return m

    @first_read
    def shape(self):
        """`_shape` of the slices (a cover's kernel takes its `kernel_shape`)."""
        return _shape(self.engine, self.dims)

    def _layout(self):
        """{v: [(g, dimension)]}: the slices of each vertex in visiting order."""
        out = {v: [] for v in self.engine.quiver.vertices}
        for (v, g), n in self.dims.items():
            out[v].append((g, n))
        return out

    def __eq__(self, other):
        """Equal dims and equal arrow blocks, with None standing for zero."""
        if not isinstance(other, Representation):
            return NotImplemented
        return self.dims == other.dims and all(
            _same(self.action.get(k), other.action.get(k))
            for k in self.action.keys() | other.action.keys())

    def __repr__(self):
        return "Representation(%s)" % ({v: d for v, d in self.dim_vector().items() if d},)


class ModuleMap:
    """A homogeneous map between representations, stored by slice.

    `grade` is the uniform degree drop: `blocks[(v, g)]` maps slice (v, g) of
    the source into slice (v, g - grade) of the target, and is missing when
    zero.  Plain degree-preserving maps have grade zero.  The constructor
    takes the blocks as a dict.  A map built on first read is a subclass that
    holds the inputs and builds a block in `_slice`: `block` builds only the
    slice read, and `blocks`, a `first_read` attribute, every one, each once.
    """

    def __init__(self, source, target, blocks, grade=None, check=True):
        self.source = source
        self.target = target
        self.grade = grade if grade is not None else wzero(source.engine.group_rank)
        self.blocks = blocks
        if check:
            self._verify()

    def _verify(self):
        for (v, g), b in self.blocks.items():
            shape = (self.target.dims.get((v, wsub(g, self.grade)), 0),
                     self.source.dims.get((v, g), 0))
            if b.shape != shape:
                raise ValueError("block at %s, degree %s has shape %s, expected %s"
                                 % (v, list(g), b.shape, shape))
        engine = self.source.engine
        weights = engine.pres.weights
        for v, g in self.source.dims:
            for a in engine.quiver.arrows_from[v]:
                lhs = _product(self.blocks.get((a.target, wadd(g, weights[a.name]))),
                               self.source.action.get((a.name, g)))
                rhs = _product(self.target.action.get((a.name, wsub(g, self.grade))),
                               self.blocks.get((v, g)))
                if not _same(lhs, rhs):
                    raise ValueError("map does not commute with arrow %s" % a.name)

    def column(self, key, i):
        """The image of the i-th unit vector of source slice `key`, as
        (target slice, coordinates): column i of its block."""
        v, g = key
        tkey = (v, wsub(g, self.grade))
        b = self.block(key)
        if b is None:
            return tkey, [self.source.engine.field.zero] * self.target.dims.get(tkey, 0)
        return tkey, b.col(i)

    def columns(self):
        """{source slice: {column: image}}: the nonzero columns of each block,
        a slice with none left out."""
        out = {key: {j: list(c) for j, c in enumerate(zip(*b.rows)) if any(c)}
               for key, b in self.blocks.items()}
        return {key: cols for key, cols in out.items() if cols}

    @first_read
    def blocks(self):
        """Every slice, those read before (`block`) as they are."""
        return {key: b for key in self.source.dims for b in [self.block(key)] if b is not None}

    @first_read
    def _built(self):
        return {}

    def block(self, key):
        """Block `key`, None where it is missing: built (`_slice`) and kept."""
        if key not in self._built:
            self._built[key] = self._slice(key)
        return self._built[key]

    def _slice(self, key):
        return self.blocks.get(key)

    _factors = first_read(lambda self: {})     # block key -> Factor, by `factor`

    def factor(self, key):
        """The `Factor` of block `key` (None where the block is missing),
        made on first use and kept with the map, so every lift through this
        map eliminates each block it solves against once, and no other."""
        if key not in self._factors:
            b = self.block(key)
            self._factors[key] = None if b is None else Factor(b)
        return self._factors[key]

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        blocks = {}
        for (v, g), b in other.blocks.items():
            s = self.blocks.get((v, wsub(g, other.grade)))
            if s is not None:
                blocks[(v, g)] = s @ b
        return ModuleMap(other.source, self.target, blocks,
                         grade=wadd(self.grade, other.grade), check=False)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def rank(self):
        return self._rank

    @first_read
    def _rank(self):
        """Kept: the blocks never change."""
        return sum(b.rank() for b in self.blocks.values())

    def is_iso(self):
        if self.source.total_dim != self.target.total_dim:
            return False
        for (v, h), n in self.target.dims.items():
            b = self.blocks.get((v, wadd(h, self.grade)))
            if b is None or b.ncols != n or b.rank() != n:
                return False
        return True

    def dense(self):
        """The dense view {v: Matrix}: each vertex space of the source and
        the target laid out slice after slice in visiting order."""
        field = self.source.engine.field
        src = self.source._layout()
        tgt = self.target._layout()
        shift = wneg(self.grade)
        return {v: _assemble(field, tgt[v], src[v],
                             {g: b for (u, g), b in self.blocks.items() if u == v}, shift)
                for v in self.source.engine.quiver.vertices}

    def to_json(self):
        """The dense view as lists, kept: readers must not change it."""
        return self._json

    @first_read
    def _json(self):
        dense = self.dense()
        return {v: dense[v].to_json() for v in sorted(dense)}


class _ShiftedMap(ModuleMap):
    """`base` moved up by h, into `target` from `source` (both moved up by h):
    the base's blocks re-keyed, and, as a shift keeps slice order, its
    factors, rank and dense view.  A shifted map moved again is its base
    moved by both shifts, so shifted maps form no chain."""

    def __init__(self, base, source, target, h):
        if isinstance(base, _ShiftedMap):
            base, h = base._base, wadd(base._h, h)
        self.source, self.target, self.grade = source, target, base.grade
        self._base, self._h = base, h

    def _slice(self, key):
        return self._base.block((key[0], wsub(key[1], self._h)))

    def factor(self, key):
        return self._base.factor((key[0], wsub(key[1], self._h)))

    def rank(self):
        return self._base.rank()

    def to_json(self):
        return self._base.to_json()


class _ShiftedRep(Representation):
    """`base` with every degree moved up by h: the same matrices, the action
    re-keyed on first read (`shift_rep`)."""

    def __init__(self, base, h):
        self.engine = base.engine
        self.dims = {_moved(key, h): n for key, n in base.dims.items()}
        self._base, self._h = base, h

    @first_read
    def action(self):
        h = self._h
        return {(name, wadd(g, h)): m for (name, g), m in self._base.action.items()}


class _SumRep(Representation):
    """The module of a sum of projectives, from its parts: the summands'
    templates and their offsets (`Projective._where`).  It holds those
    parts, never the projective: a reference back would leave every
    projective in a cycle."""

    def __init__(self, engine, dims, templates, where):
        self.engine, self.dims = engine, dims
        self._templates, self._where = templates, where

    @first_read
    def action(self):
        """Each summand's template blocks at the offsets of their slices, the
        block itself where the summand fills both slices alone.  Keys go
        slice by slice, arrows in quiver order: one summand's template order."""
        if len(self._templates) == 1:
            (t,), (at,) = self._templates, self._where
            return {(name, at[tkey][0][1]): b for tkey, blocks in t.blocks_from.items()
                    for name, _, b in blocks}
        engine, dims = self.engine, self.dims
        action = {}
        for t, at in zip(self._templates, self._where):
            for tkey, blocks in t.blocks_from.items():
                (w, h), c = at[tkey]
                for name, target, b in blocks:
                    key, r = at[target]
                    if dims[(w, h)] == len(t.slots[tkey]) and dims[key] == len(t.slots[target]):
                        action[(name, h)] = b
                        continue
                    if (name, h) not in action:
                        action[(name, h)] = Matrix.zeros(engine.field, dims[key], dims[(w, h)])
                    for i, row in enumerate(b.rows):
                        action[(name, h)].rows[r + i][c:c + b.ncols] = row
        return {(a.name, h): action[(a.name, h)] for w, h in dims
                for a in engine.quiver.arrows_from[w] if (a.name, h) in action}


def zero_module(engine):
    return Representation(engine, {}, {}, check=False)


def _summand(engine, vertex, shift):
    """(vertex, shift) checked against the engine; shift None means zero."""
    if vertex not in engine.quiver.vertices:
        raise ValueError("unknown vertex %r" % vertex)
    k = engine.group_rank
    return vertex, wzero(k) if shift is None else checked_degree(shift, k)


def simple_module(engine, vertex, shift=None):
    """The graded simple at a vertex: one slot in degree `shift`, arrows act as 0."""
    return Representation(engine, {_summand(engine, vertex, shift): 1}, {}, check=False)


class Projective:
    """A direct sum of shifted indecomposable projectives, with slot tracking.

    Summand (v, g) contributes one slot per normal-form path p starting at v,
    in slice (p.target, weight(p) + g).  `slots[(w, h)]` lists the (summand
    index, path) of each coordinate of slice (w, h), summand by summand, each
    summand's paths in (length, arrows) order.  The length-0 path is the
    summand's generator: `gen_pos[idx]` is its (slice, coordinate), and
    `generators[slice]` maps coordinates to summand indices, in increasing
    index.

    Everything is read off the engine's templates (`projective_template`):
    the slots are the template slices shifted by g, in order (a shift keeps
    a template's order, so only a sum of summands sorts, and one summand
    takes the template's slot lists themselves), and the action, built on
    first read, is block diagonal in the template blocks.  Each
    summand places the blocks its template lists for each source slice
    (`blocks_from`) at the offsets of their source and target slices in this
    sum, with no weight arithmetic.  A block whose source and target slices
    each come from one summand is the template's own block, shared and
    re-keyed by the shift, so a single-summand projective copies no matrix.
    """

    def __init__(self, engine, summands):
        self.engine = engine
        self.summands = tuple((v, tuple(g)) for v, g in summands)
        templates = self._templates = [engine.projective_template(v) for v, _ in self.summands]
        # where[idx][template slice] = (slice, offset) of its copy in this
        # sum; the summands meeting in a slice follow one another there
        if len(templates) == 1:
            # the template's own slot lists, at its slices moved by g
            (t,), ((v, g),) = templates, self.summands
            self.slots = {(w, wadd(d, g)): s for (w, d), s in t.slots.items()}
            self._where = [{tkey: (key, 0) for tkey, key in zip(t.slots, self.slots)}]
            self.gen_pos, self.generators = [((v, g), 0)], {(v, g): {0: 0}}
        else:
            self._where, slots, self.gen_pos, self.generators = [], {}, [], {}
            for idx, (t, (v, g)) in enumerate(zip(templates, self.summands)):
                at = {}
                for (w, d), ts in t.slots.items():
                    key = (w, wadd(d, g))
                    s = slots.setdefault(key, [])
                    at[(w, d)] = (key, len(s))
                    s += [(idx, p) for _, p in ts]
                self._where.append(at)
                key, i = at[(v, wzero(engine.group_rank))]    # e_v comes first there
                self.gen_pos.append((key, i))
                self.generators.setdefault(key, {})[i] = idx
            self.slots = {key: slots[key] for key in _in_order(engine, slots)}
        self.rep = _SumRep(engine, {key: len(s) for key, s in self.slots.items()},
                           templates, self._where)

    @property
    def total_dim(self):
        return self.rep.total_dim

    def is_zero(self):
        return not self.summands

    def node_at(self, key, i):
        """The (summand index, template tree node) of coordinate i of slice
        `key`."""
        idx, p = self.slots[key][i]
        return idx, self._templates[idx].node_of[p.arrows]

    def map_from_generator_images(self, target, images, grade=None):
        """The module map sending generator idx to images[idx], the
        coordinates on target slice (v, g - grade) for summand (v, g) ([] or
        zeros for zero).  The other slots follow by the path action, so the
        result commutes with the algebra action; they are evaluated on
        demand (see `ProjectiveMap`)."""
        grade = grade if grade is not None else wzero(self.engine.group_rank)
        return ProjectiveMap(self, target, images, grade)

    def to_json(self):
        return [[v, list(g)] for v, g in self.summands]


class ProjectiveMap(ModuleMap):
    """A map out of a projective, kept as its generator images.

    The image of tree node i of summand idx, a slot, is the target's arrow
    block applied to the image of node i's parent: one `Matrix.apply`.
    Each summand keeps the images of a prefix of its tree, in tree order,
    so parents come first; reading node i extends that prefix through i.
    A missing block or a zero vector is kept as None and ends the branch.
    So `node` and `column` evaluate no node past the one they read, and a
    generator's image, node 0, none at all.  `columns` walks the whole
    tree; a block reads its slice's nodes.
    """

    def __init__(self, proj, target, images, grade):
        self.source = proj.rep
        self.target = target
        self.grade = grade
        self._proj = proj
        self._memo = [[image] if any(image) else None for image in images]

    def node(self, idx, i):
        """The image of tree node i of summand idx, as coordinates on its
        target slice, or None when it is zero.  The list is the memo's own
        and must not be changed."""
        vecs = self._memo[idx]
        if vecs is None:
            return None
        if i >= len(vecs):
            action = self.target.action
            start = wsub(self._proj.summands[idx][1], self.grade)
            for parent, name, d, _ in islice(self._proj._templates[idx].tree,
                                             len(vecs), i + 1):
                x = vecs[parent]
                if x is not None:
                    b = action.get((name, wadd(d, start)))
                    x = b.apply(x) if b is not None else None
                    if x is not None and not any(x):
                        x = None
                vecs.append(x)
        return vecs[i]

    def column(self, key, i):
        """As `ModuleMap.column`, evaluating no node past the slot's; the
        coordinates may be the memo's own list."""
        v, g = key
        tkey = (v, wsub(g, self.grade))
        x = self.node(*self._proj.node_at(key, i))
        if x is None:
            return tkey, [self.source.engine.field.zero] * self.target.dims.get(tkey, 0)
        return tkey, x

    def columns(self):
        """As `ModuleMap.columns`, slices in slot order, the images being
        the memo's own lists: every node is evaluated, each once."""
        proj = self._proj
        columns = {}
        for idx, (t, at) in enumerate(zip(proj._templates, proj._where)):
            self.node(idx, len(t.tree) - 1)
            for x, (_, _, _, slot) in zip(self._memo[idx] or (), t.tree):
                if x is not None:
                    key, offset = at[slot[0]]
                    columns.setdefault(key, {})[offset + slot[1]] = x
        return {key: columns[key] for key in proj.slots if key in columns}

    def _slice(self, key):
        n = len(self._proj.slots.get(key, ()))
        cols = {j: x for j in range(n) for x in [self.node(*self._proj.node_at(key, j))] if x}
        return _block(self.source.engine.field, cols, n) if cols else None


def projective_module(engine, vertex, shift=None):
    return Projective(engine, [_summand(engine, vertex, shift)])


def shift_rep(rep, h):
    """Shift all degrees up by h, refused unless h has the engine's rank;
    matrices are untouched, and the action is re-keyed on first read."""
    return _ShiftedRep(rep, checked_degree(h, rep.engine.group_rank))


def semisimple_top(rep):
    """Dimensions of M / rM as a sorted list of (vertex, degree, multiplicity):
    the lifts `top_lifts` chooses, counted per slice."""
    counts = Counter((v, g) for v, g, _ in top_lifts(rep))
    return sorted((v, g, m) for (v, g), m in counts.items())


def top_lifts(rep):
    """Choose homogeneous vectors lifting a basis of M / rM.

    Returns a list of (vertex, degree, coordinates): unit vectors at the
    non-pivot coordinates of each slice's radical span, slices in visiting
    order, so the choice is deterministic.  Where each nonzero arrow column
    into a slice has one nonzero entry, its pivots are the rows hit; only
    other slices put the columns in a `Subspace`.
    """
    field = rep.engine.field
    weights = rep.engine.pres.weights
    arrows = rep.engine.quiver.arrow_by_name
    into = {}
    for (name, g), m in rep.action.items():
        into.setdefault((arrows[name].target, wadd(g, weights[name])), []).append(m)
    lifts = []
    for (v, g), n in rep.dims.items():
        blocks = into.get((v, g), ())
        pivots = set()
        for m in blocks:
            hit = []
            for i, row in enumerate(m.rows):
                cols = [j for j, x in enumerate(row) if x]
                if cols:
                    pivots.add(i)
                    hit += cols
            if len(hit) != len(set(hit)):       # a column with two nonzero entries
                span = Subspace(field, n)
                for c in (c for b in blocks for c in zip(*b.rows) if any(c)):
                    span.add(list(c))
                pivots = set(span.pivot_of_row)
                break
        lifts += [(v, g, _unit(field, n, i)) for i in range(n) if i not in pivots]
    return lifts


class Cover:
    """A projective cover: epi P -> M with kernel K inside rad(P), a step of
    a resolution (a chain of covers, each the `successor` of the last).
    `kernel_dims` is dim P - dim M slice by slice, and `kernel_shape` its
    `_shape`, which the kernel takes.  The rest (`kernel`, `kernel_inclusion`,
    the successor, `step`, `generator_terms`) is each a `first_read`
    attribute, never the cover itself, so no cover is in a cycle.  A shifted
    cover derives them from its live base, re-keyed, and afresh once the
    base is gone."""

    def __init__(self, projective, epi, base=None):
        self.projective = projective
        self.epi = epi
        self._base = base   # (weak reference to a cover B, h): B shifted by h
        covered = epi.target.dims
        self.kernel_dims = {key: n - covered.get(key, 0) for key, n
                            in projective.rep.dims.items() if n > covered.get(key, 0)}
        self.kernel_shape = _shape(projective.engine, self.kernel_dims)

    def _live_base(self):
        """(base cover, h) while the base is alive, else (None, None)."""
        base = self._base and self._base[0]()
        return (base, self._base[1]) if base else (None, None)

    @first_read
    def kernel(self):
        """The kernel, built with `kernel_inclusion`, which it sets; its shape is `kernel_shape`."""
        base, h = self._live_base()
        if base is None:
            kernel, self.kernel_inclusion = kernel_subrep(self.epi)
        else:
            kernel = _ShiftedRep(base.kernel, h)
            self.kernel_inclusion = _ShiftedMap(base.kernel_inclusion, kernel,
                                                self.projective.rep, h)
        kernel.shape = self.kernel_shape
        return kernel

    @first_read
    def kernel_inclusion(self):
        self.kernel         # sets it on the instance, where this read finds it
        return self.kernel_inclusion

    def shifted(self, module, h):
        """This cover moved up by h, as the cover of `module`, which equals
        the covered module shifted by h: the projective on the summands
        moved by h, built as any cover's is, and this epi moved by h.  Every
        step of a cover commutes with the shift, so this is the cover
        computed afresh.  Its base is this cover's live base, if any: bases
        form no chain."""
        base, h0 = self._live_base()
        proj = Projective(self.projective.engine,
                          [_moved(s, h) for s in self.projective.summands])
        return Cover(proj, _ShiftedMap(self.epi, proj.rep, module, h),
                     (weakref.ref(base), wadd(h0, h)) if base else (weakref.ref(self), h))

    def successor(self):
        """The cover of the kernel: a zero cover's is itself, kept nowhere, as
        a cover must not refer to itself."""
        return self if self.projective.is_zero() else self._kernel_cover

    @first_read
    def _kernel_cover(self):
        """A shifted cover's is its base's shifted, any other's is computed."""
        base, h = self._live_base()
        return base.successor().shifted(self.kernel, h) if base \
            else projective_cover(self.projective.engine, self.kernel)

    @first_read
    def step(self):
        """The kernel inclusion after the successor's epi, a block at a time
        (`_Step`); a shifted cover's is its base's, re-keyed."""
        succ = self.successor()
        base, h = self._live_base()
        return _Step(self.kernel_inclusion, succ.epi) if base is None else \
            _ShiftedMap(base.step, succ.projective.rep, self.projective.rep, h)

    @first_read
    def generator_terms(self):
        """The column of `step` at each generator of the successor, as terms
        (summand, tree node, coefficient) over this projective's nonzero
        slots, no block of `step` built; a shifted cover's are its base's."""
        base, _ = self._live_base()
        if base is not None:
            return base.generator_terms
        succ = self.successor()
        cols = (succ.epi.column(*pos) for pos in succ.projective.gen_pos)
        return [[self.projective.node_at(tkey, j) + (c,) for j, c in
                 enumerate(self.kernel_inclusion.block(tkey).apply(x)) if c] for tkey, x in cols]


def _kernel_slots(cols, n):
    """The columns of a slice of n with no image, when its nonzero images
    {column: image} have pairwise disjoint supports, so that these unit
    vectors span the kernel there; else None."""
    if not cols:
        return list(range(n))
    hit = [i for x in cols.values() for i, c in enumerate(x) if c]
    if len(hit) != len(set(hit)):
        return None
    return [j for j in range(n) if j not in cols]


def kernel_subrep(mmap):
    """Graded kernel of a module map, with its induced action and inclusion,
    slice by slice from the map's `columns`: spanned by the slots with no
    image where the nonzero images have disjoint supports, with no block
    built; else the nullspace of the slice's block, built once here."""
    field = mmap.source.engine.field
    columns = mmap.columns()
    vectors = {}
    slots = {}
    for key, n in mmap.source.dims.items():
        cols = columns.get(key, {})
        free = _kernel_slots(cols, n)
        if free is None:
            vectors[key] = _block(field, cols, n).nullspace()
        else:
            slots[key] = free
    return _subrep_from_homogeneous(mmap.source, vectors, slots)


def _subrep_from_homogeneous(parent, vectors, slots):
    """Build the subrepresentation with the given basis vectors.

    vectors: {slice: [coordinates, ...]}, linearly independent (a nullspace
    basis, or the vectors that raised a rank); slots: {slice: [increasing
    slot indices]}, a slice spanned by those unit vectors.  The span must be
    closed under the action (true for kernels of module maps); slices keep
    the parent's order.  For each arrow a and source degree g, the images
    of the basis of slice (a.source, g) are the arrow block's columns at its
    slots, else the block times the basis; their coordinates on slice
    (a.target, g + W(a)) are their rows at its slots, else one solve; the
    parent's block itself, shared, when the slots fill both slices.  An
    image outside the span (a nonzero row off the slots, or no solution)
    raises ValueError.  The inclusion's blocks, unit columns or the basis,
    are built on first read (`_Inclusion`).
    """
    engine = parent.engine
    field = engine.field
    weights = engine.pres.weights
    bases = {key: Matrix.from_columns(field, vecs, parent.dims[key])
             for key, vecs in vectors.items() if vecs}
    slots = {key: s for key, s in slots.items() if s}
    keys = [key for key in parent.dims if key in bases or key in slots]
    action = {}
    for v, g in keys:
        cols = slots.get((v, g))
        whole = cols is not None and len(cols) == parent.dims[(v, g)]
        for a in engine.quiver.arrows_from[v]:
            m = parent.action.get((a.name, g))
            if m is None:
                continue
            tkey = (a.target, wadd(g, weights[a.name]))
            rows = slots.get(tkey)
            if whole and rows is not None and len(rows) == m.nrows:
                if any(any(r) for r in m.rows):
                    action[(a.name, g)] = m     # no row lies off the slots
                continue
            images = (m @ bases[(v, g)]).rows if cols is None else \
                [[row[j] for j in cols] for row in m.rows]
            if not any(any(r) for r in images):
                continue
            width = len(images[0])
            if rows is not None:
                kept = set(rows)
                sol = None if any(any(r) for i, r in enumerate(images) if i not in kept) \
                    else Matrix._owning(field, [images[i] for i in rows], width)
            else:
                lhs = bases.get(tkey)
                sol = None if lhs is None else lhs.solve(Matrix._owning(field, images, width))
            if sol is None:
                raise ValueError("span is not closed under the action")
            action[(a.name, g)] = sol
    sub = Representation.__new__(Representation)    # keys are in the one order: no sort
    sub.engine, sub.action = engine, action
    sub.dims = {key: len(slots[key]) if key in slots else bases[key].ncols for key in keys}
    return sub, _Inclusion(sub, parent, bases, slots)


class _Inclusion(ModuleMap):
    """The inclusion of `sub` in `parent`, spanned on each slice by the
    columns of `bases[slice]` or by the unit vectors at `slots[slice]`: its
    blocks, those bases and unit columns, built on first read."""

    def __init__(self, sub, parent, bases, slots):
        self.source, self.target = sub, parent
        self.grade = wzero(parent.engine.group_rank)
        self._bases, self._slots = bases, slots

    def _slice(self, key):
        slots = self._slots.get(key)
        if slots is None:
            return self._bases.get(key)
        field, n = self.target.engine.field, self.target.dims[key]
        return Matrix.from_columns(field, [_unit(field, n, i) for i in slots], n)


class _Step(ModuleMap):
    """`inclusion` after `epi`: each block the product of theirs at its key."""

    def __init__(self, inclusion, epi):
        self.source, self.target, self.grade = epi.source, inclusion.target, epi.grade
        self._inclusion, self._epi = inclusion, epi

    def _slice(self, key):
        return _product(self._inclusion.block(key), self._epi.block(key))


def projective_cover(engine, rep):
    """Graded projective cover of a representation.

    Returns a Cover: P built from the semisimple top, the covering epi,
    and the kernel (a subrepresentation of P, contained in rad P), computed
    on first read.  A module equal to one the engine has covered before, up
    to a degree shift, gets that cover shifted (see the module docstring).
    """
    shape, start = rep.shape
    bucket = engine.covers.setdefault(shape, [])
    bucket[:] = [entry for entry in bucket if entry[1]() is not None]   # drop the dead
    for old_start, kept in bucket:
        cover = kept()
        if cover is None:
            continue
        old = cover.epi.target
        h = wsub(start, old_start)
        if len(old.action) == len(rep.action) and all(
                old.action.get((name, wsub(g, h))) == m
                for (name, g), m in rep.action.items()):
            return cover.shifted(rep, h)
    lifts = top_lifts(rep)
    proj = Projective(engine, [(v, g) for v, g, _ in lifts])
    cover = Cover(proj, proj.map_from_generator_images(rep, [vec for _, _, vec in lifts]))
    bucket.append((start, weakref.ref(cover)))
    return cover


def dual_to_opposite(engine, rep):
    """The K-dual as a module over the opposite algebra; degrees are negated."""
    weights = engine.pres.weights
    dims = {(v, wneg(g)): n for (v, g), n in rep.dims.items()}
    action = {(name, wneg(wadd(g, weights[name]))): m.transpose()
              for (name, g), m in rep.action.items()}
    return Representation(engine.opposite_engine, dims, action, check=True)


def hom_space(M, N):
    """A basis of the degree-preserving module maps M -> N.

    The unknowns are the entries of the blocks of the slices present in
    both, and the commutation constraints are one linear system; the basis
    comes from the nullspace in a fixed variable order, so it is
    deterministic.
    """
    engine = M.engine
    field = engine.field
    p = field.characteristic
    weights = engine.pres.weights
    var_index = {}
    for key, n in N.dims.items():
        for i in range(n):
            for j in range(M.dims.get(key, 0)):
                var_index[(key, i, j)] = len(var_index)
    if not var_index:
        return []
    # f o a = a o f on each slice (u, g) of M, entry (i, j) of slice
    # (a.target, g + W(a)); every unknown named here exists
    rows = []
    for (u, g), ncols in M.dims.items():
        for a in engine.quiver.arrows_from[u]:
            Am = M.action.get((a.name, g))
            An = N.action.get((a.name, g))
            tkey = (a.target, wadd(g, weights[a.name]))
            for i in range(N.dims.get(tkey, 0) if Am or An else 0):
                for j in range(ncols):
                    row = [field.zero] * len(var_index)
                    for k in range(Am.nrows if Am else 0):
                        row[var_index[(tkey, i, k)]] += Am.rows[k][j]
                    for k in range(An.ncols if An else 0):
                        row[var_index[((u, g), k, j)]] -= An.rows[i][k]
                    if p:
                        row = [x % p for x in row]
                    if any(row):
                        rows.append(row)
    mat = Matrix(field, rows, ncols=len(var_index))
    basis = []
    for vec in mat.nullspace():
        blocks = {}
        for (key, i, j), val in zip(var_index, vec):
            if val:
                if key not in blocks:
                    blocks[key] = Matrix.zeros(field, N.dims[key], M.dims[key])
                blocks[key].rows[i][j] = val
        basis.append(ModuleMap(M, N, blocks, check=False))
    return basis


def module_iso_test(M, N):
    """Decide graded isomorphism: ('isomorphic', witness), ('not_isomorphic',
    None) or ('undetermined', None).  An exact repeat (M == N) gets the
    identity; else a differing arrow block rank refutes, then Hom = 0, then
    each Hom basis element and 64 draws from `random.Random(0)` are tried."""
    if M.dims != N.dims:
        return "not_isomorphic", None
    if M == N:
        eye = {key: Matrix.identity(M.engine.field, n) for key, n in M.dims.items()}
        return "isomorphic", ModuleMap(M, N, eye, check=False)
    blocks = ((M.action.get(key), N.action.get(key)) for key in {**M.action, **N.action})
    if any((0 if x is None else x.rank()) != (0 if y is None else y.rank()) for x, y in blocks):
        return "not_isomorphic", None
    homs = hom_space(M, N)
    if not homs:
        return "not_isomorphic", None
    for h in homs:
        if h.is_iso():
            return "isomorphic", h
    rng = random.Random(0)
    field = M.engine.field
    for _ in range(64):
        coeffs = [field.of(rng.randint(-3, 3)) for _ in homs]
        blocks = {}
        for c, h in zip(coeffs, homs):
            if c:
                for key, b in h.blocks.items():
                    acc = blocks.get(key)
                    blocks[key] = b.scaled(c) if acc is None else acc + b.scaled(c)
        cand = ModuleMap(M, N, blocks, check=False)
        if cand.is_iso():
            return "isomorphic", cand
    return "undetermined", None
