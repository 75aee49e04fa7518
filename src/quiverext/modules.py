"""Finite-dimensional graded modules over a quiver algebra, as representations.

Every map here is homogeneous, so graded data is stored by (vertex, degree)
slice: one matrix per arrow and source slice, one per source slice of a
module map, a missing block meaning zero.  A homogeneous vector is
(v, g, coordinates on slice (v, g)).  Slices are visited vertex by vertex in
quiver order, then by degree in order of first appearance; that order fixes
the order of cover summands.  Dense per-vertex matrices appear only at the
boundary: `from_dense` cuts them into blocks, raising ValueError on any entry
off its block (the grading and homogeneity check), and `dense` lays the
slices of each vertex out one after another.  Relations and commutation are
checked on the blocks.  Nothing changes once built, and blocks may be
shared between modules.  The action of a projective or a shifted module, a
cover's kernel and the blocks of a kernel's inclusion are built on first
read into a plain attribute.

Projectives are assembled from the engine's per-vertex templates of the
indecomposable projectives (`NormalFormEngine.projective_template`), built
once per engine: their slices, their arrow blocks, and a prefix tree of
their basis paths.  A projective's action is block diagonal in the template
blocks and shares every block that one summand fills on its own.  A map out
of a projective (`ProjectiveMap`) is kept as its generator images; the image
of any other slot is evaluated on demand, walking its summand's prefix tree
one matrix-vector product per node and keeping each node's image.  Its
blocks are built on first read, by the same walk over every node.

A kernel is spanned by slots wherever it can be.  `kernel_subrep` takes
each slice of the map on its own.  A block is slot-like when no row has two
nonzero entries: its nonzero columns then have disjoint supports, so they
are independent, and the kernel on its slice is the unit vectors at its
zero columns (what `nullspace` returns).  Between two such slices the
kernel's action is the parent's block restricted to their slots, so no
elimination, product or solve runs.  Other slices take the nullspace, and
an arrow out of one costs a product, into one a solve.  Over a monomial
algebra, such as a Nakayama cycle, every slice is slot-like in a resolution
of a simple: its syzygies are direct sums of path-generated modules
(Green-Happel-Zacharia, Illinois J. Math. 29, 1985), spanned by slots, and
a cover sends the slot q of a summand with generator image p to 0 or to
the slot qp, distinct for distinct (q, p).  An exterior algebra still needs
elimination on some slices.

Covers are shared up to a degree shift.  The engine keeps, for its
lifetime, a weak reference to every cover `projective_cover` computes,
keyed by the covered module's slices taken relative to its first slice's
degree, in order (`engine.covers`).  A module whose key and action blocks,
at the keys moved by h = (its first degree) - (the kept module's first
degree), equal those of a kept module is covered by that module's cover
shifted by h (`Cover.shifted`): the projective is re-keyed, the epi's node
images are shared, and the kernel and the inclusion are re-keyed when read.
Every step of a cover commutes with the shift and uses no seed, so this is
the cover a fresh computation gives.  So a periodic syzygy
(Omega^{n0+t} ~ Omega^{n0}[h]), or one that is a shifted module met before
such as a shifted simple, is not covered again.  A kept cover is found
while its resolution, or any other caller, still holds it.  The reference
is weak because every cover refers to its engine: a strong one would leave
each engine in a reference cycle that only the cyclic garbage collector
frees.
"""

import random
import weakref
from itertools import islice

from .linalg import Factor, Matrix, Subspace
from .quiver import wadd, wneg, wsub, wzero


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


def _by_degree(degrees):
    """{degree: slot indices} of a dense layout, degrees in order of first
    appearance."""
    out = {}
    for i, g in enumerate(degrees):
        out.setdefault(g, []).append(i)
    return out


def _cut(field, row_degrees, col_degrees, dense, shift, what):
    """The one dense-to-block conversion.  Cuts a dense matrix, from slots of
    degrees col_degrees to slots of degrees row_degrees, into blocks
    {g: matrix from the degree-g columns to the rows of degree g + shift},
    leaving out empty blocks.  An entry off these blocks raises ValueError."""
    if dense.shape != (len(row_degrees), len(col_degrees)):
        raise ValueError("%s has shape %s, expected %s"
                         % (what, dense.shape, (len(row_degrees), len(col_degrees))))
    for i, row in enumerate(dense.rows):
        for j, x in enumerate(row):
            if x and row_degrees[i] != wadd(col_degrees[j], shift):
                raise ValueError("%s is not homogeneous at entry (%d, %d)" % (what, i, j))
    rows = _by_degree(row_degrees)
    blocks = {}
    for g, cols in _by_degree(col_degrees).items():
        idx = rows.get(wadd(g, shift))
        if idx:
            blocks[g] = Matrix(field, [[dense.rows[i][j] for j in cols] for i in idx])
    return blocks


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


class _Lazy:
    """An attribute `name` given as a function of no arguments, kept as
    `_build_<name>`, is built on first read into a plain attribute."""

    def __getattr__(self, name):
        build = self.__dict__.pop("_build_" + name, None)
        if build is None:
            raise AttributeError(name)
        value = build()
        setattr(self, name, value)
        return value


class Representation(_Lazy):
    """A graded left module, stored by (vertex, degree) slice.

    `dims[(v, g)]` is the dimension of each nonempty slice, in visiting
    order.  `action[(a, g)]` is the matrix of arrow a from slice
    (a.source, g) to slice (a.target, g + W(a)); it is missing when zero.
    An action given as a function of no arguments is built on first read.
    """

    def __init__(self, engine, dims, action, check=True):
        self.engine = engine
        index = engine.quiver.vertex_index
        items = [(key, n) for key, n in dims.items() if n]
        last = 0        # one pass; most callers pass their slices in order
        for (v, _), _ in items:
            if index[v] < last:
                items.sort(key=lambda kn: index[kn[0][0]])
                break
            last = index[v]
        self.dims = dict(items)
        setattr(self, "_build_action" if callable(action) else "action", action)
        if check:
            self._verify()

    @classmethod
    def from_dense(cls, engine, degrees, action, check=True):
        """A representation from slot degrees {v: tuple} and dense arrow
        matrices {arrow: Matrix} (missing means zero).  An entry that breaks
        the grading raises ValueError."""
        degrees = {v: tuple(degrees.get(v, ())) for v in engine.quiver.vertices}
        dims = {(v, g): len(idx) for v, degs in degrees.items()
                for g, idx in _by_degree(degs).items()}
        blocks = {}
        for a in engine.quiver.arrows:
            m = action.get(a.name)
            if m is not None:
                for g, b in _cut(engine.field, degrees[a.target], degrees[a.source], m,
                                 engine.pres.weights[a.name],
                                 "action of " + a.name).items():
                    blocks[(a.name, g)] = b
        return cls(engine, dims, blocks, check=check)

    def vector_from_dense(self, v, g, vec):
        """Coordinates on slice (v, g) of a dense vector at v, in the layout
        of `dense`.  An entry outside that slice raises ValueError."""
        field = self.engine.field
        degrees = self.dense_degrees()[v]
        blocks = _cut(field, degrees, (g,), Matrix.from_columns(field, [vec], len(degrees)),
                      wzero(self.engine.group_rank), "vector at " + v)
        return blocks[g].col(0) if g in blocks else []

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

    def _layout(self):
        """{v: [(g, dimension)]}: the slices of each vertex in visiting order."""
        out = {v: [] for v in self.engine.quiver.vertices}
        for (v, g), n in self.dims.items():
            out[v].append((g, n))
        return out

    def dense_degrees(self):
        """The degree of each slot of the dense view, per vertex."""
        return {v: tuple(g for g, n in slices for _ in range(n))
                for v, slices in self._layout().items()}

    def dense(self):
        """The dense view {arrow: Matrix}, each vertex space laid out slice
        after slice in visiting order (see `dense_degrees`)."""
        field = self.engine.field
        layout = self._layout()
        out = {}
        for a in self.engine.quiver.arrows:
            blocks = {g: m for (name, g), m in self.action.items() if name == a.name}
            out[a.name] = _assemble(field, layout[a.target], layout[a.source], blocks,
                                    self.engine.pres.weights[a.name])
        return out

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (list(self.dims.items()) == list(other.dims.items())
                and all(_same(self.action.get(k), other.action.get(k))
                        for k in self.action.keys() | other.action.keys()))

    def __repr__(self):
        return "Representation(%s)" % ({v: d for v, d in self.dim_vector().items() if d},)


class ModuleMap(_Lazy):
    """A homogeneous map between representations, stored by slice.

    `grade` is the uniform degree drop: `blocks[(v, g)]` maps slice (v, g) of
    the source into slice (v, g - grade) of the target, and is missing when
    zero.  Plain degree-preserving maps have grade zero.  Blocks given as a
    function of no arguments are built on first read, as a kernel's
    inclusion's are: only differentials, `verify` and lifts read them.
    """

    def __init__(self, source, target, blocks, grade=None, check=True):
        self.source = source
        self.target = target
        self.grade = grade if grade is not None else wzero(source.engine.group_rank)
        setattr(self, "_build_blocks" if callable(blocks) else "blocks", blocks)
        if check:
            self._verify()

    @classmethod
    def from_dense(cls, source, target, blocks, grade=None, check=True):
        """A map from dense per-vertex matrices {v: Matrix} (missing means
        zero) in the layout of the source's and target's dense views.  An
        entry that is not homogeneous of the given grade raises ValueError."""
        engine = source.engine
        grade = grade if grade is not None else wzero(engine.group_rank)
        sdeg = source.dense_degrees()
        tdeg = target.dense_degrees()
        out = {}
        for v, m in blocks.items():
            for g, b in _cut(engine.field, tdeg[v], sdeg[v], m, wneg(grade),
                             "map at " + v).items():
                out[(v, g)] = b
        return cls(source, target, out, grade=grade, check=check)

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
        b = self.blocks.get(key)
        if b is None:
            return tkey, [self.source.engine.field.zero] * self.target.dims.get(tkey, 0)
        return tkey, b.col(i)

    _factors = None     # block key -> Factor, made by `factor`

    def factor(self, key):
        """The `Factor` of block `key` (None where the block is missing),
        made on first use and kept with the map, so every lift through this
        map eliminates each block once."""
        if self._factors is None:
            self._factors = {}
        if key not in self._factors:
            b = self.blocks.get(key)
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
        """The dense view {v: Matrix}, in the layout of the source's and
        target's dense views."""
        field = self.source.engine.field
        src = self.source._layout()
        tgt = self.target._layout()
        shift = wneg(self.grade)
        return {v: _assemble(field, tgt[v], src[v],
                             {g: b for (u, g), b in self.blocks.items() if u == v}, shift)
                for v in self.source.engine.quiver.vertices}

    def to_json(self):
        dense = self.dense()
        return {v: dense[v].to_json() for v in sorted(dense)}


def zero_module(engine):
    return Representation(engine, {}, {}, check=False)


def simple_module(engine, vertex, shift=None):
    """The graded simple at a vertex: one slot in degree `shift`, arrows act as 0."""
    if vertex not in engine.quiver.vertices:
        raise ValueError("unknown vertex %r" % vertex)
    if shift is None:
        shift = wzero(engine.group_rank)
    return Representation(engine, {(vertex, tuple(shift)): 1}, {}, check=False)


class Projective:
    """A direct sum of shifted indecomposable projectives, with slot tracking.

    Summand (v, g) contributes one slot per normal-form path p starting at v,
    in slice (p.target, weight(p) + g).  `slots[(w, h)]` lists the (summand
    index, path) of each coordinate of slice (w, h), summand by summand, each
    summand's paths in (length, arrows) order.  The length-0 path is the
    summand's generator: `gen_pos[idx]` is its (slice, coordinate), and
    `generators[slice]` maps coordinates to summand indices.

    Everything is read off the engine's templates (`projective_template`):
    the slots are the template slices shifted by g, in order (a shift keeps
    a template's order, so only a sum of summands sorts), and the action,
    built on first read, is block diagonal in the template blocks.  Each
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
        where = self._where = []
        slots = self.slots = {}
        zero = wzero(engine.group_rank)
        self.gen_pos = []
        self.generators = {}
        for idx, (t, (v, g)) in enumerate(zip(templates, self.summands)):
            at = {}
            for (w, d), paths in t.slices.items():
                key = (w, wadd(d, g))
                s = slots.setdefault(key, [])
                at[(w, d)] = (key, len(s))
                s += [(idx, p) for p in paths]
            where.append(at)
            key, i = at[(v, zero)]      # e_v comes first in its template slice
            self.gen_pos.append((key, i))
            self.generators.setdefault(key, {})[i] = idx
        if len(templates) > 1:
            index = engine.quiver.vertex_index
            self.slots = {key: slots[key]
                          for key in sorted(slots, key=lambda k: (index[k[0]], k[1]))}
        dims = {key: len(s) for key, s in self.slots.items()}
        # the builder holds the parts it reads, never this projective: a
        # reference back would leave every projective in a cycle
        self.rep = Representation(
            engine, dims, lambda: _block_action(engine, templates, where, dims),
            check=False)

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

    def shifted(self, h):
        """This sum with every summand moved up by h: the same templates,
        slot lists and action blocks, re-keyed."""
        def up(key):
            return key[0], wadd(key[1], h)

        out = Projective.__new__(Projective)
        out.engine = self.engine
        out.summands = tuple(up(s) for s in self.summands)
        out._templates = self._templates
        out._where = [{t: (up(key), i) for t, (key, i) in at.items()} for at in self._where]
        out.slots = {up(key): s for key, s in self.slots.items()}
        out.gen_pos = [(up(key), i) for key, i in self.gen_pos]
        out.generators = {up(key): g for key, g in self.generators.items()}
        out.rep = shift_rep(self.rep, h)
        return out

    def to_json(self):
        return [[v, list(g)] for v, g in self.summands]


class ProjectiveMap(ModuleMap):
    """A map out of a projective, kept as its generator images.

    The image of tree node i of summand idx (a slot, when the node's path
    is a basis path) is the target's arrow block applied to the image of
    node i's parent: one `Matrix.apply`.  Each summand keeps the images of
    a prefix of its tree, in tree order, so parents come first; reading
    node i extends that prefix through i.  A missing block or a zero vector
    is kept as None and ends the branch.  So `node` and `column` evaluate no
    node past the one they read, and a generator's image, node 0, none at
    all; `blocks` are built on first read from the whole tree, and kept.
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

    _blocks = None

    @property
    def blocks(self):
        if self._blocks is None:
            proj = self._proj
            columns = {}
            for idx, (t, at) in enumerate(zip(proj._templates, proj._where)):
                self.node(idx, len(t.tree) - 1)
                vecs = self._memo[idx] or ()
                for x, (_, _, _, slot) in zip(vecs, t.tree):
                    if x is not None and slot is not None:
                        key, offset = at[slot[0]]
                        columns.setdefault(key, {})[offset + slot[1]] = x
            field = self.source.engine.field
            blocks = {}
            for (v, h), slots in proj.slots.items():
                cols = columns.get((v, h))
                if cols is not None:
                    nrows = self.target.dims[(v, wsub(h, self.grade))]
                    zero = [field.zero] * nrows
                    blocks[(v, h)] = Matrix.from_columns(
                        field, [cols.get(j, zero) for j in range(len(slots))], nrows)
            self._blocks = blocks
        return self._blocks

    def shifted(self, proj, target, h):
        """This map moved up by h, from `proj` (the source projective
        shifted by h) into `target` (the target shifted by h).  The node
        images do not depend on the shift, so the memo is shared; blocks
        already built are re-keyed."""
        out = ProjectiveMap(proj, target, (), self.grade)
        out._memo = self._memo
        if self._blocks is not None:
            out._blocks = {(v, wadd(g, h)): b for (v, g), b in self._blocks.items()}
        return out


def _block_action(engine, templates, where, dims):
    """The action of a sum of projectives: each summand's template blocks at
    the offsets of their slices, the block itself where the summand fills
    both slices alone.  Keys go slice by slice, arrows in quiver order."""
    action = {}
    for t, at in zip(templates, where):
        for tkey, blocks in t.blocks_from.items():
            (w, h), c = at[tkey]
            for name, target, b in blocks:
                key, r = at[target]
                if dims[(w, h)] == len(t.slices[tkey]) and dims[key] == len(t.slices[target]):
                    action[(name, h)] = b
                    continue
                if (name, h) not in action:
                    action[(name, h)] = Matrix.zeros(engine.field, dims[key], dims[(w, h)])
                for i, row in enumerate(b.rows):
                    action[(name, h)].rows[r + i][c:c + b.ncols] = row
    return {(a.name, h): action[(a.name, h)] for w, h in dims
            for a in engine.quiver.arrows_from[w] if (a.name, h) in action}


def projective_module(engine, vertex, shift=None):
    if vertex not in engine.quiver.vertices:
        raise ValueError("unknown vertex %r" % vertex)
    if shift is None:
        shift = wzero(engine.group_rank)
    return Projective(engine, [(vertex, tuple(shift))])


def shift_rep(rep, h):
    """Shift all degrees up by h; matrices are untouched, and the action is
    re-keyed on first read."""
    dims = {(v, wadd(g, h)): n for (v, g), n in rep.dims.items()}
    return Representation(
        rep.engine, dims,
        lambda: {(name, wadd(g, h)): m for (name, g), m in rep.action.items()},
        check=False)


def radical_subspaces(rep):
    """Per slice (v, g): the subspace r*M, spanned by all arrow images.

    The graded radical is generated by the arrows (positive-length normal
    form paths), so r*M is the sum of the arrow-action images.
    """
    field = rep.engine.field
    weights = rep.engine.pres.weights
    arrows = rep.engine.quiver.arrow_by_name
    spans = {}
    for (name, g), m in rep.action.items():
        key = (arrows[name].target, wadd(g, weights[name]))
        for j in range(m.ncols):
            col = m.col(j)
            if any(col):
                if key not in spans:
                    spans[key] = Subspace(field, rep.dims[key])
                spans[key].add(col)
    return spans


def semisimple_top(rep):
    """Dimensions of M / rM as a sorted list of (vertex, degree, multiplicity)."""
    spans = radical_subspaces(rep)
    out = []
    for (v, g), n in rep.dims.items():
        r = spans.get((v, g))
        mult = n - (r.dim if r else 0)
        if mult:
            out.append((v, g, mult))
    return sorted(out)


def top_lifts(rep):
    """Choose homogeneous vectors lifting a basis of M / rM.

    Returns a list of (vertex, degree, coordinates): unit vectors at the
    non-pivot coordinates of each slice's radical span, slices in visiting
    order, so the choice is deterministic.
    """
    spans = radical_subspaces(rep)
    field = rep.engine.field
    lifts = []
    for (v, g), n in rep.dims.items():
        r = spans.get((v, g))
        pivots = set(r.pivot_of_row) if r else ()
        for i in range(n):
            if i not in pivots:
                lifts.append((v, g, _unit(field, n, i)))
    return lifts


class Cover:
    """A projective cover: epi P -> M with kernel K inside rad(P).  `kernel`
    and `kernel_inclusion` are filled on first read (for a shifted cover, the
    base cover's, re-keyed); `kernel_dims` is dim P - dim M slice by slice."""

    __slots__ = ("projective", "epi", "kernel", "kernel_inclusion", "kernel_dims",
                 "_base", "__weakref__")

    def __init__(self, projective, epi, base=None):
        self.projective = projective
        self.epi = epi
        self._base = base   # (cover, h) when this is that cover shifted by h
        covered = epi.target.dims
        self.kernel_dims = {key: n - covered.get(key, 0) for key, n
                            in projective.rep.dims.items() if n > covered.get(key, 0)}

    def __getattr__(self, name):
        if name not in ("kernel", "kernel_inclusion"):
            raise AttributeError(name)
        if self._base is None:
            self.kernel, self.kernel_inclusion = kernel_subrep(self.epi)
        else:
            base, h = self._base
            inclusion = base.kernel_inclusion
            self.kernel = shift_rep(base.kernel, h)
            self.kernel_inclusion = ModuleMap(self.kernel, self.projective.rep, lambda: {
                (v, wadd(g, h)): b for (v, g), b in inclusion.blocks.items()}, check=False)
            self._base = None
        return getattr(self, name)

    def shifted(self, module, h):
        """This cover moved up by h, as the cover of `module`, which equals
        the covered module shifted by h.  Every step of a cover commutes
        with the shift, so this is the cover computed afresh."""
        proj = self.projective.shifted(h)
        return Cover(proj, self.epi.shifted(proj, module, h), (self, h))


def _zero_columns(b):
    """The zero columns of a slot-like block (see the module docstring), or
    None when it is not one."""
    hit = set()
    for row in b.rows:
        cols = [j for j, x in enumerate(row) if x]
        if len(cols) > 1:
            return None
        hit.update(cols)
    return [j for j in range(b.ncols) if j not in hit]


def kernel_subrep(mmap):
    """Graded kernel of a module map, with its induced action and inclusion,
    slice by slice: spanned by the slots at the zero columns of a missing or
    slot-like block, with no elimination; else the block's nullspace."""
    blocks = mmap.blocks
    vectors = {}
    slots = {}
    for key, n in mmap.source.dims.items():
        b = blocks.get(key)
        zero = range(n) if b is None else _zero_columns(b)
        if zero is None:
            vectors[key] = b.nullspace()
        else:
            slots[key] = zero
    return _subrep_from_homogeneous(mmap.source, vectors, slots)


def _subrep_from_homogeneous(parent, vectors, slots=None):
    """Build the subrepresentation with the given basis vectors.

    vectors: {slice: [coordinates, ...]}, linearly independent (a nullspace
    basis, or the vectors that raised a rank); slots: {slice: [increasing
    slot indices]}, a slice spanned by those unit vectors.  The span must be
    closed under the action (true for kernels of module maps); slices are
    ordered by vertex, then by degree.  For each arrow a and source degree
    g, the images of the basis of slice (a.source, g) are the arrow block's
    columns at its slots, else the block times the basis; their coordinates
    on slice (a.target, g + W(a)) are their rows at its slots, else one
    solve.  An image outside the span (a nonzero row off the slots, or no
    solution) raises ValueError.  The inclusion's blocks, unit columns or
    the basis, are built on first read.
    """
    engine = parent.engine
    field = engine.field
    weights = engine.pres.weights
    index = engine.quiver.vertex_index
    bases = {key: Matrix.from_columns(field, vecs, parent.dims[key])
             for key, vecs in vectors.items() if vecs}
    slots = {key: s for key, s in (slots or {}).items() if s}
    keys = sorted(bases.keys() | slots.keys(), key=lambda k: (index[k[0]], k[1]))
    action = {}
    for v, g in keys:
        cols = slots.get((v, g))
        for a in engine.quiver.arrows_from[v]:
            m = parent.action.get((a.name, g))
            if m is None:
                continue
            images = (m @ bases[(v, g)]).rows if cols is None else \
                [[row[j] for j in cols] for row in m.rows]
            if not any(any(r) for r in images):
                continue
            tkey = (a.target, wadd(g, weights[a.name]))
            width = len(images[0])
            rows = slots.get(tkey)
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
    dims = {key: len(slots[key]) if key in slots else bases[key].ncols for key in keys}

    def inclusion():
        return {key: bases[key] if key in bases else Matrix.from_columns(
            field, [_unit(field, parent.dims[key], i) for i in slots[key]], parent.dims[key])
            for key in keys}

    sub = Representation(engine, dims, action, check=False)
    return sub, ModuleMap(sub, parent, inclusion, check=False)


def subrep_generated(parent, vectors):
    """The submodule generated by homogeneous vectors (v, g, coordinates):
    close under arrows."""
    engine = parent.engine
    field = engine.field
    weights = engine.pres.weights
    spans = {}
    collected = {}

    def add(key, vec):
        if key not in spans:
            spans[key] = Subspace(field, parent.dims[key])
        if spans[key].add(vec):
            collected.setdefault(key, []).append(vec)
            return True
        return False

    frontier = []
    for v, g, vec in vectors:
        if add((v, g), list(vec)):
            frontier.append(((v, g), vec))
    while frontier:
        (v, g), vec = frontier.pop()
        for a in engine.quiver.arrows_from[v]:
            m = parent.action.get((a.name, g))
            if m is None:
                continue
            img = m.apply(vec)
            if any(img):
                key = (a.target, wadd(g, weights[a.name]))
                if add(key, img):
                    frontier.append((key, img))
    return _subrep_from_homogeneous(parent, collected)


def projective_cover(engine, rep):
    """Graded projective cover of a representation.

    Returns a Cover: P built from the semisimple top, the covering epi,
    and the kernel (a subrepresentation of P, contained in rad P), computed
    on first read.  A module equal to one the engine has covered before, up
    to a degree shift, gets that cover shifted (see the module docstring).
    """
    start = next(iter(rep.dims))[1] if rep.dims else wzero(engine.group_rank)
    bucket = engine.covers.setdefault(
        tuple((v, wsub(g, start), n) for (v, g), n in rep.dims.items()), [])
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


def module_iso_test(M, N, seed=0, trials=64):
    """Decide graded isomorphism: 'isomorphic' (with witness), 'not_isomorphic',
    or 'undetermined' when random sampling exhausts its trials.

    Returns (status, witness_map_or_None).
    """
    if M.dims != N.dims:
        return "not_isomorphic", None
    if M.total_dim == 0:
        return "isomorphic", ModuleMap(M, N, {}, check=False)
    homs = hom_space(M, N)
    if not homs:
        return "not_isomorphic", None
    for h in homs:
        if h.is_iso():
            return "isomorphic", h
    rng = random.Random(seed)
    field = M.engine.field
    for _ in range(trials):
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
