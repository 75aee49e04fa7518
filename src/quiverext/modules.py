"""Finite-dimensional graded modules over a quiver algebra, as representations.

A representation assigns to each vertex an ordered list of homogeneous basis
slots (each slot carries its weight-group degree) and to each arrow a matrix
from the source-vertex space to the target-vertex space.  Matrices must be
degree-compatible (a slot of degree g maps into degree g + W(a)) and must
annihilate every relation; both are asserted at construction.

Everything is immutable after construction and safe to share.
"""

import functools
import random

from .linalg import Matrix, Subspace
from .quiver import wadd, wneg, wsub, wzero


class Representation:
    """A graded left module, stored vertexwise with explicit ordered bases.

    `degrees[v]` gives the degree of each basis slot at vertex v.  The slots
    of one degree at one vertex form a slice; `slices[v]` maps every degree
    at v to its slot indices (degrees in order of first appearance).  The
    map is built on first use.  Module maps are homogeneous, so kernels,
    lifts and subrepresentations eliminate one slice at a time through it
    (`slice_matrix`).
    """

    def __init__(self, engine, degrees, action, check=True):
        self.engine = engine
        self.degrees = {v: tuple(degrees.get(v, ())) for v in engine.quiver.vertices}
        self.action = {}
        field = engine.field
        for a in engine.quiver.arrows:
            m = action.get(a.name)
            if m is None:
                m = Matrix.zeros(field, len(self.degrees[a.target]), len(self.degrees[a.source]))
            self.action[a.name] = m
        if check:
            self._verify()

    def _verify(self):
        quiver = self.engine.quiver
        weights = self.engine.pres.weights
        for a in quiver.arrows:
            m = self.action[a.name]
            src = self.degrees[a.source]
            tgt = self.degrees[a.target]
            if m.shape != (len(tgt), len(src)):
                raise ValueError("action of %s has shape %s, expected %s"
                                 % (a.name, m.shape, (len(tgt), len(src))))
            w = weights[a.name]
            for i in range(m.nrows):
                for j in range(m.ncols):
                    if m.rows[i][j] and tgt[i] != wadd(src[j], w):
                        raise ValueError(
                            "action of %s violates the grading at entry (%d, %d)"
                            % (a.name, i, j))
        for rel in self.engine.pres.uniform_relations:
            src = rel.source
            tgt = rel.target
            acc = Matrix.zeros(self.engine.field,
                               len(self.degrees[tgt]), len(self.degrees[src]))
            for c, p in rel.terms:
                acc = acc + self.path_action(p).scaled(c)
            if not acc.is_zero():
                raise ValueError("relation does not act as zero")

    def dim(self, v):
        return len(self.degrees[v])

    @property
    def total_dim(self):
        return sum(len(d) for d in self.degrees.values())

    def dim_vector(self):
        return {v: len(self.degrees[v]) for v in self.engine.quiver.vertices}

    def graded_dims(self):
        out = {}
        for v, degs in self.degrees.items():
            for g in degs:
                out[(v, g)] = out.get((v, g), 0) + 1
        return out

    def is_zero(self):
        return self.total_dim == 0

    def path_action(self, path):
        """The matrix by which a path acts: source-vertex space to target's."""
        if path.is_vertex:
            return Matrix.identity(self.engine.field, len(self.degrees[path.source]))
        names = list(path.arrows)
        m = self.action[names[-1]]
        for name in reversed(names[:-1]):
            m = self.action[name] @ m
        return m

    @functools.cached_property
    def slices(self):
        """{vertex: {degree: slot indices}}.  Shared: callers must not mutate it."""
        out = {}
        for v, degs in self.degrees.items():
            by_degree = out[v] = {}
            for i, d in enumerate(degs):
                by_degree.setdefault(d, []).append(i)
        return out

    def degree_slice(self, v, g):
        """Indices of the slots at vertex v having degree g."""
        return self.slices[v].get(g, [])

    def slice_matrix(self, v, g, vectors):
        """The matrix whose columns are the entries of the given vectors (at
        vertex v) on the degree-g slice, or None when some vector has a
        nonzero entry outside that slice."""
        rows = self.slices[v].get(g, ())
        if len(rows) < len(self.degrees[v]):
            inside = set(rows)
            for vec in vectors:
                for i, x in enumerate(vec):
                    if x and i not in inside:
                        return None
        return Matrix(self.engine.field, [[vec[i] for vec in vectors] for i in rows],
                      ncols=len(vectors))

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.degrees == other.degrees
                and all(self.action[a.name] == other.action[a.name]
                        for a in self.engine.quiver.arrows))

    def __repr__(self):
        dims = {v: len(d) for v, d in self.degrees.items() if d}
        return "Representation(%s)" % (dims,)

    def to_json(self):
        return {
            "degrees": {v: [list(g) for g in degs]
                        for v, degs in sorted(self.degrees.items())},
            "action": {a.name: self.action[a.name].to_json()
                       for a in self.engine.quiver.arrows},
        }


class ModuleMap:
    """A vertexwise linear map between representations.

    `grade` is the uniform degree drop: a slot of degree d maps into slots
    of degree d - grade.  Plain degree-preserving maps have grade zero.
    """

    def __init__(self, source, target, blocks, grade=None, check=True):
        self.source = source
        self.target = target
        self.grade = grade if grade is not None else wzero(source.engine.group_rank)
        field = source.engine.field
        self.blocks = {}
        for v in source.engine.quiver.vertices:
            b = blocks.get(v)
            if b is None:
                b = Matrix.zeros(field, target.dim(v), source.dim(v))
            self.blocks[v] = b
        if check:
            self._verify()

    def _verify(self):
        quiver = self.source.engine.quiver
        for v in quiver.vertices:
            b = self.blocks[v]
            if b.shape != (self.target.dim(v), self.source.dim(v)):
                raise ValueError("block at %s has shape %s, expected %s"
                                 % (v, b.shape, (self.target.dim(v), self.source.dim(v))))
            sdeg = self.source.degrees[v]
            tdeg = self.target.degrees[v]
            for i in range(b.nrows):
                for j in range(b.ncols):
                    if b.rows[i][j] and tdeg[i] != wsub(sdeg[j], self.grade):
                        raise ValueError("map is not homogeneous at %s (%d, %d)" % (v, i, j))
        for a in quiver.arrows:
            lhs = self.blocks[a.target] @ self.source.action[a.name]
            rhs = self.target.action[a.name] @ self.blocks[a.source]
            if lhs != rhs:
                raise ValueError("map does not commute with arrow %s" % a.name)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        blocks = {v: self.blocks[v] @ other.blocks[v] for v in self.blocks}
        return ModuleMap(other.source, self.target, blocks,
                         grade=wadd(self.grade, other.grade), check=False)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def rank(self):
        return sum(b.rank() for b in self.blocks.values())

    def is_iso(self):
        return all(self.target.dim(v) == self.source.dim(v) and b.rank() == b.nrows
                   for v, b in self.blocks.items())

    def to_json(self):
        return {v: self.blocks[v].to_json() for v in sorted(self.blocks)}


def zero_module(engine):
    return Representation(engine, {}, {}, check=False)


def simple_module(engine, vertex, shift=None):
    """The graded simple at a vertex: one slot in degree `shift`, arrows act as 0."""
    if vertex not in engine.quiver.vertices:
        raise ValueError("unknown vertex %r" % vertex)
    if shift is None:
        shift = wzero(engine.group_rank)
    return Representation(engine, {vertex: (tuple(shift),)}, {}, check=False)


class Projective:
    """A direct sum of shifted indecomposable projectives, with slot tracking.

    Summand (v, g) contributes one slot per normal-form path starting at v;
    the slot of path p lives at vertex p.target in degree weight(p) + g.  The
    length-0 path is the summand's generator.
    """

    def __init__(self, engine, summands):
        self.engine = engine
        self.summands = tuple((v, tuple(g)) for v, g in summands)
        slot_lists = {v: [] for v in engine.quiver.vertices}
        for idx, (v, g) in enumerate(self.summands):
            for p in engine.basis_paths_from(v):
                slot_lists[p.target].append((wadd(p.weight, g), idx, p))
        self.slots = {}
        degrees = {}
        for v in engine.quiver.vertices:
            entries = sorted(slot_lists[v],
                             key=lambda t: (t[0], t[1], t[2].length, t[2].arrows))
            self.slots[v] = [(idx, p) for (_, idx, p) in entries]
            degrees[v] = tuple(d for (d, _, _) in entries)
        self._slot_index = {}
        for v, entries in self.slots.items():
            for i, (idx, p) in enumerate(entries):
                self._slot_index[(idx, p)] = (v, i)
        self.gen_pos = []
        for idx, (v, g) in enumerate(self.summands):
            self.gen_pos.append(self._slot_index[(idx, engine.pres.vertex_path(v))])
        action = {}
        field = engine.field
        for a in engine.quiver.arrows:
            src = self.slots[a.source]
            tgt = self.slots[a.target]
            m = Matrix.zeros(field, len(tgt), len(src))
            ap = engine.pres.arrow_path(a.name)
            for j, (idx, p) in enumerate(src):
                for q, c in engine.multiply_paths(ap, p).items():
                    v_i = self._slot_index[(idx, q)]
                    m.rows[v_i[1]][j] = c
            action[a.name] = m
        self.rep = Representation(engine, degrees, action, check=False)

    @property
    def total_dim(self):
        return self.rep.total_dim

    def is_zero(self):
        return not self.summands

    def generator_vector(self, idx):
        """Coordinates of summand idx's generator: (vertex, basis vector)."""
        v, i = self.gen_pos[idx]
        vec = [self.engine.field.zero] * self.rep.dim(v)
        vec[i] = self.engine.field.one
        return v, vec

    def generator_coordinates(self, v):
        """Indices at vertex v that are generator slots, as {slot index: summand}."""
        out = {}
        for idx, (gv, gi) in enumerate(self.gen_pos):
            if gv == v:
                out[gi] = idx
        return out

    def radical_slice(self, v):
        """Indices at vertex v of positive-length path slots (the radical)."""
        return [i for i, (_, p) in enumerate(self.slots[v]) if p.length >= 1]

    def map_from_generator_images(self, target, images, grade=None):
        """The module map sending generator idx to images[idx].

        images[idx] is (vertex, vector in target coordinates).  Non-generator
        slots are filled in by the path action, so the result automatically
        commutes with the algebra action.
        """
        field = self.engine.field
        blocks = {v: Matrix.zeros(field, target.dim(v), len(self.slots[v]))
                  for v in self.engine.quiver.vertices}
        for v in self.engine.quiver.vertices:
            for j, (idx, p) in enumerate(self.slots[v]):
                gv, vec = images[idx]
                col = target.path_action(p).apply(vec)
                for i, c in enumerate(col):
                    blocks[v].rows[i][j] = c
        return ModuleMap(self.rep, target, blocks, grade=grade, check=False)

    def to_json(self):
        return [[v, list(g)] for v, g in self.summands]


def projective_module(engine, vertex, shift=None):
    if vertex not in engine.quiver.vertices:
        raise ValueError("unknown vertex %r" % vertex)
    if shift is None:
        shift = wzero(engine.group_rank)
    return Projective(engine, [(vertex, tuple(shift))])


def shift_rep(rep, h):
    """Shift all degrees up by h; matrices are untouched."""
    degrees = {v: tuple(wadd(d, h) for d in degs) for v, degs in rep.degrees.items()}
    return Representation(rep.engine, degrees, rep.action, check=False)


def radical_subspaces(rep):
    """Per (vertex, degree): the subspace r*M, spanned by all arrow images.

    The graded radical is generated by the arrows (positive-length normal
    form paths), so r*M is the sum of the arrow-action images.
    """
    field = rep.engine.field
    spans = {}
    for a in rep.engine.quiver.arrows:
        m = rep.action[a.name]
        tgt = a.target
        tdegs = rep.degrees[tgt]
        for j in range(m.ncols):
            col = m.col(j)
            if all(not c for c in col):
                continue
            g = None
            for i, c in enumerate(col):
                if c:
                    g = tdegs[i]
                    break
            key = (tgt, g)
            if key not in spans:
                spans[key] = Subspace(field, len(tdegs))
            spans[key].add(col)
    return spans


def semisimple_top(rep):
    """Dimensions of M / rM as a sorted list of (vertex, degree, multiplicity)."""
    spans = radical_subspaces(rep)
    out = {}
    for v, degs in rep.degrees.items():
        per_deg = {}
        for g in degs:
            per_deg[g] = per_deg.get(g, 0) + 1
        for g, d in per_deg.items():
            r = spans.get((v, g))
            mult = d - (r.dim if r else 0)
            if mult:
                out[(v, g)] = mult
    return sorted((v, g, m) for (v, g), m in out.items())


def top_lifts(rep):
    """Choose homogeneous vectors lifting a basis of M / rM.

    Returns a list of (vertex, degree, vector); standard basis vectors at
    the non-pivot coordinates of the radical span, so the choice is
    deterministic.
    """
    spans = radical_subspaces(rep)
    field = rep.engine.field
    lifts = []
    for v, by_degree in rep.slices.items():
        for g, slice_idx in by_degree.items():
            r = spans.get((v, g))
            pivots = set(r.pivot_of_row) if r else set()
            for i in slice_idx:
                if i not in pivots:
                    vec = [field.zero] * rep.dim(v)
                    vec[i] = field.one
                    lifts.append((v, g, vec))
    return lifts


class Cover:
    """A projective cover: epi P -> M with kernel K inside rad(P)."""

    __slots__ = ("projective", "epi", "kernel", "kernel_inclusion")

    def __init__(self, projective, epi, kernel, kernel_inclusion):
        self.projective = projective
        self.epi = epi
        self.kernel = kernel
        self.kernel_inclusion = kernel_inclusion


def kernel_subrep(mmap):
    """Graded kernel of a module map, with its induced action and inclusion.

    The map is homogeneous, so each source slice (v, g) is solved on its own:
    its columns against the target rows of degree g - grade.  A nonzero
    entry outside those rows raises ValueError.
    """
    source = mmap.source
    target = mmap.target
    engine = source.engine
    field = engine.field
    kernel_vectors = {v: [] for v in engine.quiver.vertices}
    for v, by_degree in source.slices.items():
        block = mmap.blocks[v]
        for g, cols in by_degree.items():
            sub = target.slice_matrix(v, wsub(g, mmap.grade), [block.col(j) for j in cols])
            if sub is None:
                raise ValueError("map is not homogeneous at %s" % (v,))
            for kv in sub.nullspace():
                full = [field.zero] * source.dim(v)
                for cj, val in zip(cols, kv):
                    full[cj] = val
                kernel_vectors[v].append((g, full))
    return _subrep_from_homogeneous(source, kernel_vectors)


def _subrep_from_homogeneous(parent, vectors_by_vertex):
    """Build the subrepresentation on given homogeneous spanning vectors.

    vectors_by_vertex: {vertex: [(degree, vector), ...]}.  The span must be
    closed under the action (true for kernels of module maps).  Arrow images
    are solved against the chosen basis in one system per arrow a and
    source degree g: the parent's slots of degree g + W(a) as rows, the
    basis vectors of that degree as columns, and the images of all basis
    vectors of degree g as right-hand sides.
    """
    engine = parent.engine
    field = engine.field
    basis = {v: [] for v in engine.quiver.vertices}
    spans = {}
    for v, vecs in vectors_by_vertex.items():
        for g, vec in sorted(vecs, key=lambda t: t[0]):
            key = (v, g)
            if key not in spans:
                spans[key] = Subspace(field, parent.dim(v))
            if spans[key].add(vec):
                basis[v].append((g, vec))
    degrees = {v: tuple(g for g, _ in basis[v]) for v in basis}
    incl_blocks = {v: Matrix(field, [[vec[i] for _, vec in basis[v]]
                                     for i in range(parent.dim(v))], ncols=len(basis[v]))
                   for v in engine.quiver.vertices}
    sub = Representation(engine, degrees, {}, check=False)
    # the basis vectors of each slice (v, g) on the parent's degree-g slots
    on_slice = {}
    for v, by_degree in sub.slices.items():
        for g, idx in by_degree.items():
            m = parent.slice_matrix(v, g, [basis[v][i][1] for i in idx])
            if m is None:
                raise ValueError("vector at %s is not homogeneous of degree %s"
                                 % (v, list(g)))
            on_slice[(v, g)] = m
    for a in engine.quiver.arrows:
        if not basis[a.source]:
            continue
        act = parent.action[a.name]
        out = sub.action[a.name]
        w = engine.pres.weights[a.name]
        for g, cols in sub.slices[a.source].items():
            h = wadd(g, w)
            images = parent.slice_matrix(
                a.target, h, [act.apply(basis[a.source][j][1]) for j in cols])
            if images is None:
                raise ValueError("span is not closed under the action")
            lhs = on_slice.get((a.target, h)) or Matrix.zeros(field, images.nrows, 0)
            sol = lhs.solve(images)
            if sol is None:
                raise ValueError("span is not closed under the action")
            for r, i in enumerate(sub.degree_slice(a.target, h)):
                row = out.rows[i]
                for c, j in enumerate(cols):
                    row[j] = sol.rows[r][c]
    incl = ModuleMap(sub, parent, incl_blocks, check=False)
    return sub, incl


def subrep_generated(parent, vectors_by_vertex):
    """The submodule generated by homogeneous vectors: close under arrows."""
    engine = parent.engine
    field = engine.field
    spans = {}
    collected = {v: [] for v in engine.quiver.vertices}

    def add(v, g, vec):
        key = (v, g)
        if key not in spans:
            spans[key] = Subspace(field, parent.dim(v))
        if spans[key].add(vec):
            collected[v].append((g, vec))
            return True
        return False

    frontier = []
    for v, vecs in vectors_by_vertex.items():
        for g, vec in vecs:
            if add(v, g, list(vec)):
                frontier.append((v, g, vec))
    while frontier:
        v, g, vec = frontier.pop()
        for a in engine.quiver.arrows_from[v]:
            img = parent.action[a.name].apply(vec)
            if any(img):
                g2 = wadd(g, engine.pres.weights[a.name])
                if add(a.target, g2, img):
                    frontier.append((a.target, g2, img))
    return _subrep_from_homogeneous(parent, collected)


def quotient_rep(parent, incl):
    """Quotient of parent by the image of an inclusion, with the projection."""
    engine = parent.engine
    field = engine.field
    sub_spans = {}
    for v in engine.quiver.vertices:
        block = incl.blocks[v]
        degs = incl.source.degrees[v]
        for j in range(block.ncols):
            key = (v, degs[j])
            if key not in sub_spans:
                sub_spans[key] = Subspace(field, parent.dim(v))
            sub_spans[key].add(block.col(j))
    degrees = {}
    proj_blocks = {}
    keep = {}
    for v in engine.quiver.vertices:
        degs = parent.degrees[v]
        keep_idx = []
        for i, g in enumerate(degs):
            span = sub_spans.get((v, g))
            pivots = set(span.pivot_of_row) if span else set()
            if i not in pivots:
                keep_idx.append(i)
        keep[v] = keep_idx
        degrees[v] = tuple(degs[i] for i in keep_idx)
        # reduce each standard vector modulo the subspace, then read off
        # the kept coordinates
        out = Matrix.zeros(field, len(keep_idx), len(degs))
        for j, g in enumerate(degs):
            span = sub_spans.get((v, g))
            e = [field.zero] * len(degs)
            e[j] = field.one
            res = span.reduce(e) if span else e
            for r, i in enumerate(keep_idx):
                out.rows[r][j] = res[i]
        proj_blocks[v] = out
    action = {}
    for a in engine.quiver.arrows:
        cols = []
        src_keep = keep[a.source]
        for j in src_keep:
            e = [field.zero] * parent.dim(a.source)
            e[j] = field.one
            img = parent.action[a.name].apply(e)
            cols.append(proj_blocks[a.target].apply(img))
        action[a.name] = Matrix.from_columns(field, cols, len(keep[a.target]))
    quot = Representation(engine, degrees, action, check=False)
    proj = ModuleMap(parent, quot, proj_blocks, check=False)
    return quot, proj


def projective_cover(engine, rep):
    """Graded projective cover of a representation.

    Returns a Cover: P built from the semisimple top, the covering epi,
    and the kernel (a subrepresentation of P, contained in rad P).
    """
    lifts = top_lifts(rep)
    proj = Projective(engine, [(v, g) for v, g, _ in lifts])
    images = [(v, vec) for v, g, vec in lifts]
    epi = proj.map_from_generator_images(rep, images)
    kernel, incl = kernel_subrep(epi)
    return Cover(proj, epi, kernel, incl)


def direct_sum(reps):
    """Direct sum of representations (block diagonal actions)."""
    if not reps:
        raise ValueError("empty direct sum")
    engine = reps[0].engine
    field = engine.field
    degrees = {v: tuple(d for r in reps for d in r.degrees[v])
               for v in engine.quiver.vertices}
    action = {}
    for a in engine.quiver.arrows:
        nrows = sum(r.dim(a.target) for r in reps)
        ncols = sum(r.dim(a.source) for r in reps)
        m = Matrix.zeros(field, nrows, ncols)
        ro = co = 0
        for r in reps:
            b = r.action[a.name]
            for i in range(b.nrows):
                for j in range(b.ncols):
                    m.rows[ro + i][co + j] = b.rows[i][j]
            ro += b.nrows
            co += b.ncols
        action[a.name] = m
    return Representation(engine, degrees, action, check=False)


def dual_to_opposite(engine, rep):
    """The K-dual as a module over the opposite algebra; degrees are negated."""
    op = engine.opposite_engine
    degrees = {v: tuple(wneg(d) for d in rep.degrees[v]) for v in rep.degrees}
    action = {}
    for a in engine.quiver.arrows:
        action[a.name] = rep.action[a.name].transpose()
    return Representation(op, degrees, action, check=True)


def hom_space(M, N, graded=True):
    """A basis of module maps M -> N (degree-preserving when graded).

    Solves the commutation constraints as one linear system; the basis comes
    from the nullspace in a fixed variable order, so it is deterministic.
    """
    engine = M.engine
    field = engine.field
    variables = []
    var_index = {}
    for v in engine.quiver.vertices:
        sdeg = M.degrees[v]
        tdeg = N.degrees[v]
        for i in range(len(tdeg)):
            for j in range(len(sdeg)):
                if graded and tdeg[i] != sdeg[j]:
                    continue
                var_index[(v, i, j)] = len(variables)
                variables.append((v, i, j))
    rows = []
    for a in engine.quiver.arrows:
        u, w = a.source, a.target
        Am = M.action[a.name]
        An = N.action[a.name]
        for i in range(N.dim(w)):
            for j in range(M.dim(u)):
                row = [field.zero] * len(variables)
                used = False
                for k in range(M.dim(w)):
                    if Am.rows[k][j]:
                        idx = var_index.get((w, i, k))
                        if idx is not None:
                            row[idx] = row[idx] + Am.rows[k][j]
                            used = True
                for k in range(N.dim(u)):
                    if An.rows[i][k]:
                        idx = var_index.get((u, k, j))
                        if idx is not None:
                            row[idx] = row[idx] - An.rows[i][k]
                            used = True
                if used:
                    rows.append(row)
    if not variables:
        return []
    mat = Matrix(field, rows, ncols=len(variables)) if rows else \
        Matrix(field, [], ncols=len(variables))
    basis = []
    for vec in mat.nullspace():
        blocks = {v: Matrix.zeros(field, N.dim(v), M.dim(v))
                  for v in engine.quiver.vertices}
        for (v, i, j), val in zip(variables, vec):
            blocks[v].rows[i][j] = val
        basis.append(ModuleMap(M, N, blocks, check=False))
    return basis


def module_iso_test(M, N, seed=0, trials=64):
    """Decide graded isomorphism: 'isomorphic' (with witness), 'not_isomorphic',
    or 'undetermined' when random sampling exhausts its trials.

    Returns (status, witness_map_or_None).
    """
    if M.graded_dims() != N.graded_dims():
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
        for v in M.engine.quiver.vertices:
            acc = Matrix.zeros(field, N.dim(v), M.dim(v))
            for c, h in zip(coeffs, homs):
                if c:
                    acc = acc + h.blocks[v].scaled(c)
            blocks[v] = acc
        cand = ModuleMap(M, N, blocks, check=False)
        if cand.is_iso():
            return "isomorphic", cand
    return "undetermined", None


def random_homogeneous_vectors(rep, rng, count):
    """Random homogeneous vectors of rep, for property tests."""
    slices = [(v, g, idx) for v in rep.engine.quiver.vertices
              for g, idx in rep.slices[v].items()]
    out = []
    if not slices:
        return out
    field = rep.engine.field
    for _ in range(count):
        v, g, idx = slices[rng.randrange(len(slices))]
        vec = [field.zero] * rep.dim(v)
        for i in idx:
            vec[i] = field.of(rng.randint(-2, 2))
        if any(vec):
            out.append((v, g, vec))
    return out
