"""Corner algebras fAf for a vertex-set idempotent, presented two ways.

For a suitable idempotent pair (e, f) of complementary vertex sets, the
corner algebra is the span of normal-form paths between f-vertices.  Its
quiver presentation has the f-vertices as vertices and one arrow per
minimal f-path (an f-to-f path whose interior vertices all lie in e) with
nonzero normal form, kept while independent modulo the square of the
corner radical.  The arrows span rad/rad^2, so they generate the radical,
and rad^m is the span of the corner words (composable arrow sequences) of
length >= m (Assem, Simson and Skowronski, Elements of the Representation
Theory of Associative Algebras I, 2006).

One walk evaluates the words level by level, each as its last arrow times
its prefix's normal form, and stops at the first length at which every
word is zero: that length is the nilpotency of the radical.  From this one
table of evaluations come the relations (the kernel of evaluation,
blockwise by endpoints and weight, with the zero words as monomial
relations, less those that shorter ones generate: padding by corner
arrows, one at a time, closes the span they cover) and the canonical map
onto the corner, which is verified to be an algebra isomorphism
(dimension plus full multiplication table).

Also here: the exact restriction functor F (tensoring with the corner
bimodule), which checks the corner relations on a projective's image once
per summand vertex (see `apply_F`), the module of e-to-f paths as F of the
projective at e, and the exactness test for the right adjoint.
"""

from .algebra import AlgebraElement, AlgebraPresentation, NormalFormEngine, add_scaled
from .linalg import Matrix, Subspace
from .modules import (ModuleMap, Projective, Representation, projective_cover,
                      projective_module, simple_module)
from .quiver import Quiver, compose, first_read, wzero
from .resolution import projective_dimension


class IdempotentPair:
    """Complementary vertex sets (e, f); every f-to-e path has positive
    length, so the corner condition f*r*e inside the radical is automatic."""

    def __init__(self, engine, f_vertices):
        self.engine = engine
        vs = engine.quiver.vertices
        f = set(engine.quiver.idempotent_vertices(f_vertices))
        self.f_vertices = tuple(v for v in vs if v in f)
        self.e_vertices = tuple(v for v in vs if v not in f)

    def __repr__(self):
        return "IdempotentPair(f=%s, e=%s)" % (list(self.f_vertices), list(self.e_vertices))


def pair_from_presentation(engine):
    if engine.pres.f_vertices is None:
        raise ValueError("no idempotent line in the algebra description")
    return IdempotentPair(engine, engine.pres.f_vertices)


def _corner_arrow_name(paths):
    names = ["a_" + "".join(p.arrows) for p in paths]
    if len(set(names)) != len(names):
        names = ["a_" + "_".join(p.arrows) for p in paths]
    return names


class CornerPresentation:
    """Both forms of the corner algebra, with a verified isomorphism.

    `words` maps each corner word of length 1 to `nilpotency`, as a tuple
    of arrow indices in traversal order (first arrow first), to its path
    and its normal form in the big algebra, level by level in walk order.
    Each normal form is computed once per build, and the presentation, its
    relations and `theta` (corner basis path -> its image) all read it."""

    def __init__(self, engine, pair):
        self.engine = engine
        self.pair = pair
        self.f_basis = engine.basis_paths_between(pair.f_vertices, pair.f_vertices)
        self._f_index = {p: i for i, p in enumerate(self.f_basis)}
        self.dim = len(self.f_basis)
        self.arrow_paths = self._minimal_f_paths()
        self.words, self.nilpotency = self._walk_words()
        self.presentation, self.arrow_names = self._build_presentation()
        self.corner_engine = NormalFormEngine(self.presentation)
        self.theta = {}
        self._verify_isomorphism()
        self.checked_vertices = set()   # see apply_F

    # -- construction ------------------------------------------------------

    def _minimal_f_paths(self):
        """Minimal f-paths with nonzero normal form, reduced to a set that is
        linearly independent modulo the square of the corner radical."""
        eng = self.engine
        f = set(self.pair.f_vertices)
        # walk from each f-vertex through e-vertices, stopping at an
        # f-vertex; a path with zero normal form has only zero extensions
        candidates = []
        level = [eng.pres.vertex_path(v) for v in self.pair.f_vertices]
        while level:
            nxt = []
            for p in level:
                for a in eng.quiver.arrows_from[p.target]:
                    q = compose(eng.pres.arrow_path(a.name), p)
                    if eng.nf_path(q):
                        (candidates if a.target in f else nxt).append(q)
            level = nxt
        candidates.sort(key=lambda p: (p.length, p.arrows))
        # the span of (corner radical)^2 first, in corner coordinates: the
        # minimal f-paths generate the radical, so their products with the
        # basis paths of positive length span its square
        seen = Subspace(eng.field, self.dim)
        positive = [p for p in self.f_basis if p.length >= 1]
        for p in candidates:
            for q in positive:
                prod = eng.multiply_paths(p, q)
                if prod:
                    seen.add(self._nf_vector(prod))
        return [p for p in candidates if seen.add(self._nf_vector(eng.nf_path(p)))]

    def _nf_vector(self, terms):
        vec = [self.engine.field.zero] * self.dim
        for p, c in terms.items():
            vec[self._f_index[p]] = c
        return vec

    def _walk_words(self):
        """`words` and `nilpotency`: the words level by level, each normal
        form one `multiply_paths` per term of its prefix's, until a level
        whose words are all zero; that level's length is the nilpotency."""
        eng = self.engine
        p = eng.field.characteristic
        words = {}
        length = 1
        level = [((i,), a, eng.nf_path(a)) for i, a in enumerate(self.arrow_paths)]
        while any(nf for _, _, nf in level):
            length += 1
            nxt = []
            for w, path, nf in level:
                words[w] = (path, nf)
                for i, a in enumerate(self.arrow_paths):
                    if a.source == path.target:
                        out = {}
                        for q, c in nf.items():
                            add_scaled(out, eng.multiply_paths(a, q), c, p)
                        nxt.append((w + (i,), compose(a, path), out))
            level = nxt
        words.update((w, (path, nf)) for w, path, nf in level)
        return words, length

    def _build_presentation(self):
        eng = self.engine
        names = _corner_arrow_name(self.arrow_paths)
        arrows = [(name, p.source, p.target) for name, p in zip(names, self.arrow_paths)]
        weights = {name: p.weight for name, p in zip(names, self.arrow_paths)}
        quiver = Quiver(self.pair.f_vertices, arrows)
        trunc = max(self.nilpotency + 1, 2)
        # the kernel of evaluation on the words of length >= 2, blockwise by
        # (source, target, weight)
        blocks = {}
        for w, (path, nf) in self.words.items():
            if len(w) >= 2:
                blocks.setdefault((path.source, path.target, path.weight), []).append((w, nf))
        kernel_vectors = []
        block_columns = {}
        for key in sorted(blocks):
            block = blocks[key]
            block_columns[key] = {w: j for j, (w, _) in enumerate(block)}
            mat = Matrix.from_columns(eng.field, [self._nf_vector(nf) for _, nf in block],
                                      self.dim)
            for kv in mat.nullspace():
                row = {block[j][0]: c for j, c in enumerate(kv) if c}
                kernel_vectors.append((min(len(w) for w in row), key, row))
        relations = self._reduce_generators(kernel_vectors, block_columns, names)
        pres = AlgebraPresentation(quiver, eng.group_rank, weights, eng.field,
                                   relations, trunc)
        return pres, names

    def _reduce_generators(self, kernel_vectors, block_columns, names):
        """Drop kernel vectors already generated by shorter chosen relations:
        a candidate is skipped when it lies in the covered span, that of the
        paddings x * r * y of the relations r chosen so far, truncated at the
        nilpotency.  Truncation drops words by length and padding only
        lengthens, so that span is the least one that holds the chosen
        relations and is closed under padding by one corner arrow on either
        side.  So a row's one-arrow paddings are pushed only when the row
        raises the covered dimension of its block."""
        eng = self.engine
        covered = {}

        def block_vector(row):
            path = self.words[next(iter(row))][0]
            key = (path.source, path.target, path.weight)
            cols = block_columns[key]
            vec = [eng.field.zero] * len(cols)
            for w, c in row.items():
                vec[cols[w]] = c
            return key, vec

        chosen = []
        for _, key, row in sorted(kernel_vectors,
                                  key=lambda t: (t[0], t[1], sorted(t[2]))):
            span = covered.get(key)
            if span is not None and span.contains(block_vector(row)[1]):
                continue
            chosen.append(row)
            stack = [row]
            while stack:
                padded = stack.pop()
                pkey, vec = block_vector(padded)
                if pkey not in covered:
                    covered[pkey] = Subspace(eng.field, len(vec))
                # distinct words stay distinct padded by the same arrow
                short = [(w, c) for w, c in padded.items() if len(w) < self.nilpotency]
                if not covered[pkey].add(vec) or not short:
                    continue
                for i, a in enumerate(self.arrow_paths):
                    if a.target == pkey[0]:     # applied before the row
                        stack.append({(i,) + w: c for w, c in short})
                    if a.source == pkey[1]:     # applied after
                        stack.append({w + (i,): c for w, c in short})
        relations = []
        for row in chosen:
            terms = []
            for w in sorted(row, key=lambda t: (len(t), t)):
                arrow_word = tuple(names[i] for i in reversed(w))
                terms.append((row[w], arrow_word))
            relations.append(terms)
        return relations

    # -- verification ------------------------------------------------------

    def _verify_isomorphism(self):
        """Check a_p -> nf(p) induces an isomorphism onto the corner:
        dimension equality, bijectivity, and the full multiplication table."""
        ce = self.corner_engine
        if ce.dim != self.dim:
            raise AssertionError(
                "corner presentation has dimension %d, but the corner has "
                "dimension %d" % (ce.dim, self.dim))
        name_to_idx = {n: i for i, n in enumerate(self.arrow_names)}
        for bp in ce.basis:
            if bp.is_vertex:
                self.theta[bp] = self.engine.nf_path(self.engine.pres.vertex_path(bp.source))
            else:
                # bp.arrows is in composition order (rightmost first)
                word = tuple(name_to_idx[a] for a in reversed(bp.arrows))
                self.theta[bp] = self.words[word][1]
        cols = [self._nf_vector(self.theta[bp]) for bp in ce.basis]
        mat = Matrix.from_columns(self.engine.field, cols, self.dim)
        if mat.rank() != self.dim:
            raise AssertionError("corner evaluation map is not bijective")
        image = {bp: AlgebraElement(self.engine, t) for bp, t in self.theta.items()}
        for x in ce.basis:
            for y in ce.basis:
                lhs = self._push(ce.multiply_paths(x, y))
                if lhs != (image[x] * image[y]).terms:
                    raise AssertionError(
                        "multiplication tables differ at %r * %r" % (x, y))

    def _push(self, corner_terms):
        out = {}
        for bp, c in corner_terms.items():
            add_scaled(out, self.theta[bp], c, self.engine.field.characteristic)
        return out

    @first_read
    def e_to_f(self):
        """The e-to-f module and its check, `f_lambda_e_module(self)`, built
        once per corner."""
        return f_lambda_e_module(self)

    def witness_json(self):
        return [{"arrow": name, "path": list(p.arrows), "weight": list(p.weight)}
                for name, p in zip(self.arrow_names, self.arrow_paths)]

    def __repr__(self):
        return "CornerPresentation(dim=%d, arrows=%d)" % (self.dim, len(self.arrow_paths))


def corner_algebra(engine, pair):
    return CornerPresentation(engine, pair)


def f_lambda_e_module(corner):
    """The corner-algebra module of e-to-f paths, F(Ae): the restriction of
    the projective at the e-vertices, each in degree zero, so a slice holds
    the e-to-f basis paths of its weight ending at its vertex.

    Returns (rep, check) where check carries the dimensions verifying that
    the f-row of the algebra splits as corner + (e-to-f part).
    """
    eng = corner.engine
    pair = corner.pair
    zero = wzero(eng.group_rank)
    rep = apply_F(corner, Projective(eng, [(v, zero) for v in pair.e_vertices]))
    dim_f_row = len([p for p in eng.basis if p.target in set(pair.f_vertices)])
    check = {
        "dim_f_row": dim_f_row,
        "dim_corner": corner.dim,
        "dim_e_to_f": rep.total_dim,
        "splits": dim_f_row == corner.dim + rep.total_dim,
    }
    return rep, check


def apply_F(corner, module):
    """Restrict a module (a Representation or a Projective) to the
    f-vertices; corner arrows act by the path action of their underlying
    paths: the exact functor of tensoring with the corner bimodule.

    The image of a Representation is checked against the corner relations;
    for a Projective, F(P_v) is, once per corner and summand vertex v
    (`checked_vertices`).  A corner relation is uniform (fixed ends and
    weight) and acts on F(sum of P_v[g]) = sum of F(P_v)[g] summand by
    summand, so it vanishes on the sum exactly when it does on each F(P_v)."""
    rep, check = module, True
    if isinstance(module, Projective):
        rep, check = module.rep, False
        for v, _ in module.summands:
            if v not in corner.checked_vertices:
                apply_F(corner, projective_module(corner.engine, v).rep)
                corner.checked_vertices.add(v)
    fset = set(corner.pair.f_vertices)
    dims = {key: n for key, n in rep.dims.items() if key[0] in fset}
    action = {}
    for name, ap in zip(corner.arrow_names, corner.arrow_paths):
        for v, g in dims:
            if v == ap.source:
                m = rep.path_action(ap, g)
                if m is not None:
                    action[(name, g)] = m
    return Representation(corner.corner_engine, dims, action, check=check)


def apply_F_map(corner, mmap, source_F, target_F):
    """Restrict a module map to the f-vertices, between the restrictions
    `source_F` and `target_F` of its source and target, keeping the map: a
    block and its `Factor` are the map's own, shared with lifts through it."""
    return _Restricted(mmap, set(corner.pair.f_vertices), source_F, target_F)


class _Restricted(ModuleMap):
    """`mmap` at the slices of the vertices `fset` (`apply_F_map`)."""

    def __init__(self, mmap, fset, source, target):
        self.source, self.target, self.grade = source, target, mmap.grade
        self._map, self._fset = mmap, fset

    def _slice(self, key):
        return self._map.block(key) if key[0] in self._fset else None

    def factor(self, key):
        return self._map.factor(key) if key[0] in self._fset else None


def is_H_exact(corner):
    """The right adjoint is exact iff the e-to-f module is corner-projective,
    i.e. its projective cover has zero kernel (`kernel_dims`).  Returns
    (flag, witness)."""
    rep, check = corner.e_to_f
    if rep.is_zero():
        return True, {"projective": True, "kernel_dim": 0, "cover": []}
    cov = projective_cover(corner.corner_engine, rep)
    flag = not cov.kernel_dims
    witness = {"projective": flag,
               "kernel_dim": sum(cov.kernel_dims.values()),
               "cover": cov.projective.to_json(),
               "decomposition": check}
    return flag, witness


def gexact_condition(corner):
    """For a single e-vertex: if the simple there has projective dimension
    at most 1, then the e-to-f module has corner projective dimension at
    most 1 (and the right adjoint situation is as good as it gets).
    Reports both truth values; the conclusion is only claimed under the
    hypothesis."""
    pair = corner.pair
    if len(pair.e_vertices) != 1:
        raise ValueError("this check needs e to be a single vertex")
    v = pair.e_vertices[0]
    eng = corner.engine
    hypothesis = projective_dimension(eng, simple_module(eng, v), 1).is_finite
    conclusion = None
    if hypothesis:
        rep, _ = corner.e_to_f
        conclusion = projective_dimension(corner.corner_engine, rep, 1).is_finite
    return {"e_vertex": v, "hypothesis": hypothesis, "conclusion": conclusion}
