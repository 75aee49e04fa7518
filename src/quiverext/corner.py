"""Corner algebras fAf for a vertex-set idempotent, presented two ways.

For a suitable idempotent pair (e, f) of complementary vertex sets, the
corner algebra is the span of normal-form paths between f-vertices.  Its
quiver presentation has the f-vertices as vertices and one arrow per
minimal f-path (an f-to-f path whose interior vertices all lie in e) with
nonzero normal form; relations are the kernel of the evaluation map onto
the corner, computed degreewise.  The canonical map is verified to be an
algebra isomorphism (dimension plus full multiplication table).

Also here: the exact restriction functor (tensoring with the corner
bimodule), the module of e-to-f paths, and the exactness test for the
right adjoint.
"""

from .algebra import AlgebraElement, AlgebraPresentation, NormalFormEngine, add_scaled
from .linalg import Matrix, Subspace
from .modules import ModuleMap, Representation, projective_cover, simple_module
from .quiver import Quiver, compose
from .resolution import projective_dimension


class IdempotentPair:
    """Complementary vertex sets (e, f); every f-to-e path has positive
    length, so the corner condition f*r*e inside the radical is automatic."""

    def __init__(self, engine, f_vertices):
        self.engine = engine
        vs = list(engine.quiver.vertices)
        f = list(f_vertices)
        for v in f:
            if v not in vs:
                raise ValueError("unknown vertex %r in idempotent" % v)
        if len(set(f)) != len(f):
            raise ValueError("repeated vertex in idempotent")
        if not f:
            raise ValueError("the corner part must contain at least one vertex")
        self.f_vertices = tuple(v for v in vs if v in set(f))
        self.e_vertices = tuple(v for v in vs if v not in set(f))

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
    """Both forms of the corner algebra, with a verified isomorphism."""

    def __init__(self, engine, pair):
        self.engine = engine
        self.pair = pair
        self.f_basis = engine.basis_paths_between(pair.f_vertices, pair.f_vertices)
        self._f_index = {p: i for i, p in enumerate(self.f_basis)}
        self.dim = len(self.f_basis)
        self.arrow_paths = self._minimal_f_paths()
        self._verify_unique_factorization()
        self.nilpotency = self._radical_nilpotency()
        self.presentation, self.arrow_names = self._build_presentation()
        self.corner_engine = NormalFormEngine(self.presentation)
        self.theta = {}
        self._verify_isomorphism()

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
        # span of (corner radical)^2 in corner coordinates
        square = Subspace(eng.field, self.dim)
        positive = [p for p in self.f_basis if p.length >= 1]
        for p in positive:
            for q in positive:
                vec = self._nf_vector(eng.multiply_paths(p, q))
                if vec is not None and any(vec):
                    square.add(vec)
        kept = []
        seen = Subspace(eng.field, self.dim)
        for row in square.basis():
            seen.add(row)
        for p in candidates:
            vec = self._nf_vector(eng.nf_path(p))
            if vec is None:
                raise AssertionError("minimal f-path reduced outside the corner")
            if seen.add(vec):
                kept.append(p)
        return kept

    def _nf_vector(self, terms):
        vec = [self.engine.field.zero] * self.dim
        for p, c in terms.items():
            i = self._f_index.get(p)
            if i is None:
                return None
            vec[i] = c
        return vec

    def _factor(self, path):
        """Split an f-to-f path at every interior f-vertex visit; the pieces
        are minimal f-paths and the factorization is unique."""
        f = set(self.pair.f_vertices)
        arrows = list(reversed(path.arrows))  # traversal order
        pieces = []
        current = []
        for name in arrows:
            current.append(name)
            if self.engine.quiver.arrow_by_name[name].target in f:
                pieces.append(self.engine.pres.path_from_arrows(tuple(reversed(current))))
                current = []
        if current:
            raise AssertionError("path does not end at an f-vertex")
        return list(reversed(pieces))  # composition order: rightmost first

    def _verify_unique_factorization(self):
        """Every nonzero f-to-f basis path splits uniquely into minimal
        f-paths (the split points are forced: each interior f-visit), with
        all factors nonzero."""
        for p in self.f_basis:
            if p.length == 0:
                continue
            pieces = self._factor(p)
            recomposed = pieces[-1]
            for q in reversed(pieces[:-1]):
                recomposed = compose(q, recomposed)
            if recomposed != p:
                raise AssertionError("factorization does not recompose")
            for q in pieces:
                if not self.engine.nf_path(q):
                    raise AssertionError("factor of a nonzero path is zero")

    def _radical_nilpotency(self):
        """Smallest m with (corner radical)^m = 0."""
        eng = self.engine
        p = eng.field.characteristic
        positive = [self._nf_vector(eng.nf_path(path))
                    for path in self.f_basis if path.length >= 1]
        power = positive
        m = 1
        while any(any(v) for v in power):
            nxt = []
            span = Subspace(eng.field, self.dim)
            for vec in power:
                for q in self.f_basis:
                    if q.length == 0:
                        continue
                    prod = [eng.field.zero] * self.dim
                    for i, c in enumerate(vec):
                        if not c:
                            continue
                        for t, d in eng.multiply_paths(self.f_basis[i], q).items():
                            j = self._f_index[t]
                            prod[j] += c * d
                    if p:
                        prod = [x % p for x in prod]
                    if any(prod) and span.add(prod):
                        nxt.append(prod)
            power = nxt
            m += 1
            if m > eng.truncation + 1:
                raise AssertionError("corner radical fails to be nilpotent")
        return m

    def _eval_word(self, arrow_indices):
        """Normal form in the big algebra of a product of corner arrows."""
        eng = self.engine
        idx = arrow_indices[-1]
        acc = eng.nf_path(self.arrow_paths[idx])
        for i in reversed(arrow_indices[:-1]):
            p = self.arrow_paths[i]
            out = {}
            for q, c in acc.items():
                add_scaled(out, eng.multiply_paths(p, q), c, eng.field.characteristic)
            acc = out
        return acc

    def _build_presentation(self):
        eng = self.engine
        names = _corner_arrow_name(self.arrow_paths)
        arrows = [(name, p.source, p.target) for name, p in zip(names, self.arrow_paths)]
        weights = {name: p.weight for name, p in zip(names, self.arrow_paths)}
        quiver = Quiver(self.pair.f_vertices, arrows)
        trunc = max(self.nilpotency + 1, 2)
        # enumerate corner-quiver words of length 2..nilpotency and compute
        # the kernel of evaluation, blockwise by (source, target, weight)
        words = {1: [((i,), p) for i, p in enumerate(self.arrow_paths)]}
        for length in range(2, self.nilpotency + 1):
            nxt = []
            for idxs, p in words[length - 1]:
                for i, q in enumerate(self.arrow_paths):
                    if p.target == q.source:
                        nxt.append((idxs + (i,), compose(q, p)))
            words[length] = nxt
        blocks = {}
        for length in range(2, self.nilpotency + 1):
            for idxs, p in words[length]:
                key = (p.source, p.target, p.weight)
                blocks.setdefault(key, []).append(idxs)
        kernel_vectors = []
        block_columns = {}
        for key in sorted(blocks):
            idx_list = blocks[key]
            block_columns[key] = {w: j for j, w in enumerate(idx_list)}
            cols = [self._nf_vector(self._eval_word(list(reversed(idxs))))
                    for idxs in idx_list]
            mat = Matrix.from_columns(eng.field, cols, self.dim)
            for kv in mat.nullspace():
                row = {idx_list[j]: c for j, c in enumerate(kv) if c}
                kernel_vectors.append((min(len(w) for w in row), key, row))
        relations = self._reduce_generators(kernel_vectors, block_columns,
                                            words, names)
        pres = AlgebraPresentation(quiver, eng.group_rank, weights, eng.field,
                                   relations, trunc)
        return pres, names

    def _reduce_generators(self, kernel_vectors, block_columns, words, names):
        """Drop kernel vectors already generated by shorter chosen relations:
        a candidate is skipped when it lies in the span of the paddings
        x * r * y of the relations chosen so far."""
        eng = self.engine
        covered = {}
        path_of_word = {w: p for length in words for (w, p) in words[length]}
        # words usable for padding, keyed by endpoints; the empty word at a
        # vertex acts as that vertex idempotent
        into, out_of = {}, {}
        for v in self.pair.f_vertices:
            into.setdefault(v, []).append(())
            out_of.setdefault(v, []).append(())
        for length in words:
            for w, p in words[length]:
                into.setdefault(p.target, []).append(w)
                out_of.setdefault(p.source, []).append(w)

        def add_covered(row):
            w0 = next(iter(row))
            p = path_of_word[w0]
            key = (p.source, p.target, p.weight)
            cols = block_columns[key]
            vec = [eng.field.zero] * len(cols)
            for w, c in row.items():
                vec[cols[w]] = c
            if key not in covered:
                covered[key] = Subspace(eng.field, len(cols))
            covered[key].add(vec)

        def pad_and_cover(row, src, tgt):
            maxlen = self.nilpotency
            for yw in into.get(src, []):       # applied before the relation
                for xw in out_of.get(tgt, []):  # applied after
                    # distinct words stay distinct padded by the same yw, xw
                    padded = {yw + w + xw: c for w, c in row.items()
                              if len(yw) + len(w) + len(xw) <= maxlen}
                    if padded:
                        add_covered(padded)

        chosen = []
        for min_len, key, row in sorted(
                kernel_vectors,
                key=lambda t: (t[0], t[1], sorted(t[2]))):
            cols = block_columns[key]
            vec = [eng.field.zero] * len(cols)
            for w, c in row.items():
                vec[cols[w]] = c
            span = covered.get(key)
            if span is not None and span.contains(vec):
                continue
            src, tgt = key[0], key[1]
            chosen.append(row)
            pad_and_cover(row, src, tgt)
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
                # bp.arrows is already in composition order (rightmost first)
                self.theta[bp] = self._eval_word([name_to_idx[a] for a in bp.arrows])
        cols = [self._nf_vector(self.theta[bp]) for bp in ce.basis]
        if any(c is None for c in cols):
            raise AssertionError("corner image leaves the corner span")
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

    def witness_json(self):
        return [{"arrow": name, "path": list(p.arrows), "weight": list(p.weight)}
                for name, p in zip(self.arrow_names, self.arrow_paths)]

    def __repr__(self):
        return "CornerPresentation(dim=%d, arrows=%d)" % (self.dim, len(self.arrow_paths))


def corner_algebra(engine, pair):
    return CornerPresentation(engine, pair)


def f_lambda_e_module(corner):
    """The corner-algebra module of e-to-f paths, plus decomposition data.

    Returns (rep, check) where check carries the dimensions verifying that
    the f-row of the algebra splits as corner + (e-to-f part).
    """
    eng = corner.engine
    pair = corner.pair
    ce = corner.corner_engine
    basis = {}   # per f-vertex: ordered list of e-to-f paths
    for w in pair.f_vertices:
        paths = [p for p in eng.basis
                 if p.source in set(pair.e_vertices) and p.target == w]
        paths.sort(key=lambda p: (p.weight, p.length, p.arrows))
        basis[w] = paths
    degrees = {w: tuple(p.weight for p in basis[w]) for w in pair.f_vertices}
    index = {w: {p: i for i, p in enumerate(basis[w])} for w in pair.f_vertices}
    action = {}
    for name, ap in zip(corner.arrow_names, corner.arrow_paths):
        src, tgt = ap.source, ap.target
        m = Matrix.zeros(eng.field, len(basis[tgt]), len(basis[src]))
        for j, x in enumerate(basis[src]):
            for t, c in eng.multiply_paths(ap, x).items():
                m.rows[index[tgt][t]][j] = c
        action[name] = m
    rep = Representation.from_dense(ce, degrees, action, check=True)
    dim_f_row = len([p for p in eng.basis if p.target in set(pair.f_vertices)])
    check = {
        "dim_f_row": dim_f_row,
        "dim_corner": corner.dim,
        "dim_e_to_f": rep.total_dim,
        "splits": dim_f_row == corner.dim + rep.total_dim,
    }
    return rep, check


def apply_F(corner, rep):
    """Restrict a module to the f-vertices; corner arrows act by the path
    action of their underlying paths.  This realizes the exact functor
    given by tensoring with the corner bimodule."""
    fset = set(corner.pair.f_vertices)
    dims = {key: n for key, n in rep.dims.items() if key[0] in fset}
    action = {}
    for name, ap in zip(corner.arrow_names, corner.arrow_paths):
        for v, g in dims:
            if v == ap.source:
                m = rep.path_action(ap, g)
                if m is not None:
                    action[(name, g)] = m
    return Representation(corner.corner_engine, dims, action, check=True)


def apply_F_map(corner, mmap, source_F, target_F):
    """Restrict a module map to the f-vertices, between the restrictions
    `source_F` and `target_F` of its source and target."""
    fset = set(corner.pair.f_vertices)
    blocks = {key: b for key, b in mmap.blocks.items() if key[0] in fset}
    return ModuleMap(source_F, target_F, blocks, grade=mmap.grade, check=False)


def is_H_exact(corner):
    """The right adjoint is exact iff the e-to-f module is corner-projective,
    i.e. its projective cover has zero kernel (`kernel_dims`).  Returns
    (flag, witness)."""
    rep, check = f_lambda_e_module(corner)
    if rep.is_zero():
        return True, {"projective": True, "kernel_dim": 0, "cover": []}
    cov = projective_cover(corner.corner_engine, rep)
    flag = not cov.kernel_dims
    witness = {"projective": flag,
               "kernel_dim": sum(cov.kernel_dims.values()),
               "cover": cov.projective.to_json(),
               "decomposition": check}
    return flag, witness


def gexact_condition(corner, seed=0):
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
    hypothesis = projective_dimension(eng, simple_module(eng, v), 1, seed=seed).is_finite
    conclusion = None
    if hypothesis:
        rep, _ = f_lambda_e_module(corner)
        conclusion = projective_dimension(corner.corner_engine, rep, 1,
                                          seed=seed).is_finite
    return {"e_vertex": v, "hypothesis": hypothesis, "conclusion": conclusion}
