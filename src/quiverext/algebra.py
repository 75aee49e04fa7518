"""Finite-dimensional quiver algebras KQ/I with exact normal forms.

The ideal I is given by relation generators: linear combinations of paths
of length >= 2 that, after splitting by (source, target), are homogeneous
for the weight grading.  The presentation carries a truncation bound N
with J^N contained in I (J the arrow ideal); this is checked, not assumed.

Normal forms come from a reduced Groebner basis of I + J^(N+1) in the path
algebra (Farkas, Feustel and Green, Canad. J. Math. 45, 1993; Green,
"Noncommutative Groebner bases, and projective resolutions", Progress in
Math. 173, 1999).  Paths are ordered by (length, arrows), and the tip of an
element is its smallest path, so rewriting a tip brings in only larger
paths and the paths longer than N drop out.  Buchberger's completion starts
from the uniform relation pieces and reduces the overlap of every two tips
(a path t*w = u*s for tips t and s), on sparse {arrows: coefficient} rows
over Q or on residues over F_p; two monomials have no overlap to reduce.
An element whose tip a new tip divides is reduced again, so the tips stay
minimal.

The paths that no tip divides are the standard paths, and those of length
< N are the basis.  A subpath of a standard path is standard, so they are
found by a walk per length from the vertices, each kept path extended by
the arrows leaving its target in quiver order, that stops at the first
length with no standard path.  J^N lies in I exactly when no standard path
has length N.  Otherwise the witness is the first length-N path in the
same walk order whose normal form is nonzero; that walk drops each path
that reduces to zero, whose extensions do too.  The normal form of a path
is its first arrow times the normal form of the rest, reduced, and is kept
for the life of the engine.  All arithmetic is exact (Q or F_p).
"""

from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .fields import GFElement
from .linalg import Matrix
from .quiver import arrow_path, compose, vertex_path, wadd, wzero


class PresentationError(ValueError):
    """A malformed presentation.  `relation` is the index of the relation
    at fault, when one is, and `reason` the message without its number."""

    def __init__(self, message, relation=None):
        self.relation = relation
        self.reason = message
        if relation is not None:
            message = "relation %d: %s" % (relation + 1, message)
        super().__init__(message)


class AdmissibilityError(ValueError):
    """Some path of length N fails to reduce to zero."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "ideal is not admissible at the stated truncation: "
            "path %r of length %d does not reduce to 0" % (witness, witness.length))


class AlgebraPresentation:
    """Quiver + weights + field + relations + truncation bound."""

    def __init__(self, quiver, group_rank, weights, field, relations, truncation,
                 f_vertices=None):
        self.quiver = quiver
        self.group_rank = int(group_rank)
        self.weights = dict(weights)
        self.field = field
        self.truncation = int(truncation)
        self.f_vertices = tuple(f_vertices) if f_vertices is not None else None
        if self.truncation < 2:
            raise PresentationError("truncation must be at least 2")
        if self.group_rank < 0:
            raise PresentationError("group rank must be nonnegative")
        for a in quiver.arrows:
            w = self.weights.get(a.name)
            if w is None:
                raise PresentationError("missing weight for arrow %s" % a.name)
            w = tuple(int(x) for x in w)
            if len(w) != self.group_rank:
                raise PresentationError("weight of arrow %s has wrong rank" % a.name)
            if self.group_rank >= 1 and all(x == 0 for x in w):
                raise PresentationError(
                    "arrow %s has identity weight; a proper grading needs "
                    "nonzero arrow weights" % a.name)
            self.weights[a.name] = w
        if self.f_vertices is not None:
            for v in self.f_vertices:
                if v not in quiver.vertices:
                    raise PresentationError("unknown vertex %r in idempotent line" % v)
            if len(set(self.f_vertices)) != len(self.f_vertices):
                raise PresentationError("repeated vertex in idempotent line")
        # relations: list of [(coeff, (arrow names...)), ...].  A path named
        # twice keeps one term, the sum of its coefficients in the field, and
        # a term whose coefficient is zero there is dropped; a relation left
        # with no terms is kept empty, so relations keep their numbers.
        self.relations = []
        for rel in relations:
            terms = {}
            for coeff, names in rel:
                path = self.path_from_arrows(names)
                if path.length < 2:
                    raise PresentationError(
                        "relation term %r has length %d; relations must be "
                        "combinations of paths of length >= 2" % (path, path.length))
                c = self.field.of(coeff)
                terms[path] = terms[path] + c if path in terms else c
            self.relations.append([(c, path) for path, c in terms.items() if c])
        self.uniform_relations = self._split_uniform()

    def vertex_path(self, v):
        if v not in self.quiver.vertices:
            raise PresentationError("unknown vertex %r" % v)
        return vertex_path(v, self.group_rank)

    def arrow_path(self, name):
        arrow = self.quiver.arrow_by_name.get(name)
        if arrow is None:
            raise PresentationError("unknown arrow %r" % name)
        return arrow_path(arrow, self.weights[name])

    def path_from_arrows(self, names):
        """Build a path from arrow names in composition order."""
        if not names:
            raise PresentationError("empty path")
        path = self.arrow_path(names[-1])
        for name in reversed(names[:-1]):
            step = self.arrow_path(name)
            if step.source != path.target:
                raise PresentationError(
                    "arrows %s do not compose at %r" % ("*".join(names), name))
            path = compose(step, path)
        return path

    def _split_uniform(self):
        """Split every relation into uniform (source, target) pieces and
        check each piece is weight-homogeneous."""
        pieces = []
        for idx, terms in enumerate(self.relations):
            by_st = {}
            for c, p in terms:
                by_st.setdefault((p.source, p.target), []).append((c, p))
            for (s, t), piece in sorted(by_st.items()):
                weights = {p.weight for _, p in piece}
                if len(weights) > 1:
                    raise PresentationError(
                        "uniform piece from %s to %s mixes weights %s"
                        % (s, t, sorted(weights)), relation=idx)
                pieces.append(UniformRelation(s, t, piece[0][1].weight, piece))
        return pieces

    @property
    def mixed_length_relations(self):
        """True when some uniform relation piece mixes path lengths."""
        return any(len({p.length for _, p in r.terms}) > 1 for r in self.uniform_relations)

    def with_field(self, field):
        """The same presentation over another field.  A rational coefficient
        a/b maps to a * b^-1 in F_p (so 1/3 becomes 2 in F5); an F_q
        coefficient keeps its representative in [0, q)."""
        p = field.characteristic
        rels = []
        for idx, terms in enumerate(self.relations):
            mapped = []
            for c, path in terms:
                if isinstance(c, Fraction) and p and c.denominator % p == 0:
                    raise PresentationError(
                        "relation %d: coefficient %s of term %s has no value in %s"
                        % (idx + 1, c, "*".join(path.arrows), field.name))
                mapped.append((c.v if isinstance(c, GFElement) else c, path.arrows))
            rels.append(mapped)
        return AlgebraPresentation(self.quiver, self.group_rank, self.weights, field,
                                   rels, self.truncation, f_vertices=self.f_vertices)

    def opposite(self):
        """Arrows reversed, relation paths reversed, weights preserved."""
        rels = []
        for terms in self.relations:
            rels.append([(c, tuple(reversed(p.arrows))) for c, p in terms])
        return AlgebraPresentation(
            self.quiver.opposite(), self.group_rank, self.weights, self.field,
            rels, self.truncation, f_vertices=self.f_vertices)


class UniformRelation:
    __slots__ = ("source", "target", "weight", "terms")

    def __init__(self, source, target, weight, terms):
        self.source = source
        self.target = target
        self.weight = weight
        self.terms = terms


def add_scaled(out, terms, c):
    """out += c * terms, for sparse {key: coefficient} dicts.  A key whose
    sum vanishes is dropped; a new key goes last."""
    for t, d in terms.items():
        s = out.get(t, 0) + c * d
        if s:
            out[t] = s
        else:
            out.pop(t, None)


class AlgebraElement:
    """A linear combination of normal-form basis paths."""

    __slots__ = ("engine", "terms")

    def __init__(self, engine, terms):
        self.engine = engine
        self.terms = {p: c for p, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        add_scaled(out, other.terms, self.engine.field.one)
        return AlgebraElement(self.engine, out)

    def __sub__(self, other):
        return self + other.scaled(-self.engine.field.one)

    def scaled(self, c):
        return AlgebraElement(self.engine, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other):
        return self.engine.multiply(self, other)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def weight(self):
        """The common weight of the terms, or None for 0 or inhomogeneous."""
        ws = {p.weight for p in self.terms}
        return next(iter(ws)) if len(ws) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=lambda q: (q.length, q.arrows, q.source)):
            bits.append("%s*%s" % (self.terms[p], p))
        return " + ".join(bits)


class NormalFormEngine:
    """Monomial basis of KQ/I with exact reduction and multiplication."""

    def __init__(self, pres):
        self.pres = pres
        self.field = pres.field
        self.quiver = pres.quiver
        self.group_rank = pres.group_rank
        self.truncation = pres.truncation
        # the Groebner basis, {tip arrows: tail}: a tail is {arrows: value},
        # its paths larger than the tip; values are residues over F_p
        self._tails = {}
        # {first arrow: lengths of the tips that start with it}; a length
        # left by a tip taken out of the basis only costs a failed lookup
        self._tip_lengths = {}
        self._complete()
        # normal forms as {arrows: value}, by the arrows of a path of length >= 1
        self._word_nf = {}
        self.basis = self._standard_paths()
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        self.dim = len(self.basis)
        # normal forms as {basis path: coefficient}, filled for every basis
        # path and every arrow times one, so templates reduce nothing
        self._basis_path = {p.arrows: p for p in self.basis if p.arrows}
        self._normal_forms = {w: {p: self.field.one} for w, p in self._basis_path.items()}
        for p in self.basis:
            if p.length + 1 < self.truncation:
                for a in self.quiver.arrows_from[p.target]:
                    self._normal_form((a.name,) + p.arrows)
        self._opposite = None
        self._paths_from = {}
        for p in self.basis:
            self._paths_from.setdefault(p.source, []).append(p)
        self._templates = {}
        # weak references to the covers `modules.projective_cover` computed:
        # {module slices relative to the first slice's degree:
        # [(degree of the first slice, weakref to the Cover)]}
        self.covers = {}

    # -- construction ------------------------------------------------------

    def _complete(self):
        """Buchberger's algorithm on the uniform relation pieces, modulo
        J^(N+1).  Each new element is reduced and made monic at its tip; a
        basis element whose tip the new tip divides goes back to be reduced
        again, and each overlap of the new tip with a tip, shortest overlap
        path first, is reduced in turn.  Last, every tail is reduced."""
        n = self.truncation
        p = self.field.characteristic
        tails = self._tails
        queue = deque({path.arrows: c.v if p else c for c, path in rel.terms
                       if path.length <= n} for rel in self.pres.uniform_relations)
        overlaps = []
        while queue or overlaps:
            if queue:
                f = queue.popleft()
            else:
                word, t, s = heappop(overlaps)[1:]
                if t not in tails or s not in tails:
                    continue
                # tail(t)*w - u*tail(s), for the overlap word = t*w = u*s
                w, u = word[len(t):], word[:len(word) - len(s)]
                f = {m + w: c for m, c in tails[t].items() if len(m) + len(w) <= n}
                for m, c in tails[s].items():
                    if len(u) + len(m) <= n:
                        d = f.get(u + m, 0) - c
                        f[u + m] = d % p if p else d
            f = self._reduce(f)
            if not f:
                continue
            tip = next(iter(f))
            inv = pow(f.pop(tip), p - 2, p) if p else self.field.inv(f.pop(tip))
            tail = {w: c * inv % p if p else c * inv for w, c in f.items()}
            for s in [s for s in tails if len(s) > len(tip) and _divides(tip, s)]:
                queue.append({s: 1, **tails.pop(s)})
            tails[tip] = tail
            lengths = self._tip_lengths.setdefault(tip[0], [])
            if len(tip) not in lengths:
                lengths.append(len(tip))
            for s, s_tail in tails.items():
                if tail or s_tail:
                    for x, y in [(tip, s), (s, tip)] if s != tip else [(tip, tip)]:
                        for k in range(max(1, len(x) + len(y) - n), min(len(x), len(y))):
                            if x[-k:] == y[:k]:
                                word = x + y[k:]
                                heappush(overlaps, (len(word), word, x, y))
        for t in tails:
            tails[t] = self._reduce(dict(tails[t]))

    def _tip_at(self, w, i):
        """The tip that starts at position i of the arrows w, or None."""
        for length in self._tip_lengths.get(w[i], ()):
            t = w[i:i + length]
            if t in self._tails:
                return t
        return None

    def _reduce(self, f):
        """Reduce {arrows: value} modulo the Groebner basis, emptying f.
        The smallest path with a tip in it is rewritten at its leftmost
        tip, bringing in only larger paths, and paths longer than N drop
        out; the remainder comes back in (length, arrows) order."""
        n = self.truncation
        p = self.field.characteristic
        heap = [(len(w), w) for w in f]
        heapify(heap)
        out = {}
        while heap:
            w = heappop(heap)[1]
            c = f.pop(w)
            if not c:
                continue
            for i in range(len(w) - 1):
                t = self._tip_at(w, i)
                if t is not None:
                    break
            else:
                out[w] = c
                continue
            u, v = w[:i], w[i + len(t):]
            for m, d in self._tails[t].items():
                x = u + m + v
                if len(x) > n:
                    continue
                if x not in f:
                    heappush(heap, (len(x), x))
                s = f.get(x, 0) - c * d
                f[x] = s % p if p else s
        return out

    def _standard_paths(self):
        """The paths no tip divides, by a walk per length from the vertices:
        each kept path is extended by the arrows leaving its target, in
        quiver order, and kept when no tip starts the extension.  A standard
        path of length N means J^N is not inside I."""
        step = {a.name: self.pres.arrow_path(a.name) for a in self.quiver.arrows}
        level = [vertex_path(v, self.group_rank) for v in self.quiver.vertices]
        basis = list(level)
        for length in range(1, self.truncation + 1):
            nxt = []
            for q in level:
                for a in self.quiver.arrows_from[q.target]:
                    w = (a.name,) + q.arrows
                    if self._tip_at(w, 0) is None:
                        self._word_nf[w] = {w: 1}
                        nxt.append(compose(step[a.name], q))
            if not nxt:
                break
            if length == self.truncation:
                raise AdmissibilityError(self._witness())
            basis += nxt
            level = nxt
        return basis

    def _witness(self):
        """The first length-N path in the walk order whose normal form is
        nonzero.  The walk drops each path that reduces to zero, since its
        extensions do too."""
        level = [vertex_path(v, self.group_rank) for v in self.quiver.vertices]
        for _ in range(self.truncation):
            level = [compose(self.pres.arrow_path(a.name), q) for q in level
                     for a in self.quiver.arrows_from[q.target]
                     if self._nf_word((a.name,) + q.arrows)]
        return level[0]

    def _nf_word(self, w):
        """Normal form of the path with arrows w: its first arrow times the
        normal form of the rest, reduced; as {arrows: value}, memoized.
        The standard walk has put in every standard path, arrows included."""
        nf = self._word_nf.get(w)
        if nf is None:
            a = w[:1]
            nf = self._word_nf[w] = self._reduce(
                {a + y: c for y, c in self._nf_word(w[1:]).items() if len(y) < self.truncation})
        return nf

    def _normal_form(self, w):
        """Normal form of the path with arrows w, of length 1 to N - 1, as
        {basis path: coefficient}, memoized."""
        nf = self._normal_forms.get(w)
        if nf is None:
            path = self._basis_path
            if self.field.characteristic:
                elements = self.field.elements
                nf = {path[x]: elements[c] for x, c in self._nf_word(w).items()}
            else:
                nf = {path[x]: c for x, c in self._nf_word(w).items()}
            self._normal_forms[w] = nf
        return nf

    # -- reduction and arithmetic -----------------------------------------

    def nf_path(self, path):
        """Normal form of a single path, as {basis path: coeff}."""
        if path.length >= self.truncation:
            return {}
        if not path.arrows:
            return {path: self.field.one}
        return dict(self._normal_form(path.arrows))

    def nf_terms(self, terms):
        out = {}
        for p, c in terms.items():
            if c:
                add_scaled(out, self.nf_path(p), c)
        return out

    def element(self, terms):
        """Normalize a {path: coeff} mapping into an AlgebraElement."""
        return AlgebraElement(self, self.nf_terms(terms))

    def zero(self):
        return AlgebraElement(self, {})

    def vertex_element(self, v):
        return self.element({self.pres.vertex_path(v): self.field.one})

    def arrow_element(self, name):
        return self.element({self.pres.arrow_path(name): self.field.one})

    def one(self):
        k = self.group_rank
        return self.element({vertex_path(v, k): self.field.one for v in self.quiver.vertices})

    def multiply_paths(self, p, q):
        """Normal form of p*q (first q, then p)."""
        if q.target != p.source:
            return {}
        if p.length + q.length >= self.truncation:
            return {}
        return self.nf_path(compose(p, q))

    def multiply(self, x, y):
        out = {}
        for p, c in x.terms.items():
            for q, d in y.terms.items():
                add_scaled(out, self.multiply_paths(p, q), c * d)
        return AlgebraElement(self, out)

    # -- structure ---------------------------------------------------------

    def basis_paths_from(self, v):
        """Normal-form paths with source v (the basis of the projective at v)."""
        return list(self._paths_from.get(v, []))

    def projective_template(self, v):
        """The template of the projective at v, built the first time v is
        asked for and kept for the life of the engine."""
        t = self._templates.get(v)
        if t is None:
            t = self._templates[v] = ProjectiveTemplate(self, v)
        return t

    def basis_paths_between(self, sources, targets):
        src = set(sources)
        tgt = set(targets)
        return [p for p in self.basis if p.source in src and p.target in tgt]

    def radical_basis(self):
        return [p for p in self.basis if p.length >= 1]

    @property
    def opposite_engine(self):
        if self._opposite is None:
            self._opposite = NormalFormEngine(self.pres.opposite())
        return self._opposite

    def __repr__(self):
        return "NormalFormEngine(dim=%d, vertices=%d)" % (self.dim, len(self.quiver.vertices))


class ProjectiveTemplate:
    """The indecomposable projective at vertex v, in degree zero: what every
    projective with a summand at v copies its slots and action from.

    `slices[(w, d)]` lists the basis paths from v to w of weight d in
    (length, arrows) order; slices go vertex by vertex in quiver order, then
    by degree.  `action[(a, d)]` is the matrix of arrow a from slice
    (a.source, d) to slice (a.target, d + W(a)), missing when zero.
    `blocks_from[(w, d)]` lists the same blocks by source slice, as (arrow,
    target slice, block) in quiver arrow order, so a projective places them
    with no weight arithmetic.  These blocks are shared by every projective
    built from the template and are never mutated.

    `tree` is the prefix tree of the basis paths: node i is (parent,
    arrow, weight of the parent, slot), the path "arrow after the parent's
    path", with parents before children and node 0 the vertex path e_v.  It
    holds every first-applied part of each basis path; such a part need not
    be a basis path itself, so `slot` is (slice, position) or None.
    `node_of[arrows]` is the node of the path with those arrows.
    """

    __slots__ = ("slices", "action", "blocks_from", "tree", "node_of")

    def __init__(self, engine, v):
        index = engine.quiver.vertex_index
        weights = engine.pres.weights
        paths = sorted(engine.basis_paths_from(v),
                       key=lambda p: (index[p.target], p.weight, p.length, p.arrows))
        self.slices = {}
        for p in paths:
            self.slices.setdefault((p.target, p.weight), []).append(p)
        slot = {p.arrows: (key, i) for key, ps in self.slices.items()
                for i, p in enumerate(ps)}
        self.action = {}
        self.blocks_from = {}
        # a times p, read off the engine's normal forms: every one of length
        # below N is there, and a longer one is zero
        normal_forms = engine._normal_forms
        zero = engine.field.zero
        for (w, d), src in self.slices.items():
            out = self.blocks_from[(w, d)] = []
            for a in engine.quiver.arrows_from[w]:
                tkey = (a.target, wadd(d, weights[a.name]))
                tgt = self.slices.get(tkey)
                if tgt is None:
                    continue
                rows = [[zero] * len(src) for _ in tgt]
                for j, p in enumerate(src):
                    for q, c in normal_forms.get((a.name,) + p.arrows, {}).items():
                        rows[slot[q.arrows][1]][j] = c
                if any(any(r) for r in rows):
                    b = self.action[(a.name, d)] = Matrix._owning(engine.field, rows, len(src))
                    out.append((a.name, tkey, b))
        prefixes = sorted({p.arrows[i:] for p in paths for i in range(p.length + 1)},
                          key=lambda t: (len(t), t))
        node = self.node_of = {}
        weight = {(): wzero(engine.group_rank)}
        self.tree = []
        for arrows in prefixes:
            node[arrows] = len(self.tree)
            if arrows:
                rest = arrows[1:]
                weight[arrows] = wadd(weight[rest], weights[arrows[0]])
                self.tree.append((node[rest], arrows[0], weight[rest], slot.get(arrows)))
            else:
                self.tree.append((None, None, None, slot[()]))


def _divides(t, w):
    """True when the arrows t occur consecutively in the arrows w."""
    return any(w[i:i + len(t)] == t for i in range(len(w) - len(t) + 1))


def build_engine(pres):
    return NormalFormEngine(pres)
