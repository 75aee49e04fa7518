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
(a path t*w = u*s for tips t and s), on sparse {arrows: coefficient} rows;
two monomials have no overlap to reduce.
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
for the life of the engine.

One Groebner basis serves the algebra and its opposite: reversing words
carries I onto I^op, so the reduced basis of I^op for the reversed word
order is this one read backwards (Green, op. cit.).  `opposite_engine`
shares the tails and word memo, reverses each word where it reads them and
takes the basis paths reversed; it runs no completion.  A completion of the
opposite presentation can pick other tips (it does on the exterior
algebras), hence another basis, but the opposite is read only for id
verdicts, which are isomorphism invariants, so no report changes.

Coefficients are the field's plain scalars (see fields.py), so an element
of F_p is its residue in [0, p), in relations, Groebner tails, normal forms
and elements alike; each sum of coefficients (`add_scaled`, the reduction
and the completion) is reduced mod p as it is formed.  All arithmetic is
exact (Q or F_p).
"""

from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .linalg import Matrix
from .quiver import (Path, PresentationError, compose, first_read, opposite_path,
                     vertex_path, wadd)


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
        if self.truncation < 2:
            raise PresentationError("truncation must be at least 2", "truncate")
        if self.group_rank < 0:
            raise PresentationError("group rank must be nonnegative")
        for i, a in enumerate(quiver.arrows):
            w = self.weights.get(a.name)
            if w is None:
                raise PresentationError("missing weight for arrow %s" % a.name, ("arrow", i))
            w = tuple(int(x) for x in w)
            if len(w) != self.group_rank:
                raise PresentationError("weight of arrow %s has wrong rank" % a.name,
                                        ("arrow", i))
            if self.group_rank >= 1 and all(x == 0 for x in w):
                raise PresentationError(
                    "arrow %s has identity weight; a proper grading needs "
                    "nonzero arrow weights" % a.name, ("arrow", i))
            self.weights[a.name] = w
        self.f_vertices = None if f_vertices is None else quiver.idempotent_vertices(f_vertices)
        # relations: list of [(coeff, (arrow names...)), ...].  A path named
        # twice keeps one term, the sum of its coefficients in the field, and
        # a term whose coefficient is zero there is dropped; a relation left
        # with no terms is kept empty, so relations keep their numbers.
        self.relations = []
        for idx, rel in enumerate(relations):
            terms = {}
            for coeff, names in rel:
                path = self.path_from_arrows(names, ("relation", idx))
                if path.length < 2:
                    raise PresentationError(
                        "relation term %r has length %d; relations must be "
                        "combinations of paths of length >= 2" % (path, path.length),
                        ("relation", idx))
                c = self.field.of(coeff)
                terms[path] = self.field.of(terms[path] + c) if path in terms else c
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
        return Path((name,), arrow.source, arrow.target, self.weights[name])

    def path_from_arrows(self, names, item=None):
        """Build a path from arrow names in composition order, in one pass;
        `item` names the input they come from in a PresentationError."""
        if not names:
            raise PresentationError("empty path", item)
        target = None
        for name in reversed(names):
            arrow = self.quiver.arrow_by_name.get(name)
            if arrow is None:
                raise PresentationError("unknown arrow %r" % name, item)
            if target is not None and arrow.source != target:
                raise PresentationError(
                    "arrows %s do not compose at %r" % ("*".join(names), name), item)
            target = arrow.target
        return Path(tuple(names), self.quiver.arrow_by_name[names[-1]].source, target,
                    tuple(map(sum, zip(*map(self.weights.get, names)))))

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
                        % (s, t, sorted(weights)), ("relation", idx))
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
                        "coefficient %s of term %s has no value in %s"
                        % (c, "*".join(path.arrows), field.name), ("relation", idx))
                mapped.append((c, path.arrows))
            rels.append(mapped)
        return AlgebraPresentation(self.quiver, self.group_rank, self.weights, field,
                                   rels, self.truncation, f_vertices=self.f_vertices)

    def opposite(self):
        """Arrows reversed, relation paths reversed, weights preserved.  It
        is derived from this presentation's validated data: each relation
        path is reversed as a `Path`, and no arrow name is read again."""
        op = AlgebraPresentation.__new__(AlgebraPresentation)
        vars(op).update(vars(self), quiver=self.quiver.opposite(), relations=[
            [(c, opposite_path(p)) for c, p in terms] for terms in self.relations])
        op.uniform_relations = op._split_uniform()
        return op


class UniformRelation:
    __slots__ = ("source", "target", "weight", "terms")

    def __init__(self, source, target, weight, terms):
        self.source = source
        self.target = target
        self.weight = weight
        self.terms = terms


def add_scaled(out, terms, c, p):
    """out += c * terms, for sparse {key: coefficient} dicts, each sum reduced
    mod p over F_p (p = 0 over Q).  A key whose sum vanishes is dropped; a
    new key goes last."""
    for t, d in terms.items():
        s = out.get(t, 0) + c * d
        if p:
            s %= p
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
        add_scaled(out, other.terms, 1, self.engine.field.characteristic)
        return AlgebraElement(self.engine, out)

    def __sub__(self, other):
        field = self.engine.field
        return self + other.scaled(field.neg(field.one))

    def scaled(self, c):
        p = self.engine.field.characteristic
        return AlgebraElement(self.engine, {t: c * v % p if p else c * v
                                            for t, v in self.terms.items()})

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
        # the Groebner basis, {tip arrows: tail}: a tail is
        # {arrows: coefficient}, its paths larger than the tip
        self._tails = {}
        # {first arrow: lengths of the tips that start with it}; a length
        # left by a tip taken out of the basis only costs a failed lookup
        self._tip_lengths = {}
        # normal forms as {arrows: coefficient}, by the arrows of a path of
        # length >= 1; an engine reads them with its words taken in steps
        # of `_step`, backwards (-1) for the opposite of the engine that
        # completed the basis
        self._word_nf = {}
        self._step = 1
        self._present(pres)
        self._complete()
        self._index(self._standard_paths())

    def _present(self, pres):
        self.pres = pres
        self.field = pres.field
        self.quiver = pres.quiver
        self.group_rank = pres.group_rank
        self.truncation = pres.truncation

    def _index(self, basis):
        """Take `basis` as the basis: normal forms as {basis path:
        coefficient} are filled for every basis path and every arrow times
        one, so templates reduce nothing."""
        self.basis = basis
        self.dim = len(basis)
        self._basis_path = {p.arrows[::self._step]: p for p in basis if p.arrows}
        self._normal_forms = {p.arrows: {p: self.field.one} for p in basis if p.arrows}
        for p in basis:
            if p.length + 1 < self.truncation:
                for a in self.quiver.arrows_from[p.target]:
                    self._normal_form((a.name,) + p.arrows)
        self._paths_from = {}
        for p in basis:
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
        path first, is reduced in turn.  Each of those two scans of the
        basis is skipped when it cannot find anything: when no tip is longer
        than the new one, and when every tail is zero, since two monomials
        have no overlap to reduce.  Last, every tail is reduced."""
        n = self.truncation
        p = self.field.characteristic
        tails = self._tails
        queue = deque({path.arrows: c for c, path in rel.terms
                       if path.length <= n} for rel in self.pres.uniform_relations)
        overlaps = []
        # no tip so far is longer than `longest`, and all tails are zero
        # unless `some_tail`: neither bound falls when a tip leaves, so each
        # tail scan below is skipped only where it can find nothing
        longest, some_tail = 0, False
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
            inv = self.field.inv(f.pop(tip))
            tail = {w: c * inv % p if p else c * inv for w, c in f.items()}
            if len(tip) < longest:
                for s in [s for s in tails if len(s) > len(tip) and _divides(tip, s)]:
                    queue.append({s: 1, **tails.pop(s)})
            longest = max(longest, len(tip))
            some_tail = some_tail or bool(tail)
            tails[tip] = tail
            lengths = self._tip_lengths.setdefault(tip[0], [])
            if len(tip) not in lengths:
                lengths.append(len(tip))
            for s, s_tail in tails.items() if some_tail else ():
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
        """Reduce {arrows: coefficient} modulo the Groebner basis, emptying f.
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
        quiver order, and kept when no tip starts the extension, so every
        first-applied part of a basis path is one listed before it (and in
        the opposite engine, a reversed prefix, shorter).  A standard path
        of length N means J^N is not inside I."""
        weights = self.pres.weights
        level = [vertex_path(v, self.group_rank) for v in self.quiver.vertices]
        basis = list(level)
        for length in range(1, self.truncation + 1):
            nxt = []
            for q in level:
                for a in self.quiver.arrows_from[q.target]:
                    w = (a.name,) + q.arrows
                    if self._tip_at(w, 0) is None:
                        self._word_nf[w] = {w: 1}
                        nxt.append(Path(w, q.source, a.target, wadd(q.weight, weights[a.name])))
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
            level = [Path((a.name,) + q.arrows, q.source, a.target,
                          wadd(q.weight, self.pres.weights[a.name]))
                     for q in level for a in self.quiver.arrows_from[q.target]
                     if self._nf_word((a.name,) + q.arrows)]
        return level[0]

    def _nf_word(self, w):
        """Normal form of the path with arrows w: its first arrow times the
        normal form of the rest, reduced; as {arrows: coefficient}, memoized.
        The standard walk has put in every standard path, arrows included."""
        nf = self._word_nf.get(w)
        if nf is None:
            a = w[:1]
            nf = self._word_nf[w] = self._reduce(
                {a + y: c for y, c in self._nf_word(w[1:]).items() if len(y) < self.truncation})
        return nf

    def _normal_form(self, w):
        """Normal form of the path with arrows w, of length 1 to N - 1, as
        {basis path: coefficient}, memoized; the word memo is read with w
        taken in steps of `_step`."""
        nf = self._normal_forms.get(w)
        if nf is None:
            path = self._basis_path
            nf = self._normal_forms[w] = {path[x]: c for x, c
                                          in self._nf_word(w[::self._step]).items()}
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
                add_scaled(out, self.nf_path(p), c, self.field.characteristic)
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
                add_scaled(out, self.multiply_paths(p, q), c * d, self.field.characteristic)
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

    @first_read
    def opposite_engine(self):
        """The engine of the opposite algebra.  Reversing words maps I onto
        I^op, so it shares this engine's Groebner basis and word memo, read
        backwards, runs no completion and takes the basis paths reversed.
        It holds no reference to this engine, which keeps it: the pair forms
        no cycle."""
        op = NormalFormEngine.__new__(NormalFormEngine)
        op._tails, op._tip_lengths, op._word_nf = self._tails, self._tip_lengths, self._word_nf
        op._step = -self._step
        op._present(self.pres.opposite())
        op._index([opposite_path(p) for p in self.basis])
        return op

    def __repr__(self):
        return "NormalFormEngine(dim=%d, vertices=%d)" % (self.dim, len(self.quiver.vertices))


class ProjectiveTemplate:
    """The indecomposable projective at vertex v, in degree zero: what every
    projective with a summand at v copies its slots and action from.

    `slots[(w, d)]` lists the basis paths p from v to w of weight d, as the
    slots (0, p) of a projective with this one summand, in (length, arrows)
    order; slices go vertex by vertex in quiver order, then by degree.
    `blocks_from[(w, d)]` lists, as (arrow, target slice, block) in quiver
    arrow order, the matrix of each arrow a from slice (w, d) to slice
    (a.target, d + W(a)), left out when zero, so a projective places them
    with no weight arithmetic.  These lists and blocks are shared by every
    projective built from the template and are never mutated.

    `tree` is the basis paths from v in the engine's walk order: node i is
    (parent, arrow, weight of the parent, slot), the path "arrow after the
    parent's path" at slot (slice, position), and node 0 is the vertex path
    e_v.  The walk lists every first-applied part of a basis path before it,
    so each node's parent is a node before it.  `node_of[arrows]` is the
    node of the path with those arrows.
    """

    __slots__ = ("slots", "blocks_from", "tree", "node_of")

    def __init__(self, engine, v):
        index = engine.quiver.vertex_index
        weights = engine.pres.weights
        field = engine.field
        paths = engine._paths_from[v]
        by_key = {}
        for p in paths:
            by_key.setdefault((p.target, p.weight), []).append(p)
        self.slots, slot = {}, {}       # slot: {arrows: (slice, position)}
        for key in sorted(by_key, key=lambda k: (index[k[0]], k[1])):
            ps = by_key[key]
            if len(ps) > 1:
                ps.sort(key=lambda p: (p.length, p.arrows))
            self.slots[key] = [(0, p) for p in ps]
            for i, p in enumerate(ps):
                slot[p.arrows] = key, i
        # a times p, read off the engine's normal forms: every one of length
        # below N is there, a longer one is zero, and none has a zero term
        self.blocks_from = {}
        normal_forms = engine._normal_forms
        for (w, d), src in self.slots.items():
            out = self.blocks_from[(w, d)] = []
            for a in engine.quiver.arrows_from[w]:
                tkey = (a.target, wadd(d, weights[a.name]))
                tgt = self.slots.get(tkey)
                rows = None
                for j, (_, p) in enumerate(src if tgt else ()):
                    for q, c in normal_forms.get((a.name,) + p.arrows, {}).items():
                        rows = rows or [[field.zero] * len(src) for _ in tgt]
                        rows[slot[q.arrows][1]][j] = c
                if rows:
                    out.append((a.name, tkey, Matrix._owning(field, rows, len(src))))
        node = self.node_of = {(): 0}
        self.tree = [(None, None, None, slot[()])]
        for i, p in enumerate(paths[1:], 1):
            parent = node[p.arrows[1:]]
            node[p.arrows] = i
            self.tree.append((parent, p.arrows[0], paths[parent].weight, slot[p.arrows]))


def _divides(t, w):
    """True when the arrows t occur consecutively in the arrows w."""
    return any(w[i:i + len(t)] == t for i in range(len(w) - len(t) + 1))


def build_engine(pres):
    return NormalFormEngine(pres)
