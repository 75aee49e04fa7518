"""Bigraded Ext tables, Yoneda products via chain-map lifting,
finite-generation window checks, and a heuristic GK-dimension estimator.

Ext^n(S_u, S_v[g]) is read off a minimal resolution of S_u as the
multiplicity of the summand (v, g) in P^n: maps to a simple kill the
radical, and minimality makes every such map a cocycle and no nonzero one
a coboundary.  A table resolves each simple only as far as its pd verdict
at the bound: to a zero syzygy, to a periodicity certificate, or to the
bound when neither comes first.  Past a certificate it reads the summands
off the period (`MinimalResolution.summands`, based at step n0, whose
order a shift keeps), and the terms that lifts and products read are
resolved on demand.  Chain maps between resolutions are lifted generator by
generator with one primitive, `lift_chain_map`.  A lift step reads the
previous map only at the slots where a generator's column of the source
differential is nonzero, and solves against blocks of the target
differential, each factored once per slice, when first solved against; a
pull-back reads a map only at generators.  So a lifted map is kept as its
generator images, and the rest of it is evaluated only where read.

Lifts and pull-backs are linear in the cocycle (every solve takes the
first solution), so a table lifts each standard basis class once, extending
the stored maps on demand, and a Yoneda product combines pull-backs along
those lifts.
"""

import math
from functools import reduce
from operator import add

from .algebra import add_scaled
from .linalg import Subspace
from .quiver import checked_degree, wadd, wsub, wzero
from .resolution import simple_resolutions


class ExtClass:
    """A cocycle on the minimal resolution of a source simple.

    Represented by its values on the generator slots of P^n that match the
    target (vertex, degree): coeffs maps summand index -> scalar.
    """

    __slots__ = ("degree", "source", "target_vertex", "target_degree", "coeffs")

    def __init__(self, degree, source, target_vertex, target_degree, coeffs):
        self.degree = degree
        self.source = source
        self.target_vertex = target_vertex
        self.target_degree = tuple(target_degree)
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def is_zero(self):
        return not self.coeffs

    def key(self):
        return (self.degree, self.source, self.target_vertex, self.target_degree)

    def __eq__(self, other):
        return (isinstance(other, ExtClass) and self.key() == other.key()
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "ExtClass(n=%d, %s -> %s[%s], %s)" % (
            self.degree, self.source, self.target_vertex,
            list(self.target_degree), self.coeffs)


class ExtTable:
    """Bigraded Ext dimensions between graded simples, up to a bound, read off
    a store of simple resolutions shared with the other readers of one call
    (see `simple_resolutions`)."""

    def __init__(self, engine, bound, resolutions=None):
        self.engine = engine
        self.bound = bound
        self.resolutions = resolutions or simple_resolutions(engine)
        self.undetermined = {u for u, res in self.resolutions.items()
                             if res.pd_verdict(bound).is_undetermined}
        self.entries = {}
        for u, res in self.resolutions.items():
            for n in range(bound + 1):
                for (v, g) in res.summands(n):
                    key = (n, u, v, g)
                    self.entries[key] = self.entries.get(key, 0) + 1
        self._by_degree = {}    # n -> {(u, v, g): dim}, in the order of `entries`
        for (n, u, v, g), d in self.entries.items():
            self._by_degree.setdefault(n, {})[(u, v, g)] = d
        self.lifts = {}     # (source, degree, summand index) -> [phi_0, ...]

    def entry(self, n, u, v, g):
        return self.entries.get((n, u, v, checked_degree(g, self.engine.group_rank, "degree")), 0)

    def entry_total(self, n, u, v):
        """Ungraded Ext dimension: summed over the group degrees."""
        return sum(d for (a, b, _), d in self._by_degree.get(n, {}).items()
                   if a == u and b == v)

    def dims_at(self, n):
        return dict(self._by_degree.get(n, {}))

    def total_dim_at(self, n):
        return sum(self._by_degree.get(n, {}).values())

    def basis_classes(self, n, source=None):
        """The standard basis of Ext^n: one class per matching summand."""
        out = []
        sources = [source] if source is not None else list(self.engine.quiver.vertices)
        for u in sources:
            res = self.resolutions[u]
            if n > self.bound:
                raise ValueError("degree %d beyond computed bound %d" % (n, self.bound))
            for idx, (v, g) in enumerate(res.summands(n)):
                out.append(ExtClass(n, u, v, g, {idx: self.engine.field.one}))
        return out

    def basis_lift(self, source, degree, idx, depth):
        """The lift phi_0..phi_depth of the basis class on summand idx of
        P^degree(S_source), extending the stored maps as needed."""
        key = (source, degree, idx)
        lifts = self.lifts.get(key, [])
        if len(lifts) <= depth:
            v, g = self.resolutions[source].summands(degree)[idx]
            y = ExtClass(degree, source, v, g, {idx: self.engine.field.one})
            lifts = self.lifts[key] = lift_cocycle(self, y, depth, lifts)
        return lifts

    def identity_class(self, u):
        return ExtClass(0, u, u, wzero(self.engine.group_rank),
                        {0: self.engine.field.one})

    def restricted(self, vertices):
        """Entries among simples over the given vertex set only."""
        vs = set(vertices)
        return {k: d for k, d in self.entries.items() if k[1] in vs and k[2] in vs}

    def to_rows(self):
        rows = []
        for (n, u, v, g), d in sorted(self.entries.items()):
            rows.append({"n": n, "source": u, "target": v, "g": list(g), "dim": d})
        return rows


def ext_table(engine, bound, seed=None):
    """`ExtTable(engine, bound)`; `seed` is accepted for old callers and ignored."""
    return ExtTable(engine, bound)


def _solve_generator_lift(proj, d_tgt, rhs, grade):
    """The module map phi: proj.rep -> d_tgt.source (degree drop `grade`)
    with d_tgt o phi prescribed on generators.

    rhs[idx] is the required value of (d_tgt o phi) on generator idx, as
    coordinates on its slice of d_tgt.target ([] for zero).  Its image is
    the first solution against the block of d_tgt at slice (v, g - grade)
    for summand (v, g), factored once per slice, when first solved against
    (`ModuleMap.factor`); a zero value maps it to zero without a solve.
    """
    images = []
    for (v, g), b in zip(proj.summands, rhs):
        x = []
        if any(b):
            f = d_tgt.factor((v, wsub(g, grade)))
            x = None if f is None else f.solve(b)
            if x is None:
                raise AssertionError("lifting system is inconsistent")
        images.append(x)
    return proj.map_from_generator_images(d_tgt.source, images, grade=grade)


def _image(phi, terms, p):
    """phi at the vector sum c * (slot of tree node i of summand idx) over
    terms (idx, i, c), reading only those nodes: coordinates, [] for zero,
    reduced mod p over F_p (p = 0 over Q)."""
    acc = []
    for idx, i, c in terms:
        x = phi.node(idx, i)
        if x is not None:
            acc = ([c * a for a in x] if not acc else
                   [s + c * a if a else s for s, a in zip(acc, x)])
    return [s % p for s in acc] if p else acc


def lift_chain_map(source, start, rhs0, target_diffs, grade, done=()):
    """Lift generator by generator a chain map phi_k: P^{start+k} -> T_k,
    k = 0..depth, from the terms of the resolution `source` into the
    complex with differentials target_diffs[k]: T_k -> T_{k-1}, where
    target_diffs[0]: T_0 -> M is its augmentation.  Maps carry the degree
    drop `grade`.

    phi_0 solves target_diffs[0] o phi_0 = rhs0 on generators (rhs0[idx]
    is a vector of M on generator idx's slice shifted down by `grade`); each
    later phi_k solves target_diffs[k] o phi_k = phi_{k-1} o d_{start+k} on
    generators.  That right-hand side reads phi_{k-1} only at the slots
    where a generator's column of d_{start+k} is nonzero
    (`MinimalResolution.generator_terms`), so each phi_k is kept as its
    generator images and evaluates no other slot until one is read.  The
    maps `done`, lifted earlier, are kept and the lift continues after the
    last of them.
    """
    lifts = list(done)
    rhs = rhs0
    p = source.engine.field.characteristic
    for k in range(len(lifts), len(target_diffs)):
        if k:
            prev = lifts[-1]
            rhs = [_image(prev, terms, p) for terms in source.generator_terms(start + k)]
        lifts.append(_solve_generator_lift(source.term(start + k), target_diffs[k],
                                           rhs, grade))
    return lifts


def lift_cocycle(table, y, depth, done=()):
    """Chain maps phi_k: P^{n+k}(S_a) -> P^k(S_b), k = 0..depth, lifting the
    cocycle y in Ext^n(S_a, S_b[g]), continuing after the maps `done` of an
    earlier lift of y.  Maps carry the uniform degree drop g.
    """
    field = table.engine.field
    res_a = table.resolutions[y.source]
    res_b = table.resolutions[y.target_vertex]
    # y as values in S_b, whose single slot is slice (b, 0); only the
    # summands (b, g) map there
    rhs0 = []
    for idx, summand in enumerate(res_a.term(y.degree).summands):
        c = y.coeffs.get(idx, field.zero)
        if summand == (y.target_vertex, y.target_degree):
            rhs0.append([c])
        elif c:
            raise AssertionError("cocycle targets a different vertex or degree")
        else:
            rhs0.append([])
    return lift_chain_map(res_a, y.degree, rhs0,
                          [res_b.differential(k) for k in range(depth + 1)],
                          y.target_degree, done)


def pull_back(x, phi, top, mid, target_degree):
    """Pull the cocycle x, given on the generators of the projective `mid`,
    back along phi: top -> mid (or the restriction of mid).  Returns
    {summand index: scalar} on the generators of the projective `top`;
    only summands (x.target_vertex, target_degree) can be nonzero, by
    homogeneity, so only those generators are evaluated."""
    field = top.engine.field
    p = field.characteristic
    slot = (x.target_vertex, tuple(target_degree))
    coeffs = {}
    for i, idx in top.generators.get(slot, {}).items():
        tkey, image = phi.column(slot, i)
        acc = field.zero
        for row, j in mid.generators.get(tkey, {}).items():
            c = x.coeffs.get(j)
            if c and image[row]:
                acc += c * image[row]
        if p:
            acc %= p
        if acc:
            coeffs[idx] = acc
    return coeffs


def yoneda_product(table, x, y):
    """The Yoneda product x*y = sum_i y_i x*b_i over the basis classes b_i
    of y: x pulled back along the stored lift of each b_i.  Non-composable
    classes multiply to zero.
    """
    degree = x.degree + y.degree
    tdeg = wadd(x.target_degree, y.target_degree)
    if x.source != y.target_vertex or x.is_zero() or y.is_zero():
        return ExtClass(degree, y.source, x.target_vertex, tdeg, {})
    p = table.engine.field.characteristic
    res_a = table.resolutions[y.source]
    summands = res_a.term(y.degree).summands
    mid = table.resolutions[x.source].term(x.degree)
    coeffs = {}
    for i, c in y.coeffs.items():
        if summands[i] != (y.target_vertex, y.target_degree):
            raise AssertionError("cocycle targets a different vertex or degree")
        phi = table.basis_lift(y.source, y.degree, i, x.degree)[x.degree]
        add_scaled(coeffs, pull_back(x, phi, res_a.term(degree), mid, tdeg), c, p)
    return ExtClass(degree, y.source, x.target_vertex, tdeg, coeffs)


# -- finite generation and growth ------------------------------------------

class GenerationReport:
    __slots__ = ("gen_bound", "check_bound", "success", "first_failure", "details")

    def __init__(self, gen_bound, check_bound, success, first_failure, details):
        self.gen_bound = gen_bound
        self.check_bound = check_bound
        self.success = success
        self.first_failure = first_failure
        self.details = details

    def to_json(self):
        return {"gen_bound": self.gen_bound, "check_bound": self.check_bound,
                "success": self.success, "first_failure": self.first_failure,
                "degrees": self.details}


def generation_window_check(table, gen_bound, check_bound):
    """Is Ext^j, for gen_bound < j <= check_bound, spanned by Yoneda products
    of classes of degree <= gen_bound?  Reports the first failing degree."""
    if not gen_bound < check_bound <= table.bound:
        raise ValueError("need gen_bound < check_bound <= table bound")
    field = table.engine.field

    def coords(cls, layout):
        vec = [field.zero] * layout["size"]
        off = layout["offset"][cls.source]
        for idx, c in cls.coeffs.items():
            vec[off + idx] = c
        return vec

    def layout_at(j):
        offset = {}
        size = 0
        for u in table.engine.quiver.vertices:
            offset[u] = size
            size += len(table.resolutions[u].summands(j))
        return {"offset": offset, "size": size}

    # span_basis[j]: list of ExtClass spanning the reachable part of Ext^j
    span_basis = {}
    for j in range(0, gen_bound + 1):
        span_basis[j] = table.basis_classes(j)
    generators = [c for j in range(1, gen_bound + 1) for c in table.basis_classes(j)]
    details = {}
    first_failure = None
    for j in range(gen_bound + 1, check_bound + 1):
        layout = layout_at(j)
        full = layout["size"]
        span = Subspace(field, full)
        produced = []
        # a product lies in one part (source, target vertex, degree): skip full ones
        room = table.dims_at(j)
        pairs = ((x, y) for x in generators for y in span_basis.get(j - x.degree, [])
                 if x.source == y.target_vertex)
        for x, y in pairs:
            part = (y.source, x.target_vertex, wadd(x.target_degree, y.target_degree))
            if room.get(part):
                z = yoneda_product(table, x, y)
                if not z.is_zero() and span.add(coords(z, layout)):
                    produced.append(z)
                    room[part] -= 1
        got = span.dim
        details[j] = {"dim": full, "generated": got}
        span_basis[j] = produced
        if got != full and first_failure is None:
            first_failure = j
    return GenerationReport(gen_bound, check_bound, first_failure is None,
                            first_failure, details)


def gk_estimate_from_dims(dims_by_degree, lo, hi):
    """Least-squares slope of log(cumulative dim through n) against log n
    for n in [lo, hi].  Returns (slope, rms_residual).  Heuristic only.
    """
    if hi - lo + 1 < 3:
        raise ValueError("degenerate range: need at least 3 points")
    if hi >= len(dims_by_degree):
        raise ValueError("range exceeds computed degrees")
    cum = []
    total = 0
    for d in dims_by_degree:
        total += d
        cum.append(total)
    xs, ys = [], []
    for n in range(lo, hi + 1):
        if cum[n] <= 0:
            continue
        xs.append(math.log(n))
        ys.append(math.log(cum[n]))
    if len(xs) < 3:
        raise ValueError("degenerate range after dropping empty degrees")
    mx = _float_sum(xs) / len(xs)
    my = _float_sum(ys) / len(ys)
    sxx = _float_sum((x - mx) ** 2 for x in xs)
    sxy = _float_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = my - slope * mx
    resid = math.sqrt(_float_sum((y - (intercept + slope * x)) ** 2
                                 for x, y in zip(xs, ys)) / len(xs))
    return slope, resid


def _float_sum(values):
    """Left to right, rounding at each step: the builtin `sum` of floats is
    compensated from Python 3.12 on, so its last digits vary by version."""
    return reduce(add, values, 0)


def gk_estimate(table, lo, hi):
    dims = [table.total_dim_at(n) for n in range(hi + 1)]
    return gk_estimate_from_dims(dims, lo, hi)
