"""Machine verification of the eventual Ext-ring comparison.

For a suitable idempotent pair, three homological thresholds are computed:
a = pd of the e-part of the semisimple quotient, b = its injective
dimension, c = corner projective dimension of the e-to-f module.  When all
are finite, the bigraded Ext dimensions of the algebra and of its corner
are compared degree by degree on the window (T, T+W], T = max(a, b+c+2),
together with Yoneda product structure constants carried across by the
restriction functor, projective-dimension equivalence for simples, finite
generation windows and GK growth estimates for both cohomology rings.

Verdicts are honest: infinite or undetermined thresholds produce a
"hypotheses unmet" / "undetermined" report, never a silent pass.
"""

from .corner import apply_F, apply_F_map, corner_algebra
from .ext import (ExtClass, ExtTable, generation_window_check, gk_estimate,
                  lift_chain_map, pull_back, yoneda_product)
from .linalg import Matrix
from .modules import simple_module
from .quiver import wzero
from .resolution import (belongs_to, combine_verdicts, injective_dimension,
                         projective_dimension, simple_resolutions)


class ThresholdData:
    """The verdicts for a, b, c and the window start T = max(a, b+c+2)."""

    __slots__ = ("a", "b", "c", "T")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c
        if a.is_finite and b.is_finite and c.is_finite:
            self.T = max(a.value, b.value + c.value + 2)
        else:
            self.T = None

    @property
    def all_finite(self):
        return self.T is not None

    @property
    def any_infinite(self):
        return any(v.is_infinite for v in (self.a, self.b, self.c))

    def unmet_reasons(self):
        out = []
        for label, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not v.is_finite:
                out.append("%s = %s" % (label, v.describe()))
        return out

    def to_json(self):
        return {"a": self.a.to_json(), "b": self.b.to_json(),
                "c": self.c.to_json(), "T": self.T}


def compute_abc(engine, pair, bound, corner=None, resolutions=None):
    """Threshold data for the pair.  a, b run over the e-vertex simples;
    c is the corner projective dimension of the e-to-f module.  a reads the
    store `resolutions` of simple resolutions when one is given."""
    if corner is None:
        corner = corner_algebra(engine, pair)
    lam_store = resolutions or simple_resolutions(engine)
    a = combine_verdicts(lam_store[v].pd_verdict(bound) for v in pair.e_vertices)
    b = combine_verdicts(injective_dimension(engine, simple_module(engine, v), bound)
                         for v in pair.e_vertices)
    fle, _ = corner.e_to_f
    c = projective_dimension(corner.corner_engine, fle, bound)
    return ThresholdData(a, b, c)


def restricted_ext_table(table, pair, thresholds=None):
    """The subtable among f-vertex simples.  When the thresholds are finite,
    assert that beyond max(a, b) the full table already equals it (entries
    touching e-vertices vanish: e-sources die past a, e-targets past b)."""
    restricted = table.restricted(pair.f_vertices)
    if thresholds is not None and thresholds.all_finite:
        cut = max(thresholds.a.value, thresholds.b.value)
        fset = set(pair.f_vertices)
        for (n, u, v, g), d in table.entries.items():
            if n > cut and d and (u not in fset or v not in fset):
                raise AssertionError(
                    "entry Ext^%d(%s, %s) is nonzero beyond the threshold, "
                    "contradicting the vanishing statement" % (n, u, v))
    return restricted


def _dims_key_sorted(dims):
    return [{"source": u, "target": v, "g": list(g), "dim": d}
            for (u, v, g), d in sorted(dims.items())]


class TransportCorrespondence:
    """The restriction-functor correspondence between Ext classes.

    For each f-vertex u, a chain map psi from the corner minimal resolution
    of the corner simple at u to the (exact, eventually projective) image
    of the full resolution of S_u.  Pulling a cocycle back along psi turns
    an Ext class over the big algebra into one over the corner.
    """

    def __init__(self, corner, lam_table, cor_table, depth):
        self.corner = corner
        self.lam_table = lam_table
        self.cor_table = cor_table
        self.depth = depth
        self._transported = {}      # (key, coefficients) -> corner class
        self.psi = {}
        for u in corner.pair.f_vertices:
            self.psi[u] = self._build_psi(u, depth)

    def _build_psi(self, u, depth):
        corner = self.corner
        res_lam = self.lam_table.resolutions[u]
        res_cor = self.cor_table.resolutions[u]
        # the restricted complex F(P^k), with F of the augmentation as map 0
        f_terms = [apply_F(corner, res_lam.module)] + \
            [apply_F(corner, res_lam.term(k)) for k in range(depth + 1)]
        f_diffs = [apply_F_map(corner, res_lam.differential(k),
                               source_F=f_terms[k + 1], target_F=f_terms[k])
                   for k in range(depth + 1)]
        q0 = res_cor.term(0)
        aug_q = res_cor.differential(0)
        rhs0 = [aug_q.column(*pos)[1] for pos in q0.gen_pos]
        return lift_chain_map(res_cor, 0, rhs0, f_diffs,
                              wzero(corner.corner_engine.group_rank))

    def transport_class(self, x):
        """Corner Ext class of a big-algebra class with f-vertex source
        and target: pull the restricted cocycle back along psi, once."""
        memo = (x.key(), tuple(sorted(x.coeffs.items())))
        if memo not in self._transported:
            u, n = x.source, x.degree
            coeffs = pull_back(x, self.psi[u][n], self.cor_table.resolutions[u].term(n),
                               self.lam_table.resolutions[u].term(n), x.target_degree)
            self._transported[memo] = ExtClass(n, u, x.target_vertex, x.target_degree, coeffs)
        return self._transported[memo]


def verify_product_compatibility(corner, lam_table, cor_table, t_value, window):
    """Check the transported correspondence is a degreewise linear
    isomorphism on the window and respects Yoneda products whose factors
    and product all land inside the window."""
    lo, hi = t_value + 1, t_value + window
    tc = TransportCorrespondence(corner, lam_table, cor_table, hi)
    field = corner.engine.field
    fset = set(corner.pair.f_vertices)

    # degreewise linear isomorphism, per (n, source, target, g) slot
    for n in range(lo, hi + 1):
        for u in corner.pair.f_vertices:
            basis = [x for x in lam_table.basis_classes(n, source=u)
                     if x.target_vertex in fset]
            by_slot = {}
            for x in basis:
                by_slot.setdefault((x.target_vertex, x.target_degree), []).append(x)
            for (v, g), classes in by_slot.items():
                q_n = cor_table.resolutions[u].term(n)
                slots = list(q_n.generators.get((v, g), {}).values())
                if len(slots) != len(classes):
                    return {"checked": 0, "mismatches": ["dimension mismatch at "
                            "degree %d (%s -> %s)" % (n, u, v)], "iso": False}
                cols = []
                for x in classes:
                    tx = tc.transport_class(x)
                    cols.append([tx.coeffs.get(i, field.zero) for i in slots])
                mat = Matrix.from_columns(field, cols, len(slots))
                if mat.rank() != len(slots):
                    return {"checked": 0, "mismatches": ["correspondence not "
                            "bijective at degree %d (%s -> %s)" % (n, u, v)],
                            "iso": False}

    checked = 0
    mismatches = []
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            if m + n > hi:
                continue
            ys = lam_table.basis_classes(n)
            for x in lam_table.basis_classes(m):
                if x.source not in fset or x.target_vertex not in fset:
                    continue
                for y in ys:
                    if y.source not in fset or y.target_vertex != x.source:
                        continue
                    z = yoneda_product(lam_table, x, y)
                    zx = tc.transport_class(x)
                    zy = tc.transport_class(y)
                    z_cor = yoneda_product(cor_table, zx, zy)
                    z_expected = tc.transport_class(z)
                    checked += 1
                    if z_cor != z_expected:
                        mismatches.append(
                            "product mismatch: deg %d x deg %d from %s" % (m, n, y.source))
    return {"checked": checked, "mismatches": mismatches, "iso": True}


def pd_equivalence_report(corner, bound, lam_store, cor_store):
    """Compare finiteness of pd over the algebra and over the corner for
    the f-vertex simples, read from the stores of simple resolutions of
    both engines: F of the simple at an f-vertex is the corner simple there."""
    rows = []
    for v in corner.pair.f_vertices:
        lam = lam_store[v].pd_verdict(bound)
        cor = cor_store[v].pd_verdict(bound)
        if lam.is_undetermined or cor.is_undetermined:
            agree = None
        else:
            agree = lam.is_finite == cor.is_finite
        rows.append({"module": "S_" + v, "lambda": lam.describe(),
                     "corner": cor.describe(), "agree": agree})
    return rows


def finiteness_and_growth_report(lam_table, cor_table, t_value, window, bound):
    """Finite-generation window checks and GK slope estimates on both sides."""
    gen_bound = max(1, t_value)
    check_bound = min(t_value + window, bound)
    out = {"generation": None, "gk": None}
    if gen_bound < check_bound:
        lam_gen = generation_window_check(lam_table, gen_bound, check_bound)
        cor_gen = generation_window_check(cor_table, gen_bound, check_bound)
        out["generation"] = {"lambda": lam_gen.to_json(),
                             "corner": cor_gen.to_json(),
                             "agree": lam_gen.success == cor_gen.success}
    if bound >= 6:
        lo = max(3, bound // 2)
        lam_slope, lam_resid = gk_estimate(lam_table, lo, bound)
        cor_slope, cor_resid = gk_estimate(cor_table, lo, bound)
        out["gk"] = {"range": [lo, bound],
                     "lambda": {"estimate": lam_slope, "residual": lam_resid},
                     "corner": {"estimate": cor_slope, "residual": cor_resid},
                     "delta": abs(lam_slope - cor_slope),
                     "note": "heuristic log-log cumulative slope, not certified"}
    return out


def verify_comparison(engine, pair, bound=40, window=10, seed=None, corner=None,
                      with_products=True):
    """Run the whole pipeline and return the comparison report as a dict.
    `seed` is accepted for old callers and ignored."""
    if corner is None:
        corner = corner_algebra(engine, pair)
    # one store of simple resolutions per engine, shared by every reader below
    lam_store = simple_resolutions(engine)
    cor_store = simple_resolutions(corner.corner_engine)
    thresholds = compute_abc(engine, pair, bound, corner=corner, resolutions=lam_store)
    report = {
        "hypotheses": thresholds.to_json(),
        "mixed_length_relations": engine.pres.mixed_length_relations,
        "window": [],
        "products": None,
        "pd_equivalence": None,
        "generation": None,
        "gk": None,
    }
    if not thresholds.all_finite:
        if thresholds.any_infinite:
            report["verdict"] = "HYPOTHESES_UNMET"
        else:
            report["verdict"] = "UNDETERMINED"
        report["unmet"] = thresholds.unmet_reasons()
        lam_table = ExtTable(engine, min(bound, 12), resolutions=lam_store)
        cor_table = ExtTable(corner.corner_engine, min(bound, 12), resolutions=cor_store)
        report["diagnostics"] = {
            "lambda_ext": lam_table.to_rows(),
            "corner_ext": cor_table.to_rows(),
        }
        return report

    t_value = thresholds.T
    hi = t_value + window
    table_bound = max(bound, hi)
    lam_table = ExtTable(engine, table_bound, resolutions=lam_store)
    cor_table = ExtTable(corner.corner_engine, table_bound, resolutions=cor_store)
    restricted_ext_table(lam_table, pair, thresholds)
    _assert_belongs_beyond_b(lam_table, pair, thresholds.b.value, hi)

    all_match = True
    for n in range(t_value + 1, hi + 1):
        lam_dims = lam_table.dims_at(n)
        cor_dims = cor_table.dims_at(n)
        match = lam_dims == cor_dims
        all_match = all_match and match
        report["window"].append({
            "n": n,
            "lambda_dims": _dims_key_sorted(lam_dims),
            "corner_dims": _dims_key_sorted(cor_dims),
            "match": match,
        })

    products_ok = True
    if with_products:
        prod = verify_product_compatibility(corner, lam_table, cor_table,
                                            t_value, window)
        report["products"] = prod
        products_ok = prod["iso"] and not prod["mismatches"]

    report["pd_equivalence"] = pd_equivalence_report(corner, bound, lam_store, cor_store)
    growth = finiteness_and_growth_report(lam_table, cor_table, t_value,
                                          window, table_bound)
    report["generation"] = growth["generation"]
    report["gk"] = growth["gk"]

    # per-simple pd verdicts that stayed open do not affect the window
    # comparison, which is exact degree by degree; record them as context
    report["open_pd_sources"] = {
        "lambda": sorted(lam_table.undetermined),
        "corner": sorted(cor_table.undetermined),
    }
    report["verdict"] = "PASS" if (all_match and products_ok) else "FAIL"
    return report


def _assert_belongs_beyond_b(lam_table, pair, b_value, hi):
    """Every resolution term of every simple belongs to f beyond degree b."""
    fset = set(pair.f_vertices)
    for u in lam_table.engine.quiver.vertices:
        res = lam_table.resolutions[u]
        for n in range(b_value + 1, hi + 1):
            if not belongs_to(res.summands(n), fset):
                raise AssertionError(
                    "term %d of the resolution of S_%s does not belong to f, "
                    "contradicting the finite injective dimension" % (n, u))
