"""Minimal graded projective resolutions, syzygies, and dimension verdicts.

A resolution is built by iterated projective covers, so it is minimal by
construction (kernels land in the radical); exactness and minimality are
still re-checked by `verify`.  Infinite projective dimension is certified
by syzygy periodicity: a graded isomorphism Omega^{n0+t} ~ Omega^{n0}[h].
Verdicts that cannot be settled within the bound stay honest ("at_least").
A verdict extends the resolution only to the first zero syzygy or in-bound
certificate, and ignores certificates past its bound, so it never depends on
earlier extension.  One call shares one store of simple resolutions per
engine (`simple_resolutions`, or in `global_dimension` each made when
reached) among its readers, and drops it on return.

A resolution is a lazily extended chain of covers, each the `successor`
of the one before: `term`, `syzygy`, `differential` and `generator_terms`
compute the covers they read on demand, and differential n >= 1 is step
n - 1's `Cover.step`.  A step past a repeat is the step it repeats,
re-keyed by the shift (see `modules`): its projective is still built from
the templates, but its epi, kernel, differential, rank, factors, JSON rows
and generator terms are not computed again, while `verify` still composes
and ranks every step.  Past a certificate the terms repeat up to shift,
P^{b+kt} = P^b[kh], so `summands(n)` for a step not yet covered reads the
summands off the period instead of resolving to n.  The base b is taken
from step n0 on: every cover, P^0's included, lists its summands in the
one slice order of `modules`, which a shift keeps.  Verdicts and the scan
read only `syzygy_dims(n)`, dim P^{n-1} - dim Omega^{n-1} slice by slice
as a cover is onto, so a resolution to bound B computes the kernels of
P^0..P^{B-1} and not that of P^B.
"""

from .modules import (_ShiftedRep, dual_to_opposite, module_iso_test, projective_cover,
                      simple_module)
from .quiver import wadd, wsub


class DimVerdict:
    """Finite(d), InfiniteCertified(certificate), or AtLeast(bound)."""

    __slots__ = ("kind", "value", "bound", "certificate")

    def __init__(self, kind, value=None, bound=None, certificate=None):
        self.kind = kind
        self.value = value
        self.bound = bound
        self.certificate = certificate

    @staticmethod
    def finite(d):
        return DimVerdict("finite", value=d)

    @staticmethod
    def infinite(cert):
        return DimVerdict("infinite", certificate=cert)

    @staticmethod
    def at_least(bound):
        return DimVerdict("at_least", bound=bound)

    @property
    def is_finite(self):
        return self.kind == "finite"

    @property
    def is_infinite(self):
        return self.kind == "infinite"

    @property
    def is_undetermined(self):
        return self.kind == "at_least"

    def __eq__(self, other):
        if isinstance(other, DimVerdict):
            return (self.kind, self.value, self.bound) == (other.kind, other.value, other.bound)
        return NotImplemented

    def describe(self):
        if self.kind == "finite":
            return "finite(%d)" % self.value
        if self.kind == "infinite":
            c = self.certificate
            return "infinite (periodic certificate: n0=%d, period=%d, shift=%s)" % (
                c.n0, c.period, list(c.shift))
        return "at least %d (undetermined at bound)" % (self.bound + 1)

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "finite":
            out["value"] = self.value
        elif self.kind == "infinite":
            out["certificate"] = {"n0": self.certificate.n0,
                                  "period": self.certificate.period,
                                  "shift": list(self.certificate.shift)}
        else:
            out["bound"] = self.bound
        return out

    def __repr__(self):
        return "DimVerdict(%s)" % self.describe()


def combine_verdicts(verdicts):
    """Max of projective dimensions over a family (empty family: Finite(-1)).
    The first infinite verdict is returned at once, so a generator stops there."""
    best = DimVerdict.finite(-1)
    undetermined = None
    for v in verdicts:
        if v.is_infinite:
            return v
        if v.is_undetermined:
            undetermined = v
        elif best.is_finite and v.value > best.value:
            best = v
    return undetermined if undetermined is not None else best


class PeriodicityCertificate:
    """Witness for Omega^{n0 + period} ~ Omega^{n0}[shift]."""

    __slots__ = ("n0", "period", "shift", "witness")

    def __init__(self, n0, period, shift, witness):
        self.n0 = n0
        self.period = period
        self.shift = shift
        self.witness = witness


class MinimalResolution:
    """A minimal graded projective resolution of a representation.

    Step n covers the n-th syzygy (`covers[n]`); the differential
    P^n -> P^{n-1} is the cover epi followed by the previous kernel's
    inclusion.  `seed` is accepted for old callers and ignored.
    """

    def __init__(self, engine, module, seed=None):
        self.engine = engine
        self.module = module
        self.covers = []
        self.certificate = None
        self._shapes = []       # (shape, first degree) of each syzygy indexed so far
        self._by_shape = {}     # shape -> those syzygies, increasing

    def syzygy(self, n):
        if n == 0:
            return self.module
        return self._cover(n - 1).kernel

    def syzygy_dims(self, n):
        """The slice dimensions of Omega^n; no kernel is computed."""
        if n == 0:
            return self.module.dims
        return self._cover(n - 1).kernel_dims

    def _cover(self, n):
        if n >= len(self.covers):
            self.extend_to(n)
        return self.covers[n]

    def term(self, n):
        try:                # no length check on the hot path: lifts read terms often
            return self.covers[n].projective
        except IndexError:
            return self._cover(n).projective

    def summands(self, n):
        """The (vertex, degree) summands of P^n, in order; read off the
        period when step n is past a certificate and not yet covered."""
        c = self.certificate
        if n >= len(self.covers) and c is not None:
            k, r = divmod(n - c.n0, c.period)
            if k > 0:
                kh = tuple(k * b for b in c.shift)
                return [(v, wadd(g, kh)) for v, g in self.summands(c.n0 + r)]
        return list(self.term(n).summands)

    def extend_to(self, bound):
        """Compute covers through step `bound` (syzygies through bound + 1),
        each the `successor` of the last.  Once a syzygy is zero, its zero
        cover serves every later step."""
        while len(self.covers) <= bound:
            self.covers.append(self.covers[-1].successor() if self.covers
                               else projective_cover(self.engine, self.module))
            if self.certificate is None and not self.covers[-1].projective.is_zero():
                self._scan_periodicity(len(self.covers))
        return self

    def _scan_periodicity(self, n):
        """Look for Omega^n ~ Omega^m[h] with m < n, trying in increasing m
        only the syzygies whose slices are its own moved by some h: those
        of its shape, the key of the engine's covers (`modules._shape`),
        where h is the difference of their first degrees."""
        if not self.syzygy_dims(n):
            return
        for k in range(len(self._shapes), n + 1):
            self._shapes.append(self.covers[k - 1].kernel_shape if k else self.module.shape)
            self._by_shape.setdefault(self._shapes[-1][0], []).append(k)
        shape, low = self._shapes[n]
        for m in self._by_shape[shape]:
            if m >= n:
                break
            h = wsub(low, self._shapes[m][1])
            status, witness = module_iso_test(_ShiftedRep(self.syzygy(m), h), self.syzygy(n))
            if status == "isomorphic":
                self.certificate = PeriodicityCertificate(m, n - m, h, witness)
                return

    def differential(self, n):
        """The map P^n -> P^{n-1} (n >= 1), step n - 1's `Cover.step`, or
        P^0 -> M (n = 0)."""
        self._cover(n)
        return self.covers[n - 1].step if n else self.covers[0].epi

    def generator_terms(self, n):
        """The column of differential n (n >= 1) at each generator of P^n,
        as terms (summand, tree node, coefficient) over the nonzero slots
        of P^{n-1}: what a chain-map lift reads of it, kept with the step
        (`Cover.generator_terms`)."""
        self._cover(n)
        return self.covers[n - 1].generator_terms

    def pd_verdict(self, bound):
        """Projective dimension as a resolution to `bound` steps settles it.

        Extends one step at a time and stops at the first zero syzygy or at
        the first certificate with n0 + period <= bound + 1.  A certificate
        found past the bound is not trusted, so on a resolution extended
        further the verdict equals that of a fresh one."""
        if self.module.is_zero():
            return DimVerdict.finite(-1)
        for n in range(1, bound + 2):
            self.extend_to(n - 1)
            if not self.syzygy_dims(n):
                return DimVerdict.finite(n - 1)
            c = self.certificate
            if c is not None and c.n0 + c.period <= n:
                return DimVerdict.infinite(c)
        return DimVerdict.at_least(bound)

    def verify(self):
        """Re-check exactness, minimality and (if present) the certificate
        on every step computed."""
        for n in range(1, len(self.covers)):
            d_n = self.differential(n)
            d_prev = self.differential(n - 1)
            if not d_prev.compose(d_n).is_zero():
                raise AssertionError("differential composite is nonzero at step %d" % n)
            # exactness: rank d_n = dim ker d_{n-1} (each rank is kept)
            if d_n.rank() != self.term(n - 1).total_dim - d_prev.rank():
                raise AssertionError("resolution is not exact at step %d" % (n - 1))
            # minimality: no generator maps onto a generator slot downstairs
            prev = self.term(n - 1).generators
            for key, cols in self.term(n).generators.items():
                block = d_n.blocks.get(key)
                if block is not None and any(block.rows[i][j]
                                             for i in prev.get(key, ()) for j in cols):
                    raise AssertionError("differential at step %d has a unit entry" % n)
        if self.certificate is not None:
            c = self.certificate
            if not c.witness.is_iso():
                raise AssertionError("periodicity witness is not invertible")
            c.witness._verify()
        return True

    def to_json(self):
        out = {"module_dims": {v: d for v, d in self.module.dim_vector().items() if d},
               "steps": []}
        for n, cover in enumerate(self.covers):
            out["steps"].append({
                "n": n,
                "summands": cover.projective.to_json(),
                "differential": self.differential(n).to_json(),
            })
        if self.certificate is not None:
            c = self.certificate
            out["certificate"] = {"n0": c.n0, "period": c.period, "shift": list(c.shift)}
        return out


def minimal_resolution(engine, module, bound):
    res = MinimalResolution(engine, module)
    res.extend_to(bound)
    return res


def projective_dimension(engine, module, bound):
    return MinimalResolution(engine, module).pd_verdict(bound)


def injective_dimension(engine, module, bound):
    """Injective dimension, as projective dimension of the dual over the
    opposite algebra."""
    dual = dual_to_opposite(engine, module)
    return projective_dimension(engine.opposite_engine, dual, bound)


def simple_resolutions(engine):
    """{vertex: MinimalResolution} of the graded simples, none extended yet:
    the store one top-level call shares among its readers."""
    return {v: MinimalResolution(engine, simple_module(engine, v))
            for v in engine.quiver.vertices}


def global_dimension(engine, bound, seed=None):
    """Max projective dimension over the graded simples, in vertex order;
    returns at the first infinite one without resolving the rest.  Each
    resolution is kept to the return: later simples reuse its covers.
    `seed` is accepted for old callers and ignored."""
    kept = {}       # each simple's resolution, made when its simple is reached
    return combine_verdicts(
        kept.setdefault(v, MinimalResolution(engine, simple_module(engine, v)))
        .pd_verdict(bound) for v in engine.quiver.vertices)


def belongs_to(summands, vertex_set):
    """True when every (vertex, shift) summand lies over the vertex set."""
    vs = set(vertex_set)
    return all(v in vs for v, _ in summands)
