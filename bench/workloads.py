"""The four benchmark workloads: seeded inputs, set-up, the timed job, and
checks against known mathematics (never against recorded program output).

The seed relabels vertices and arrows and permutes their declaration order
(and, for the exterior algebra, the generator and weight-coordinate order);
for the CLI workload it shuffles the call order.  It is also passed on as
the isomorphism-sampling seed.  Every check is invariant under relabelling,
so a second seed doubles as a dict-order probe.
"""

import contextlib
import io
import json
import math
import os
import random

from quiverext import algebra, algfile, cli, comparison, corner, ext, modules, resolution


def _labels(rng, prefix, n):
    return [prefix + str(k) for k in rng.sample(range(100, 1000), n)]


def _commutator(rng, a, b):
    if rng.random() < 0.5:
        a, b = b, a
    return "rel %s*%s + -1*%s*%s" % (a, b, b, a)


def _text(rng, field, rank, vertices, arrows, relations, truncate, f=None):
    """An .alg description with vertices, arrows and relations in random
    declaration order.  arrows: (name, source, target, weight tuple)."""
    vertices = list(vertices)
    arrows = list(arrows)
    relations = list(relations)
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    lines = ["field " + field, "group Z %d" % rank, "vertices " + " ".join(vertices)]
    for name, s, t, w in arrows:
        lines.append("arrow %s %s %s %s" % (name, s, t, " ".join(map(str, w))))
    lines.append("truncate %d" % truncate)
    lines.extend(relations)
    if f is not None:
        lines.append("idempotent f = " + " ".join(f))
    return "\n".join(lines) + "\n"


def _unit(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


def _compositions(n, parts):
    """All g in N^parts with |g| = n."""
    if parts == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1)
            for rest in _compositions(n - k, parts - 1)]


class _Workload:
    """By default a job is one library call, checked on its result."""

    def run_job(self, state, inp, seed, clock):
        """[(seconds, result or the exception raised)] for the one call."""
        t0 = clock()
        try:
            out = self.job(state, seed)
        except Exception as exc:    # counted as a failed operation
            return [(clock() - t0, exc)]
        return [(clock() - t0, out)]

    def check_ops(self, inp, outputs):
        return [self.check(inp, out) for out in outputs]

    def final_check(self, inp, state, seed):
        """Checks run once per run, after the timed jobs."""
        return []


def _engine(text):
    eng = algebra.build_engine(algfile.parse_algebra(text))
    eng.opposite_engine
    return eng


# -- ext_exterior3_f3 ------------------------------------------------------------

class Exterior3(_Workload):
    """ext_table(bound=3) of the exterior algebra on three weight-e_i
    loops over F_3.  Its Ext ring is polynomial on three classes, so
    Ext^n(S, S[g]) = 1 exactly for g in N^3 with |g| = n."""

    name = "ext_exterior3_f3"
    field = "F3"
    bound = 3

    def make_input(self, seed):
        rng = random.Random(seed)
        (v,) = _labels(rng, "v", 1)
        gens = _labels(rng, "x", 3)
        coords = rng.sample(range(3), 3)
        arrows = [(g, v, v, _unit(3, c)) for g, c in zip(gens, coords)]
        rels = ["rel %s*%s" % (g, g) for g in gens]
        rels += [_commutator(rng, gens[i], gens[j])
                 for i in range(3) for j in range(i + 1, 3)]
        return {"text": _text(rng, "F 3", 3, [v], arrows, rels, 4), "vertex": v}

    def input_size(self, inp):
        return {"vertices": 1, "arrows": 3, "dim": 8, "ext_bound": self.bound}

    def setup(self, inp):
        return _engine(inp["text"])

    def job(self, eng, seed):
        return ext.ext_table(eng, self.bound, seed=seed)

    def check(self, inp, table):
        v = inp["vertex"]
        want = {(n, v, v, g): 1 for n in range(self.bound + 1)
                for g in _compositions(n, 3)}
        bad = []
        if table.entries != want:
            bad.append("ext table is not Ext^n(S, S[g]) = 1 for each g in N^3 "
                       "with |g| = n <= %d (%d entries, expected %d)"
                       % (self.bound, len(table.entries), len(want)))
        if sorted(table.undetermined) != [v]:
            bad.append("undetermined sources %s, expected [%s]"
                       % (sorted(table.undetermined), v))
        return bad


# -- compare_poly_corner -----------------------------------------------------------

class PolyCorner(_Workload):
    """verify_comparison(bound=8, window=5) on an arrow into the exterior
    algebra on two loops, with the corner at the loop vertex.  The corner's
    Ext ring is polynomial on two degree-one classes, so T = 2, window row n
    has n+1 one-dimensional slots, and (m+1)(n+1) products are checked for
    each m, n > T with m + n <= T + window: 56 in all."""

    name = "compare_poly_corner"
    field = "Q"
    bound = 8
    window = 5

    def make_input(self, seed):
        rng = random.Random(seed)
        a, b = _labels(rng, "v", 2)
        x, p, q = _labels(rng, "a", 3)
        cp, cq = rng.sample(range(2), 2)
        arrows = [(x, a, b, _unit(2, cp)), (p, b, b, _unit(2, cp)),
                  (q, b, b, _unit(2, cq))]
        rels = ["rel %s*%s" % (p, p), "rel %s*%s" % (q, q), _commutator(rng, p, q)]
        return {"text": _text(rng, "Q", 2, [a, b], arrows, rels, 4, f=[b]),
                "f": b}

    def input_size(self, inp):
        return {"vertices": 2, "arrows": 3, "dim": 9, "bound": self.bound,
                "window": self.window}

    def setup(self, inp):
        eng = _engine(inp["text"])
        pair = corner.pair_from_presentation(eng)
        return eng, pair, corner.corner_algebra(eng, pair)

    def job(self, state, seed):
        eng, pair, cp = state
        return comparison.verify_comparison(eng, pair, bound=self.bound,
                                            window=self.window, seed=seed, corner=cp)

    def check(self, inp, report):
        b = inp["f"]
        bad = []
        if report.get("verdict") != "PASS":
            bad.append("verdict %s, expected PASS" % report.get("verdict"))
        if report["hypotheses"].get("T") != 2:
            bad.append("T = %s, expected 2" % report["hypotheses"].get("T"))
        rows = report.get("window", [])
        if [r["n"] for r in rows] != list(range(3, 3 + self.window)):
            bad.append("window degrees %s" % [r["n"] for r in rows])
        for r in rows:
            slots = r["lambda_dims"]
            if (len(slots) != r["n"] + 1 or not r["match"]
                    or any(s["dim"] != 1 or s["source"] != b or s["target"] != b
                           for s in slots)):
                bad.append("window row %d is not n+1 one-dimensional slots" % r["n"])
        prod = report.get("products") or {}
        hi = 2 + self.window
        products = sum((m + 1) * (n + 1) for m in range(3, hi) for n in range(3, hi)
                       if m + n <= hi)
        if prod.get("checked") != products or prod.get("mismatches") or not prod.get("iso"):
            bad.append("products checked %s (expected %d), mismatches %s"
                       % (prod.get("checked"), products, prod.get("mismatches")))
        return bad


# -- gldim_nakayama24 ------------------------------------------------------------

class Nakayama24(_Workload):
    """global_dimension(bound=50) of the cyclic Nakayama algebra with 24
    vertices and J^5 = 0.  Omega^2 S_i = S_{i+5}[5], so the syzygies of a
    simple recur after 2 * 24 / gcd(5, 24) = 48 steps with shift 120."""

    name = "gldim_nakayama24"
    field = "Q"
    n = 24
    loewy = 5
    bound = 50

    def make_input(self, seed):
        rng = random.Random(seed)
        vs = _labels(rng, "v", self.n)
        arrs = _labels(rng, "a", self.n)
        arrows = [(arrs[i], vs[i], vs[(i + 1) % self.n], (1,)) for i in range(self.n)]
        rels = ["rel " + "*".join(arrs[(i + j) % self.n]
                                  for j in reversed(range(self.loewy)))
                for i in range(self.n)]
        return {"text": _text(rng, "Q", 1, vs, arrows, rels, self.loewy + 1),
                "first": vs[0]}

    def input_size(self, inp):
        return {"vertices": self.n, "arrows": self.n, "dim": self.n * self.loewy,
                "bound": self.bound}

    def _period(self):
        return 2 * self.n // math.gcd(self.loewy, self.n)

    def setup(self, inp):
        return _engine(inp["text"])

    def job(self, eng, seed):
        return resolution.global_dimension(eng, self.bound, seed=seed)

    def _check_certificate(self, cert):
        bad = []
        shift = self._period() // 2 * self.loewy
        if (cert.n0, cert.period, tuple(cert.shift)) != (0, self._period(), (shift,)):
            bad.append("certificate n0=%d period=%d shift=%s, expected 0, %d, [%d]"
                       % (cert.n0, cert.period, list(cert.shift), self._period(), shift))
        if not cert.witness.is_iso():
            bad.append("periodicity witness is not invertible")
        return bad

    def check(self, inp, verdict):
        if not verdict.is_infinite:
            return ["verdict %s, expected infinite" % verdict.describe()]
        return self._check_certificate(verdict.certificate)

    def final_check(self, inp, eng, seed):
        """Re-derive one simple's certificate and re-verify the resolution
        (exactness, minimality, witness) with MinimalResolution.verify()."""
        res = resolution.MinimalResolution(
            eng, modules.simple_module(eng, inp["first"]), seed=seed)
        res.extend_to(self.bound)
        res.verify()
        if res.certificate is None:
            return ["no periodicity certificate within bound %d" % self.bound]
        return self._check_certificate(res.certificate)


# -- cli_fixtures ---------------------------------------------------------------

class CliFixtures(_Workload):
    """One pass is the five subcommands on the six fixtures through
    quiverext.cli.main, in process, writing JSON to --out files."""

    name = "cli_fixtures"
    field = "Q"
    fixtures = ["e24", "e41", "a2", "pos", "nak", "tri"]
    commands = ["analyze", "resolve", "ext-table", "corner", "compare"]
    unmet = {"e24", "e41", "nak"}    # comparison hypotheses fail here
    bound = 12                       # --bound for resolve and ext-table

    def __init__(self, root, out_dir):
        self.fixture_dir = os.path.join(root, "fixtures")
        self.out_dir = out_dir

    def make_input(self, seed):
        calls = [(f, c) for f in self.fixtures for c in self.commands]
        random.Random(seed).shuffle(calls)
        return {"calls": calls}

    def input_size(self, inp):
        return {"fixtures": len(self.fixtures), "calls_per_pass": len(inp["calls"]),
                "bound": self.bound}

    def _path(self, fixture):
        return os.path.join(self.fixture_dir, fixture + ".alg")

    def _out_path(self, fixture, command):
        return os.path.join(self.out_dir, "%s-%s.json" % (fixture, command))

    def setup(self, inp):
        out = []
        for f in self.fixtures:
            eng = algebra.build_engine(algfile.parse_algebra_file(self._path(f)))
            eng.opposite_engine
            pair = corner.pair_from_presentation(eng)
            out.append(corner.corner_algebra(eng, pair))
        return out

    def check_ops(self, inp, outputs):
        return [self._check_call(f, c, status)
                for (f, c), status in zip(inp["calls"], outputs)]

    def _check_call(self, fixture, command, status):
        want = 2 if command == "compare" and fixture in self.unmet else 0
        if status != want:
            return ["%s %s: exit status %r, expected %d"
                    % (command, fixture, status, want)]
        with open(self._out_path(fixture, command), encoding="utf-8") as fh:
            report = json.load(fh)
        bad = []
        if command == "compare":
            verdict = "HYPOTHESES_UNMET" if fixture in self.unmet else "PASS"
            if report.get("verdict") != verdict:
                bad.append("compare %s: verdict %s, expected %s"
                           % (fixture, report.get("verdict"), verdict))
        if command == "corner" and fixture == "e41":
            if report.get("corner_global_dimension") != {"kind": "finite", "value": 1}:
                bad.append("corner e41: global dimension %s, expected finite(1)"
                           % report.get("corner_global_dimension"))
        return bad

    def run_job(self, state, inp, seed, clock):
        """One pass: [(seconds, exit status or the exception raised)] per call.
        The compare calls' stderr notes are swallowed."""
        ops = []
        with contextlib.redirect_stderr(io.StringIO()):
            for fixture, command in inp["calls"]:
                argv = [command, self._path(fixture), "--seed", str(seed),
                        "--out", self._out_path(fixture, command)]
                if command in ("resolve", "ext-table"):
                    argv += ["--bound", str(self.bound)]
                t0 = clock()
                try:
                    status = cli.main(argv)
                except Exception as exc:    # counted as a failed call
                    status = exc
                ops.append((clock() - t0, status))
        return ops
