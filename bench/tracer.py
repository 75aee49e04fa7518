"""Spans and counts around quiverext's public entry points, installed from
outside the package.

`Tracer.install` replaces each target function or method with a wrapper in
every namespace that binds it: the defining module, every module that
imported the name, the defining class, and the CLI's command table.  Each
wrapped call records one span (name, start, end, parent) in flat in-memory
arrays; `write` saves them when the run ends.  Cell and nonzero counts are
computed after the wrapped call returns, and the time spent on them (and on
the wrapper's own bookkeeping) is subtracted from every enclosing span, so
`self_s` of a span is its duration minus the time its child spans cover.
"""

import json
import sys
import time
from array import array


def _apply_cells(matrix, vec):
    """Cells Matrix.apply reads (rows x nonzero inputs) and how many of
    those cells hold a nonzero entry."""
    support = [j for j, x in enumerate(vec) if x]
    nnz = 0
    for row in matrix.rows:
        for j in support:
            if row[j]:
                nnz += 1
    return matrix.nrows * len(support), nnz


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_net = array("d")    # duration minus bookkeeping inside it
        self.counts = {}              # extra counts: cells, nnz, rhs_cols, ...
        self._stack = [-1]
        self._excluded = 0.0          # total bookkeeping time so far
        self._patches = []            # (namespace, key, original)

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_net.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1, excl0):
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.span_net[idx] = t1 - t0 - (self._excluded - excl0)

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, name, fn, after):
        nid = self._id(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            b0 = clock()
            idx = tracer._open(nid)
            t0 = clock()
            tracer._excluded += t0 - b0
            excl0 = tracer._excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._close(idx, t0, t1, excl0)
            if after is not None:
                after(tracer, args, kwargs, result)
            tracer._excluded += clock() - t1
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name):
        """A context manager recording one span around benchmark code."""
        return _Span(self, self._id(name))

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target in every namespace that binds it.  Returns the
        list of targets that could not be found, which should be empty."""
        missing = []
        modules = {n: m for n, m in sys.modules.items()
                   if n == "quiverext" or n.startswith("quiverext.")}
        for target in SPAN_TARGETS + COUNT_TARGETS:
            module, attr, name = target[:3]
            owner = modules.get(module)
            if owner is None:
                missing.append(module + "." + attr)
                continue
            cls_name, _, meth = attr.partition(".")
            if meth:
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    missing.append(module + "." + attr)
                    continue
                original = cls.__dict__[meth]
                wrapped = self._wrap(target, original)
                self._patch(cls, meth, wrapped)
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(module + "." + attr)
                continue
            wrapped = self._wrap(target, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
                table = vars(mod).get("_COMMANDS")
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if value is original:
                            self._patch(table, key, wrapped)
        return missing

    def _wrap(self, target, original):
        if target in COUNT_TARGETS:
            return self._count_wrapper(target[2], original)
        return self._span_wrapper(target[2], original, target[3])

    def _patch(self, namespace, key, value):
        if isinstance(namespace, dict):
            self._patches.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._patches.append((namespace, key, namespace.__dict__[key]))
            setattr(namespace, key, value)

    def unpatched_bindings(self):
        """Names in quiverext modules, classes or command tables that still
        bind an original target: the coverage self-check."""
        originals = {id(orig) for _, _, orig in self._patches}
        left = []
        for n, mod in sys.modules.items():
            if not (n == "quiverext" or n.startswith("quiverext.")):
                continue
            spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                   if isinstance(v, type)]
            table = vars(mod).get("_COMMANDS")
            if isinstance(table, dict):
                spaces.append(table)
            for space in spaces:
                for key, value in space.items():
                    if id(value) in originals:
                        left.append("%s:%s" % (n, key))
        return left

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def summary(self, within=None):
        """Per span name: calls, inclusive seconds and self seconds; with
        `within`, only spans inside a span of that name."""
        n = len(self.span_net)
        child = [0.0] * n
        parent = self.span_parent
        net = self.span_net
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += net[i]
        keep = [True] * n
        if within is not None:
            root = self._name_id.get(within)
            # a parent starts before its children, so it has a smaller index
            for i in range(n):
                p = parent[i]
                keep[i] = p >= 0 and (self.span_name[p] == root or keep[p])
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i in range(n):
            if not keep[i]:
                continue
            rec = out[names[self.span_name[i]]]
            rec["calls"] += 1
            rec["s"] += net[i]
            rec["self_s"] += net[i] - child[i]
        return out

    def children_of(self, parent_name, child_name):
        """How many spans named child_name have a parent named parent_name."""
        pid = self._name_id.get(parent_name)
        cid = self._name_id.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for i in range(len(self.span_net))
                   if self.span_name[i] == cid and self.span_parent[i] >= 0
                   and self.span_name[self.span_parent[i]] == pid)

    def write(self, path):
        """Save the spans as JSON lines: a header naming the span names,
        then one [id, parent, name, start, end] line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts,
                                 "spans": len(self.span_net)}) + "\n")
            names = self.names
            for i in range(len(self.span_net)):
                fh.write('[%d,%d,"%s",%.9f,%.9f]\n' % (
                    i, self.span_parent[i], names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]))


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.excl0 = self.tracer._excluded
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter(), self.excl0)
        return False


# -- per-call counts, run after the wrapped call returns -----------------------

def after_rref(tracer, args, kwargs, result):
    m = args[0]
    tracer.add("linalg.rref.cells", m.nrows * m.ncols)


def after_solve(tracer, args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    tracer.add("linalg.solve.rhs_cols", getattr(rhs, "ncols", 1))


def after_apply(tracer, args, kwargs, result):
    cells, nnz = _apply_cells(args[0], args[1])
    tracer.add("linalg.apply.cells", cells)
    tracer.add("linalg.apply.nnz", nnz)


def after_iso(tracer, args, kwargs, result):
    tracer.add("modules.iso." + result[0], 1)


def after_lift(tracer, args, kwargs, result):
    tracer.add("ext.lift_steps", len(result) - 1)


# (module, attribute, span name, after-hook).  A dotted attribute is a
# method patched on its class; a plain one is a function patched in every
# module (and command table) that binds it.
SPAN_TARGETS = [
    ("quiverext.linalg", "Matrix.rref", "linalg.rref", after_rref),
    ("quiverext.linalg", "Matrix.solve", "linalg.solve", after_solve),
    ("quiverext.linalg", "Matrix.nullspace", "linalg.nullspace", None),
    ("quiverext.linalg", "Matrix.apply", "linalg.apply", after_apply),
    ("quiverext.linalg", "Matrix.__matmul__", "linalg.matmul", None),
    ("quiverext.linalg", "Subspace.add", "linalg.subspace_add", None),
    ("quiverext.algebra", "NormalFormEngine.__init__", "algebra.build_engine", None),
    ("quiverext.algfile", "parse_algebra", "algfile.parse", None),
    ("quiverext.modules", "kernel_subrep", "modules.kernel_subrep", None),
    ("quiverext.modules", "projective_cover", "modules.projective_cover", None),
    ("quiverext.modules", "Projective.map_from_generator_images",
     "modules.map_from_generator_images", None),
    ("quiverext.modules", "Representation.path_action", "modules.path_action", None),
    ("quiverext.modules", "hom_space", "modules.hom_space", None),
    ("quiverext.modules", "module_iso_test", "modules.module_iso_test", after_iso),
    ("quiverext.resolution", "MinimalResolution.extend_to", "resolution.extend_to", None),
    ("quiverext.resolution", "MinimalResolution._scan_periodicity",
     "resolution.scan", None),
    ("quiverext.resolution", "MinimalResolution.verify", "resolution.verify", None),
    ("quiverext.ext", "ExtTable.__init__", "ext.table", None),
    ("quiverext.ext", "yoneda_product", "ext.yoneda_product", None),
    ("quiverext.ext", "lift_cocycle", "ext.lift_cocycle", after_lift),
    ("quiverext.ext", "generation_window_check", "ext.generation_window_check", None),
    ("quiverext.corner", "corner_algebra", "corner.corner_algebra", None),
    ("quiverext.corner", "f_lambda_e_module", "corner.f_lambda_e_module", None),
    ("quiverext.corner", "apply_F", "corner.apply_F", None),
    ("quiverext.comparison", "compute_abc", "comparison.compute_abc", None),
    ("quiverext.comparison", "TransportCorrespondence._build_psi",
     "comparison.build_psi", None),
    ("quiverext.comparison", "TransportCorrespondence.transport_class",
     "comparison.transport_class", None),
    ("quiverext.comparison", "verify_product_compatibility",
     "comparison.product_compat", None),
    ("quiverext.comparison", "pd_equivalence_report", "comparison.pd_equivalence", None),
    ("quiverext.comparison", "finiteness_and_growth_report", "comparison.growth", None),
    ("quiverext.cli", "cmd_analyze", "cli.command", None),
    ("quiverext.cli", "cmd_resolve", "cli.command", None),
    ("quiverext.cli", "cmd_ext_table", "cli.command", None),
    ("quiverext.cli", "cmd_corner", "cli.command", None),
    ("quiverext.cli", "cmd_compare", "cli.command", None),
    ("quiverext.cli", "_emit", "cli.emit", None),
]

# Hot constructors and lookups: counted only, no span.
COUNT_TARGETS = [
    ("quiverext.linalg", "Matrix.__init__", "linalg.matrix_new"),
    ("quiverext.algebra", "NormalFormEngine.multiply_paths", "algebra.multiply_paths"),
]
