"""The metric catalogue: end-to-end metrics, per-layer metrics, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json lists the same names; run.py refuses to run if the two
disagree.  Layers are quiverext's modules.
"""

E = "ext_exterior3_f3"
P = "compare_poly_corner"
N = "gldim_nakayama24"
C = "cli_fixtures"

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("solve_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_ALL = "all workloads"

# (name, unit, better, moves: "<end-to-end metric> on <workloads>")
PER_LAYER = [
    ("linalg.rref.calls", "count", "lower", "solve_s on %s" % E),
    ("linalg.rref.self_s", "s", "lower", "solve_s on %s" % E),
    ("linalg.rref.cells", "count", "lower", "solve_s on %s" % E),
    ("linalg.solve.calls", "count", "lower",
     "solve_s on %s (falling against rhs_cols means batching)" % E),
    ("linalg.solve.rhs_cols", "count", "lower", "solve_s on %s" % E),
    ("linalg.nullspace.calls", "count", "lower", "solve_s on %s" % E),
    ("linalg.apply.calls", "count", "lower", "solve_s on %s" % P),
    ("linalg.apply.self_s", "s", "lower", "solve_s on %s" % P),
    ("linalg.apply.cells", "count", "lower", "solve_s on %s" % P),
    ("linalg.apply.nnz_ratio", "ratio", "higher",
     "solve_s on %s (nonzero cells over cells read: dense-storage waste)" % P),
    ("linalg.matmul.calls", "count", "lower", "solve_s on %s and %s" % (E, P)),
    ("linalg.matmul.self_s", "s", "lower", "solve_s on %s and %s" % (E, P)),
    ("linalg.subspace_add.calls", "count", "lower", "solve_s on %s" % E),
    ("linalg.subspace_add.self_s", "s", "lower", "solve_s on %s" % E),
    ("linalg.matrix_new.calls", "count", "lower", "solve_s on %s" % N),
    ("algebra.build_engine.s", "s", "lower", "setup_s on %s" % _ALL),
    ("algebra.multiply_paths.calls", "count", "lower", "setup_s on %s" % _ALL),
    ("algfile.parse.s", "s", "lower", "setup_s on %s" % C),
    ("modules.kernel_subrep.calls", "count", "lower", "solve_s on %s" % E),
    ("modules.kernel_subrep.self_s", "s", "lower", "solve_s on %s" % E),
    ("modules.projective_cover.calls", "count", "lower", "solve_s on %s" % N),
    ("modules.projective_cover.self_s", "s", "lower", "solve_s on %s" % N),
    ("modules.map_from_generator_images.calls", "count", "lower", "solve_s on %s" % P),
    ("modules.map_from_generator_images.self_s", "s", "lower", "solve_s on %s" % P),
    ("modules.path_action.calls", "count", "lower",
     "solve_s on %s (path_action memoisation)" % P),
    ("modules.path_action.self_s", "s", "lower", "solve_s on %s" % P),
    ("modules.hom_space.calls", "count", "lower", "solve_s on %s" % N),
    ("modules.hom_space.self_s", "s", "lower", "solve_s on %s" % N),
    ("modules.module_iso_test.calls", "count", "lower", "solve_s on %s" % N),
    ("modules.iso.isomorphic", "count", "higher", "solve_s on %s" % N),
    ("modules.iso.not_isomorphic", "count", "lower", "solve_s on %s" % N),
    ("modules.iso.undetermined", "count", "lower", "solve_s on %s" % N),
    ("resolution.steps", "count", "lower", "solve_s on %s" % N),
    ("resolution.extend_to.self_s", "s", "lower", "solve_s on %s" % N),
    ("resolution.scan.calls", "count", "lower", "solve_s on %s" % N),
    ("resolution.scan.self_s", "s", "lower", "solve_s on %s" % N),
    ("resolution.scan.iso_tests", "count", "lower", "solve_s on %s" % N),
    ("resolution.verify.s", "s", "lower", "solve_s on %s" % C),
    ("ext.table.s", "s", "lower", "solve_s on %s" % E),
    ("ext.yoneda_product.calls", "count", "lower",
     "solve_s on %s (stays 0 on %s and %s)" % (P, E, N)),
    ("ext.yoneda_product.self_s", "s", "lower", "solve_s on %s" % P),
    ("ext.lift_cocycle.calls", "count", "lower", "solve_s on %s" % P),
    ("ext.lift_cocycle.self_s", "s", "lower", "solve_s on %s" % P),
    ("ext.lift_steps", "count", "lower", "solve_s on %s" % P),
    ("ext.lift_steps_per_product", "ratio", "lower", "solve_s on %s" % P),
    ("ext.generation_window_check.s", "s", "lower", "solve_s on %s" % P),
    ("corner.corner_algebra.s", "s", "lower", "setup_s on %s" % C),
    ("corner.f_lambda_e_module.s", "s", "lower", "setup_s on %s" % C),
    ("corner.apply_F.calls", "count", "lower", "solve_s on %s" % C),
    ("corner.apply_F.self_s", "s", "lower", "solve_s on %s" % C),
    ("comparison.compute_abc.s", "s", "lower", "solve_s on %s" % P),
    ("comparison.build_psi.s", "s", "lower", "solve_s on %s" % P),
    ("comparison.transport_class.calls", "count", "lower", "solve_s on %s" % P),
    ("comparison.product_compat.s", "s", "lower", "solve_s on %s" % P),
    ("comparison.pd_equivalence.s", "s", "lower", "solve_s on %s" % P),
    ("comparison.growth.s", "s", "lower", "solve_s on %s" % P),
    ("cli.command.s", "s", "lower", "solve_s on %s" % C),
    ("cli.emit.s", "s", "lower", "solve_s on %s" % C),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: the traced job's time over the untraced run's solve_s"),
    ("mem.traced_peak_mb", "MB", "lower", "none: memory of the traced run"),
]

# Spans a traced run must record at least once, per workload: the coverage
# self-check fails the run when one is missing.
EXPECTED_SPANS = {
    E: ["algfile.parse", "algebra.build_engine", "ext.table",
        "modules.kernel_subrep", "linalg.solve", "linalg.rref"],
    P: ["corner.corner_algebra", "comparison.compute_abc", "comparison.build_psi",
        "comparison.product_compat", "ext.yoneda_product", "ext.lift_cocycle",
        "modules.map_from_generator_images", "linalg.apply", "corner.apply_F"],
    N: ["resolution.extend_to", "resolution.scan", "modules.module_iso_test",
        "modules.projective_cover"],
    C: ["algfile.parse", "cli.command", "cli.emit", "resolution.verify",
        "corner.corner_algebra", "ext.yoneda_product"],
}


def per_layer_values(tracer, extra):
    """Per-layer metric values from a finished trace.  `extra` holds the
    values the run measures itself (overhead ratio, traced peak memory)."""
    spans = tracer.summary()
    counts = tracer.counts

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    derived = {
        "linalg.apply.nnz_ratio": (counts.get("linalg.apply.nnz", 0)
                                   / counts["linalg.apply.cells"]
                                   if counts.get("linalg.apply.cells") else 0.0),
        "resolution.steps": tracer.children_of("resolution.extend_to",
                                               "modules.projective_cover"),
        "resolution.scan.iso_tests": tracer.children_of("resolution.scan",
                                                        "modules.module_iso_test"),
    }
    products = span("ext.yoneda_product", "calls")
    derived["ext.lift_steps_per_product"] = (
        counts.get("ext.lift_steps", 0) / products if products else 0.0)
    derived.update(extra)
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        else:   # a span's calls, s or self_s; 0 for counts never incremented
            base, _, field = name.rpartition(".")
            value = span(base, field)
        out[name] = {"value": value, "unit": unit}
    return out
