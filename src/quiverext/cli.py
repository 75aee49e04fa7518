"""Command-line entry point.

Subcommands: analyze, resolve, ext-table, corner, compare.  JSON is the
report contract (byte-identical across runs at fixed flags); text
output mirrors it for reading; CSV is available for ext-table.

Exit codes: 0 = pass/complete, 2 = hypotheses unmet or undetermined,
1 = input error.
"""

import argparse
import csv
import functools
import io
import math
import sys
from json.encoder import encode_basestring_ascii

from .algebra import AdmissibilityError, PresentationError, build_engine
from .algfile import AlgebraFileError, format_algebra, parse_algebra_file
from .comparison import verify_comparison
from .corner import (IdempotentPair, corner_algebra, gexact_condition,
                     is_H_exact, pair_from_presentation)
from .ext import ExtTable, yoneda_product
from .fields import field_from_name, scalar_to_json
from .resolution import combine_verdicts, global_dimension, simple_resolutions


@functools.cache
def _parser():
    """Built once per process; parse_args gives each call a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="quiverext",
        description="Homological invariants of finite-dimensional quiver "
                    "algebras and their corner algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="algebra description file")
        sp.add_argument("--bound", type=int, default=40,
                        help="resolution bound (default 40)")
        sp.add_argument("--window", type=int, default=10,
                        help="comparison window width (default 10)")
        sp.add_argument("--seed", type=int, default=0,
                        help="accepted for old scripts; has no effect")
        sp.add_argument("--field", default=None,
                        help="override the ground field (Q or F<p>)")
        sp.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
        sp.add_argument("--out", default=None, help="write the report here")

    sp = sub.add_parser("analyze", help="dimensions, basis, global dimension")
    common(sp)
    sp = sub.add_parser("resolve", help="minimal resolutions of simples")
    common(sp)
    sp.add_argument("--simple", default=None, help="resolve only this vertex")
    sp = sub.add_parser("ext-table", help="bigraded Ext table")
    common(sp)
    sp.add_argument("--products-bound", type=int, default=0,
                    help="also emit Yoneda structure constants up to this degree")
    sp = sub.add_parser("corner", help="corner algebra presentation and checks")
    common(sp)
    sp.add_argument("--f", default=None,
                    help="comma-separated f-vertices (default: idempotent line)")
    sp = sub.add_parser("compare", help="verify the eventual Ext comparison")
    common(sp)
    sp.add_argument("--f", default=None,
                    help="comma-separated f-vertices (default: idempotent line)")
    sp.add_argument("--no-products", action="store_true",
                    help="skip product compatibility checks")
    return p


def _load(args):
    field = None if args.field is None else field_from_name(args.field)
    return build_engine(parse_algebra_file(args.input, field))


def _pair(engine, args):
    if getattr(args, "f", None) is not None:
        return IdempotentPair(engine, [v.strip() for v in args.f.split(",") if v.strip()])
    return pair_from_presentation(engine)


def cmd_analyze(engine, args):
    pres = engine.pres
    simple_pd = {v: res.pd_verdict(args.bound)
                 for v, res in simple_resolutions(engine).items()}
    report = {
        "field": pres.field.name,
        "group_rank": pres.group_rank,
        "vertices": list(pres.quiver.vertices),
        "arrows": [[a.name, a.source, a.target, list(pres.weights[a.name])]
                   for a in pres.quiver.arrows],
        "truncation": pres.truncation,
        "dim_lambda": engine.dim,
        "basis": [("e_" + p.source) if p.is_vertex else "".join(p.arrows)
                  for p in engine.basis],
        "radical_dim": len(engine.radical_basis()),
        "mixed_length_relations": pres.mixed_length_relations,
        "projective_dims": {v: len(engine.basis_paths_from(v))
                            for v in pres.quiver.vertices},
        "global_dimension": combine_verdicts(simple_pd.values()).to_json(),
        "simple_pd": {v: verdict.to_json() for v, verdict in simple_pd.items()},
    }
    return report, 0


def cmd_resolve(engine, args):
    vertices = [args.simple] if args.simple is not None else list(engine.quiver.vertices)
    store = simple_resolutions(engine)
    report = {}
    for v in vertices:
        if v not in store:
            raise AlgebraFileError("unknown vertex %r" % v)
        res = store[v].extend_to(args.bound)
        res.verify()
        report["S_" + v] = res.to_json()
        report["S_" + v]["pd"] = res.pd_verdict(args.bound).to_json()
    return report, 0


def cmd_ext_table(engine, args):
    table = ExtTable(engine, args.bound)
    report = {"bound": args.bound, "entries": table.to_rows(),
              "undetermined_sources": sorted(table.undetermined)}
    if args.products_bound:
        consts = []
        top = min(args.products_bound, args.bound)
        for m in range(1, top):
            for n in range(1, top - m + 1):
                for x in table.basis_classes(m):
                    for y in table.basis_classes(n):
                        if y.target_vertex != x.source:
                            continue
                        z = yoneda_product(table, x, y)
                        if not z.is_zero():
                            consts.append({
                                "x": [m, x.source, x.target_vertex, list(x.target_degree)],
                                "y": [n, y.source, y.target_vertex, list(y.target_degree)],
                                "product": [z.degree, z.source, z.target_vertex,
                                            list(z.target_degree),
                                            {str(i): scalar_to_json(c)
                                             for i, c in sorted(z.coeffs.items())}],
                            })
        report["products"] = consts
    return report, 0


def cmd_corner(engine, args):
    pair = _pair(engine, args)
    cp = corner_algebra(engine, pair)
    h_flag, witness = is_H_exact(cp)
    report = {
        "f": list(pair.f_vertices),
        "e": list(pair.e_vertices),
        "dim_corner": cp.dim,
        "arrows": cp.witness_json(),
        "presentation": format_algebra(cp.presentation),
        "verified_isomorphism": True,
        "corner_global_dimension": global_dimension(cp.corner_engine, args.bound).to_json(),
        "h_exact": h_flag,
        "h_exact_witness": witness,
    }
    if len(pair.e_vertices) == 1:
        report["gexact"] = gexact_condition(cp)
    return report, 0


def cmd_compare(engine, args):
    pair = _pair(engine, args)
    report = verify_comparison(engine, pair, bound=args.bound, window=args.window,
                               with_products=not getattr(args, "no_products", False))
    if report["verdict"] == "PASS":
        status = 0
    elif report["verdict"] in ("HYPOTHESES_UNMET", "UNDETERMINED"):
        status = 2
    else:
        status = 1
    return report, status


def _render_text(report, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for k in report:
            v = report[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v if v != [] else "[]"))
    elif isinstance(report, list):
        for item in report:
            if isinstance(item, (dict, list)):
                lines.append("%s-" % pad)
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append("%s- %s" % (pad, item))
    else:
        lines.append("%s%s" % (pad, report))
    return lines


def _render_csv(report):
    entries = report.get("entries")
    if entries is None:
        raise AlgebraFileError("csv output is only available for ext-table")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "source", "target", "g", "dim"])
    for row in entries:
        writer.writerow([row["n"], row["source"], row["target"],
                         ";".join(str(x) for x in row["g"]), row["dim"]])
    return buf.getvalue()


def _json_scalar(o):
    """A scalar or dict key as `json.dumps` writes it (keys then quoted)."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _json(o, pad="\n"):
    """The text of json.dumps(o, indent=2, sort_keys=True), written by one
    recursion instead of the encoder's pure-Python generators (the C
    encoder does not indent); `pad` is the newline and current indent."""
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + ",".join(
            inner + encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))
            + ": " + _json(v, inner) for k, v in sorted(o.items())) + pad + "}"
    if isinstance(o, (list, tuple)):
        return "[" + ",".join(inner + _json(v, inner) for v in o) + pad + "]" if o else "[]"
    return _json_scalar(o)


def _emit(report, args):
    if args.format == "json":
        text = _json(report) + "\n"
    elif args.format == "csv":
        text = _render_csv(report)
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "analyze": cmd_analyze,
    "resolve": cmd_resolve,
    "ext-table": cmd_ext_table,
    "corner": cmd_corner,
    "compare": cmd_compare,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.bound < 1 or args.window < 1:
        sys.stderr.write("error: --bound and --window must be at least 1\n")
        return 1
    if not 0 <= args.seed < 2 ** 64:
        sys.stderr.write("error: --seed must fit in 64 unsigned bits\n")
        return 1
    if getattr(args, "products_bound", 0) < 0:
        sys.stderr.write("error: --products-bound must be at least 0\n")
        return 1
    try:
        engine = _load(args)
        report, status = _COMMANDS[args.command](engine, args)
        if args.command == "compare" and status == 2:
            reasons = "; ".join(report.get("unmet", [])) or "undetermined"
            sys.stderr.write("hypotheses unmet: %s\n" % reasons)
        _emit(report, args)
    except (AlgebraFileError, PresentationError, AdmissibilityError,
            OSError, ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
