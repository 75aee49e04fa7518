import builtins
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import quiverext.corner as corner_module
from quiverext import AlgebraPresentation, PresentationError, Quiver, parse_algebra
from quiverext.cli import _json, main
from quiverext.fields import QQ, PrimeField

from conftest import EXTERIOR3_F3, FIXTURE_NAMES, POLY_CORNER, RATIONAL

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fix(fixtures_dir, name):
    return str(fixtures_dir / (name + ".alg"))


def test_analyze_e24(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", fix(fixtures_dir, "e24"))
    assert code == 0
    report = json.loads(out)
    assert report["dim_lambda"] == 4
    assert report["basis"] == ["e_u", "e_v", "a", "b"]
    assert report["global_dimension"]["kind"] == "infinite"


def test_compare_pos_passes(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "compare", fix(fixtures_dir, "pos"),
                           "--window", "8", "--bound", "20")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert [r["n"] for r in report["window"]] == list(range(3, 11))


def test_compare_e41_exits_two(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "compare", fix(fixtures_dir, "e41"),
                             "--bound", "10")
    assert code == 2
    assert "hypotheses unmet" in err
    assert "a = infinite" in err
    report = json.loads(out)
    assert report["verdict"] == "HYPOTHESES_UNMET"


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "no_such_file.alg")
    assert code == 1
    assert "error" in err


def test_directory_input_is_input_error(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "analyze", str(fixtures_dir))
    assert code == 1
    assert out == ""
    assert err == "error: [Errno 21] Is a directory: %r\n" % str(fixtures_dir)


def test_directory_out_is_input_error(capsys, fixtures_dir, tmp_path):
    code, out, err = run_cli(capsys, "analyze", fix(fixtures_dir, "a2"), "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == "error: [Errno 21] Is a directory: %r\n" % str(tmp_path)


def test_bad_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("vertices v\ntruncate 1\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "truncation" in err


def test_inadmissible_file_is_input_error(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "e41_truncate3.alg"
    bad.write_text((fixtures_dir / "e41.alg").read_text().replace("truncate 4", "truncate 3"))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert out == ""
    assert err == ("error: ideal is not admissible at the stated truncation: "
                   "path cba of length 3 does not reduce to 0\n")
    assert "Traceback" not in err


def test_reports_are_deterministic(capsys, fixtures_dir):
    args = ("compare", fix(fixtures_dir, "pos"), "--bound", "16",
            "--window", "6", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ext_table_csv(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "ext-table", fix(fixtures_dir, "a2"),
                           "--bound", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,source,target,g,dim"
    assert "1,u,v,1,1" in lines


def test_ext_table_products(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "ext-table", fix(fixtures_dir, "pos"),
                           "--bound", "6", "--products-bound", "4")
    assert code == 0
    report = json.loads(out)
    assert report["products"]
    degrees = {tuple(p["product"][:1]) for p in report["products"]}
    assert degrees


def test_negative_products_bound_is_input_error(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "ext-table", fix(fixtures_dir, "pos"),
                             "--products-bound", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --products-bound must be at least 0\n"


def test_corner_round_trip_through_cli(capsys, fixtures_dir, tmp_path):
    code, out, _ = run_cli(capsys, "corner", fix(fixtures_dir, "e41"))
    assert code == 0
    report = json.loads(out)
    assert report["dim_corner"] == 4
    assert [a["arrow"] for a in report["arrows"]] == ["a_ca", "a_cba"]
    exported = tmp_path / "corner.alg"
    exported.write_text(report["presentation"])
    code2, out2, _ = run_cli(capsys, "analyze", str(exported))
    assert code2 == 0
    assert json.loads(out2)["dim_lambda"] == 4


# every differential of these resolutions, through the dense view, byte for byte
RESOLVE_GOLDEN = [(name, ["--bound", "6"], name + "_resolve_b6.json")
                  for name in FIXTURE_NAMES] + \
    [("e24", ["--bound", "3", "--simple", "u"], "e24_resolve_u.json")]


@pytest.mark.parametrize("name,extra,golden", RESOLVE_GOLDEN,
                         ids=FIXTURE_NAMES + ["e24-simple-u"])
def test_resolve_matches_golden(capsys, fixtures_dir, name, extra, golden):
    code, out, _ = run_cli(capsys, "resolve", fix(fixtures_dir, name), *extra)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# bound 12 reaches past the nak and e24 periods, where resolutions reuse
# covers up to a degree shift
BOUND12_GOLDEN = [(name, command, "%s_%s_b12.json" % (name, tag)) for name in FIXTURE_NAMES
                  for command, tag in (("resolve", "resolve"), ("ext-table", "ext"))]


@pytest.mark.parametrize("name,command,golden", BOUND12_GOLDEN,
                         ids=[g[:-len(".json")] for _, _, g in BOUND12_GOLDEN])
def test_bound12_reports_match_golden(capsys, fixtures_dir, name, command, golden):
    code, out, _ = run_cli(capsys, command, fix(fixtures_dir, name), "--bound", "12")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# bound 40 reaches far past every certificate, where Ext tables read the
# terms off the period instead of resolving
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bound40_ext_tables_match_golden(capsys, fixtures_dir, name):
    code, out, _ = run_cli(capsys, "ext-table", fix(fixtures_dir, name), "--bound", "40")
    assert code == 0
    assert out == (GOLDEN / (name + "_ext_b40.json")).read_text()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_products_match_golden(capsys, fixtures_dir, name):
    # Yoneda structure constants through degree 5 must stay byte-identical
    code, out, _ = run_cli(capsys, "ext-table", fix(fixtures_dir, name),
                           "--bound", "8", "--products-bound", "5")
    assert code == 0
    assert out == (GOLDEN / (name + "_products.json")).read_text()


# over F_3; the last algebra is graded over Z^3
PRIME_FIELD_GOLDEN = [
    (name, ["resolve", "--field", "F3", "--bound", "6"], name + "_resolve_f3_b6.json")
    for name in ("pos", "tri")] + [
    (name, ["ext-table", "--field", "F3", "--bound", "8", "--products-bound", "5"],
     name + "_products_f3.json") for name in ("pos", "tri")] + [
    (None, ["ext-table", "--bound", "4", "--products-bound", "4"],
     "exterior3_f3_products.json")] + [
    (name, [command, "--field", "F3", "--bound", "10"],
     "%s_%s_f3_b10.json" % (name, command))
    for name in ("pos", "tri") for command in ("compare", "corner")]


@pytest.mark.parametrize("name,argv,golden", PRIME_FIELD_GOLDEN,
                         ids=[g[:-len(".json")] for _, _, g in PRIME_FIELD_GOLDEN])
def test_prime_field_reports_match_golden(capsys, fixtures_dir, tmp_path, name, argv,
                                          golden):
    if name is None:
        src = tmp_path / "exterior3.alg"
        src.write_text(EXTERIOR3_F3)
        path = str(src)
    else:
        path = fix(fixtures_dir, name)
    code, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# the default-flag reports of the three commands that read verdicts
REPORT_GOLDEN = [(name, command) for name in FIXTURE_NAMES
                 for command in ("analyze", "corner", "compare")]


@pytest.mark.parametrize("name,command", REPORT_GOLDEN,
                         ids=["%s-%s" % nc for nc in REPORT_GOLDEN])
def test_default_reports_match_golden(capsys, fixtures_dir, name, command):
    golden = (GOLDEN / ("%s_%s.json" % (name, command))).read_text()
    code, out, _ = run_cli(capsys, command, fix(fixtures_dir, name))
    unmet = json.loads(golden).get("verdict") == "HYPOTHESES_UNMET"
    assert code == (2 if unmet else 0)
    assert out == golden


def _compensated_sum(values, start=0, _builtin_sum=sum):
    """`sum` as Python 3.12 and later give it, in effect: float inputs are
    summed with compensated rounding (here exactly rounded)."""
    values = list(values)
    if start == 0 and values and all(isinstance(v, float) for v in values):
        return math.fsum(values)
    return _builtin_sum(values, start)


GK_GOLDEN = [(name, extra, "%s_compare%s.json" % (name, suffix))
             for name in ("pos", "tri")
             for extra, suffix in (((), ""), (("--field", "F3", "--bound", "10"), "_f3_b10"))]


@pytest.mark.parametrize("name,extra,golden", GK_GOLDEN,
                         ids=[g[:-len(".json")] for _, _, g in GK_GOLDEN])
def test_gk_digits_do_not_depend_on_float_summation(capsys, monkeypatch, fixtures_dir,
                                                     name, extra, golden):
    """The gk estimate, residual and delta keep their bytes when the builtin
    `sum` compensates float rounding, as it does from Python 3.12 on."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    code, out, _ = run_cli(capsys, "compare", fix(fixtures_dir, name), *extra)
    monkeypatch.undo()
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_analyze_resolves_each_simple_once(capsys, fixtures_dir, resolutions_built):
    code, out, _ = run_cli(capsys, "analyze", fix(fixtures_dir, "tri"))
    assert code == 0
    assert len(resolutions_built) == len(json.loads(out)["vertices"]) == 3


def test_compare_builds_at_most_seven_resolutions(capsys, fixtures_dir,
                                                  resolutions_built):
    # three simples, two corner simples, one dual simple and the e-to-f module
    code, _, _ = run_cli(capsys, "compare", fix(fixtures_dir, "tri"))
    assert code == 0
    assert len(resolutions_built) <= 7


def test_text_format(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", fix(fixtures_dir, "a2"),
                           "--format", "text")
    assert code == 0
    assert "dim_lambda: 3" in out


def test_field_override(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", fix(fixtures_dir, "pos"),
                           "--field", "F7")
    assert code == 0
    assert json.loads(out)["field"] == "F7"


def test_out_flag(capsys, fixtures_dir, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", fix(fixtures_dir, "a2"),
                           "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["dim_lambda"] == 3


def test_corner_f_override(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "corner", fix(fixtures_dir, "e24"),
                           "--f", "u,v")
    assert code == 0
    assert json.loads(out)["dim_corner"] == 4


@pytest.mark.parametrize("argv, message", [
    (["corner", "--f", ""], "the corner part must contain at least one vertex"),
    (["corner", "--f", ",,"], "the corner part must contain at least one vertex"),
    (["corner", "--field", ""], "unknown field '' (expected Q or F<prime>)"),
    (["resolve", "--simple", ""], "unknown vertex ''"),
], ids=["f-empty", "f-commas", "field-empty", "simple-empty"])
def test_empty_option_values_are_input_errors(capsys, fixtures_dir, argv, message):
    # an empty value is refused like any other unreadable one, not read as
    # the option left out
    code, out, err = run_cli(capsys, argv[0], fix(fixtures_dir, "e24"), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("f, message", [
    ("u,x", "unknown vertex 'x' in idempotent line"),
    ("v,v", "repeated vertex in idempotent line"),
], ids=["unknown", "repeated"])
def test_f_option_is_checked_as_the_idempotent_line(capsys, fixtures_dir, f, message):
    code, out, err = run_cli(capsys, "corner", fix(fixtures_dir, "e24"), "--f", f)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_csv_only_for_ext_table(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "analyze", fix(fixtures_dir, "a2"),
                           "--format", "csv")
    assert code == 1
    assert "csv" in err


# the fixtures have only +-1 coefficients; these reports carry fractions
RATIONAL_GOLDEN = [
    ("resolve", ["--bound", "8"], "rational_resolve_b8.json", 0),
    ("ext-table", ["--bound", "8", "--products-bound", "4"],
     "rational_products.json", 0),
    ("compare", ["--f", "u"], "rational_compare.json", 2),
    ("corner", ["--f", "u"], "rational_corner.json", 0),
]


@pytest.mark.parametrize("command,extra,golden,status", RATIONAL_GOLDEN,
                         ids=[c for c, _, _, _ in RATIONAL_GOLDEN])
def test_rational_reports_match_golden(capsys, tmp_path, command, extra, golden,
                                       status):
    src = tmp_path / "two_thirds.alg"
    src.write_text(RATIONAL % "2/3")
    code, out, _ = run_cli(capsys, command, str(src), *extra)
    assert code == status
    assert out == (GOLDEN / golden).read_text()


# the only corner reports whose arrows commute up to a sign: a relation with
# two terms, over Q and over F3
@pytest.mark.parametrize("extra,golden", [
    ([], "poly_corner_corner.json"),
    (["--field", "F3"], "poly_corner_corner_f3.json"),
], ids=["Q", "F3"])
def test_polynomial_corner_reports_match_golden(capsys, tmp_path, extra, golden):
    src = tmp_path / "poly_corner.alg"
    src.write_text(POLY_CORNER)
    code, out, _ = run_cli(capsys, "corner", str(src), *extra)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# the Yoneda structure constants of the comparison's own algebra, which
# poly_corner_compare.json counts but does not record
@pytest.mark.parametrize("extra,golden", [
    ([], "poly_corner_products.json"),
    (["--field", "F3"], "poly_corner_products_f3.json"),
], ids=["Q", "F3"])
def test_polynomial_corner_products_match_golden(capsys, tmp_path, extra, golden):
    src = tmp_path / "poly_corner.alg"
    src.write_text(POLY_CORNER)
    code, out, _ = run_cli(capsys, "ext-table", str(src), "--bound", "5",
                           "--products-bound", "5", *extra)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_parsed_options_do_not_carry_over(capsys, fixtures_dir):
    e24 = fix(fixtures_dir, "e24")
    code, out, _ = run_cli(capsys, "resolve", e24, "--bound", "3", "--simple", "u")
    assert code == 0
    assert out == (GOLDEN / "e24_resolve_u.json").read_text()
    code, out, _ = run_cli(capsys, "resolve", e24, "--bound", "6")
    assert code == 0
    assert out == (GOLDEN / "e24_resolve_b6.json").read_text()


def test_valid_call_after_usage_error(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", "--bound"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "resolve", fix(fixtures_dir, "e24"), "--bound", "6")
    assert code == 0
    assert out == (GOLDEN / "e24_resolve_b6.json").read_text()


def test_field_override_maps_rational_coefficients(capsys, tmp_path):
    pres = parse_algebra(RATIONAL % "1/3").with_field(PrimeField(5))
    assert [c for c, _ in pres.relations[0]] == [PrimeField(5).of(2), PrimeField(5).one]
    src = tmp_path / "third.alg"
    src.write_text(RATIONAL % "1/3")
    code, out, err = run_cli(capsys, "analyze", str(src), "--field", "F5", "--bound", "4")
    assert code == 0, err
    assert json.loads(out)["field"] == "F5"


def test_field_override_rejects_denominator_divisible_by_p(capsys, tmp_path):
    src = tmp_path / "fifth.alg"
    src.write_text(RATIONAL % "1/5")
    code, out, err = run_cli(capsys, "analyze", str(src), "--field", "F5")
    assert code == 1
    assert out == ""
    assert err == "error: line 9: coefficient 1/5 of term c*a has no value in F5\n"


def test_zero_denominator_is_line_numbered_error(capsys, tmp_path):
    src = tmp_path / "zero.alg"
    src.write_text(RATIONAL % "1/0")
    for extra in ([], ["--field", "F5"]):
        code, out, err = run_cli(capsys, "analyze", str(src), *extra)
        assert code == 1
        assert out == ""
        assert err == "error: line 9: zero denominator in coefficient 1/0\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_corner_builds_the_e_to_f_module_once(capsys, monkeypatch, fixtures_dir, name):
    # `is_H_exact` and `gexact_condition` both read it
    calls = []
    build = corner_module.f_lambda_e_module
    monkeypatch.setattr(corner_module, "f_lambda_e_module",
                        lambda c: calls.append(c) or build(c))
    code, _, err = run_cli(capsys, "corner", fix(fixtures_dir, name), "--bound", "12")
    assert code == 0, err
    assert len(calls) == 1


# one bad line in a valid file; the error must name that line
TWO_VERTICES = """field Q
group Z 1
vertices v w
arrow a v w 1
arrow b w v 1
truncate 3
"""

TWO_LOOPS = """field Q
group Z 1
vertices v
arrow a v v 1
arrow b v v 1
truncate 4
"""


STRUCTURAL_FAULTS = [
    pytest.param(TWO_VERTICES.replace("vertices v w", "vertices v w v"),
                 "line 3: duplicate vertex name 'v'", id="duplicate-vertex"),
    pytest.param(TWO_VERTICES + "arrow a w v 1\n",
                 "line 7: duplicate arrow name 'a'", id="duplicate-arrow"),
    pytest.param(TWO_VERTICES.replace("arrow b w v", "arrow b w x"),
                 "line 5: arrow b has unknown target 'x'", id="unknown-target"),
    pytest.param(TWO_VERTICES.replace("arrow a v w 1", "arrow a x w 1"),
                 "line 4: arrow a has unknown source 'x'", id="unknown-source"),
    pytest.param(TWO_VERTICES.replace("arrow b w v 1", "arrow b w v 0"),
                 "line 5: arrow b has identity weight; a proper grading needs "
                 "nonzero arrow weights", id="identity-weight"),
    pytest.param(TWO_VERTICES + "idempotent f = u\n",
                 "line 7: unknown vertex 'u' in idempotent line", id="idempotent-vertex"),
    pytest.param(TWO_VERTICES + "idempotent f = w w\n",
                 "line 7: repeated vertex in idempotent line", id="idempotent-repeat"),
    pytest.param(TWO_VERTICES + "rel b*a\nrel a*a\n",
                 "line 8: arrows a*a do not compose at 'a'", id="relation-composes"),
    pytest.param(TWO_VERTICES + "rel a*b*a + a\n",
                 "line 7: relation term a has length 1; relations must be "
                 "combinations of paths of length >= 2", id="relation-length"),
    pytest.param(TWO_LOOPS + "rel b*b\nrel a*b + a*a*a\n",
                 "line 8: uniform piece from v to v mixes weights [(2,), (3,)]",
                 id="relation-mixes-weights"),
    pytest.param(TWO_VERTICES + "rel b*a\nrel a*b + b*x\n",
                 "line 8: unknown arrow 'x'", id="relation-arrow"),
    pytest.param(TWO_VERTICES.replace("truncate 3", "truncate 1"),
                 "line 6: truncation must be at least 2", id="truncate"),
]


@pytest.mark.parametrize("text, message", STRUCTURAL_FAULTS)
def test_structural_errors_name_their_line(capsys, tmp_path, text, message):
    src = tmp_path / "bad.alg"
    src.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


def constructor_inputs(text):
    """The quiver and presentation arguments a file spells out, read with
    none of the parser's checks (coefficients 1, field Q), and the line of
    each item a PresentationError can name."""
    rank, vertices, arrows, weights, relations = 0, [], [], {}, []
    truncation = f_vertices = None
    where = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, *rest = line.split()
        if key == "group":
            rank = int(rest[1])
        elif key == "vertices":
            vertices, where["vertices"] = rest, lineno
        elif key == "arrow":
            where["arrow", len(arrows)] = lineno
            arrows.append(rest[:3])
            weights[rest[0]] = tuple(map(int, rest[3:]))
        elif key == "truncate":
            truncation, where["truncate"] = int(rest[0]), lineno
        elif key == "rel":
            where["relation", len(relations)] = lineno
            relations.append([(1, tuple(t.split("*"))) for t in rest if t != "+"])
        elif key == "idempotent":
            f_vertices, where["idempotent"] = rest[2:], lineno
    return (vertices, arrows, rank, weights, relations, truncation, f_vertices), where


@pytest.mark.parametrize("text, message", STRUCTURAL_FAULTS)
def test_structural_errors_come_from_the_constructors(text, message):
    """The one check of each fault is in `Quiver` or `AlgebraPresentation`:
    built directly, they raise the CLI's message without its line, and the
    error's item maps to that line."""
    (vertices, arrows, rank, weights, relations, truncation, f_vertices), where = \
        constructor_inputs(text)
    with pytest.raises(PresentationError) as err:
        AlgebraPresentation(Quiver(vertices, arrows), rank, weights, QQ, relations,
                            truncation, f_vertices=f_vertices)
    line, reason = message.split(": ", 1)
    assert str(err.value) == reason
    assert "line %d" % where[err.value.item] == line


# several faults in one file: the error names one of them, on one line
@pytest.mark.parametrize("text, messages", [
    pytest.param(TWO_VERTICES.replace("truncate 3", "truncate 1")
                 .replace("arrow b w v 1", "arrow b w v 0"),
                 ["line 6: truncation must be at least 2",
                  "line 5: arrow b has identity weight; a proper grading needs "
                  "nonzero arrow weights"], id="truncate-and-weight"),
    pytest.param(TWO_VERTICES.replace("vertices v w", "vertices v w v")
                 .replace("arrow b w v", "arrow b w x"),
                 ["line 3: duplicate vertex name 'v'",
                  "line 5: arrow b has unknown target 'x'"], id="vertex-and-target"),
    pytest.param(TWO_VERTICES.replace("vertices v w", "vertices v w v")
                 .replace("arrow a v w 1", "arrow 2a v w 1"),
                 ["line 3: duplicate vertex name 'v'", "line 4: bad arrow name '2a'"],
                 id="vertex-and-arrow-syntax"),
    pytest.param(TWO_VERTICES.replace("truncate 3\n", "")
                 .replace("arrow b w v", "arrow b w x"),
                 ["missing truncate line", "line 5: arrow b has unknown target 'x'"],
                 id="no-truncate-and-target"),
    pytest.param(TWO_VERTICES + "arrow a w v 1\nrel a*a\n",
                 ["line 7: duplicate arrow name 'a'",
                  "line 8: arrows a*a do not compose at 'a'"], id="arrow-and-relation"),
    pytest.param(TWO_VERTICES + "rel b*a + a\nrel a*b + 1/0*b*a\n",
                 ["line 7: relation term a has length 1; relations must be "
                  "combinations of paths of length >= 2",
                  "line 8: zero denominator in coefficient 1/0"], id="relation-and-syntax"),
    pytest.param(TWO_LOOPS + "rel a*x\nrel a*b + a*a*a\nidempotent f = v v\n",
                 ["line 7: unknown arrow 'x'",
                  "line 8: uniform piece from v to v mixes weights [(2,), (3,)]",
                  "line 9: repeated vertex in idempotent line"], id="three-faults"),
])
def test_several_faults_report_one(capsys, tmp_path, text, messages):
    src = tmp_path / "bad.alg"
    src.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert code == 1
    assert out == ""
    assert err in ["error: %s\n" % m for m in messages]


ONE_LOOP = """field %s
group %s
vertices v
arrow a v v%s
truncate 3
rel %s
"""


@pytest.mark.parametrize("field, group, relation, extra", [
    pytest.param("Q", "Z 1", "0*a*a + a*a*a", [], id="zero-over-Q"),
    pytest.param("Q", "Z 1", "0*a*a + a*a*a", ["--field", "F3"], id="zero-over-Q-as-F3"),
    pytest.param("F 3", "Z 1", "3*a*a + a*a*a", [], id="zero-in-F3"),
    # homogeneous over Q only because the grading is trivial; 3 is 0 in F3
    pytest.param("Q", "trivial", "3*a*a + a*a*a", ["--field", "F3"],
                 id="zero-in-F3-override"),
])
def test_relation_terms_zero_in_the_field_are_dropped(capsys, tmp_path, field, group,
                                                       relation, extra):
    src = tmp_path / "loop.alg"
    src.write_text(ONE_LOOP % (field, group, " 1" if group == "Z 1" else "", relation))
    code, out, err = run_cli(capsys, "analyze", str(src), *extra)
    assert code == 0, err
    report = json.loads(out)
    assert report["mixed_length_relations"] is False
    assert report["dim_lambda"] == 3
    assert report["basis"] == ["e_v", "a", "aa"]


# a 20-digit prime, whose primality trial division would take hours: it is
# refused by its size, at once, through the usual error paths
LARGE_PRIME = 10 ** 19 + 51


@pytest.mark.parametrize("field, extra, where", [
    pytest.param("F %d" % LARGE_PRIME, [], "line 1: ", id="field-line"),
    pytest.param("Q", ["--field", "F%d" % LARGE_PRIME], "", id="field-option"),
])
def test_large_modulus_is_refused_at_once(capsys, tmp_path, field, extra, where):
    src = tmp_path / "large.alg"
    src.write_text(ONE_LOOP % (field, "Z 1", " 1", "a*a"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(src), *extra)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == "error: %smodulus %d is too large (at most %d)\n" % (
        where, LARGE_PRIME, 2 ** 31 - 1)


# more digits than int() reads by default, and a digit that only Unicode
# calls one: both are refused by the one modulus parser, on either path
LONG_MODULUS = "1" * 5000


@pytest.mark.parametrize("field, extra, message", [
    pytest.param("F " + LONG_MODULUS, [], "line 1: modulus %s is too large (at most %d)"
                 % (LONG_MODULUS, 2 ** 31 - 1), id="long-field-line"),
    pytest.param("Q", ["--field", "F" + LONG_MODULUS], "modulus %s is too large (at most %d)"
                 % (LONG_MODULUS, 2 ** 31 - 1), id="long-field-option"),
    pytest.param("F \u00b2", [], "line 1: modulus '\u00b2' is not prime",
                 id="superscript-field-line"),
    pytest.param("Q", ["--field", "F\u00b2"],
                 "unknown field 'F\u00b2' (expected Q or F<prime>)",
                 id="superscript-field-option"),
])
def test_unreadable_modulus_is_refused(capsys, tmp_path, field, extra, message):
    src = tmp_path / "unreadable.alg"
    src.write_text(ONE_LOOP % (field, "Z 1", " 1", "a*a"), encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", str(src), *extra)
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


def test_largest_modulus_is_accepted(capsys, tmp_path):
    src = tmp_path / "largest.alg"
    src.write_text(ONE_LOOP % ("F %d" % (2 ** 31 - 1), "Z 1", " 1", "a*a"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(src))
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert json.loads(out)["field"] == "F2147483647"


@pytest.mark.parametrize("command, name, extra", [
    pytest.param("resolve", "tri", ["--bound", "6"], id="resolve"),
    # verdicts read off the shared store of simple resolutions
    pytest.param("analyze", "e41", [], id="analyze"),
    # exercises the transport chain maps, transported classes and products
    pytest.param("compare", "pos", [], id="compare"),
    # products read off the basis lifts each table stores
    pytest.param("ext-table", "e24", ["--bound", "6", "--products-bound", "4"],
                 id="products"),
])
def test_resolve_independent_of_hash_seed(fixtures_dir, command, name, extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "quiverext.cli", command,
             fix(fixtures_dir, name)] + extra,
            env=env, capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


def test_python_dash_m_package_runs_the_cli(capsys, fixtures_dir):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    argv = ["analyze", fix(fixtures_dir, "a2")]
    proc = subprocess.run([sys.executable, "-m", "quiverext"] + argv,
                          env=env, capture_output=True, check=True)
    code, out, _ = run_cli(capsys, *argv)
    assert code == proc.returncode == 0
    assert proc.stdout.decode() == out
    assert json.loads(out)["dim_lambda"] == 3


# values json.dumps writes: every key type it converts (one per dict, so the
# keys sort), floats with NaN and the infinities, non-ASCII and control
# characters, tuples and empty containers
JSON_KEYS = st.sampled_from([st.text(), st.integers(), st.floats(allow_nan=False),
                             st.booleans(), st.none()])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        JSON_KEYS.flatmap(lambda keys: st.dictionaries(keys, children))),
    max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
@example({"degrees": {10: [], 9: {}}, "f": [math.nan, math.inf, -math.inf, -0.0, 1e-7],
          "s": ("\u00e9\n\x7f", "\U0001f600"),
          "k": [{None: True}, {2.5: False, -1.0: 0}, {True: 1, False: None}]})
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)
