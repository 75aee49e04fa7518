"""The normal-form engine on generated algebras, against the local
elimination in naive.py: at most 4 vertices and 5 arrows, monomial,
commutativity and mixed-length relations, the trivial group or Z^k, the
fields Q, F2, F3 and F5, and truncation N <= 5.  An admissible draw must
give the reference's basis, in order, and its normal form of every path of
length < N, and its opposite engine must agree with the reference's
elimination of the opposite presentation up to the change of basis, and
the templates of both must match the sort-based reference; an
inadmissible one must report the reference's witness.  The
corner at a drawn proper set of f-vertices must agree with the corner
references, its e-to-f module and restricted resolution terms included."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from quiverext import (AdmissibilityError, IdempotentPair, build_engine, corner_algebra,
                       parse_algebra)
from quiverext.fields import QQ, PrimeField

from naive import (check_corner_walk, check_f_lambda_e, check_opposite_normal_forms,
                   check_restricted_terms, check_templates, engine_paths, naive_normal_forms,
                   naive_witness)

FIELDS = {"Q": QQ, "F 2": PrimeField(2), "F 3": PrimeField(3), "F 5": PrimeField(5)}
# the references pair every path with every other, so draws stay small
MAX_PATHS = 60


def _paths(arrows, weights, max_len):
    """Paths of length 1..max_len as (arrows, source, target, weight)."""
    level = [((x,), s, t, tuple(weights[x])) for x, s, t in arrows]
    out = list(level)
    for _ in range(max_len - 1):
        level = [((x,) + w, s, t2, tuple(a + b for a, b in zip(weights[x], g)))
                 for w, s, t, g in level for x, s2, t2 in arrows if s2 == t]
        out += level
    return out


@st.composite
def algebras(draw):
    """(text, field) of a generated algebra: loops at one vertex, an
    acyclic quiver or any quiver.  Most pairs of loops get a commutator or
    an equation of their squares as a relation, and most other loops their
    square.  Drawn relations are monomial, or a commutativity or
    mixed-length relation between parallel paths of equal weight when there
    are such paths; a relation's length is drawn before its paths, so short
    relations are as likely as long ones.  Half the time the truncation is
    the smallest admissible one, else the one below it or any."""
    shape = draw(st.sampled_from(["loops", "loops", "acyclic", "quiver"]))
    loops = shape == "loops"
    sizes = {"loops": st.just(1), "acyclic": st.integers(3, 4), "quiver": st.integers(2, 4)}
    vertices = ["v%d" % i for i in range(draw(sizes[shape]))]
    names = draw(st.permutations("abcde"))[:draw(st.integers(2, 3) if loops else st.integers(3, 5))]
    arrows = []
    for x in names:
        if shape == "acyclic":
            # one or two steps down the vertex list, so that arrows compose
            s = draw(st.integers(0, len(vertices) - 2))
            ends = [vertices[s], vertices[draw(st.integers(s + 1, min(s + 2, len(vertices) - 1)))]]
        else:
            ends = [draw(st.sampled_from(vertices)) for _ in range(2)]
        arrows.append((x, ends[0], ends[1]))
    rank = draw(st.integers(0, 2))
    weights = {x: draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank)
                       .filter(lambda w: not rank or any(w)))
               for x in names}
    top = 5
    while top > 2 and len(_paths(arrows, weights, top)) > MAX_PATHS:
        top -= 1
    field = draw(st.sampled_from(sorted(FIELDS)))
    coeffs = ["1", "-1", "2", "-2"] + (["1/2"] if field == "Q" else [])

    def coeff():
        return draw(st.sampled_from(coeffs))

    relations = []
    if loops:
        squared = []
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                kind = draw(st.sampled_from(["commutator", "commutator", "squares", None]))
                if kind == "squares" and weights[x] == weights[y]:
                    relations.append("%s*%s + %s*%s*%s" % (x, x, coeff(), y, y))
                    squared += [x, y]
                elif kind:
                    relations.append("%s*%s + %s*%s*%s" % (x, y, coeff(), y, x))
        relations += ["%s*%s" % (x, x) for x in names if x not in squared
                      and draw(st.sampled_from([True, True, True, False]))]
    paths = [p for p in _paths(arrows, weights, top) if len(p[0]) >= 2]
    choices = {
        "monomial": [(p,) for p in paths],
        "commutativity": [(p, q) for p in paths for q in paths
                          if p[1:] == q[1:] and len(p[0]) == len(q[0]) and p != q],
        "mixed": [(p, q) for p in paths for q in paths
                  if p[1:] == q[1:] and len(p[0]) != len(q[0])],
    }
    for _ in range(draw(st.integers(0, 1) if loops else st.integers(1, 4)) if paths else 0):
        pairs = choices[draw(st.sampled_from(sorted(choices)))] or choices["monomial"]
        length = draw(st.sampled_from(sorted({len(terms[0][0]) for terms in pairs})))
        terms = draw(st.sampled_from([ts for ts in pairs if len(ts[0][0]) == length]))
        relations.append(" + ".join("%s*%s" % (coeff(), "*".join(q[0])) for q in terms))
    lines = ["field " + field, "group " + ("Z %d" % rank if rank else "trivial"),
             "vertices " + " ".join(vertices)]
    lines += ["arrow %s %s %s%s" % (x, s, t, "".join(" %d" % c for c in weights[x]))
              for x, s, t in arrows]
    texts = ["\n".join(lines + ["truncate %d" % n] + ["rel " + r for r in relations]) + "\n"
             for n in range(2, top + 1)]
    first = next((i for i, text in enumerate(texts)
                  if naive_witness(text, FIELDS[field]) is None), len(texts))
    i = draw(st.sampled_from([first, first, first - 1, None]))
    if i is None or not 0 <= i < len(texts):
        i = draw(st.integers(0, len(texts) - 1))
    return texts[i], FIELDS[field]


def key(p):
    return (p.arrows, p.source, p.target)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(algebras(), st.data())
def test_engine_matches_local_elimination(case, data):
    text, field = case
    pres = parse_algebra(text)
    witness = naive_witness(text, field)
    if witness is not None:
        with pytest.raises(AdmissibilityError) as err:
            build_engine(pres)
        assert key(err.value.witness) == witness
        return
    eng = build_engine(pres)
    reductions, basis = naive_normal_forms(text, field)
    assert [key(p) for p in eng.basis] == basis
    short = [p for ps in engine_paths(eng, eng.truncation - 1) for p in ps]
    twice = eng.opposite_engine.opposite_engine
    assert twice.basis == eng.basis
    for p in short:
        nf = eng.nf_path(p)
        assert {key(q): c for q, c in nf.items()} == reductions[key(p)]
        assert list(nf) == sorted(nf, key=lambda q: (q.length, q.arrows))
        assert twice.nf_path(p) == nf
    check_opposite_normal_forms(eng.opposite_engine)
    check_templates(eng)
    check_templates(eng.opposite_engine)
    vertices = eng.quiver.vertices
    if len(vertices) >= 2:
        f = data.draw(st.lists(st.sampled_from(vertices), min_size=1,
                               max_size=len(vertices) - 1, unique=True))
        corner = corner_algebra(eng, IdempotentPair(eng, f))
        check_corner_walk(corner)
        check_f_lambda_e(corner)
        check_restricted_terms(corner)


def _generated_example():
    """The first graded admissible draw, in a derandomized search, whose
    Groebner basis has an element with a tail."""
    def wanted(case):
        text, field = case
        return "group trivial" not in text and naive_witness(text, field) is None \
            and any(build_engine(parse_algebra(text))._tails.values())

    return find(algebras(), wanted, settings=settings(
        derandomize=True, database=None, max_examples=200, phases=[Phase.generate]))[0]


def test_analyze_generated_algebra_independent_of_hash_seed(tmp_path):
    path = tmp_path / "generated.alg"
    path.write_text(_generated_example())
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "quiverext", "analyze", str(path)],
                              env=env, capture_output=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
