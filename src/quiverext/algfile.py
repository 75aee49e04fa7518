"""Parser and writer for the line-oriented algebra description format.

Grammar (UTF-8, one directive per line, '#' starts a comment):

    field (Q | F <prime>)
    group (trivial | Z <k>)
    vertices <name>+
    arrow <name> <src> <dst> [<int>{k}]    # weight vector, required iff k >= 1
    truncate <N>
    rel <term> (+ <term>)*                 # term := [<coeff>*]<arrow>(*<arrow>)*
    idempotent f = <vertex>+               # optional; names the corner part

Coefficients are decimal integers, or fractions a/b over Q.  Paths are
written in composition order (b*a means "first a, then b").

The parser checks the syntax: the directives and their fields, names,
numbers and coefficients, and that no directive is repeated or missing.
The structure (distinct vertex and arrow names, arrow ends among the
vertices, nonzero weights, truncation at least 2, the idempotent's
vertices, relation terms of composable arrows of length >= 2) is checked
by `Quiver` and `AlgebraPresentation`; their `PresentationError.item`
names the vertices, truncate or idempotent line, or the arrow or relation
at fault, and the parser maps it to its line, also for a field override.
"""

import re
from fractions import Fraction

from .algebra import AlgebraPresentation
from .fields import QQ, prime_field, scalar_to_json
from .quiver import PresentationError, Quiver

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$|^[0-9]+$")
_ARROW_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUM_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
# directives that may appear at most once
_ONCE = ("field", "group", "vertices", "truncate", "idempotent")


class AlgebraFileError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


def _tokenize(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def parse_algebra(text, field=None):
    """Parse an algebra description, over `field` in place of the file's if given."""
    lines = _tokenize(text)
    ground = QQ
    group_rank = 0
    vertices = None
    arrows = []
    weights = {}
    truncation = None
    relations = []
    f_vertices = None
    seen = set()
    where = {}          # PresentationError.item -> line

    # field, group and vertices first: arrow lines need the group rank
    for lineno, toks in lines:
        key = toks[0]
        if key in _ONCE:
            if key in seen:
                raise AlgebraFileError("duplicate %s line" % key, lineno)
            seen.add(key)
        if key == "field":
            if len(toks) == 2 and toks[1] == "Q":
                ground = QQ
            elif len(toks) == 3 and toks[1] == "F":
                try:
                    ground = prime_field(toks[2])
                except ValueError as exc:       # composite or too large
                    raise AlgebraFileError(str(exc), lineno)
                if ground is None:
                    raise AlgebraFileError("modulus %r is not prime" % toks[2], lineno)
            else:
                raise AlgebraFileError("expected 'field Q' or 'field F <prime>'", lineno)
        elif key == "group":
            if len(toks) == 2 and toks[1] == "trivial":
                group_rank = 0
            elif len(toks) == 3 and toks[1] == "Z":
                try:
                    group_rank = int(toks[2])
                except ValueError:
                    raise AlgebraFileError("bad group rank %r" % toks[2], lineno)
                if group_rank < 1:
                    raise AlgebraFileError("group rank must be >= 1 (or 'trivial')", lineno)
            else:
                raise AlgebraFileError("expected 'group trivial' or 'group Z <k>'", lineno)
        elif key == "vertices":
            if len(toks) < 2:
                raise AlgebraFileError("vertices line needs at least one name", lineno)
            vertices = toks[1:]
            where["vertices"] = lineno
            for v in vertices:
                if not _NAME_RE.match(v):
                    raise AlgebraFileError("bad vertex name %r" % v, lineno)
    if vertices is None:
        raise AlgebraFileError("missing vertices line")

    for lineno, toks in lines:
        key = toks[0]
        if key in ("field", "group", "vertices"):
            continue
        if key == "arrow":
            expected = 4 + group_rank
            if len(toks) != expected:
                raise AlgebraFileError(
                    "arrow line needs name, source, target and %d weight "
                    "component(s)" % group_rank, lineno)
            name, src, dst = toks[1], toks[2], toks[3]
            if not _ARROW_RE.match(name):
                raise AlgebraFileError("bad arrow name %r" % name, lineno)
            try:
                weights[name] = tuple(int(x) for x in toks[4:])
            except ValueError:
                raise AlgebraFileError("bad weight vector on arrow %s" % name, lineno)
            where["arrow", len(arrows)] = lineno
            arrows.append((name, src, dst))
        elif key == "truncate":
            try:
                truncation = int(toks[1]) if len(toks) == 2 else None
            except ValueError:
                truncation = None
            if truncation is None:
                raise AlgebraFileError("expected 'truncate <N>'", lineno)
            where["truncate"] = lineno
        elif key == "rel":
            where["relation", len(relations)] = lineno
            relations.append((lineno, toks[1:]))
        elif key == "idempotent":
            if len(toks) < 4 or toks[1] != "f" or toks[2] != "=":
                raise AlgebraFileError("expected 'idempotent f = <vertex>+'", lineno)
            f_vertices = toks[3:]
            where["idempotent"] = lineno
        else:
            raise AlgebraFileError("unknown directive %r" % key, lineno)

    if truncation is None:
        raise AlgebraFileError("missing truncate line")

    parsed_rels = [_parse_relation(toks, lineno, ground) for lineno, toks in relations]
    try:
        pres = AlgebraPresentation(Quiver(vertices, arrows), group_rank, weights, ground,
                                   parsed_rels, truncation, f_vertices=f_vertices)
        return pres if field is None else pres.with_field(field)
    except PresentationError as exc:
        raise AlgebraFileError(str(exc), where.get(exc.item))


def _parse_relation(tokens, lineno, field):
    """Parse 'rel' payload tokens: terms separated by '+' tokens."""
    terms = []
    current = []
    for tok in tokens:
        if tok == "+":
            if not current:
                raise AlgebraFileError("empty relation term", lineno)
            terms.append(current)
            current = []
        else:
            current.append(tok)
    if not current:
        raise AlgebraFileError("relation ends with '+'", lineno)
    terms.append(current)

    parsed = []
    for term in terms:
        if len(term) != 1:
            raise AlgebraFileError("relation term must be a single product", lineno)
        factors = term[0].split("*")
        coeff = field.one
        if _NUM_RE.match(factors[0]):
            text = factors[0]
            if "/" in text:
                if field is not QQ:
                    raise AlgebraFileError(
                        "fraction coefficients are only allowed over Q", lineno)
                if int(text.split("/")[1]) == 0:
                    raise AlgebraFileError("zero denominator in coefficient %s" % text,
                                           lineno)
                coeff = Fraction(text)
            else:
                coeff = field.of(int(text))
            factors = factors[1:]
        if not factors:
            raise AlgebraFileError("relation term has no arrows", lineno)
        parsed.append((coeff, tuple(factors)))
    return parsed


def parse_algebra_file(path, field=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read(), field)


def format_algebra(pres):
    """Serialize a presentation back into the line format (round-trippable)."""
    lines = []
    if pres.field is QQ or pres.field == QQ:
        lines.append("field Q")
    else:
        lines.append("field F %d" % pres.field.p)
    if pres.group_rank == 0:
        lines.append("group trivial")
    else:
        lines.append("group Z %d" % pres.group_rank)
    lines.append("vertices " + " ".join(pres.quiver.vertices))
    for a in pres.quiver.arrows:
        w = " ".join(str(x) for x in pres.weights[a.name])
        lines.append(("arrow %s %s %s %s" % (a.name, a.source, a.target, w)).rstrip())
    lines.append("truncate %d" % pres.truncation)
    for terms in pres.relations:
        if not terms:
            continue
        bits = []
        for c, p in terms:
            factors = "*".join(p.arrows)
            cj = scalar_to_json(c)
            if cj == 1:
                bits.append(factors)
            else:
                bits.append("%s*%s" % (cj, factors))
        lines.append("rel " + " + ".join(bits))
    if pres.f_vertices is not None:
        lines.append("idempotent f = " + " ".join(pres.f_vertices))
    return "\n".join(lines) + "\n"
