"""Parsing of germ documents (the CLI input format).

A document is line-oriented: blank lines and ``#`` comments are skipped,
every other line is ``key: value``.  Coefficients are exact rationals
written as integers or ``p/q``; no decimal input is accepted, so nothing
is ever silently rounded.  The formal grammar lives in
``docs/germ-format.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .curves import CurveGerm
from .jets import MAX_TRUNCATION_1, MAX_TRUNCATION_2, Jet1, Jet2
from .surfaces import SymMatrix3

TermList = List[Tuple[Tuple[int, ...], Fraction]]


class GermDocumentError(ValueError):
    """Malformed document or a field violating its constraints."""


_TOKEN = re.compile(r"\s*(-?\d+/\d+|-?\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _rational(tok: str, what: str) -> Fraction:
    """The value of a token that matches ``_RATIONAL``; ``what`` opens the error."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise GermDocumentError(f"{what}: {tok!r} has a zero denominator") from None


def _tokenize(text: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise GermDocumentError(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_terms(text: str, variables: Sequence[str]) -> TermList:
    """Parse a polynomial expression into (exponent tuple, coefficient) terms."""
    var_index = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise GermDocumentError("empty polynomial expression")
    terms: TermList = []
    i = 0
    sign = 1
    first = True

    def parse_term(start: int) -> Tuple[int, Fraction, Tuple[int, ...]]:
        coeff = Fraction(1)
        exps = [0] * len(variables)
        j = start
        saw_factor = False
        while j < len(tokens):
            tok = tokens[j]
            if tok in ("+", "-"):
                break
            if tok == "*":
                j += 1
                continue
            if _RATIONAL.fullmatch(tok):
                coeff *= _rational(tok, "bad coefficient")
                saw_factor = True
                j += 1
                continue
            if tok == "^":
                raise GermDocumentError("misplaced '^'")
            if tok not in var_index:
                raise GermDocumentError(f"unknown variable {tok!r}")
            exp = 1
            j += 1
            if j < len(tokens) and tokens[j] == "^":
                j += 1
                if j >= len(tokens) or not re.fullmatch(r"\d+", tokens[j]):
                    raise GermDocumentError("exponent must be a natural number")
                exp = int(tokens[j])
                j += 1
            exps[var_index[tok]] += exp
            saw_factor = True
        if not saw_factor:
            raise GermDocumentError("empty term in polynomial expression")
        return j, coeff, tuple(exps)

    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            i += 1
            continue
        if tok == "-":
            sign = -sign
            i += 1
            continue
        i, coeff, exps = parse_term(i)
        terms.append((exps, sign * coeff))
        sign = 1
        first = False
    if first:
        raise GermDocumentError("expression has no terms")
    return terms


def parse_rationals(text: str) -> List[Fraction]:
    """Rationals separated by blanks or commas, each ``-?digits(/digits)?``."""
    out = []
    for tok in text.replace(",", " ").split():
        if not _RATIONAL.fullmatch(tok):
            raise GermDocumentError(f"bad matrix entries: {tok!r} is not a rational p/q")
        out.append(_rational(tok, "bad matrix entries"))
    return out


@dataclass
class GermDocument:
    """Parsed document: raw fields, interpreted by the build_* functions."""

    kind: str
    truncation: Optional[int] = None
    curve_class: Optional[str] = None
    ambient: Optional[int] = None
    variables: Tuple[str, ...] = ()
    components: List[TermList] = field(default_factory=list)
    named: Dict[str, TermList] = field(default_factory=dict)
    entries: Optional[List[Fraction]] = None


_KINDS = ("curve", "surface", "matrix")


def parse_document(text: str) -> GermDocument:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    fields: List[Tuple[str, str]] = []
    for line in lines:
        if ":" not in line:
            raise GermDocumentError(f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        fields.append((key.strip().lower(), value.strip()))
    kinds = [v for k, v in fields if k == "kind"]
    if len(kinds) != 1 or kinds[0] not in _KINDS:
        raise GermDocumentError("document needs exactly one 'kind: curve|surface|matrix'")
    doc = GermDocument(kind=kinds[0])
    if doc.kind == "curve":
        doc.variables = ("t",)
    elif doc.kind == "surface":
        doc.variables = ("u", "v")
    for key, value in fields:
        if key == "kind":
            continue
        if key == "truncation":
            doc.truncation = int(value)
        elif key == "class":
            doc.curve_class = value
        elif key == "ambient":
            doc.ambient = int(value)
        elif key == "variables":
            doc.variables = tuple(value.split())
        elif key == "component":
            doc.components.append(parse_terms(value, doc.variables))
        elif key in ("x3", "x4"):
            doc.named[key] = parse_terms(value, doc.variables)
        elif key == "entries":
            doc.entries = parse_rationals(value)
        else:
            raise GermDocumentError(f"unknown field {key!r}")
    return doc


def split_documents(text: str) -> List[str]:
    """Split a batch stream on lines consisting of dashes."""
    chunks: List[List[str]] = [[]]
    for raw in text.splitlines():
        if re.fullmatch(r"-{3,}", raw.strip()):
            chunks.append([])
        else:
            chunks[-1].append(raw)
    return ["\n".join(c) for c in chunks if any(line.strip() for line in c)]


def build_curve(doc: GermDocument) -> CurveGerm:
    """Interpret a curve document; constant terms are removed (chart shift)."""
    if doc.kind != "curve":
        raise GermDocumentError("document is not a curve")
    if doc.truncation is None:
        raise GermDocumentError("curve documents need a truncation")
    if doc.truncation < 1:
        raise GermDocumentError("truncation must be >= 1")
    if doc.truncation > MAX_TRUNCATION_1:
        raise GermDocumentError(f"curve truncation exceeds {MAX_TRUNCATION_1}")
    if not doc.components:
        raise GermDocumentError("curve documents need component lines")
    if len(doc.variables) != 1:
        raise GermDocumentError("curves are one-variable")
    comps = []
    for terms in doc.components:
        for exps, _ in terms:
            if exps[0] > doc.truncation:
                raise GermDocumentError(
                    f"exponent {exps[0]} exceeds truncation {doc.truncation}"
                )
        jet = Jet1.from_terms(((e[0], c) for e, c in terms), doc.truncation)
        if jet.coefficient(0) != 0:
            # germ centered at the origin of the chart
            jet = jet - Jet1.constant(jet.coefficient(0), doc.truncation)
        comps.append(jet)
    if doc.ambient is not None and doc.ambient != len(comps):
        raise GermDocumentError(
            f"ambient {doc.ambient} does not match {len(comps)} components"
        )
    return CurveGerm(tuple(comps))


def build_surface(doc: GermDocument) -> Tuple[Jet2, Jet2]:
    if doc.kind != "surface":
        raise GermDocumentError("document is not a surface")
    if doc.truncation is None:
        raise GermDocumentError("surface documents need a truncation")
    if len(doc.variables) != 2:
        raise GermDocumentError("surfaces are two-variable")
    if "x3" not in doc.named or "x4" not in doc.named:
        raise GermDocumentError("surface documents need x3 and x4 lines")
    out = []
    for key in ("x3", "x4"):
        terms = doc.named[key]
        for exps, _ in terms:
            if exps[0] + exps[1] > doc.truncation:
                raise GermDocumentError(
                    f"{key}: total degree {exps[0] + exps[1]} exceeds truncation"
                )
        if doc.truncation > MAX_TRUNCATION_2:
            # the message Jet2 itself gives, raised before its table is allocated
            raise GermDocumentError(
                f"two-variable jets support total degree <= {MAX_TRUNCATION_2}"
            )
        out.append(
            Jet2.from_terms(((e[0], e[1], c) for e, c in terms), doc.truncation)
        )
    return out[0], out[1]


def build_matrix(doc: GermDocument) -> SymMatrix3:
    if doc.kind != "matrix":
        raise GermDocumentError("document is not a matrix")
    if not doc.entries or len(doc.entries) != 6:
        raise GermDocumentError(
            "matrix documents need 'entries: a11 a12 a13 a22 a23 a33'"
        )
    return SymMatrix3(*doc.entries)
