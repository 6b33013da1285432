import re
from fractions import Fraction as F
from typing import Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanvar.germdoc import (
    _RATIONAL,
    GermDocumentError,
    TermList,
    _rational,
    _tokenize,
    build_curve,
    build_matrix,
    build_surface,
    parse_document,
    parse_terms,
    split_documents,
)
from tanvar.jets import MAX_TRUNCATION_1, Jet1, Jet2


def test_parse_terms_plain():
    assert parse_terms("t + 1/2 t^3", ("t",)) == [((1,), F(1)), ((3,), F(1, 2))]


def test_parse_terms_signs_and_stars():
    got = parse_terms("-3/2*t^2 + t - t^4", ("t",))
    assert got == [((2,), F(-3, 2)), ((1,), F(1)), ((4,), F(-1))]


def test_parse_terms_leading_minus():
    assert parse_terms("- t^2", ("t",)) == [((2,), F(-1))]
    assert parse_terms("-2", ("t",)) == [((0,), F(-2))]


def test_parse_terms_two_variables():
    got = parse_terms("1/2 u^2 + u v^3", ("u", "v"))
    assert got == [((2, 0), F(1, 2)), ((1, 3), F(1))]


def test_parse_terms_unknown_variable():
    with pytest.raises(GermDocumentError):
        parse_terms("x^2", ("t",))


def test_parse_terms_no_decimals():
    with pytest.raises(GermDocumentError):
        parse_terms("0.5 t", ("t",))


def test_curve_document():
    doc = parse_document(
        """
        # a cusped space curve
        kind: curve
        truncation: 9
        component: t^2
        component: t^3
        component: t^4
        """
    )
    germ = build_curve(doc)
    assert germ.ambient_dim == 3
    assert germ.components[0] == Jet1.term(1, 2, 9)


def test_curve_document_shifts_chart():
    doc = parse_document(
        "kind: curve\ntruncation: 5\ncomponent: 3 + t\ncomponent: t^2\n"
    )
    germ = build_curve(doc)
    assert germ.components[0] == Jet1.variable(5)


def test_curve_exponent_beyond_truncation():
    doc = parse_document("kind: curve\ntruncation: 3\ncomponent: t^5\n")
    with pytest.raises(GermDocumentError):
        build_curve(doc)


def test_surface_document():
    doc = parse_document(
        """
        kind: surface
        truncation: 8
        x3: 1/2 u^2
        x4: 1/2 v^2
        """
    )
    x3, x4 = build_surface(doc)
    assert x3 == Jet2.from_terms([(2, 0, F(1, 2))], 8)
    assert x4 == Jet2.from_terms([(0, 2, F(1, 2))], 8)


def test_matrix_document():
    doc = parse_document("kind: matrix\nentries: 1 0 0 -1 0 0\n")
    m = build_matrix(doc)
    assert m.a11 == 1 and m.a22 == -1


@pytest.mark.parametrize("token", ["0.5", "1e3", "1_000", "1/0", "x"])
def test_matrix_entries_are_strict_rationals(token):
    with pytest.raises(GermDocumentError):
        parse_document(f"kind: matrix\nentries: 1 0 0 {token} 0 0\n")


def test_zero_denominator_names_the_token():
    with pytest.raises(GermDocumentError, match=r"bad coefficient: '1/0' has a zero denominator"):
        parse_terms("1/0 t", ("t",))
    with pytest.raises(GermDocumentError, match=r"bad matrix entries: '-2/0' has a zero denominator"):
        parse_document("kind: matrix\nentries: 1 0 0 -2/0 0 0\n")


def test_curve_truncation_bound():
    doc = parse_document(f"kind: curve\ntruncation: {MAX_TRUNCATION_1}\ncomponent: t\n")
    assert build_curve(doc).truncation == MAX_TRUNCATION_1
    doc = parse_document("kind: curve\ntruncation: 99999999\ncomponent: t\n")
    with pytest.raises(GermDocumentError):
        build_curve(doc)


@pytest.mark.parametrize(
    "line, message",
    [
        ("truncation: x3", "truncation: 'x3' is not a natural number"),
        ("ambient: -", "ambient: '-' is not a natural number"),
        ("truncation: 1/2", "truncation: '1/2' is not a natural number"),
        ("ambient:", "ambient: '' is not a natural number"),
        # int would read these three; the grammar's digits are ASCII 0-9
        ("truncation: +4", "truncation: '+4' is not a natural number"),
        ("truncation: 4_0", "truncation: '4_0' is not a natural number"),
        ("ambient: \u0662", "ambient: '\u0662' is not a natural number"),
    ],
)
def test_natural_number_fields_name_the_field(line, message):
    with pytest.raises(GermDocumentError) as info:
        parse_document(f"kind: curve\n{line}\ncomponent: t\n")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("t^\u0662", "cannot tokenize '\u0662'"),
        ("\u0663t", "cannot tokenize '\u0663t'"),
        ("t^2 + 1/\u0663", "cannot tokenize '/\u0663'"),
        ("t^-2", "exponent must be a natural number"),
    ],
)
def test_digits_are_ascii(text, message):
    with pytest.raises(GermDocumentError) as info:
        parse_terms(text, ("t",))
    assert str(info.value) == message


def test_a_negative_field_value_reaches_its_range_check():
    doc = parse_document("kind: curve\ntruncation: -3\nambient: -1\ncomponent: t\n")
    assert (doc.truncation, doc.ambient) == (-3, -1)


def test_missing_kind():
    with pytest.raises(GermDocumentError):
        parse_document("truncation: 5\ncomponent: t\n")


def test_unknown_field():
    with pytest.raises(GermDocumentError):
        parse_document("kind: curve\nfoo: bar\n")


def test_split_documents():
    text = "kind: curve\ntruncation: 4\ncomponent: t\n---\nkind: matrix\nentries: 1 0 0 0 0 0\n"
    chunks = split_documents(text)
    assert len(chunks) == 2
    assert parse_document(chunks[0]).kind == "curve"
    assert parse_document(chunks[1]).kind == "matrix"


@pytest.mark.parametrize("truncation", [24, 25, 10 ** 9])
def test_surface_truncation_above_the_jet_envelope(truncation):
    # refused before a coefficient table of that size is allocated; x5 needs
    # one degree more than the chart, so 24 is refused too
    doc = parse_document(f"kind: surface\ntruncation: {truncation}\nx3: u^2\nx4: v^2\n")
    with pytest.raises(GermDocumentError, match=r"^surface truncation exceeds 23$"):
        build_surface(doc)


def test_document_fields_in_one_pass():
    doc = parse_document("# head\n  KIND : curve # trailing\n\ntruncation:4\nclass: a: b\n")
    assert (doc.kind, doc.truncation, doc.variables, doc.curve_class) == (
        "curve", 4, ("t",), "a: b"
    )
    with pytest.raises(GermDocumentError, match=r"expected 'key: value', got 'component t'"):
        parse_document("kind: curve\ncomponent t # no colon\nfoo\n")


def reference_parse_terms(text: str, variables) -> TermList:
    """The parser before it became one loop, kept verbatim as the oracle."""
    var_index = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise GermDocumentError("empty polynomial expression")
    terms: TermList = []
    i = 0
    sign = 1
    first = True

    def parse_term(start: int) -> Tuple[int, F, Tuple[int, ...]]:
        coeff = F(1)
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


def outcome(parse, text, variables):
    try:
        return parse(text, variables)
    except GermDocumentError as exc:
        return type(exc), str(exc)


# pieces that run together when joined without a blank ("2" "3", "-" "3", "t" "2")
PIECES = ["t", "u", "x", "2", "-3", "1/2", "1/0", "007", "^", "*", "+", "-", "$", "\u0663",
          "t^2", "u^3 v"]
# the last tuple names variables after operators and numbers, which never act as one
VARIABLES = [("t",), ("t", "u"), (), ("+", "-", "*", "^", "2", "-3", "t")]


def pieces(*tokens):
    return [(token, " ") for token in tokens]


@settings(max_examples=1500, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])), max_size=10),
    st.sampled_from(VARIABLES),
)
@example(pieces("t", "^", "t"), ("t",))
@example(pieces("t", "t^2", "*", "u^3 v"), ("t", "u"))
@example(pieces("*", "+", "t"), ("t",))
@example(pieces("t", "-3", "-", "-", "1/2"), ("t",))
@example(pieces("2", "^", "2", "-", "t", "^", "-3"), VARIABLES[-1])
def test_parse_terms_matches_the_reference_parser(pieces, variables):
    text = "".join(piece + gap for piece, gap in pieces)
    assert outcome(parse_terms, text, variables) == outcome(
        reference_parse_terms, text, variables
    )
