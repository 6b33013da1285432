from fractions import Fraction as F

import pytest

from tanvar.germdoc import (
    GermDocumentError,
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
