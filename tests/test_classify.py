import pytest

from tanvar.classify import (
    NORMAL_FORM_TYPES,
    SingularityClass,
    classify,
    normal_form,
    normal_form_curve,
)
from tanvar.curves import TypeSequence
from tanvar.jets import Jet2, equal_as_polynomials
from tanvar.strata import CurveClass, enumerate_generic
from tanvar.tangency import tangent_map

T = TypeSequence.of
S = SingularityClass


# -- table lookups ----------------------------------------------------------------


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1, 2, 3), S.CUSPIDAL_EDGE),
        ((1, 2, 4), S.FOLDED_UMBRELLA),
        ((2, 3, 4), S.SWALLOWTAIL),
        ((1, 3, 4), S.MOND_SURFACE),
        ((1, 3, 5), S.UNCLASSIFIED),
    ],
)
def test_dimension_three_table(entries, expected):
    result = classify(T(*entries), CurveClass.plain(2))
    assert result.singularity is expected


def test_folded_pleat_is_contact_specific():
    contact = classify(T(2, 3, 5), CurveClass.contact_osculating(1))
    assert contact.singularity is S.GENERIC_FOLDED_PLEAT
    assert contact.generic
    assert contact.caveat is not None
    plain = classify(T(2, 3, 5), CurveClass.plain(2))
    assert plain.singularity is S.UNCLASSIFIED


@pytest.mark.parametrize(
    "entries,expected",
    [
        ((1, 2, 3, 4), S.CUSPIDAL_EDGE),
        ((1, 2, 3, 7), S.CUSPIDAL_EDGE),
        ((1, 3, 4, 5), S.OPEN_MOND_SURFACE),
        ((2, 3, 4, 5), S.OPEN_SWALLOWTAIL),
        ((1, 2, 4, 5), S.OPEN_FOLDED_UMBRELLA),
        ((1, 3, 4, 6), S.UNFURLED_MOND_SURFACE),
        ((1, 3, 5, 7), S.UNCLASSIFIED),
    ],
)
def test_higher_dimension_prefix_table(entries, expected):
    result = classify(T(*entries), CurveClass.plain(3))
    assert result.singularity is expected


def test_open_folded_umbrella_generic_for_osculating():
    result = classify(T(1, 2, 4, 5, 6), CurveClass.osculating_framed(4))
    assert result.singularity is S.OPEN_FOLDED_UMBRELLA
    assert result.generic


def test_unfurled_mond_generic_for_contact():
    result = classify(T(1, 3, 4, 6, 7), CurveClass.contact_osculating(2))
    assert result.singularity is S.UNFURLED_MOND_SURFACE
    assert result.generic


def test_nongeneric_unclassified():
    result = classify(T(1, 3, 5, 7), CurveClass.plain(3))
    assert result.singularity is S.UNCLASSIFIED
    assert not result.generic


def test_length_guard():
    with pytest.raises(ValueError):
        classify(T(1, 2, 3), CurveClass.plain(3))


def test_prefix_stability(rng):
    for _ in range(100):
        prefix = [(1, 2, 3), (1, 3, 4, 5), (2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4, 6)][
            rng.randrange(5)
        ]
        if len(prefix) == 3:
            base_cls = CurveClass.plain(2)
        else:
            base_cls = CurveClass.plain(3)
        base = classify(T(*prefix), base_cls).singularity
        tail = list(prefix)
        for _ in range(rng.randint(1, 4)):
            tail.append(tail[-1] + rng.randint(1, 3))
        extended = classify(T(*tail), CurveClass.plain(len(tail) - 1)).singularity
        assert extended is base


# -- genericity closure --------------------------------------------------------------


def names(cls):
    return sorted(
        classify(A, cls).singularity.value for A in enumerate_generic(cls)
    )


def test_generic_types_always_classified():
    classes = [CurveClass.plain(N) for N in range(2, 7)]
    classes += [CurveClass.tangent_framed(N) for N in range(2, 7)]
    classes += [CurveClass.tpn_framed(N) for N in range(2, 7)]
    classes += [CurveClass.osculating_framed(N) for N in range(2, 7)]
    classes += [CurveClass.contact_osculating(n) for n in (1, 2, 3)]
    for cls in classes:
        for A in enumerate_generic(cls):
            assert classify(A, cls).singularity is not S.UNCLASSIFIED, (cls, A)


def test_generic_singularity_multisets():
    ce, fu, st, ms = (
        S.CUSPIDAL_EDGE.value,
        S.FOLDED_UMBRELLA.value,
        S.SWALLOWTAIL.value,
        S.MOND_SURFACE.value,
    )
    ost, oms, ofu, ums = (
        S.OPEN_SWALLOWTAIL.value,
        S.OPEN_MOND_SURFACE.value,
        S.OPEN_FOLDED_UMBRELLA.value,
        S.UNFURLED_MOND_SURFACE.value,
    )
    assert names(CurveClass.plain(2)) == sorted([ce, fu])
    assert names(CurveClass.plain(4)) == sorted([ce, ce])
    assert names(CurveClass.tangent_framed(2)) == sorted([ce, fu, st])
    assert names(CurveClass.tangent_framed(4)) == sorted([ce, ce, ost])
    assert names(CurveClass.tpn_framed(2)) == sorted([ce, fu, ms, st])
    assert names(CurveClass.tpn_framed(4)) == sorted([ce, ce, oms, ost])
    assert names(CurveClass.osculating_framed(2)) == sorted([ce, fu, ms, st])
    assert names(CurveClass.osculating_framed(4)) == sorted(
        [ce, ce, ofu, oms, ost, ce]
    )
    assert names(CurveClass.contact_osculating(1)) == sorted(
        [ce, ms, S.GENERIC_FOLDED_PLEAT.value]
    )
    assert names(CurveClass.contact_osculating(2)) == sorted([ce, ofu, ums, ost])


# -- normal forms ----------------------------------------------------------------------


def test_cuspidal_edge_alternative_chart():
    form = normal_form(S.CUSPIDAL_EDGE, 3)
    assert form.chart_ux[0] == Jet2.variable(0, 8)


def test_cuspidal_edge_chart_components():
    form = normal_form(S.CUSPIDAL_EDGE, 3)
    assert form.chart_ux == (
        Jet2.variable(0, 8),
        Jet2.term(1, 0, 2, 8),
        Jet2.term(1, 0, 3, 8),
    )


def test_open_swallowtail_st_chart():
    form = normal_form(S.OPEN_SWALLOWTAIL, 4)
    expected = (
        Jet2.from_terms([(0, 2, 1), (1, 0, 2)], 8),
        Jet2.from_terms([(0, 3, 1), (1, 1, 3)], 8),
        Jet2.from_terms([(0, 4, 1), (1, 2, 4)], 8),
        Jet2.from_terms([(0, 5, 1), (1, 3, 5)], 8),
    )
    assert form.chart_st == expected


def test_unfurled_mond_st_chart():
    form = normal_form(S.UNFURLED_MOND_SURFACE, 4)
    expected = (
        Jet2.from_terms([(1, 0, 1), (0, 1, 1)], 8),
        Jet2.from_terms([(0, 3, 1), (1, 2, 3)], 8),
        Jet2.from_terms([(0, 4, 1), (1, 3, 4)], 8),
        Jet2.from_terms([(0, 6, 1), (1, 5, 6)], 8),
    )
    assert form.chart_st == expected


def test_zero_padding():
    form = normal_form(S.CUSPIDAL_EDGE, 6)
    assert len(form.chart_st) == 6
    assert all(c.is_zero for c in form.chart_st[3:])


def test_unclassified_has_no_normal_form():
    with pytest.raises(ValueError):
        normal_form(S.UNCLASSIFIED, 3)


def test_ambient_guard():
    with pytest.raises(ValueError):
        normal_form(S.OPEN_SWALLOWTAIL, 3)


def test_normal_form_curves():
    assert normal_form_curve(T(1, 2, 3)).components[0].order() == 1
    g = normal_form_curve(T(1, 3, 4, 6))
    assert [c.order() for c in g.components] == [1, 3, 4, 6]
    g = normal_form_curve(T(2, 3, 4, 5))
    assert [c.order() for c in g.components] == [2, 3, 4, 5]


def test_tangent_map_matches_stored_charts():
    for entries, sing in NORMAL_FORM_TYPES.items():
        curve = normal_form_curve(T(*entries))
        tmap = tangent_map(curve)
        form = normal_form(sing, len(entries))
        for got, want in zip(tmap.components, form.chart_st):
            assert equal_as_polynomials(got, want), (entries, sing)


# The (u,x) charts as they were stored before being derived from the type
# table: (coeff, u-exp, x-exp) per term.  Kept as an oracle for the formula.
_UX_CHARTS = {
    S.CUSPIDAL_EDGE: [
        [(1, 1, 0)],
        [(1, 0, 2)],
        [(1, 0, 3)],
    ],
    S.FOLDED_UMBRELLA: [
        [(1, 1, 0)],
        [(1, 0, 2), (1, 1, 1)],
        [("1/2", 0, 4), ("1/3", 1, 3)],
    ],
    S.SWALLOWTAIL: [
        [(1, 1, 0)],
        [(1, 0, 3), (1, 1, 1)],
        [("3/4", 0, 4), ("1/2", 1, 2)],
    ],
    S.MOND_SURFACE: [
        [(1, 1, 0)],
        [(1, 0, 3), (1, 1, 2)],
        [("3/4", 0, 4), ("2/3", 1, 3)],
    ],
    S.OPEN_SWALLOWTAIL: [
        [(1, 1, 0)],
        [(1, 0, 3), (1, 1, 1)],
        [("3/4", 0, 4), ("1/2", 1, 2)],
        [("3/5", 0, 5), ("1/3", 1, 3)],
    ],
    S.OPEN_MOND_SURFACE: [
        [(1, 1, 0)],
        [(1, 0, 3), (1, 1, 2)],
        [("3/4", 0, 4), ("2/3", 1, 3)],
        [("3/5", 0, 5), ("1/2", 1, 4)],
    ],
    S.OPEN_FOLDED_UMBRELLA: [
        [(1, 1, 0)],
        [(1, 0, 2), (1, 1, 1)],
        [("1/2", 0, 4), ("1/3", 1, 3)],
        [("2/5", 0, 5), ("1/4", 1, 4)],
    ],
    S.UNFURLED_MOND_SURFACE: [
        [(1, 1, 0)],
        [(1, 0, 3), (1, 1, 2)],
        [("3/4", 0, 4), ("2/3", 1, 3)],
        [("1/2", 0, 6), ("2/5", 1, 5)],
    ],
}


@pytest.mark.parametrize("sing", list(_UX_CHARTS))
@pytest.mark.parametrize("padding", [0, 2])
def test_derived_ux_charts_match_the_stored_table(sing, padding):
    stored = _UX_CHARTS[sing]
    form = normal_form(sing, len(stored) + padding)
    expected = tuple(
        Jet2.from_terms([(i, j, c) for c, i, j in comp], 8) for comp in stored
    ) + (Jet2.zero(8),) * padding
    assert form.chart_ux == expected


def test_only_the_folded_pleat_lacks_a_ux_chart():
    missing = [s for s in NORMAL_FORM_TYPES.values() if normal_form(s, 4).chart_ux is None]
    assert missing == [S.GENERIC_FOLDED_PLEAT]
    assert set(_UX_CHARTS) == set(NORMAL_FORM_TYPES.values()) - {S.GENERIC_FOLDED_PLEAT}
