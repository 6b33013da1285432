from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_germ_of_type,
    random_invertible_matrix,
    random_reparametrization,
)
from tanvar.curves import (
    CurveGerm,
    NotFiniteTypeError,
    NotFiniteTypeUpTo,
    TypeSequence,
    affine_chart,
    curve_type,
    flag_lift,
    homogeneous_lift,
    normalize,
    projective_type,
)
from tanvar.jets import Jet1, JetDomainError
from tanvar.linalg import RankTracker


def germ(*term_lists, K=10):
    return CurveGerm(tuple(Jet1.from_terms(terms, K) for terms in term_lists))


# -- type computation ------------------------------------------------------------


def test_type_monomial_curve():
    assert curve_type(germ([(1, 1)], [(2, 1)], [(3, 1)])) == TypeSequence.of(1, 2, 3)


def test_type_triangular_leading_monomials():
    g = germ([(1, 1)], [(3, 1), (4, 1)], [(4, 1)], [(6, 1)])
    assert curve_type(g) == TypeSequence.of(1, 3, 4, 6)


def test_type_binomial_degree_three_curve():
    # affine chart (3t, 3t^2, t^3) of the cubic with totally degenerate zeros
    g = germ([(1, 3)], [(2, 3)], [(3, 1)])
    assert curve_type(g) == TypeSequence.of(1, 2, 3)


def test_type_zero_curve_is_verdict():
    g = CurveGerm((Jet1.zero(7), Jet1.zero(7)))
    assert curve_type(g) == NotFiniteTypeUpTo(7)


def test_type_insensitive_to_component_mixing(rng):
    for _ in range(20):
        entries = (1, 2, 4)
        g = random_germ_of_type(rng, entries, 10)
        m = random_invertible_matrix(rng, 3)
        mixed = CurveGerm(
            tuple(
                sum(
                    (F(m[i][j]) * g.components[j] for j in range(3)),
                    Jet1.zero(10),
                )
                for i in range(3)
            )
        )
        assert curve_type(mixed) == TypeSequence.of(*entries)


# -- normalization ------------------------------------------------------------------


def test_normalize_scaling():
    g = germ([(1, 2), (2, 1)], [(2, 1)])
    normalized, matrix = normalize(g)
    t = curve_type(normalized)
    assert t == TypeSequence.of(1, 2)
    assert normalized.components[0].coefficient(1) == 1
    assert normalized.components[1].coefficient(2) == 1
    # change of coordinates reproduces the normalized components
    for i in range(2):
        rebuilt = sum(
            (matrix[i][j] * g.components[j] for j in range(2)), Jet1.zero(10)
        )
        assert rebuilt == normalized.components[i]


def test_normalize_elimination_step():
    g = germ([(1, 1)], [(1, 1), (2, 1)])
    normalized, _ = normalize(g)
    assert normalized.components[0] == Jet1.term(1, 1, 10)
    assert normalized.components[1] == Jet1.term(1, 2, 10)


def test_normalize_fixed_point():
    g = germ([(1, 1)], [(3, 1)])
    normalized, matrix = normalize(g)
    assert normalized == g
    assert matrix == ((1, 0), (0, 1))


def test_normalize_shape_on_random_germs(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4, 6), (2, 3, 4, 5), (1, 2, 4, 5)]
    for _ in range(25):
        entries = pool[rng.randrange(len(pool))]
        g = random_germ_of_type(rng, entries, max(entries) + 5)
        normalized, _ = normalize(g)
        assert curve_type(normalized) == TypeSequence.of(*entries)
        for i, comp in enumerate(normalized.components):
            for j, a in enumerate(entries):
                want = 1 if j == i else 0
                if j >= i:
                    assert comp.coefficient(a) == want


def test_normalize_rejects_infinite_type():
    g = CurveGerm((Jet1.variable(6), Jet1.zero(6)))
    with pytest.raises(NotFiniteTypeError):
        normalize(g)


# -- flag frame ----------------------------------------------------------------------


def test_flag_frame_of_rational_normal_curve():
    g = germ([(1, 1)], [(2, 1)], [(3, 1)])
    frame = flag_lift(g)
    at0 = frame.at_zero()
    for j, col in enumerate(at0):
        for i, entry in enumerate(col):
            assert entry == (1 if i == j else 0)


def test_flag_frame_second_space_is_tangent():
    g = germ([(1, 1)], [(2, 1)], [(3, 1)])
    frame = flag_lift(g)
    v2 = frame.span_at_zero(2)
    assert v2 == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_flag_frame_degenerate_tangent_direction():
    g = germ([(1, 1)], [(3, 1)], [(4, 1)])
    frame = flag_lift(g)
    cols = frame.columns
    # second column is the first derivative of the lift: constant only in row 1
    second = [entry.coefficient(0) for entry in cols[1]]
    assert second == [0, 1, 0, 0]
    assert frame.span_at_zero(2) == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_flag_frame_identity_at_origin_random(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4, 6), (2, 3, 4, 5)]
    for _ in range(20):
        entries = pool[rng.randrange(len(pool))]
        g = random_germ_of_type(rng, entries, max(entries) + 4)
        frame = flag_lift(g)
        assert frame.source_type == TypeSequence.of(*entries)
        at0 = frame.at_zero()
        for j, col in enumerate(at0):
            for i, entry in enumerate(col):
                assert entry == (1 if i == j else 0)


# -- projective type ---------------------------------------------------------------------


def test_projective_type_rational_normal_curve():
    lift = tuple(Jet1.term(1, k, 8) for k in range(4))
    lift = (Jet1.constant(1, 8),) + lift[1:]
    assert projective_type(lift) == TypeSequence.of(1, 2, 3)


def test_projective_type_gap():
    lift = (
        Jet1.constant(1, 8),
        Jet1.term(1, 1, 8),
        Jet1.term(1, 2, 8),
        Jet1.term(1, 4, 8),
    )
    assert projective_type(lift) == TypeSequence.of(1, 2, 4)


def test_projective_type_rejects_vanishing_lift():
    with pytest.raises(Exception):
        projective_type((Jet1.variable(6), Jet1.variable(6)))


def test_projective_type_matches_affine_type(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 3, 4, 6), (1, 2, 4, 5)]
    for _ in range(200):
        entries = pool[rng.randrange(len(pool))]
        g = random_germ_of_type(rng, entries, max(entries) + 4)
        assert projective_type(homogeneous_lift(g)) == curve_type(g)


def projective_type_by_derivatives(lift):
    """projective_type as first written: differentiates the whole lift K times."""
    values = [c.coefficient(0) for c in lift]
    if all(v == 0 for v in values):
        raise JetDomainError("homogeneous lift vanishes at t = 0")
    m = len(lift)
    tracker = RankTracker()
    tracker.add(values)
    entries = []
    K = lift[0].truncation
    derivs = list(lift)
    for r in range(1, K + 1):
        derivs = [d.derivative() for d in derivs]
        if tracker.add([d.coefficient(0) for d in derivs]):
            entries.append(r)
            if tracker.rank == m:
                return TypeSequence(tuple(entries))
    return NotFiniteTypeUpTo(K)


# few distinct coefficients, many zeros: rank deficiencies, and so gaps in the
# type and lifts of infinite type, come up often
_SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2, F(1, 2)])


@st.composite
def lifts(draw):
    K = draw(st.integers(min_value=0, max_value=10))
    m = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(_SPARSE, min_size=K + 1, max_size=K + 1)) for _ in range(m)]
    rows[0][0] = draw(st.sampled_from([1, -1, 3, F(2, 3)]))
    if m > 1 and draw(st.booleans()):
        # a repeated direction keeps the span short of full rank
        rows[-1] = [2 * x for x in rows[draw(st.integers(0, m - 2))]]
    return tuple(Jet1(tuple(F(x) for x in row)) for row in rows)


@settings(max_examples=300, deadline=None)
@given(lifts())
def test_projective_type_matches_the_derivative_definition(lift):
    assert projective_type(lift) == projective_type_by_derivatives(lift)


def test_projective_type_of_infinite_type_lift():
    lift = (Jet1.from_terms([(0, 1), (2, 1)], 6), Jet1.from_terms([(0, 2), (2, 2)], 6))
    assert projective_type(lift) == NotFiniteTypeUpTo(6)


@pytest.mark.parametrize("other", [3, 9])
def test_projective_type_refuses_mismatched_truncations(other):
    lift = (Jet1.constant(1, 6), Jet1.term(1, 1, other), Jet1.term(1, 2, 6))
    with pytest.raises(ValueError):
        projective_type(lift)


# -- invariance -------------------------------------------------------------------------------


def test_type_reparametrization_invariant(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4, 6), (2, 3, 4, 5)]
    for _ in range(60):
        entries = pool[rng.randrange(len(pool))]
        K = max(entries) + 6
        g = random_germ_of_type(rng, entries, K)
        phi = random_reparametrization(rng, K)
        composed = CurveGerm(tuple(c.compose(phi) for c in g.components))
        assert curve_type(composed) == TypeSequence.of(*entries)


def test_type_projective_invariant(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 4, 6)]
    for _ in range(60):
        entries = pool[rng.randrange(len(pool))]
        K = max(entries) + 6
        g = random_germ_of_type(rng, entries, K)
        lift = homogeneous_lift(g)
        size = len(lift)
        m = random_invertible_matrix(rng, size, chart_safe=True)
        moved = tuple(
            sum((F(m[i][j]) * lift[j] for j in range(size)), Jet1.zero(K))
            for i in range(size)
        )
        transformed = affine_chart(moved)
        assert curve_type(transformed) == TypeSequence.of(*entries)
