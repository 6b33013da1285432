import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions, random_fraction, random_invertible_matrix
from tanvar import surfaces
from tanvar.jets import (
    InvariantError,
    Jet2,
    JetDomainError,
    TruncationMismatch,
    align,
    equal_as_polynomials,
)
from tanvar.surfaces import (
    VAR_U,
    VAR_V,
    ClosednessError,
    LegendreConditionError,
    OrdinaryPointClass,
    RuledComponent,
    SajiResult,
    SajiTag,
    Slice,
    SurfaceTangentMap,
    SymMatrix3,
    VeroneseVerdict,
    _cross,
    _euler_complement,
    _partials,
    _potential,
    complete_to_legendre,
    frontal_normal,
    h_invariant,
    ordinary_point_class,
    saji_verdict,
    slice_frontality_residuals,
    surface_tangent_map,
    transversal_slice,
    veronese_membership,
)

K = 8


def quad_surface(a, b, c, e, phi=None, psi=None, trunc=K):
    x3 = Jet2.from_terms(
        [(2, 0, F(a, 2)), (1, 1, F(b)), (0, 2, F(c, 2))], trunc
    )
    x4 = Jet2.from_terms(
        [(2, 0, F(b, 2)), (1, 1, F(c)), (0, 2, F(e, 2))], trunc
    )
    if phi is not None:
        x3 = x3 + phi
    if psi is not None:
        x4 = x4 + psi
    return complete_to_legendre(x3, x4)


def gradient_pair(potential):
    """Closed higher-order pair (phi, psi) from a potential jet."""
    return potential.derivative(0).truncate(K), potential.derivative(1).truncate(K)


def random_potential(rng, min_order=4, max_order=6, trunc=K + 1):
    terms = []
    for d in range(min_order, max_order + 1):
        for i in range(d + 1):
            if rng.random() < 0.4:
                terms.append((i, d - i, random_fraction(rng)))
    return Jet2.from_terms(terms, trunc)


def random_rank2_surface(rng):
    while True:
        a, b, c, e = (random_fraction(rng, max_num=5, max_den=3) for _ in range(4))
        if (a * c - b * b, a * e - b * c, b * e - c * c) != (0, 0, 0):
            break
    phi, psi = gradient_pair(random_potential(rng))
    x3 = Jet2.from_terms([(2, 0, a / 2), (1, 1, b), (0, 2, c / 2)], K) + phi
    x4 = Jet2.from_terms([(2, 0, b / 2), (1, 1, c), (0, 2, e / 2)], K) + psi
    return complete_to_legendre(x3, x4)


# -- chart completion -------------------------------------------------------------


def test_x5_of_pure_quadratic():
    s = quad_surface(1, 0, 0, 1)
    assert s.x5 == Jet2.from_terms([(3, 0, F(-1, 6)), (0, 3, F(-1, 6))], K + 1)


def test_x5_general_quadratic():
    s = quad_surface(2, 3, -1, 5)
    expected = Jet2.from_terms(
        [(3, 0, F(-2, 6)), (2, 1, F(-3, 2)), (1, 2, F(1, 2)), (0, 3, F(-5, 6))],
        K + 1,
    )
    assert s.x5 == expected


def test_closed_higher_order_pair_accepted():
    # potential u^3 v gives (phi, psi) = (3 u^2 v, u^3)
    phi, psi = gradient_pair(Jet2.from_terms([(3, 1, 1)], K + 1))
    s = quad_surface(1, 0, 0, 1, phi, psi)
    assert s.x3.coefficient(2, 1) == 3
    assert s.x4.coefficient(3, 0) == 1


def test_closedness_guard():
    x3 = Jet2.from_terms([(2, 0, F(1, 2)), (0, 3, 1)], K)  # phi = v^3
    x4 = Jet2.from_terms([(0, 2, F(1, 2))], K)
    with pytest.raises(ClosednessError) as info:
        complete_to_legendre(x3, x4)
    assert info.value.monomial == (0, 2)
    assert info.value.difference == 3


def test_nonzero_linear_part_rejected():
    x3 = Jet2.from_terms([(1, 0, 1)], K)
    x4 = Jet2.zero(K)
    with pytest.raises(ValueError):
        complete_to_legendre(x3, x4)
    # a constant term or either linear term, in x3 or in x4
    for i, j in ((0, 0), (1, 0), (0, 1)):
        for pair in ((Jet2.term(1, i, j, K), x4), (x4, Jet2.term(1, i, j, K))):
            with pytest.raises(ValueError, match="^surface chart components need zero 1-jets$"):
                complete_to_legendre(*pair)


# -- ordinary point classes ----------------------------------------------------------


def test_hyperbolic_example():
    rep = ordinary_point_class(quad_surface(1, 0, 0, 1))
    assert rep.tag is OrdinaryPointClass.HYPERBOLIC
    assert rep.h_invariant == -1


def test_elliptic_example():
    rep = ordinary_point_class(quad_surface(1, 0, -1, 0))
    assert rep.tag is OrdinaryPointClass.ELLIPTIC
    assert rep.h_invariant == 4


def test_rank_guard():
    rep = ordinary_point_class(quad_surface(1, 0, 0, 0))
    assert rep.tag is OrdinaryPointClass.NOT_ORDINARY


def test_h_sign_invariant_under_positive_rescaling(rng):
    for _ in range(50):
        quad = tuple(random_fraction(rng, max_num=5, max_den=2) for _ in range(4))
        rho = abs(random_fraction(rng, nonzero=True))
        scaled = tuple(rho * x for x in quad)
        h0, h1 = h_invariant(quad), h_invariant(scaled)
        assert (h0 > 0) == (h1 > 0) and (h0 < 0) == (h1 < 0)


# -- transversal slice ----------------------------------------------------------------


def test_slice_pure_quadratic():
    g1, g2, g3 = transversal_slice(quad_surface(1, 0, 0, 1))
    assert equal_as_polynomials(g1, Jet2.from_terms([(2, 0, F(-1, 2))], 4))
    assert equal_as_polynomials(g2, Jet2.from_terms([(0, 2, F(-1, 2))], 4))
    assert equal_as_polynomials(
        g3, Jet2.from_terms([(3, 0, F(1, 3)), (0, 3, F(1, 3))], 4)
    )


def test_slice_euler_complement_of_quartic():
    # phi = u^4 (psi = 0 stays closed); it contributes phi - u phi_u = -3 u^4
    phi, psi = gradient_pair(Jet2.from_terms([(5, 0, F(1, 5))], K + 1))
    s = quad_surface(1, 0, 0, 1, phi, psi)
    g1, _, _ = transversal_slice(s)
    assert g1.coefficient(4, 0) == -3


def test_slice_identity_random(rng):
    for _ in range(30):
        s = random_rank2_surface(rng)
        g1, g2, g3 = transversal_slice(s)
        ru, rv = slice_frontality_residuals(g1, g2, g3)
        assert ru.is_zero and rv.is_zero


def slice_frontality_residuals_six_partials(g1, g2, g3):
    """The identity as first written: all six partials, for T3 = T1 + 1 = T2 + 1."""
    (u1, u2, u3), (v1, v2, v3) = (
        [x.derivative(var) for x in (g1, g2, g3)] for var in (0, 1)
    )
    ru = u3 + u1.mul_monomial(1, 0) + u2.mul_monomial(0, 1)
    rv = v3 + v1.mul_monomial(1, 0) + v2.mul_monomial(0, 1)
    return align(ru, rv)


def random_jet(rng, trunc, density=0.5):
    terms = [
        (i, d - i, random_fraction(rng))
        for d in range(trunc + 1)
        for i in range(d + 1)
        if rng.random() < density
    ]
    return Jet2.from_terms(terms, trunc)


def test_slice_identity_matches_six_partials(rng):
    for _ in range(60):
        k = rng.randint(1, 9)
        g = (random_jet(rng, k), random_jet(rng, k), random_jet(rng, k + 1))
        ru, rv = slice_frontality_residuals(*g)
        old_u, old_v = slice_frontality_residuals_six_partials(*g)
        assert (ru.truncation, rv.truncation) == (old_u.truncation, old_v.truncation) == (k, k)
        assert (ru.coeffs, rv.coeffs) == (old_u.coeffs, old_v.coeffs)


def test_slice_identity_aligns_mixed_truncations(rng):
    # exact to min(T3 - 1, T1, T2): the six-partial identity of the triple cut there
    for _ in range(60):
        t1, t2, t3 = rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 9)
        g1, g2, g3 = (random_jet(rng, t) for t in (t1, t2, t3))
        k = min(t3 - 1, t1, t2)
        expected = slice_frontality_residuals_six_partials(
            g1.truncate(k), g2.truncate(k), g3.truncate(k + 1)
        )
        assert slice_frontality_residuals(g1, g2, g3) == expected


def test_slice_identity_of_an_equal_truncation_triple(rng):
    g1, g2, g3 = transversal_slice(dense_surface((2, 1, -1, 3), 8, rng))
    g3 = g3.truncate(8)
    with pytest.raises(TruncationMismatch):
        slice_frontality_residuals_six_partials(g1, g2, g3)
    ru, rv = slice_frontality_residuals(g1, g2, g3)
    assert ru.is_zero and rv.is_zero
    assert (ru.truncation, rv.truncation) == (7, 7)


# -- rank-zero Hessian verdict -----------------------------------------------------------


def test_verdict_hyperbolic_quadratic():
    v = saji_verdict(transversal_slice(quad_surface(1, 0, 0, 1)))
    assert v.tag is SajiTag.D4_PLUS
    assert v.hessian_determinant == -1


def test_verdict_elliptic_quadratic():
    v = saji_verdict(transversal_slice(quad_surface(1, 0, -1, 0)))
    assert v.tag is SajiTag.D4_MINUS


def test_verdict_rank_guard():
    g = (
        Jet2.variable(0, 5),
        Jet2.term(1, 0, 2, 5),
        Jet2.term(1, 0, 3, 5),
    )
    v = saji_verdict(g)
    assert v.tag is SajiTag.INCONCLUSIVE
    assert "rank" in v.reason


def test_verdict_on_pinch_normal_forms():
    for sign, tag in ((1, SajiTag.D4_PLUS), (-1, SajiTag.D4_MINUS)):
        f = (
            Jet2.from_terms([(1, 1, 1)], 8),
            Jet2.from_terms([(2, 0, 1), (0, 2, 3 * sign)], 8),
            Jet2.from_terms([(2, 1, 1), (0, 3, sign)], 8),
        )
        nu = frontal_normal(f)
        assert saji_verdict(f, normal=nu).tag is tag


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_verdict_invariant_under_permuted_components(rng, perm):
    # permuting the components of g and nu together changes lambda = det(g_u, g_v, nu)
    # at most in sign, which leaves the Hessian of its quadratic part unchanged
    for quad, tag in (((2, 1, -1, 3), SajiTag.D4_PLUS), ((1, F(1, 2), -1, F(1, 3)), SajiTag.D4_MINUS)):
        g = transversal_slice(dense_surface(quad, 8, rng))
        nu = (Jet2.variable(0, 8), Jet2.variable(1, 8), Jet2.constant(1, 8))
        verdict = saji_verdict(g, normal=nu)
        assert verdict.tag is tag and verdict.hessian_determinant == h_invariant(quad)
        moved = saji_verdict(tuple(g[i] for i in perm), normal=tuple(nu[i] for i in perm))
        assert moved == verdict


def test_hessian_equals_h_invariant(rng):
    for _ in range(100):
        s = random_rank2_surface(rng)
        rep = ordinary_point_class(s)
        v = saji_verdict(transversal_slice(s))
        assert v.hessian_determinant == rep.h_invariant
        if rep.tag is OrdinaryPointClass.HYPERBOLIC:
            assert v.tag is SajiTag.D4_PLUS
        elif rep.tag is OrdinaryPointClass.ELLIPTIC:
            assert v.tag is SajiTag.D4_MINUS


def dense_chart(quad, trunc, rng):
    """(x3, x4) = dP for quadratic data quad and a dense potential P up to degree trunc + 1."""
    a, b, c, e = (F(x) for x in quad)
    terms = [(3, 0, a / 6), (2, 1, b / 2), (1, 2, c / 2), (0, 3, e / 6)]
    for d in range(4, trunc + 2):
        terms += [(d - j, j, random_fraction(rng, nonzero=True)) for j in range(d + 1)]
    P = Jet2.from_terms(terms, trunc + 1)
    return P.derivative(0), P.derivative(1)


def dense_surface(quad, trunc, rng):
    """Surface with quadratic data quad and a dense potential up to degree trunc + 1."""
    return complete_to_legendre(*dense_chart(quad, trunc, rng))


D4_QUADS = [
    (OrdinaryPointClass.HYPERBOLIC, SajiTag.D4_PLUS, (2, 1, -1, 3)),
    (OrdinaryPointClass.ELLIPTIC, SajiTag.D4_MINUS, (1, F(1, 2), -1, F(1, 3))),
    (OrdinaryPointClass.PARABOLIC, SajiTag.INCONCLUSIVE, (0, 0, 1, 0)),
]


@pytest.mark.parametrize("trunc", [6, 12, 22])
@pytest.mark.parametrize("ordinary, tag, quad", D4_QUADS)
def test_verdict_reads_only_the_low_order_slice(rng, trunc, ordinary, tag, quad):
    s = dense_surface(quad, trunc, rng)
    assert ordinary_point_class(s).tag is ordinary
    g = transversal_slice(s)
    assert g[0].truncation == trunc
    full = saji_verdict(g)
    low = saji_verdict(tuple(x.truncate(3) for x in g))
    assert full.tag is low.tag is tag
    assert full.hessian_determinant == low.hessian_determinant == h_invariant(s.quad)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from([6, 8, 10]))
def test_verdicts_invariant_under_linear_changes_of_the_potential(seed, trunc):
    # H is 48 times the discriminant of the cubic part of P, which P o L
    # scales by det(L)^6 > 0; the D4 tag follows the same sign
    rng = random.Random(seed)
    terms = [(3 - j, j, random_fraction(rng)) for j in range(4)]
    terms += [
        (d - j, j, random_fraction(rng))
        for d in range(4, trunc + 2)
        for j in range(d + 1)
        if rng.random() < 0.3
    ]
    P = Jet2.from_terms(terms, trunc + 1)
    m = random_invertible_matrix(rng, 2)
    L = [Jet2.from_terms([(1, 0, row[0]), (0, 1, row[1])], trunc + 1) for row in m]
    verdicts = []
    for potential in (P, P.substitute(*L)):
        s = complete_to_legendre(potential.derivative(0), potential.derivative(1))
        verdicts.append(
            (ordinary_point_class(s).tag, saji_verdict(transversal_slice(s)).tag)
        )
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("verdict", [saji_verdict, frontal_normal])
def test_germs_of_other_than_three_components_are_refused(size, verdict):
    g = (Jet2.variable(0, 4), Jet2.variable(1, 4)) + (Jet2.zero(4),) * (size - 2)
    with pytest.raises(ValueError):
        verdict(g)
    if verdict is saji_verdict:
        with pytest.raises(ValueError, match="the normal needs exactly three components"):
            saji_verdict(transversal_slice(quad_surface(1, 0, 0, 1)), normal=g)


def _det3_full_order(cols):
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = cols
    return (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )


def saji_verdict_full_order(g, normal=None):
    """The verdict as first written: lambda from the full K-jets of dg and nu."""
    g1, g2, g3 = g
    du = [x.derivative(0) for x in (g1, g2, g3)]
    dv = [x.derivative(1) for x in (g1, g2, g3)]
    if any(x.coefficient(0, 0) != 0 for x in du + dv):
        return SajiResult(
            SajiTag.INCONCLUSIVE, None, "differential at the origin has rank > 0"
        )
    K = min(x.truncation for x in du + dv)
    if normal is None:
        nu = (
            Jet2.variable(0, K),
            Jet2.variable(1, K),
            Jet2.constant(1, K),
        )
    else:
        nu = tuple(normal)
    K = min([K] + [x.truncation for x in nu])
    du = [x.truncate(K) for x in du]
    dv = [x.truncate(K) for x in dv]
    nu = tuple(x.truncate(K) for x in nu)
    for partials in (du, dv):
        pairing = nu[0] * partials[0] + nu[1] * partials[1] + nu[2] * partials[2]
        if not pairing.is_zero:
            return SajiResult(
                SajiTag.INCONCLUSIVE, None, "normal does not annihilate dg"
            )
    lam = _det3_full_order((du, dv, nu))
    if lam.truncation < 2:
        raise JetDomainError("truncation too small for the quadratic part")
    q20 = lam.coefficient(2, 0)
    q11 = lam.coefficient(1, 1)
    q02 = lam.coefficient(0, 2)
    hess = 4 * q20 * q02 - q11 * q11
    if hess < 0:
        return SajiResult(SajiTag.D4_PLUS, hess)
    if hess > 0:
        return SajiResult(SajiTag.D4_MINUS, hess)
    return SajiResult(
        SajiTag.INCONCLUSIVE, hess, "degenerate quadratic part (no verdict)"
    )


def _outcome(verdict, g, normal):
    try:
        return verdict(g, normal=normal)
    except JetDomainError as exc:
        return repr(exc)


@st.composite
def d4_inputs(draw):
    """A three-component germ and a normal (None for the default (u, v, 1)).

    Three arbitrary jets, or slices of Legendre surfaces: untruncated (g3 one
    order above g1 and g2) or cut to one truncation and moved by a target
    change of coordinates; constant terms are dropped.  The normal is the
    default or, when it exists, ``frontal_normal`` of the aligned germ.
    """
    trunc = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["jets", "slice", "moved slice"]))
    coeff = fractions(max_num=4, max_den=3)
    if kind == "jets" or trunc < 2:
        g = tuple(
            Jet2.from_terms(
                draw(st.lists(st.tuples(st.integers(0, trunc), st.integers(0, trunc), coeff),
                              max_size=6)),
                trunc,
            )
            for _ in range(3)
        )
    else:
        quad = tuple(draw(coeff) for _ in range(4))
        higher = draw(st.lists(st.tuples(st.integers(0, trunc + 1), st.integers(0, trunc + 1),
                                         coeff), max_size=5))
        P = Jet2.from_terms(
            [(3, 0, quad[0] / 6), (2, 1, quad[1] / 2), (1, 2, quad[2] / 2), (0, 3, quad[3] / 6)]
            + [(i, j, c) for i, j, c in higher if i + j >= 4],
            trunc + 1,
        )
        g = transversal_slice(complete_to_legendre(P.derivative(0), P.derivative(1)))
        if kind == "moved slice":
            g1, g2, g3 = align(*g)
            p, q, r = (draw(coeff) for _ in range(3))
            g = (g1 + p * g3, g2 + q * g1 * g1, g3 + r * g1 * g2)
    g = tuple(x - Jet2.from_terms([(0, 0, x.coefficient(0, 0))], x.truncation) for x in g)
    normal = None
    if draw(st.booleans()):
        try:
            normal = frontal_normal(align(*g))
        except JetDomainError:
            pass
    return g, normal


@settings(max_examples=150, deadline=None)
@given(d4_inputs())
def test_verdict_matches_full_order_determinant(case):
    g, normal = case
    assert _outcome(saji_verdict, g, normal) == _outcome(saji_verdict_full_order, g, normal)


def test_annihilation_is_checked_at_full_order(rng):
    g = transversal_slice(dense_surface((2, 1, -1, 3), 12, rng))
    K = g[0].truncation - 1
    u, v = Jet2.variable(0, K), Jet2.variable(1, K)
    # u^5 g3_u starts in degree 7: above the 2-jet that lambda is read from
    nu = (u, v, Jet2.constant(1, K) + Jet2.term(1, 5, 0, K))
    refused = saji_verdict(g, normal=nu)
    assert (refused.tag, refused.reason) == (SajiTag.INCONCLUSIVE, "normal does not annihilate dg")
    assert saji_verdict(g, normal=tuple(x.truncate(6) for x in nu)) == saji_verdict(g)


def test_default_annihilation_is_checked_at_the_verdict_truncation(rng):
    # truncations 8, 8, 9: the verdict's K is 7, so dg3 is paired up to degree 7 only
    g1, g2, g3 = transversal_slice(dense_surface((2, 1, -1, 3), 8, rng))
    for degree, reason in ((9, None), (8, "normal does not annihilate dg")):
        g = (g1, g2, g3 + Jet2.term(1, degree, 0, 9))
        assert saji_verdict(g) == saji_verdict_full_order(g)
        assert saji_verdict(g).reason == reason


def test_surface_verdict_differentiates_each_jet_once(rng, monkeypatch):
    # completion 4 and the slice identity 2; the verdict trusts the identity of a
    # Slice, and the slice reuses the completion's Euler complements A and B;
    # lambda reads the 3-jets of g, so no product of full-order jets is formed
    x3, x4 = dense_chart((2, 1, -1, 3), 22, rng)
    derivatives, products, inside, complements = [], [], [], []
    derivative, product, verdict = Jet2.derivative, Jet2.__mul__, saji_verdict
    euler_complement = surfaces._euler_complement

    def counted_derivative(self, var):
        if self.truncation > 3:
            derivatives.append(self.truncation)
        return derivative(self, var)

    def counted_complement(x):
        complements.append(x.truncation)
        return euler_complement(x)

    def counted_product(self, other):
        if inside and isinstance(other, Jet2) and self.truncation > 3:
            products.append(self.truncation)
        return product(self, other)

    def traced_verdict(g):
        inside.append(True)
        try:
            return verdict(g)
        finally:
            inside.pop()

    monkeypatch.setattr(Jet2, "derivative", counted_derivative)
    monkeypatch.setattr(Jet2, "__mul__", counted_product)
    monkeypatch.setattr(surfaces, "_euler_complement", counted_complement)
    g = transversal_slice(complete_to_legendre(x3, x4))
    result = traced_verdict(g)
    assert result.tag is SajiTag.D4_PLUS
    assert len(derivatives) <= 6
    assert complements == [22, 22, 23]
    assert products == []
    # a plain tuple gets the slice identity again: one more derivative per variable
    del derivatives[:]
    assert traced_verdict(tuple(g)) == result
    assert derivatives == [23, 23]


def reference_transversal_slice(surface):
    """``transversal_slice`` before the germ kept A and B, kept verbatim as the oracle."""
    g1 = _euler_complement(surface.x3)
    g2 = _euler_complement(surface.x4)
    g3 = _euler_complement(surface.x5)
    res_u, res_v = slice_frontality_residuals(g1, g2, g3)
    if not (res_u.is_zero and res_v.is_zero):
        raise InvariantError("slice frontality identity failed")
    return g1, g2, g3


def reference_saji_verdict(g, normal=None):
    """``saji_verdict`` before it trusted a Slice, kept verbatim as the oracle."""
    if normal is not None:
        normal = tuple(normal)
        if len(normal) != 3:
            raise ValueError("the normal needs exactly three components")
    du, dv = _partials([x.truncate(min(x.truncation, 3)) for x in g])
    if any(x.coefficient(0, 0) != 0 for x in du + dv):
        return SajiResult(SajiTag.INCONCLUSIVE, None, "differential at the origin has rank > 0")
    K = min(x.truncation for x in g) - 1
    if normal is None:
        pairings = [r.truncate(K) for r in slice_frontality_residuals(*g)]
        normal = (Jet2.variable(VAR_U, 2), Jet2.variable(VAR_V, 2), Jet2.constant(1, 2))
    else:
        K = min([K] + [x.truncation for x in normal])
        nu = [x.truncate(K) for x in normal]
        pairings = [
            nu[0] * p[0].truncate(K) + nu[1] * p[1].truncate(K) + nu[2] * p[2].truncate(K)
            for p in _partials(g)
        ]
    if not all(p.is_zero for p in pairings):
        return SajiResult(SajiTag.INCONCLUSIVE, None, "normal does not annihilate dg")
    if K < 2:
        raise JetDomainError("truncation too small for the quadratic part")
    du, dv, normal = ([x.truncate(2) for x in col] for col in (du, dv, normal))
    cross = _cross(dv, normal)
    lam = du[0] * cross[0] + du[1] * cross[1] + du[2] * cross[2]  # det(du, dv, nu)
    q20 = lam.coefficient(2, 0)
    q11 = lam.coefficient(1, 1)
    q02 = lam.coefficient(0, 2)
    hess = 4 * q20 * q02 - q11 * q11
    if hess < 0:
        return SajiResult(SajiTag.D4_PLUS, hess)
    if hess > 0:
        return SajiResult(SajiTag.D4_MINUS, hess)
    return SajiResult(
        SajiTag.INCONCLUSIVE, hess, "degenerate quadratic part (no verdict)"
    )


@st.composite
def closed_charts(draw):
    """(x3, x4) = dP at truncation 2 to 12: a random cubic part (degenerate ones
    included) and a few higher terms of P."""
    trunc = draw(st.integers(2, 12))
    coeff = fractions(max_num=4, max_den=3)
    terms = [(3 - j, j, draw(coeff)) for j in range(4)]
    higher = st.tuples(st.integers(0, trunc + 1), st.integers(0, trunc + 1), coeff)
    terms += [(i, j, c) for i, j, c in draw(st.lists(higher, max_size=8)) if i + j >= 4]
    P = Jet2.from_terms(terms, trunc + 1)
    return P.derivative(0), P.derivative(1)


@settings(max_examples=80, deadline=None)
@given(closed_charts(), st.sampled_from(["default", "explicit default", "frontal"]))
def test_slice_and_verdict_match_the_former_pipeline(chart, normal_kind):
    s = complete_to_legendre(*chart)
    g, expected = transversal_slice(s), reference_transversal_slice(s)
    assert type(g) is Slice and g == expected and tuple(g) == expected
    assert (g.g1, g.g2, g.g3) == expected
    normal = None
    if normal_kind == "explicit default":
        K = s.truncation
        normal = (Jet2.variable(VAR_U, K), Jet2.variable(VAR_V, K), Jet2.constant(1, K))
    elif normal_kind == "frontal":
        try:
            normal = frontal_normal(align(*g))
        except JetDomainError:
            pass
    oracle = _outcome(reference_saji_verdict, expected, normal)
    assert _outcome(saji_verdict, g, normal) == oracle
    assert _outcome(saji_verdict, tuple(g), normal) == oracle
    assert _outcome(saji_verdict, list(g), normal) == oracle


@pytest.mark.parametrize("component, degree", [(0, 4), (1, 3), (2, 3), (2, 8)])
def test_tampered_slice_as_a_plain_tuple_is_refused(rng, component, degree):
    # truncations 8, 8, 9; a term of g1 or g2 of degree d breaks the identity in
    # degree d (u dg1), one of g3 in degree d - 1 (dg3), below the verdict's K = 7
    g = list(transversal_slice(dense_surface((2, 1, -1, 3), 8, rng)))
    g[component] = g[component] + Jet2.term(1, degree - 1, 1, g[component].truncation)
    verdict = saji_verdict(tuple(g))
    assert (verdict.tag, verdict.reason) == (SajiTag.INCONCLUSIVE, "normal does not annihilate dg")
    assert verdict == reference_saji_verdict(g)


def test_surface_germ_equality_and_repr_ignore_the_complements(rng):
    s = dense_surface((2, 1, -1, 3), 6, rng)
    A, B = s.complements
    assert (A, B) == (_euler_complement(s.x3), _euler_complement(s.x4))
    other = surfaces.LegendreSurfaceGerm(s.quad, s.x3, s.x4, s.x5, (B, A))
    assert other == s and hash(other) == hash(s) and repr(other) == repr(s)
    assert "complements" not in repr(s)

# -- tangent maps over the Darboux chart ---------------------------------------------------


def graph_legendre(rng, trunc=12):
    lam = (Jet2.variable(0, trunc), Jet2.variable(1, trunc))
    pot = random_potential(rng, min_order=2, max_order=5, trunc=trunc + 1)
    nu = (pot.derivative(0), pot.derivative(1))
    return lam, nu


def test_surface_tangent_identity_linear_case():
    # lambda = (u1, u2), nu = gradient of u1*u2 = (u2, u1)
    lam = (Jet2.variable(0, 10), Jet2.variable(1, 10))
    nu = (Jet2.variable(1, 10), Jet2.variable(0, 10))
    out = surface_tangent_map(lam, nu)
    assert out.certificate_holds


def test_surface_tangent_zero_surface():
    zero = Jet2.zero(8)
    out = surface_tangent_map((zero, zero), (zero, zero), mu=zero)
    assert out.certificate_holds
    assert out.mu.base.is_zero


def test_surface_tangent_rejects_nonintegrable_pair():
    lam = (Jet2.variable(0, 8), Jet2.variable(1, 8))
    nu = (Jet2.variable(1, 8), Jet2.zero(8))  # d(form) != 0: no mu exists
    with pytest.raises(LegendreConditionError):
        surface_tangent_map(lam, nu)


def test_surface_tangent_rejects_wrong_mu():
    lam = (Jet2.variable(0, 8), Jet2.variable(1, 8))
    nu = (Jet2.variable(1, 8), Jet2.variable(0, 8))
    with pytest.raises(LegendreConditionError):
        surface_tangent_map(lam, nu, mu=Jet2.term(1, 3, 0, 8))


def test_surface_tangent_identity_random(rng):
    for _ in range(25):
        lam, nu = graph_legendre(rng)
        out = surface_tangent_map(lam, nu)
        assert out.certificate_holds
        assert out.verified_order >= 10


def curved_legendre(rng, trunc=12):
    """A graph germ composed with a jet substitution, which leaves the graph chart."""
    pot = random_potential(rng, min_order=2, max_order=4, trunc=trunc + 1)
    psi1 = Jet2.from_terms(
        [(1, 0, 1), (2, 0, random_fraction(rng)), (1, 1, random_fraction(rng))],
        trunc,
    )
    psi2 = Jet2.from_terms(
        [(0, 1, 1), (0, 2, random_fraction(rng)), (2, 0, random_fraction(rng))],
        trunc,
    )
    lam = (psi1, psi2)
    nu = (
        pot.derivative(0).truncate(trunc).substitute(psi1, psi2),
        pot.derivative(1).truncate(trunc).substitute(psi1, psi2),
    )
    return lam, nu


def test_surface_tangent_identity_curved_chart(rng):
    for _ in range(10):
        out = surface_tangent_map(*curved_legendre(rng))
        assert out.certificate_holds
        assert out.verified_order >= 10


def _legendre_form_twice(lam, nu, var):
    """sum_i (nu_i * d lambda_i - lambda_i * d nu_i), coefficient of du_var."""
    acc = None
    for li, ni in zip(lam, nu):
        dl = li.derivative(var)
        dn = ni.derivative(var)
        ni_t, dl_t = align(ni, dl)
        li_t, dn_t = align(li, dn)
        term = ni_t * dl_t - li_t * dn_t
        acc = term if acc is None else acc + term
    return acc


def surface_tangent_map_twice(lam, nu, mu=None):
    """The tangent map as first written, differentiating lambda, nu and mu again
    for the form, the mu check and the second derivatives."""
    lam = tuple(lam)
    nu = tuple(nu)
    if len(lam) != 2 or len(nu) != 2:
        raise ValueError("expected two lambda and two nu components")
    A = _legendre_form_twice(lam, nu, VAR_U)
    B = _legendre_form_twice(lam, nu, VAR_V)
    closed = A.derivative(VAR_V) - B.derivative(VAR_U)
    if not closed.is_zero:
        raise LegendreConditionError(
            "the contact relation admits no mu: the defining 1-form is not closed"
        )
    if mu is None:
        mu = _potential(A, B)
    else:
        dmu_u, A_t = align(mu.derivative(VAR_U), A)
        dmu_v, B_t = align(mu.derivative(VAR_V), B)
        if not ((dmu_u - A_t).is_zero and (dmu_v - B_t).is_zero):
            raise LegendreConditionError("mu does not satisfy the contact relation")

    def ruled(x: Jet2) -> RuledComponent:
        return RuledComponent(x, x.derivative(VAR_U), x.derivative(VAR_V))

    lam_r = (ruled(lam[0]), ruled(lam[1]))
    nu_r = (ruled(nu[0]), ruled(nu[1]))
    mu_r = ruled(mu)

    residuals = []
    # ds_j coefficients: mu_{,j} - sum(nu_i lam_{i,j} - lam_i nu_{i,j})
    first_order = {}
    for j, form in (("1", A), ("2", B)):
        var = VAR_U if j == "1" else VAR_V
        dmu, form_t = align(mu.derivative(var), form)
        first_order[j] = dmu - form_t
        residuals.append((f"ds{j}", first_order[j]))
    # du_j coefficients: base part repeats ds_j; s_k parts use second derivatives
    for j, varj in (("1", VAR_U), ("2", VAR_V)):
        residuals.append((f"du{j}", first_order[j]))
        for k, vark in (("1", VAR_U), ("2", VAR_V)):
            acc = mu.derivative(varj).derivative(vark)
            for li, ni in zip(lam, nu):
                dd_l = li.derivative(varj).derivative(vark)
                dd_n = ni.derivative(varj).derivative(vark)
                ni_t, dd_l_t = align(ni, dd_l)
                li_t, dd_n_t = align(li, dd_n)
                acc_t, term = align(acc, ni_t * dd_l_t - li_t * dd_n_t)
                acc = acc_t - term
            residuals.append((f"s{k}*du{j}", acc))
    verified = min(r.truncation for _, r in residuals)
    residuals = tuple((name, r.truncate(verified)) for name, r in residuals)
    return SurfaceTangentMap(lam_r, mu_r, nu_r, residuals, verified)


def _tangent_outcome(tangent_map, lam, nu, mu):
    try:
        return tangent_map(lam, nu, mu)
    except (LegendreConditionError, JetDomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_surface_tangent_map_matches_repeated_differentiation(rng):
    outcomes = set()
    for n in range(60):
        trunc = rng.randint(1, 12)
        lam, nu = (graph_legendre, curved_legendre)[n % 2](rng, trunc)
        if n % 5 == 4:  # a form that is not closed
            nu = (nu[0], nu[1] + Jet2.term(1, 1, 0, nu[1].truncation))
        mu = None
        if n % 3 == 1:  # the solved mu, or a wrong one
            mu = _potential(_legendre_form_twice(lam, nu, VAR_U), _legendre_form_twice(lam, nu, VAR_V))
            if n % 2:
                mu = mu + Jet2.term(1, 1, 1, mu.truncation)
        elif n % 3 == 2:  # an arbitrary mu, down to truncation 0
            mu = random_jet(rng, rng.randint(0, trunc + 1))
        new = _tangent_outcome(surface_tangent_map, lam, nu, mu)
        assert new == _tangent_outcome(surface_tangent_map_twice, lam, nu, mu)
        outcomes.add(new if isinstance(new, str) else new.certificate_holds)
    assert outcomes >= {
        True,
        "LegendreConditionError: mu does not satisfy the contact relation",
        "LegendreConditionError: the contact relation admits no mu: "
        "the defining 1-form is not closed",
    }


# -- quadric locus membership ----------------------------------------------------------------


def test_membership_examples():
    assert veronese_membership(SymMatrix3.diag(1, 0, 0)) is VeroneseVerdict.ON_SURFACE
    assert veronese_membership(SymMatrix3.diag(1, -1, 0)) is VeroneseVerdict.IN_TANGENT
    assert (
        veronese_membership(SymMatrix3.diag(1, 1, 0)) is VeroneseVerdict.IN_SECANT_ONLY
    )
    assert veronese_membership(SymMatrix3.diag(1, 1, 1)) is VeroneseVerdict.OUTSIDE


def test_membership_zero_guard():
    with pytest.raises(ValueError):
        veronese_membership(SymMatrix3.diag(0, 0, 0))


def _random_vector(rng):
    return tuple(random_fraction(rng, max_num=4, max_den=2) for _ in range(3))


def _outer(u, v):
    return [[u[i] * v[j] for j in range(3)] for i in range(3)]


def _madd(*ms):
    out = [[F(0)] * 3 for _ in range(3)]
    for m in ms:
        for i in range(3):
            for j in range(3):
                out[i][j] += m[i][j]
    return out


def _mscale(c, m):
    return [[c * m[i][j] for j in range(3)] for i in range(3)]


def _independent(v, w):
    minors = (
        v[0] * w[1] - v[1] * w[0],
        v[0] * w[2] - v[2] * w[0],
        v[1] * w[2] - v[2] * w[1],
    )
    return any(m != 0 for m in minors)


def test_tangent_line_points_classify_in_tangent(rng):
    hits = 0
    while hits < 500:
        v, w = _random_vector(rng), _random_vector(rng)
        s = random_fraction(rng, nonzero=True)
        if not _independent(v, w):
            continue
        m = _madd(_outer(v, v), _mscale(s, _outer(v, w)), _mscale(s, _outer(w, v)))
        verdict = veronese_membership(SymMatrix3.from_rows(m))
        assert verdict in (VeroneseVerdict.IN_TANGENT, VeroneseVerdict.ON_SURFACE)
        hits += 1


def test_secant_points_classify_in_secant(rng):
    hits = 0
    while hits < 500:
        v, w = _random_vector(rng), _random_vector(rng)
        if not _independent(v, w):
            continue
        c1 = abs(random_fraction(rng, nonzero=True))
        c2 = abs(random_fraction(rng, nonzero=True))
        m = _madd(_mscale(c1, _outer(v, v)), _mscale(c2, _outer(w, w)))
        verdict = veronese_membership(SymMatrix3.from_rows(m))
        assert verdict in (
            VeroneseVerdict.IN_SECANT_ONLY,
            VeroneseVerdict.ON_SURFACE,
        )
        assert verdict is not VeroneseVerdict.IN_TANGENT
        hits += 1
