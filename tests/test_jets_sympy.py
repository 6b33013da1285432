"""Jet arithmetic against sympy: every result must equal sympy's expansion of
the same polynomials, truncated at the result's own order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions, jet1s, jet2s
from tanvar.jets import Jet1, Jet2

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402

QQ = sympy.QQ
R1, t1 = sympy.ring("t", QQ)
R2, s2, t2 = sympy.ring("s,t", QQ)

examples = settings(max_examples=40, deadline=None)


def _q(c: Fraction):
    return QQ(c.numerator, c.denominator)


def poly(jet):
    """The jet's stored coefficients as an exact sympy polynomial."""
    ring = R1 if isinstance(jet, Jet1) else R2
    return ring.from_dict({tuple(e): _q(c) for *e, c in jet.terms()})


def stored(jet):
    """Every nonzero coefficient of the jet, read back through ``coefficient``."""
    K = jet.truncation
    if isinstance(jet, Jet1):
        cs = {(k,): jet.coefficient(k) for k in range(K + 1)}
    else:
        cs = {(d - j, j): jet.coefficient(d - j, j) for d in range(K + 1) for j in range(d + 1)}
    return {e: _q(c) for e, c in cs.items() if c != 0}


def agrees(jet, p, K):
    """The jet has truncation K and holds exactly the terms of p of degree <= K."""
    return jet.truncation == K and stored(jet) == {e: c for e, c in p.items() if sum(e) <= K}


def shifted(jet, *e):
    """The jet times the monomial with exponents e, truncated back to its order."""
    return type(jet).from_terms(
        ((*(x + y for x, y in zip(exps, e)), c) for *exps, c in jet.terms()), jet.truncation
    )


# -- one variable ------------------------------------------------------------


@examples
@given(jet1s(), jet1s(), fractions())
def test_jet1_linear_operations_match_sympy(a, b, c):
    K = a.truncation
    pa, pb = poly(a), poly(b)
    assert agrees(a + b, pa + pb, K)
    assert agrees(a - b, pa - pb, K)
    assert agrees(-a, -pa, K)
    assert agrees(a * c, pa * _q(c), K)
    assert agrees(c * a, pa * _q(c), K)
    assert agrees(3 * a, pa * 3, K)


@examples
@given(jet1s(), jet1s())
def test_jet1_product_and_derivative_match_sympy(a, b):
    K = a.truncation
    assert agrees(a * b, poly(a) * poly(b), K)
    assert agrees(a.derivative(), poly(a).diff(t1), K - 1)


@examples
@given(jet1s(), jet1s(), st.integers(0, 3), st.integers(0, 3))
def test_jet1_divide_matches_sympy_series(a, b, ea, eb):
    a, b = shifted(a, ea), shifted(b, eb)
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.divide(b)
        return
    K, d = a.truncation, b.order()
    q = a.divide(b)
    if a.order() < d:
        assert q is None
        return
    # t^d cancels from numerator and denominator, leaving a power series
    n = K - d + 1
    num, den = poly(a).exquo(t1**d), poly(b).exquo(t1**d)
    assert agrees(q, rs_mul(num, rs_series_inversion(den, t1, n), t1, n), K - d)


@examples
@given(jet1s(), jet1s())
def test_jet1_compose_matches_sympy(a, phi):
    phi = phi - Jet1.constant(phi.coefficient(0), phi.truncation)
    assert agrees(a.compose(phi), poly(a).compose(t1, poly(phi)), a.truncation)


# -- two variables -------------------------------------------------------------


@examples
@given(jet2s(), jet2s(), fractions())
def test_jet2_linear_operations_match_sympy(a, b, c):
    K = a.truncation
    pa, pb = poly(a), poly(b)
    assert agrees(a + b, pa + pb, K)
    assert agrees(a - b, pa - pb, K)
    assert agrees(-a, -pa, K)
    assert agrees(a * c, pa * _q(c), K)
    assert agrees(c * a, pa * _q(c), K)
    assert agrees(3 * a, pa * 3, K)


@examples
@given(jet2s(), jet2s())
def test_jet2_product_and_derivatives_match_sympy(a, b):
    K = a.truncation
    assert agrees(a * b, poly(a) * poly(b), K)
    assert agrees(a.derivative(0), poly(a).diff(s2), K - 1)
    assert agrees(a.derivative(1), poly(a).diff(t2), K - 1)


@settings(max_examples=20, deadline=None)
@given(jet2s(truncation=3), jet2s(truncation=3), jet2s(truncation=3), st.integers(0, 1),
       st.integers(0, 1), st.booleans())
def test_jet2_divide_matches_sympy_series(a, b, q0, ei, ej, exact):
    """Scaling (s, t) by lam turns a two-variable quotient into a series in lam.

    Its coefficient of lam^m is the degree-m part of the jet quotient; the
    quotient exists exactly when every such coefficient is a polynomial.
    """
    b = shifted(b, ei, ej)
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.divide(b)
        return
    if exact:
        a = q0 * b
    K, d = a.truncation, b.order()
    q = a.divide(b)
    if a.order() < d:
        assert q is None
        return
    s, t, lam = sympy.symbols("s t lam")
    scaled = [poly(x).as_expr().subs({s: lam * s, t: lam * t}, simultaneous=True) for x in (a, b)]
    num, den = (sympy.expand(x / lam**d) for x in scaled)
    series = sympy.series(num / den, lam, 0, K - d + 1).removeO()
    parts = [sympy.cancel(series.coeff(lam, m)) for m in range(K - d + 1)]
    if all(p.is_polynomial(s, t) for p in parts):
        assert agrees(q, R2(sum(parts)), K - d)
    else:
        assert q is None and not exact


@examples
@given(jet2s(), jet2s(), jet2s())
def test_jet2_substitute_matches_sympy(a, phi0, phi1):
    K = a.truncation
    phi0 = phi0 - Jet2.constant(phi0.coefficient(0, 0), K)
    phi1 = phi1 - Jet2.constant(phi1.coefficient(0, 0), K)
    composed = poly(a).compose([(s2, poly(phi0)), (t2, poly(phi1))])
    assert agrees(a.substitute(phi0, phi1), composed, K)


def test_jet1_terms_skip_zero_coefficients():
    jet = Jet1((Fraction(0), Fraction(2), Fraction(0), Fraction(-1, 3)))
    assert list(jet.terms()) == [(1, Fraction(2)), (3, Fraction(-1, 3))]
    assert list(Jet1.zero(4).terms()) == []
