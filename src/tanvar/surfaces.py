"""Legendre surface germs in contact 5-space and their tangent varieties.

Chart convention
----------------
A surface germ is stored in a projective-contact chart (x1..x5) with
x1 = u, x2 = v and the contact structure annihilating

    theta = dx5 + x1 dx3 + x2 dx4 - x3 dx1 - x4 dx2.

With this sign the fifth coordinate of an integral surface is the radial
potential of the 1-form

    (x3 - u x3_u - v x4_u) du + (x4 - u x3_v - v x4_v) dv,

which is closed exactly when x3_v = x4_u, and the pure-quadratic germ has
x5 = -(a u^3/6 + b u^2 v/2 + c u v^2/2 + e v^3/6).  The opposite sign
convention for theta would flip the sign of x5 throughout; everything
downstream (slices, verdicts) is stated for the convention above.

The slice of the tangent variety along s = -u, t = -v is computed by the
Euler-type operator X - u X_u - v X_v applied to (x3, x4, x5); the slice
satisfies dg3 + u dg1 + v dg2 = 0 exactly, which makes (u, v, 1) a normal
along it and feeds the rank-zero/Hessian-sign verdict for the two
three-dimensional umbrella-point classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .jets import ABOVE_TRUNCATION, InvariantError, Jet2, JetDomainError, align

VAR_U, VAR_V = 0, 1


class ClosednessError(ValueError):
    """The candidate pair (x3, x4) is not integrable; carries the witness."""

    def __init__(self, monomial: Tuple[int, int], difference: Fraction):
        super().__init__(
            f"x3_v - x4_u has coefficient {difference} at monomial {monomial}"
        )
        self.monomial = monomial
        self.difference = difference


class LegendreConditionError(ValueError):
    """The input data does not satisfy the contact-integrability condition."""


def _potential(A: Jet2, B: Jet2) -> Jet2:
    """Radial potential P with dP = A du + B dv, for a closed input pair.

    P(u, v) = integral_0^1 (A(tu, tv) u + B(tu, tv) v) dt, taken termwise;
    the constant term is zero and the truncation rises by one.
    """
    K = A.truncation
    terms = []
    for i, j, c in A.terms():
        terms.append((i + 1, j, c / (i + j + 1)))
    for i, j, c in B.terms():
        terms.append((i, j + 1, c / (i + j + 1)))
    return Jet2.from_terms(terms, K + 1)


def _euler_complement(x: Jet2) -> Jet2:
    """X - u X_u - v X_v: degree d scaled by 1 - d (kills linear parts, negates quadratics)."""
    return Jet2.from_terms(((i, j, c * (1 - i - j)) for i, j, c in x.terms()), x.truncation)


@dataclass(frozen=True)
class LegendreSurfaceGerm:
    """Integral surface germ: quadratic data (a, b, c, e) and the jet chart."""

    quad: Tuple[Fraction, Fraction, Fraction, Fraction]
    x3: Jet2
    x4: Jet2
    x5: Jet2  # derived; truncation one above x3/x4

    @property
    def truncation(self) -> int:
        return self.x3.truncation

    @property
    def quad_rank(self) -> int:
        a, b, c, e = self.quad
        if any(x != 0 for x in (a * c - b * b, a * e - b * c, b * e - c * c)):
            return 2
        if any(x != 0 for x in (a, b, c, e)):
            return 1
        return 0


def complete_to_legendre(x3: Jet2, x4: Jet2) -> LegendreSurfaceGerm:
    """Solve for x5 from (x3, x4) and package the integral surface germ.

    Requires truncation at least 2, zero constant and linear parts and the
    integrability condition x3_v = x4_u (checked coefficientwise; the first
    offending coefficient is reported), under which dx5 = A du + B dv with A
    and B the Euler complements of x3 and x4.  The contact pullback vanishing
    is re-checked exactly; an :class:`InvariantError` reports a failure.
    """
    if x3.truncation != x4.truncation:
        raise ValueError("x3 and x4 must share one truncation order")
    if x3.truncation < 2:
        raise ValueError("surface charts need truncation at least 2")
    for x in (x3, x4):
        if (
            x.coefficient(0, 0) != 0
            or x.coefficient(1, 0) != 0
            or x.coefficient(0, 1) != 0
        ):
            raise ValueError("surface chart components need zero 1-jets")
    diff = x3.derivative(VAR_V) - x4.derivative(VAR_U)
    if not diff.is_zero:
        for i, j, c in diff.terms():
            raise ClosednessError((i, j), c)
    a = 2 * x3.coefficient(2, 0)
    b = x3.coefficient(1, 1)
    c = 2 * x3.coefficient(0, 2)
    e = 2 * x4.coefficient(0, 2)
    A = _euler_complement(x3)
    B = _euler_complement(x4)
    x5 = _potential(A, B)
    # contact pullback: theta_u = x5_u + u x3_u + v x4_u - x3 and its v-twin
    theta_u = x5.derivative(VAR_U) - A
    theta_v = x5.derivative(VAR_V) - B
    if not (theta_u.is_zero and theta_v.is_zero):
        raise InvariantError("contact pullback failed to vanish after integration")
    return LegendreSurfaceGerm((a, b, c, e), x3, x4, x5)


class OrdinaryPointClass(Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    NOT_ORDINARY = "not ordinary"


@dataclass(frozen=True)
class OrdinaryPointReport:
    tag: OrdinaryPointClass
    h_invariant: Fraction


def h_invariant(quad: Sequence[Fraction]) -> Fraction:
    a, b, c, e = quad
    return 4 * (a * c - b * b) * (b * e - c * c) - (a * e - b * c) ** 2


def ordinary_point_class(surface: LegendreSurfaceGerm) -> OrdinaryPointReport:
    """Hyperbolic/elliptic/parabolic verdict by the sign of the H invariant."""
    H = h_invariant(surface.quad)
    if surface.quad_rank < 2:
        return OrdinaryPointReport(OrdinaryPointClass.NOT_ORDINARY, H)
    if H < 0:
        return OrdinaryPointReport(OrdinaryPointClass.HYPERBOLIC, H)
    if H > 0:
        return OrdinaryPointReport(OrdinaryPointClass.ELLIPTIC, H)
    return OrdinaryPointReport(OrdinaryPointClass.PARABOLIC, H)


def transversal_slice(surface: LegendreSurfaceGerm) -> Tuple[Jet2, Jet2, Jet2]:
    """Slice of the tangent map along s = -u, t = -v, as (g1, g2, g3).

    The slice satisfies dg3 + u dg1 + v dg2 = 0 exactly; this is checked
    before returning, and an :class:`InvariantError` reports a failure.
    """
    g1 = _euler_complement(surface.x3)
    g2 = _euler_complement(surface.x4)
    g3 = _euler_complement(surface.x5)
    res_u, res_v = slice_frontality_residuals(g1, g2, g3)
    if not (res_u.is_zero and res_v.is_zero):
        raise InvariantError("slice frontality identity failed")
    return g1, g2, g3


def slice_frontality_residuals(g1: Jet2, g2: Jet2, g3: Jet2) -> Tuple[Jet2, Jet2]:
    """Components of dg3 + u dg1 + v dg2 (both vanish for genuine slices)."""
    ru = g3.derivative(VAR_U) + g1.derivative(VAR_U).mul_monomial(1, 0) + g2.derivative(
        VAR_U
    ).mul_monomial(0, 1)
    rv = g3.derivative(VAR_V) + g1.derivative(VAR_V).mul_monomial(1, 0) + g2.derivative(
        VAR_V
    ).mul_monomial(0, 1)
    ru, rv = align(ru, rv)
    return ru, rv


class SajiTag(Enum):
    D4_PLUS = "D4+"
    D4_MINUS = "D4-"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SajiResult:
    tag: SajiTag
    hessian_determinant: Optional[Fraction]
    reason: Optional[str] = None


def _det3(cols) -> Jet2:
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = cols
    return (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )


def saji_verdict(
    g: Sequence[Jet2], normal: Optional[Sequence[Jet2]] = None
) -> SajiResult:
    """Rank-zero plus Hessian-sign verdict for a three-component front germ.

    The identifier is det(g_u, g_v, nu) with the unnormalized normal
    nu = (u, v, 1) by default (valid along tangent-variety slices); the
    Hessian determinant 4 q20 q02 - q11^2 of its quadratic part decides
    the verdict.  The normal must annihilate dg: that pairing is checked at
    the full common truncation K of dg and nu.  lambda itself is formed from
    the 2-jets of dg and nu only, which is exact, because the terms of degree
    <= 2 of a product depend only on those of its factors.
    """
    g1, g2, g3 = g
    du = [x.derivative(VAR_U) for x in (g1, g2, g3)]
    dv = [x.derivative(VAR_V) for x in (g1, g2, g3)]
    if any(x.coefficient(0, 0) != 0 for x in du + dv):
        return SajiResult(
            SajiTag.INCONCLUSIVE, None, "differential at the origin has rank > 0"
        )
    K = min(x.truncation for x in du + dv)
    if normal is None:
        nu = (
            Jet2.variable(VAR_U, K),
            Jet2.variable(VAR_V, K),
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
    if K < 2:
        raise JetDomainError("truncation too small for the quadratic part")
    lam = _det3([[x.truncate(2) for x in col] for col in (du, dv, nu)])
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


def frontal_normal(g: Sequence[Jet2]) -> Tuple[Jet2, Jet2, Jet2]:
    """Normal field of a frontal three-component germ, from its cross product.

    Divides g_u x g_v by its lowest-order component, producing an exact
    normal jet that is a unit vector field up to scale (one component is 1).
    """
    g1, g2, g3 = g
    du = [x.derivative(VAR_U) for x in (g1, g2, g3)]
    dv = [x.derivative(VAR_V) for x in (g1, g2, g3)]
    cross = (
        du[1] * dv[2] - du[2] * dv[1],
        du[2] * dv[0] - du[0] * dv[2],
        du[0] * dv[1] - du[1] * dv[0],
    )
    orders = [c.order() for c in cross]
    finite = [o for o in orders if o is not ABOVE_TRUNCATION]
    if not finite:
        raise JetDomainError("degenerate differential: zero cross product")
    best = min(range(3), key=lambda i: orders[i] if orders[i] is not ABOVE_TRUNCATION else 10 ** 9)
    scale = cross[best]
    out = []
    for c in cross:
        q = c.divide(scale)
        if q is None:
            raise JetDomainError("no frontal normal at this truncation")
        out.append(q)
    return tuple(out)  # type: ignore[return-value]


# --------------------------------------------------------------------------
# tangent maps of Legendre surface germs in the Darboux chart
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RuledComponent:
    """A function of (u1, u2, s1, s2) of the form base + s1*c1 + s2*c2."""

    base: Jet2
    c1: Jet2
    c2: Jet2


@dataclass(frozen=True)
class SurfaceTangentMap:
    """Tangent map (Lambda, M, N) of a Legendre germ, with its certificate.

    ``residuals`` are the coefficients of dM - sum(nu_i dLambda_i -
    lambda_i dN_i) on the basis (ds1, ds2, du_j, s_k du_j); all vanish
    exactly up to ``verified_order`` for genuine Legendre input.
    """

    lam: Tuple[RuledComponent, RuledComponent]
    mu: RuledComponent
    nu: Tuple[RuledComponent, RuledComponent]
    residuals: Tuple[Tuple[str, Jet2], ...]
    verified_order: int

    @property
    def certificate_holds(self) -> bool:
        return all(r.is_zero for _, r in self.residuals)


def _legendre_form(lam, nu, var):
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


def surface_tangent_map(
    lam: Sequence[Jet2], nu: Sequence[Jet2], mu: Optional[Jet2] = None
) -> SurfaceTangentMap:
    """Tangent map of the Legendre germ (lambda, mu, nu) over a Darboux chart.

    If mu is omitted it is solved from d mu = sum(nu_i d lambda_i -
    lambda_i d nu_i); either way the input must satisfy that relation, and
    a :class:`LegendreConditionError` reports the failure otherwise.  The
    certificate identity is evaluated exactly on the stored jets.
    """
    lam = tuple(lam)
    nu = tuple(nu)
    if len(lam) != 2 or len(nu) != 2:
        raise ValueError("expected two lambda and two nu components")
    A = _legendre_form(lam, nu, VAR_U)
    B = _legendre_form(lam, nu, VAR_V)
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


# --------------------------------------------------------------------------
# quadric-locus membership for symmetric 3x3 matrices
# --------------------------------------------------------------------------


class VeroneseVerdict(Enum):
    ON_SURFACE = "on S"
    IN_TANGENT = "in Tan(S)"
    IN_SECANT_ONLY = "in Sec(S) only"
    OUTSIDE = "outside Sec(S)"


@dataclass(frozen=True)
class SymMatrix3:
    """Symmetric 3x3 rational matrix stored by its six upper entries."""

    a11: Fraction
    a12: Fraction
    a13: Fraction
    a22: Fraction
    a23: Fraction
    a33: Fraction

    @staticmethod
    def make(a11, a12, a13, a22, a23, a33) -> "SymMatrix3":
        return SymMatrix3(
            Fraction(a11), Fraction(a12), Fraction(a13),
            Fraction(a22), Fraction(a23), Fraction(a33),
        )

    @staticmethod
    def diag(d1, d2, d3) -> "SymMatrix3":
        return SymMatrix3.make(d1, 0, 0, d2, 0, d3)

    @staticmethod
    def from_rows(rows) -> "SymMatrix3":
        return SymMatrix3.make(
            rows[0][0], rows[0][1], rows[0][2], rows[1][1], rows[1][2], rows[2][2]
        )

    def rows(self):
        return (
            (self.a11, self.a12, self.a13),
            (self.a12, self.a22, self.a23),
            (self.a13, self.a23, self.a33),
        )

    @property
    def is_zero(self) -> bool:
        return all(
            x == 0
            for x in (self.a11, self.a12, self.a13, self.a22, self.a23, self.a33)
        )

    def det(self) -> Fraction:
        (a, b, c), (_, d, e), (_, _, f) = self.rows()
        return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)

    def principal_minor_sum(self) -> Fraction:
        """Sum of the principal 2x2 minors: the product of the nonzero
        eigenvalues whenever the rank is exactly two."""
        return (
            (self.a11 * self.a22 - self.a12 ** 2)
            + (self.a11 * self.a33 - self.a13 ** 2)
            + (self.a22 * self.a33 - self.a23 ** 2)
        )

    def rank(self) -> int:
        if self.det() != 0:
            return 3
        if self.principal_minor_sum() != 0:
            return 2
        return 0 if self.is_zero else 1


def veronese_membership(matrix: SymMatrix3) -> VeroneseVerdict:
    """Stratify a nonzero symmetric matrix against the rank-one quadric locus.

    Rank one lies on the surface itself; rank two belongs to the tangent
    variety exactly when its two nonzero eigenvalues have opposite signs
    (detected by the sign of the principal-minor sum); rank two semidefinite
    points lie on secants only, and rank three is outside the whole locus.
    """
    if matrix.is_zero:
        raise ValueError("zero matrix does not define a projective point")
    if matrix.det() != 0:
        return VeroneseVerdict.OUTSIDE
    m2 = matrix.principal_minor_sum()
    if m2 < 0:
        return VeroneseVerdict.IN_TANGENT
    if m2 > 0:
        return VeroneseVerdict.IN_SECANT_ONLY
    return VeroneseVerdict.ON_SURFACE
