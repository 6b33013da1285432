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
three-dimensional umbrella-point classes.  The identity has one formula,
:func:`slice_frontality_residuals`.  :func:`transversal_slice` checks it and
returns a :class:`Slice`; the default verdict checks it again only for a
germ that is not a :class:`Slice` (a plain tuple), so each path to a verdict
checks it once.  The slice reuses the Euler complements of x3 and x4 that
the completion built for the potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .jets import InvariantError, Jet2, JetDomainError, align

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
    #: the Euler complements (A, B) of x3 and x4, which become the slice's g1, g2
    complements: Tuple[Jet2, Jet2] = field(compare=False, repr=False)

    @property
    def truncation(self) -> int:
        return self.x3.truncation


def complete_to_legendre(x3: Jet2, x4: Jet2) -> LegendreSurfaceGerm:
    """Solve for x5 from (x3, x4) and package the integral surface germ.

    Requires truncation at least 2, zero constant and linear parts and the
    integrability condition x3_v = x4_u (checked coefficientwise; the first
    offending coefficient is reported), under which dx5 = A du + B dv with A
    and B the Euler complements of x3 and x4, which the germ keeps for the
    slice.  The contact pullback vanishing is re-checked exactly; an
    :class:`InvariantError` reports a failure.
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
    return LegendreSurfaceGerm((a, b, c, e), x3, x4, x5, (A, B))


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
    a, b, c, e = surface.quad
    H = h_invariant(surface.quad)
    # rank two needs a nonzero 2x2 minor of ((a, b, c), (b, c, e))
    if a * c == b * b and a * e == b * c and b * e == c * c:
        return OrdinaryPointReport(OrdinaryPointClass.NOT_ORDINARY, H)
    if H < 0:
        return OrdinaryPointReport(OrdinaryPointClass.HYPERBOLIC, H)
    if H > 0:
        return OrdinaryPointReport(OrdinaryPointClass.ELLIPTIC, H)
    return OrdinaryPointReport(OrdinaryPointClass.PARABOLIC, H)


class Slice(NamedTuple):
    """A slice (g1, g2, g3) whose identity dg3 + u dg1 + v dg2 = 0 was checked.

    Only :func:`transversal_slice` builds one; :func:`saji_verdict` trusts the
    identity of a :class:`Slice` and checks it again for any other germ.
    """

    g1: Jet2
    g2: Jet2
    g3: Jet2


def transversal_slice(surface: LegendreSurfaceGerm) -> Slice:
    """Slice of the tangent map along s = -u, t = -v, as (g1, g2, g3).

    g1 and g2 are the Euler complements of x3 and x4, which the completion
    built.  The slice satisfies dg3 + u dg1 + v dg2 = 0 exactly; this is
    checked before returning, and an :class:`InvariantError` reports a failure.
    """
    g1, g2 = surface.complements
    g3 = _euler_complement(surface.x5)
    res_u, res_v = slice_frontality_residuals(g1, g2, g3)
    if not (res_u.is_zero and res_v.is_zero):
        raise InvariantError("slice frontality identity failed")
    return Slice(g1, g2, g3)


def _partials(g: Sequence[Jet2]) -> Tuple[List[Jet2], List[Jet2]]:
    """(g_u, g_v) of a germ of exactly three components, one list each."""
    g1, g2, g3 = g
    return tuple([x.derivative(var) for x in (g1, g2, g3)] for var in (VAR_U, VAR_V))


def slice_frontality_residuals(g1: Jet2, g2: Jet2, g3: Jet2) -> Tuple[Jet2, Jet2]:
    """Components of dg3 + u dg1 + v dg2 (both vanish for genuine slices).

    Evaluated as d(g3 + u g1 + v g2) - (g1 du + g2 dv), the same jet by the
    product rule, so only one jet is differentiated.  Mixed truncations are
    aligned: both residuals are exact to order min(T3 - 1, T1, T2).
    """
    x3, x1, x2 = align(g3, g1.mul_monomial(1, 0), g2.mul_monomial(0, 1))
    h = x3 + x1 + x2
    hu, g1 = align(h.derivative(VAR_U), g1)
    hv, g2 = align(h.derivative(VAR_V), g2)
    return hu - g1, hv - g2


class SajiTag(Enum):
    D4_PLUS = "D4+"
    D4_MINUS = "D4-"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SajiResult:
    tag: SajiTag
    hessian_determinant: Optional[Fraction]
    reason: Optional[str] = None


def _cross(a: Sequence[Jet2], b: Sequence[Jet2]) -> Tuple[Jet2, Jet2, Jet2]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def saji_verdict(
    g: Sequence[Jet2], normal: Optional[Sequence[Jet2]] = None
) -> SajiResult:
    """Rank-zero plus Hessian-sign verdict for a three-component front germ.

    The identifier is det(g_u, g_v, nu) with the unnormalized normal
    nu = (u, v, 1) by default (valid along tangent-variety slices); the
    Hessian determinant 4 q20 q02 - q11^2 of its quadratic part decides
    the verdict.  The normal must annihilate dg at the full common truncation
    K of dg and nu: for the default normal that pairing is the slice identity
    of :func:`slice_frontality_residuals`, and a supplied one is paired with
    the full-order partials.  A :class:`Slice` with the default normal skips
    that pairing: :func:`transversal_slice` checked its identity to order
    K + 1.  lambda is formed from the 2-jets of dg and nu only, read from the
    3-jets of g, which is exact, because the terms of degree <= 2 of a
    product depend only on those of its factors.
    """
    if normal is not None:
        normal = tuple(normal)
        if len(normal) != 3:
            raise ValueError("the normal needs exactly three components")
    du, dv = _partials([x.truncate(min(x.truncation, 3)) for x in g])
    if any(x.coefficient(0, 0) != 0 for x in du + dv):
        return SajiResult(SajiTag.INCONCLUSIVE, None, "differential at the origin has rank > 0")
    K = min(x.truncation for x in g) - 1
    if normal is None:
        if isinstance(g, Slice):  # transversal_slice checked its identity
            pairings = []
        else:
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


def frontal_normal(g: Sequence[Jet2]) -> Tuple[Jet2, Jet2, Jet2]:
    """Normal field of a frontal three-component germ, from its cross product.

    Divides g_u x g_v by its lowest-order component, producing an exact
    normal jet that is a unit vector field up to scale (one component is 1).
    """
    cross = _cross(*_partials(g))
    scale = min(cross, key=lambda c: c.order())  # the first of least order
    if scale.is_zero:
        raise JetDomainError("degenerate differential: zero cross product")
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

    def partial(self, var: int) -> Jet2:
        """base_u or base_v, which the ruled components store as c1 and c2."""
        return (self.c1, self.c2)[var]


def _ruled(x: Jet2) -> RuledComponent:
    return RuledComponent(x, x.derivative(VAR_U), x.derivative(VAR_V))


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
        ni_t, dl_t = align(ni.base, li.partial(var))
        li_t, dn_t = align(li.base, ni.partial(var))
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
    certificate identity is evaluated exactly on the stored jets, and each
    first partial of lambda, nu and mu is taken once, in its ruled component.
    """
    lam = tuple(lam)
    nu = tuple(nu)
    if len(lam) != 2 or len(nu) != 2:
        raise ValueError("expected two lambda and two nu components")
    lam_r, nu_r = tuple(map(_ruled, lam)), tuple(map(_ruled, nu))
    A = _legendre_form(lam_r, nu_r, VAR_U)
    B = _legendre_form(lam_r, nu_r, VAR_V)
    closed = A.derivative(VAR_V) - B.derivative(VAR_U)
    if not closed.is_zero:
        raise LegendreConditionError(
            "the contact relation admits no mu: the defining 1-form is not closed"
        )
    mu_r = _ruled(_potential(A, B) if mu is None else mu)
    # ds_j coefficients: mu_{,j} - sum(nu_i lam_{i,j} - lam_i nu_{i,j})
    first_order = []
    for var, form in ((VAR_U, A), (VAR_V, B)):
        dmu, form_t = align(mu_r.partial(var), form)
        first_order.append(dmu - form_t)
    if mu is not None and not all(r.is_zero for r in first_order):
        raise LegendreConditionError("mu does not satisfy the contact relation")
    residuals = [("ds1", first_order[VAR_U]), ("ds2", first_order[VAR_V])]
    # du_j coefficients: base part repeats ds_j; s_k parts use second derivatives
    for j, varj in (("1", VAR_U), ("2", VAR_V)):
        residuals.append((f"du{j}", first_order[varj]))
        for k, vark in (("1", VAR_U), ("2", VAR_V)):
            acc = mu_r.partial(varj).derivative(vark)
            for li, ni in zip(lam_r, nu_r):
                dd_l = li.partial(varj).derivative(vark)
                dd_n = ni.partial(varj).derivative(vark)
                ni_t, dd_l_t = align(ni.base, dd_l)
                li_t, dd_n_t = align(li.base, dd_n)
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
    IN_SECANT_ONLY = "in Sec(S) \\ Tan(S)"
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
