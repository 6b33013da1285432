"""Tangent maps of curve germs and their frontal structure.

The tangent map of a finite-type curve germ sweeps out the tangent lines:

    f(s, t) = gamma(t) + s * gamma'(t) / t^(a_1 - 1),

with the first type entry a_1 fixing the divisor that makes the frame
well-defined at a singular parameter value.  The two-variable jet
components carry s-degree at most one by construction.

For such maps the differentials of the higher components are combinations
of the first two, with coefficients given by quotients of 2x2 Wronskian
minors of the source curve.  Those quotients, when they exist at jet
level, form the lift data of the map; membership of a differential in the
module spanned by given differentials is decided by an exact linear solve
and returned with an explicit multiplier certificate either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from . import linalg
from .curves import CurveGerm, NotFiniteTypeError, NotFiniteTypeUpTo, TypeSequence, curve_type
from .jets import InvariantError, Jet1, Jet2, JetDomainError
from .polys import Poly, solve_ratfun_system
from .strata import MAX_TYPE_LENGTH

# variable layout for tangent-map jets: index 0 is the line parameter s,
# index 1 is the curve parameter t
VAR_S, VAR_T = 0, 1


class DivisibilityError(ValueError):
    """A component derivative is not divisible by the frame divisor."""

    def __init__(self, component_index: int, message: str):
        super().__init__(message)
        self.component_index = component_index


@dataclass(frozen=True)
class NotFrontalUpTo:
    """Verdict: the Wronskian quotients do not exist within this truncation."""

    truncation: int


@dataclass(frozen=True)
class LiftPair:
    """Coefficients P, Q with df_i = P df_1 + Q df_2 for one component i."""

    p: Jet1
    q: Jet1


@dataclass(frozen=True)
class TangentMapGerm:
    """Jet of the tangent map of a curve germ, with its source data."""

    components: Tuple[Jet2, ...]
    source: CurveGerm
    source_type: TypeSequence

    @property
    def ambient_dim(self) -> int:
        return len(self.components)

    @property
    def truncation(self) -> int:
        return self.components[0].truncation


def tangent_map(germ: CurveGerm) -> TangentMapGerm:
    """Construct the tangent-map jet of a finite-type curve germ."""
    t = curve_type(germ)
    if isinstance(t, NotFiniteTypeUpTo):
        raise NotFiniteTypeError(
            f"germ is not of finite type within truncation {t.truncation}"
        )
    a1 = t.entries[0]
    K = germ.truncation
    T2 = K - a1 + 1
    s = Jet2.variable(VAR_S, T2)
    comps: List[Jet2] = []
    for idx, x in enumerate(germ.components):
        v = x.derivative().shift_down(a1 - 1)
        if v is None:
            raise DivisibilityError(
                idx,
                f"component {idx + 1}: derivative not divisible by t^{a1 - 1}",
            )
        base = Jet2.from_jet1(x.truncate(T2), VAR_T, T2)
        ruling = s * Jet2.from_jet1(v, VAR_T, T2)
        comps.append(base + ruling)
    return TangentMapGerm(tuple(comps), germ, t)


def _wronskian(a1: Jet1, a2: Jet1, b1: Jet1, b2: Jet1) -> Jet1:
    return a1 * b2 - a2 * b1


def grassmann_lift(tmap: TangentMapGerm) -> Union[Tuple[LiftPair, ...], NotFrontalUpTo]:
    """Wronskian-quotient lift coefficients (P_i, Q_i) for components i >= 3.

    P_i = W_i2 / W_12 and Q_i = W_1i / W_12 with W_ij the 2x2 Wronskian of
    components i and j of the source curve.  Returns a frontality verdict
    when a quotient does not exist at this truncation; raises for a curve of
    one component, and when W_12 vanishes identically within truncation.
    """
    germ = tmap.source
    if germ.ambient_dim < 2:
        raise JetDomainError("the lift needs at least two curve components")
    K = germ.truncation
    d1 = [x.derivative().truncate(K - 2) for x in germ.components]
    d2 = [x.derivative().derivative() for x in germ.components]
    w12 = _wronskian(d1[0], d2[0], d1[1], d2[1])
    if w12.is_zero:
        raise JetDomainError("W_12 vanishes identically within truncation")
    pairs: List[LiftPair] = []
    for i in range(2, germ.ambient_dim):
        wi2 = _wronskian(d1[i], d2[i], d1[1], d2[1])
        w1i = _wronskian(d1[0], d2[0], d1[i], d2[i])
        p = wi2.divide(w12)
        q = w1i.divide(w12)
        if p is None or q is None:
            return NotFrontalUpTo(K)
        pairs.append(LiftPair(p, q))
    return tuple(pairs)


def lift_verified_order(tmap: TangentMapGerm, lift: Sequence[LiftPair]) -> int:
    """Largest total degree to which the lift identity can be checked."""
    orders = [tmap.truncation - 1]
    for pair in lift:
        orders.append(pair.p.truncation)
        orders.append(pair.q.truncation)
    return min(orders)


def lift_residuals(
    tmap: TangentMapGerm, lift: Sequence[LiftPair]
) -> Tuple[int, Tuple[Tuple[Jet2, Jet2], ...]]:
    """Residual 1-form components of df_i - P_i df_1 - Q_i df_2, per i >= 3.

    Returns (verified_order, residuals); each residual is the pair of
    ds- and dt-components as two-variable jets truncated at verified_order.
    All residuals vanish exactly when the lift is correct.
    """
    R = lift_verified_order(tmap, lift)
    ds = [c.derivative(VAR_S).truncate(R) for c in tmap.components]
    dt = [c.derivative(VAR_T).truncate(R) for c in tmap.components]
    residuals = []
    for i, pair in enumerate(lift, start=2):
        p = Jet2.from_jet1(pair.p.truncate(R), VAR_T, R)
        q = Jet2.from_jet1(pair.q.truncate(R), VAR_T, R)
        rs = ds[i] - p * ds[0] - q * ds[1]
        rt = dt[i] - p * dt[0] - q * dt[1]
        residuals.append((rs, rt))
    return R, tuple(residuals)


# --------------------------------------------------------------------------
# jet-level Jacobi-module membership
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OpeningCertificate:
    """Multipliers p_j with dh = sum p_j dg_j, checked to verified_order."""

    multipliers: Tuple[Jet2, ...]
    verified_order: int


@dataclass(frozen=True)
class Refuted:
    """Witness of an unsatisfiable coefficient equation in the membership solve.

    ``var`` is the 1-form component (0 or 1), ``monomial`` the bidegree at
    which the equations first become inconsistent.
    """

    var: int
    monomial: Tuple[int, int]
    detail: str


def _tri_monomials(max_degree: int):
    for d in range(max_degree + 1):
        for j in range(d + 1):
            yield d - j, j


def jacobi_membership(
    g: Sequence[Jet2], h: Jet2, order: int
) -> Union[OpeningCertificate, Refuted]:
    """Decide dh = sum_j p_j dg_j on jet coefficients up to the given order.

    Solves the exact linear system on the multiplier coefficients; among the
    solutions the minimal-degree one is returned (free coefficients zero).
    An inconsistent system yields the offending coefficient equation.

    Pivot rule: unknowns are ordered by total degree, then multiplier index,
    then monomial, and equations start in the order (1-form component,
    monomial).  Each unknown in turn takes as pivot the first equation at or
    below the current rank that involves it (see :mod:`tanvar.linalg`).
    Witnesses and multipliers are therefore exactly those of a dense
    Gauss-Jordan solve with the same rule.
    """
    E = min([order, h.truncation - 1] + [gj.truncation - 1 for gj in g])
    if E < 0:
        raise ValueError("no examinable coefficients at this truncation")
    dgs = [(gj.derivative(VAR_S).truncate(E), gj.derivative(VAR_T).truncate(E)) for gj in g]
    dhs = (h.derivative(VAR_S).truncate(E), h.derivative(VAR_T).truncate(E))
    monomials = list(_tri_monomials(E))
    unknowns = [(j, beta) for beta in monomials for j in range(len(g))]
    # order unknowns by total degree first so that zeroed free variables
    # leave the minimal-degree solution
    unknowns.sort(key=lambda u: (u[1][0] + u[1][1], u[0], u[1]))
    col_of = {u: c for c, u in enumerate(unknowns)}
    n = len(unknowns)
    labels = [(var, alpha) for var in (0, 1) for alpha in monomials]
    row_of = {label: r for r, label in enumerate(labels)}
    rows = [{} for _ in labels]
    for var in (0, 1):
        for bi, bj, c in dhs[var].terms():
            rows[row_of[(var, (bi, bj))]][n] = c
        for j, dg in enumerate(dgs):
            for bi, bj, c in dg[var].terms():
                for beta in monomials:
                    alpha = (bi + beta[0], bj + beta[1])
                    if alpha[0] + alpha[1] > E:
                        break
                    rows[row_of[(var, alpha)]][col_of[(j, beta)]] = c
    sol = linalg.solve(rows, n)
    if isinstance(sol, linalg.Inconsistent):
        var, alpha = labels[sol.row]
        return Refuted(
            var,
            alpha,
            f"coefficient equation at 1-form component {var}, "
            f"monomial {alpha} reduces to 0 = {sol.value}",
        )
    multipliers = tuple(
        Jet2.from_terms(
            ((beta[0], beta[1], sol[col_of[(j, beta)]]) for beta in monomials), E
        )
        for j in range(len(g))
    )
    return OpeningCertificate(multipliers, E)


def verify_certificate(g: Sequence[Jet2], h: Jet2, cert: OpeningCertificate) -> bool:
    """Re-check a membership certificate by direct substitution."""
    E = cert.verified_order
    if h.truncation - 1 < E or any(gj.truncation - 1 < E for gj in g):
        raise ValueError("operands hold less information than the certificate claims")
    for var in (0, 1):
        res = h.derivative(var).truncate(E)
        for p, gj in zip(cert.multipliers, g):
            res = res - p.truncate(E) * gj.derivative(var).truncate(E)
        if not res.is_zero:
            return False
    return True


def opening_check(
    tmap: TangentMapGerm,
) -> Union[Tuple[OpeningCertificate, ...], NotFrontalUpTo]:
    """Certificates that each df_i (i >= 3) lies in the module of (df_1, df_2).

    The multipliers are the Wronskian-quotient lift coefficients, embedded as
    two-variable jets constant in s.  Each certificate is re-verified before
    being returned; an :class:`InvariantError` reports a failure.
    """
    lift = grassmann_lift(tmap)
    if isinstance(lift, NotFrontalUpTo):
        return lift
    R, residuals = lift_residuals(tmap, lift)
    certs = []
    g = (tmap.components[0], tmap.components[1])
    for i, pair in enumerate(lift):
        rs, rt = residuals[i]
        if not (rs.is_zero and rt.is_zero):
            raise InvariantError(
                f"lift identity failed for component {i + 3}: nonzero residual"
            )
        mult = (
            Jet2.from_jet1(pair.p.truncate(R), VAR_T, R),
            Jet2.from_jet1(pair.q.truncate(R), VAR_T, R),
        )
        certs.append(OpeningCertificate(mult, R))
    return tuple(certs)


# --------------------------------------------------------------------------
# closed-form versal openings of Morin polynomial maps
# --------------------------------------------------------------------------

#: most variables, k*(m+1), that a Morin table may have
MAX_MORIN_VARIABLES = 256


@dataclass(frozen=True)
class MorinOpening:
    """Base polynomials and opening generators of the (k, m) Morin map.

    The base map is (F, G_1..G_m, parameters); the ramification module is
    generated by 1 together with the weighted integrals stored here:
    F integrated with weights 1..k and each G_i with weights 1..k-1.
    """

    k: int
    m: int
    variables: Tuple[str, ...]
    f_base: Poly
    g_base: Tuple[Poly, ...]
    f_generators: Tuple[Poly, ...]
    g_generators: Tuple[Tuple[Poly, ...], ...]

    @property
    def generator_count(self) -> int:
        # counts the constant generator 1 as well
        return 1 + self.k + (self.k - 1) * self.m


def morin_versal_opening(k: int, m: int) -> MorinOpening:
    """Exact generator table for the versal opening of the (k, m) Morin map."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if k * (m + 1) > MAX_MORIN_VARIABLES:
        raise ValueError(f"variable count k*(m+1) = {k * (m + 1)} exceeds {MAX_MORIN_VARIABLES}")
    lam = [f"l{j}" for j in range(1, k)]
    mu = [[f"m{i}_{j}" for j in range(1, k + 1)] for i in range(1, m + 1)]
    variables = tuple(["t"] + lam + [name for row in mu for name in row])
    f = Poly.monomial(1, [k + 1 if v == "t" else 0 for v in variables], variables)
    for j, name in enumerate(lam, start=1):
        e = [0] * len(variables)
        e[0] = j
        e[list(variables).index(name)] = 1
        f = f + Poly.monomial(1, e, variables)
    gs = []
    for i in range(m):
        gi = Poly.zero(variables)
        for j, name in enumerate(mu[i], start=1):
            e = [0] * len(variables)
            e[0] = j
            e[list(variables).index(name)] = 1
            gi = gi + Poly.monomial(1, e, variables)
        gs.append(gi)
    f_gens = tuple(f.weighted_integral("t", ell) for ell in range(1, k + 1))
    g_gens = tuple(
        tuple(gi.weighted_integral("t", ell) for ell in range(1, k))
        for gi in gs
    )
    return MorinOpening(k, m, variables, f, tuple(gs), f_gens, g_gens)


# --------------------------------------------------------------------------
# tangent varieties from generating families
# --------------------------------------------------------------------------


class GeneratingFamilyError(ValueError):
    """Type outside the supported patterns, or longer than the type cap."""


@dataclass(frozen=True)
class GeneratingFamilySolution:
    """Eliminated parametrization of a tangent variety from its family.

    ``solved[j]`` expresses x_{j+2} as an exact polynomial in (t, x1); the
    family itself is kept for reporting.
    """

    type_sequence: TypeSequence
    pattern: str
    family: Poly
    solved: Tuple[Poly, ...]


def _match_pattern(A: TypeSequence) -> str:
    entries = A.entries
    N = len(entries) - 1
    if N < 1:
        raise GeneratingFamilyError("need at least two type entries")
    # pattern I: (1, 2, ..., N, N + r)
    if entries[:N] == tuple(range(1, N + 1)):
        r = entries[N] - N
        return f"I(N={N}, r={r})"
    # pattern II: (1, ..., i, i+2, ..., N+1, N+2) for 0 <= i <= N-1
    for i in range(0, N):
        want = tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3))
        if entries == want:
            return f"II(N={N}, i={i})"
    # pattern III: (3, 4, ..., N+2, N+3)
    if entries == tuple(range(3, N + 4)):
        return f"III(N={N})"
    raise GeneratingFamilyError(f"type {A} matches none of the supported patterns")


def generating_family_tangent(A: TypeSequence) -> GeneratingFamilySolution:
    """Solve the envelope system of the one-parameter family attached to a type.

    The family is F(t, x) = t^{a_m} + x_1 t^{a_m - a_1} + ... + x_{m-1} t^{a_m - a_{m-1}}
    + x_m; the parametrization solves F and its first N-1 t-derivatives for
    x_2..x_m with x_1 free.

    Write top = a_m and e_j for the t-exponent of x_{j+1}, so e_0 = top - a_1
    exceeds every other e_j.  Row d of the system (the d-th t-derivative) is

        sum_j falling(e_j, d) t^(e_j - d) x_{j+1}
            = -falling(top, d) t^(top - d) - falling(e_0, d) t^(e_0 - d) x_1.

    The substitution x_{j+1} = c_j t^(top - e_j) + l_j x_1 t^(e_0 - e_j)
    turns row d into t^(top - d) and t^(e_0 - d) times two constant systems
    sum_j falling(e_j, d) y_j = -falling(s, d) over the nodes e_1..e_N, with
    target s = top for the c_j and s = e_0 for the l_j.  The type entries
    strictly increase, so the nodes are distinct and both targets lie above
    them; :func:`tanvar.polys.solve_ratfun_system` gives each solution in
    closed form.  The system over Q(t) is this square system with its rows
    and columns scaled by powers of t, so its unique solution is this one,
    and each x_{j+1} is a polynomial of two monomials in (t, x_1).
    """
    if len(A) > MAX_TYPE_LENGTH:
        raise GeneratingFamilyError(f"type length {len(A)} exceeds {MAX_TYPE_LENGTH}")
    pattern = _match_pattern(A)
    entries = A.entries
    N = len(entries) - 1
    top = entries[-1]
    exps = [top - entries[j] for j in range(N)] + [0]  # exponents of x_1..x_{N+1}
    const, lin = solve_ratfun_system(exps[1:], [top, exps[0]])
    out_vars = ("t", "x1")
    solved = tuple(
        Poly._normal(out_vars, {(top - e, 0): c, (exps[0] - e, 1): l})
        for e, c, l in zip(exps[1:], const, lin)
    )
    fam_vars = tuple(["t"] + [f"x{j}" for j in range(1, N + 2)])
    family = Poly.monomial(1, [top] + [0] * (N + 1), fam_vars)
    for j in range(1, N + 2):
        e = [0] * len(fam_vars)
        e[0] = exps[j - 1]
        e[j] = 1
        family = family + Poly.monomial(1, e, fam_vars)
    return GeneratingFamilySolution(A, pattern, family, solved)
