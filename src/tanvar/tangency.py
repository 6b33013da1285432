"""Tangent maps of curve germs and their frontal structure.

The tangent map of a finite-type curve germ sweeps out the tangent lines:

    f(s, t) = gamma(t) + s * gamma'(t) / t^(a_1 - 1),

with the first type entry a_1 fixing the divisor that makes the frame
well-defined at a singular parameter value.  The two-variable jet
components carry s-degree at most one by construction.

For such maps the differentials of the higher components are combinations
of the first two, with coefficients given by quotients of 2x2 Wronskian
minors of the source curve.  Those quotients, when they exist at jet
level, form the lift data of the map, and the map being affine in s
reduces their residual check to one-variable identities.  Membership of a
differential in the module spanned by given differentials is returned with
an explicit certificate either way: the multipliers, or the coefficient
equation that fails.  For two generators with a Jacobian determinant D
that does not vanish within truncation, Cramer's rule fixes every
multiplier coefficient below the top ord D degrees and only that band is
eliminated; otherwise, and for every refutation, the whole coefficient
system is solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import linalg
from .curves import CurveGerm, NotFiniteTypeError, NotFiniteTypeUpTo, TypeSequence, curve_type
from .jets import MAX_TRUNCATION_2, InvariantError, Jet1, Jet2, JetDomainError
from .polys import Poly, solve_ratfun_system

# variable layout for tangent-map jets: index 0 is the line parameter s,
# index 1 is the curve parameter t
VAR_S, VAR_T = 0, 1


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
    """Construct the tangent-map jet of a finite-type curve germ.

    The map has truncation K - a1 + 1, so K may be at most
    ``MAX_TRUNCATION_2 + a1 - 1``; a longer germ is refused before any jet is built.
    """
    t = curve_type(germ)
    if isinstance(t, NotFiniteTypeUpTo):
        raise NotFiniteTypeError(
            f"germ is not of finite type within truncation {t.truncation}"
        )
    a1 = t.entries[0]
    K = germ.truncation
    T2 = K - a1 + 1
    if T2 > MAX_TRUNCATION_2:
        raise JetDomainError(
            f"truncation {K} exceeds {MAX_TRUNCATION_2 + a1 - 1}, "
            f"the largest the tangent map of a curve with a1 = {a1} supports"
        )
    comps: List[Jet2] = []
    for idx, x in enumerate(germ.components):
        v = x.derivative().shift_down(a1 - 1)
        if v is None:
            # a1 is the least order of any component, so this cannot happen
            raise InvariantError(f"component {idx + 1}: derivative not divisible by t^{a1 - 1}")
        # gamma at s-degree 0, delta at s-degree 1; from_terms drops degrees above T2
        terms = [(0, k, c) for k, c in x.terms()] + [(1, k, c) for k, c in v.terms()]
        comps.append(Jet2.from_terms(terms, T2))
    return TangentMapGerm(tuple(comps), germ, t)


def _wronskian(a1: Jet1, a2: Jet1, b1: Jet1, b2: Jet1) -> Jet1:
    return a1 * b2 - a2 * b1


def grassmann_lift(tmap: TangentMapGerm) -> Union[Tuple[LiftPair, ...], NotFrontalUpTo]:
    """Wronskian-quotient lift coefficients (P_i, Q_i) for components i >= 3.

    P_i = W_i2 / W_12 and Q_i = W_1i / W_12 with W_ij the 2x2 Wronskian of
    components i and j of the source curve.  A plane curve needs no lift and
    gets no pairs.  Returns a frontality verdict when W_12 vanishes
    identically within truncation or a quotient does not exist at this
    truncation; raises for a curve of one component.
    """
    germ = tmap.source
    if germ.ambient_dim < 2:
        raise JetDomainError("the lift needs at least two curve components")
    if germ.ambient_dim == 2:
        return ()
    K = germ.truncation
    d1 = [x.derivative().truncate(K - 2) for x in germ.components]
    d2 = [x.derivative().derivative() for x in germ.components]
    w12 = _wronskian(d1[0], d2[0], d1[1], d2[1])
    if w12.is_zero:
        return NotFrontalUpTo(K)
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

    The map is affine in s: f_i = gamma_i + s delta_i with
    gamma_i' = t^(a1 - 1) delta_i.  So the ds-component is the one-variable
    u = delta_i - P delta_1 - Q delta_2, and the dt-component is t^(a1 - 1) u
    plus s times delta_i' - P delta_1' - Q delta_2'.
    """
    R = lift_verified_order(tmap, lift)
    a1 = tmap.source_type.entries[0]
    # delta_i is the s-coefficient of f_i.  Its derivative is exact below
    # degree R; the degree-R slot stays 0, and the s t^R term it would feed
    # lies above the truncation.
    deltas = [Jet1(tuple(c.coefficient(1, k) for k in range(R + 1))) for c in tmap.components]
    slopes = [Jet1.from_terms(((k - 1, k * c) for k, c in d.terms() if k), R) for d in deltas]
    residuals = []
    for i, pair in enumerate(lift, start=2):
        p, q = pair.p.truncate(R), pair.q.truncate(R)
        u = deltas[i] - p * deltas[0] - q * deltas[1]
        v = slopes[i] - p * slopes[0] - q * slopes[1]
        rs = Jet2.from_terms(((0, k, c) for k, c in u.terms()), R)
        rt = Jet2.from_terms(
            [(0, k + a1 - 1, c) for k, c in u.terms()] + [(1, k, c) for k, c in v.terms()], R
        )
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


def _tri_monomials(low: int, high: int):
    for d in range(low, high + 1):
        for j in range(d + 1):
            yield d - j, j


def _solve_degrees(
    dgs: Sequence[Tuple[Jet2, Jet2]], rhs: Tuple[Jet2, Jet2], E: int, low: int
) -> Union[List[List[Tuple[int, int, Fraction]]], Refuted]:
    """Coefficients in degrees low..E of p_j with sum_j p_j dg_j = rhs there.

    Forms only the unknowns and the coefficient equations of total degree
    low..E, so ``rhs`` must vanish below ``low`` (the whole system when
    ``low`` is 0).  Returns each multiplier's terms, or the first
    inconsistent equation as a :class:`Refuted`.
    """
    monomials = list(_tri_monomials(low, E))
    unknowns = [(j, beta) for beta in monomials for j in range(len(dgs))]
    # order unknowns by total degree first so that zeroed free variables
    # leave the minimal-degree solution
    unknowns.sort(key=lambda u: (u[1][0] + u[1][1], u[0], u[1]))
    col_of = {u: c for c, u in enumerate(unknowns)}
    n = len(unknowns)
    labels = [(var, alpha) for var in (0, 1) for alpha in monomials]
    row_of = {label: r for r, label in enumerate(labels)}
    rows = [{} for _ in labels]
    for var in (0, 1):
        for bi, bj, c in rhs[var].terms():
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
    return [
        [(beta[0], beta[1], sol[col_of[(j, beta)]]) for beta in monomials] for j in range(len(dgs))
    ]


def _cramer_terms(
    dgs: Sequence[Tuple[Jet2, Jet2]], dhs: Tuple[Jet2, Jet2], E: int
) -> Optional[List[List[Tuple[int, int, Fraction]]]]:
    """Multiplier terms of two generators by Cramer's rule and a band solve.

    None when D = det J vanishes within truncation or the system turns out
    inconsistent; :func:`jacobi_membership` then runs the full solve.
    """
    D = _wronskian(*dgs[0], *dgs[1])
    if D.is_zero:
        return None
    L = E - D.order()
    low = []
    # N_1 = det(dh, dg2), then N_2 = det(dg1, dh), formed only when N_1 divides
    for left, right in ((dhs, dgs[1]), (dgs[0], dhs)):
        q = _wronskian(*left, *right).divide(D)
        if q is None:
            return None
        low.append(Jet2.from_terms(q.terms(), E))
    # D * residual vanishes to order E, so the residual starts above degree L
    residual = tuple(dhs[v] - low[0] * dgs[0][v] - low[1] * dgs[1][v] for v in (0, 1))
    band = _solve_degrees(dgs, residual, E, L + 1)
    if isinstance(band, Refuted):
        return None
    return [list(q.terms()) + b for q, b in zip(low, band)]


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

    Two generators take a shorter road to the same answer.  With J the
    Jacobian of (g1, g2) and D = det J, every solution satisfies
    p_1 D = N_1 = h_s g2_t - g2_s h_t and p_2 D = N_2 = g1_s h_t - h_s g1_t
    modulo degree E + 1.  So when D does not vanish within truncation and
    both quotients exist, they fix every multiplier coefficient up to degree
    L = E - ord D, and only the band of degrees L + 1..E is eliminated,
    against the residual of dh.  The low coefficients are shared by all
    solutions, so they are pivots of the full solve, and no dependency among
    band columns involves them; the band, eliminated in the same column
    order, therefore has the same pivots and the same minimal solution.
    A missing quotient or an inconsistent band means no solution exists;
    then, as for other generator counts, the full system is solved, which
    gives the witness its row order fixes.
    """
    E = min([order, h.truncation - 1] + [gj.truncation - 1 for gj in g])
    if E < 0:
        raise ValueError("no examinable coefficients at this truncation")
    dgs = [(gj.derivative(VAR_S).truncate(E), gj.derivative(VAR_T).truncate(E)) for gj in g]
    dhs = (h.derivative(VAR_S).truncate(E), h.derivative(VAR_T).truncate(E))
    terms = _cramer_terms(dgs, dhs, E) if len(g) == 2 else None
    if terms is None:
        terms = _solve_degrees(dgs, dhs, E, 0)
        if isinstance(terms, Refuted):
            return terms
    return OpeningCertificate(tuple(Jet2.from_terms(t, E) for t in terms), E)


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


def _t_power_sum(variables: Tuple[str, ...], pairs, lead: Optional[int] = None) -> Poly:
    """Sum of t^p times variable ``pos`` over the (p, pos) pairs, plus t^lead
    when given; t is variable 0 and every coefficient is 1."""
    n = len(variables)
    monomials = [] if lead is None else [(lead,) + (0,) * (n - 1)]
    for p, pos in pairs:
        e = [0] * n
        e[0], e[pos] = p, 1
        monomials.append(tuple(e))
    return Poly._normal(variables, dict.fromkeys(monomials, Fraction(1)))


def morin_versal_opening(k: int, m: int) -> MorinOpening:
    """Exact generator table for the versal opening of the (k, m) Morin map."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if k * (m + 1) > MAX_MORIN_VARIABLES:
        raise ValueError(f"variable count k*(m+1) = {k * (m + 1)} exceeds {MAX_MORIN_VARIABLES}")
    # l_j sits at position j and m{i}_j at i*k + j - 1
    variables = (
        "t",
        *(f"l{j}" for j in range(1, k)),
        *(f"m{i}_{j}" for i in range(1, m + 1) for j in range(1, k + 1)),
    )
    f = _t_power_sum(variables, ((j, j) for j in range(1, k)), lead=k + 1)
    gs = [
        _t_power_sum(variables, ((j, i * k + j - 1) for j in range(1, k + 1)))
        for i in range(1, m + 1)
    ]
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
    """Type outside the supported patterns."""


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
    fam_vars = ("t", *(f"x{j}" for j in range(1, N + 2)))
    family = _t_power_sum(fam_vars, zip(exps, range(1, N + 2)), lead=top)
    return GeneratingFamilySolution(A, pattern, family, solved)
