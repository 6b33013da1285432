"""Arithmetic and expected verdicts that do not use the code under test.

Polynomials are dicts from exponent tuples to Fractions.  Everything the
benchmark checks a verdict against is computed here from the data the
generators drew, or stated here from the paper's classification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def scale(p: Poly, c) -> Poly:
    return {e: v * c for e, v in p.items() if v * c != 0}


def mul(p: Poly, q: Poly, max_degree: Optional[int] = None) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if max_degree is not None and sum(e) > max_degree:
                continue
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def deriv(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[var]
    return {e: c for e, c in out.items() if c != 0}


def truncate(p: Poly, max_degree: int) -> Poly:
    return {e: c for e, c in p.items() if sum(e) <= max_degree}


def jet2_dict(jet) -> Poly:
    """Nonzero coefficients of a two-variable jet, read through its public API."""
    return {(i, j): Fraction(c) for i, j, c in jet.terms()}


def poly_dict(poly) -> Poly:
    """Nonzero coefficients of a ``tanvar.polys.Poly``."""
    return {tuple(e): Fraction(c) for e, c in poly.terms if c != 0}


# --------------------------------------------------------------------------
# curves and tangent maps
# --------------------------------------------------------------------------


def tangent_map_dicts(components: Sequence[Dict[int, Fraction]], a1: int, K: int):
    """Components x(t) + s x'(t) / t^(a1-1) in (s, t), truncated at K - a1 + 1."""
    T2 = K - a1 + 1
    out = []
    for comp in components:
        f: Poly = {(0, k): c for k, c in comp.items() if k <= T2}
        for k, c in comp.items():
            if k >= a1 and k - a1 <= T2 - 1:
                f[(1, k - a1)] = f.get((1, k - a1), 0) + k * c
        out.append({e: c for e, c in f.items() if c != 0})
    return out, T2


def module_residual(h: Poly, g: Sequence[Poly], mults: Sequence[Poly], order: int) -> Poly:
    """dh - sum p_j dg_j in both 1-form components, through total degree ``order``."""
    residual: Poly = {}
    for var in (0, 1):
        terms = [truncate(deriv(h, var), order)]
        for p, gj in zip(mults, g):
            terms.append(scale(mul(p, truncate(deriv(gj, var), order), order), -1))
        for e, c in add(*terms).items():
            residual[(var,) + e] = c
    return residual


def membership_obstruction(h: Poly, a1: int, order: int) -> Optional[int]:
    """Lowest degree <= order of h_t(0,t) - t^(a1-1) h_s(0,t), or None.

    On a tangent map s = 0 gives f_s = v and f_t = t^(a1-1) v for every
    component, so any member h has this series zero through the examined
    order; a nonzero coefficient proves that the jet system is inconsistent.
    """
    g: Dict[int, Fraction] = {}
    for (i, j), c in h.items():
        if i == 0 and j >= 1:
            g[j - 1] = g.get(j - 1, 0) + j * c
        if i == 1:
            g[j + a1 - 1] = g.get(j + a1 - 1, 0) - c
    degrees = [d for d, c in g.items() if c != 0 and d <= order]
    return min(degrees) if degrees else None


# --------------------------------------------------------------------------
# surfaces
# --------------------------------------------------------------------------


def h_invariant(quad: Sequence[Fraction]) -> Fraction:
    a, b, c, e = quad
    return 4 * (a * c - b * b) * (b * e - c * c) - (a * e - b * c) ** 2


def quad_rank(quad: Sequence[Fraction]) -> int:
    a, b, c, e = quad
    if any(x != 0 for x in (a * c - b * b, a * e - b * c, b * e - c * c)):
        return 2
    return 1 if any(x != 0 for x in quad) else 0


def ordinary_class(quad: Sequence[Fraction]) -> str:
    if quad_rank(quad) < 2:
        return "not ordinary"
    H = h_invariant(quad)
    return "hyperbolic" if H < 0 else "elliptic" if H > 0 else "parabolic"


D4_BY_CLASS = {"hyperbolic": "D4+", "elliptic": "D4-", "parabolic": "inconclusive"}


def euler_complement(p: Poly) -> Poly:
    """X - u X_u - v X_v, termwise (1 - i - j) c."""
    return {e: (1 - sum(e)) * c for e, c in p.items() if sum(e) != 1}


# --------------------------------------------------------------------------
# strata and classification
# --------------------------------------------------------------------------


def codim_plain(A: Sequence[int]) -> int:
    return sum(a - i for i, a in enumerate(A, start=1))


def codim_flag(A: Sequence[int], k: int) -> int:
    N = len(A) - 1
    tail = sum(A[i - 1] - i for i in range(k, N + 2))
    return tail - (N - k + 1) * (A[k - 1] - k)


def contact_type(u: Sequence[int], v: int) -> Tuple[int, ...]:
    """Admissible contact type from orders: partial sums, then the mirror rule."""
    n = len(u)
    a = [0]
    for ui in u:
        a.append(a[-1] + ui)
    a.append(a[n] + v)
    for j in range(2, n + 2):
        a.append(a[n + 1] + a[n] - a[n + 1 - j])
    return tuple(a[1:])


def contact_admissible(A: Sequence[int]) -> bool:
    n = (len(A) - 1) // 2
    u = [A[0]] + [A[i] - A[i - 1] for i in range(1, n)]
    return tuple(A) == contact_type(u, A[n] - A[n - 1])


def codim_contact(A: Sequence[int]) -> int:
    n = (len(A) - 1) // 2
    return A[n] - (n + 1)


# The classification of tangent-variety singularities by type: ambient 3 by
# the whole type, higher ambient by the prefix (1,2,3) or a 4-entry prefix.
SINGULARITY_DIM3 = {
    (1, 2, 3): "cuspidal edge",
    (1, 2, 4): "folded umbrella",
    (2, 3, 4): "swallowtail",
    (1, 3, 4): "Mond surface",
}
SINGULARITY_PREFIX4 = {
    (1, 3, 4, 5): "open Mond surface",
    (2, 3, 4, 5): "open swallowtail",
    (1, 2, 4, 5): "open folded umbrella",
    (1, 3, 4, 6): "unfurled Mond surface",
}


def singularity(A: Sequence[int], contact: bool) -> str:
    A = tuple(A)
    if len(A) == 3:
        if A == (2, 3, 5) and contact:
            return "generic folded pleat"
        return SINGULARITY_DIM3.get(A, "unclassified")
    if A[:3] == (1, 2, 3):
        return "cuspidal edge"
    return SINGULARITY_PREFIX4.get(A[:4], "unclassified")


def generic_types(length: int, codim, admissible=lambda A: True) -> Iterable[Tuple[int, ...]]:
    """Types of codimension <= 1, by search over a_i - i nondecreasing in {0,1,2}."""
    def extend(prefix, low):
        if len(prefix) == length:
            if admissible(prefix) and codim(prefix) <= 1:
                yield prefix
            return
        i = len(prefix) + 1
        for excess in range(low, 3):
            yield from extend(prefix + (i + excess,), excess)

    return extend((), 0)


# --------------------------------------------------------------------------
# generating families and Morin openings
# --------------------------------------------------------------------------


def falling(n: int, d: int) -> int:
    out = 1
    for i in range(d):
        out *= n - i
    return out


def family_residuals(A: Sequence[int], solved: Sequence[Poly]) -> bool:
    """True when x_2.. = solved(t, x1) annihilates d^d F / dt^d for d < N.

    F = t^top + sum_j x_j t^(top - a_j) + x_{N+1}; the solved polynomials
    are in (t, x1).
    """
    N = len(A) - 1
    top = A[-1]
    exps = [top - A[j] for j in range(N)] + [0]
    if len(solved) != N:
        return False
    for d in range(N):
        terms = [{(top - d, 0): Fraction(falling(top, d))}]
        if exps[0] >= d:
            terms.append({(exps[0] - d, 1): Fraction(falling(exps[0], d))})
        for j in range(1, N + 1):
            if exps[j] >= d:
                terms.append(mul(solved[j - 1], {(exps[j] - d, 0): Fraction(falling(exps[j], d))}))
        if add(*terms):
            return False
    return True


def family_pattern(A: Sequence[int]) -> Optional[str]:
    A = tuple(A)
    N = len(A) - 1
    if A[:N] == tuple(range(1, N + 1)):
        return f"I(N={N}, r={A[N] - N})"
    for i in range(N):
        if A == tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3)):
            return f"II(N={N}, i={i})"
    if A == tuple(range(3, N + 4)):
        return f"III(N={N})"
    return None


def morin_generators_ok(k: int, m: int, opening) -> bool:
    """Base map, generator count, and d/dt G_(l) = t^l G with G_(l)(t=0) = 0.

    The (k, m) Morin map is F = t^(k+1) + sum_j l_j t^j (j < k) and
    G_i = sum_j m_i_j t^j (j <= k).
    """
    names = list(opening.variables)

    def monomial(t_power, name=None):
        e = [0] * len(names)
        e[0] = t_power
        if name:
            e[names.index(name)] = 1
        return tuple(e)

    if names[0] != "t" or opening.generator_count != 1 + k + (k - 1) * m:
        return False
    f_base = {monomial(k + 1): 1, **{monomial(j, f"l{j}"): 1 for j in range(1, k)}}
    if poly_dict(opening.f_base) != f_base or len(opening.g_base) != m:
        return False
    for i, g in enumerate(opening.g_base, 1):
        if poly_dict(g) != {monomial(j, f"m{i}_{j}"): 1 for j in range(1, k + 1)}:
            return False
    if len(opening.f_generators) != k or len(opening.g_generators) != m:
        return False
    pairs = [(opening.f_base, gen, ell) for ell, gen in enumerate(opening.f_generators, 1)]
    for base, row in zip(opening.g_base, opening.g_generators):
        if len(row) != k - 1:
            return False
        pairs += [(base, gen, ell) for ell, gen in enumerate(row, 1)]
    for base, gen, ell in pairs:
        g = poly_dict(gen)
        if add(deriv(g, 0), scale(mul({monomial(ell): 1}, poly_dict(base)), -1)):
            return False
        if any(e[0] == 0 for e in g):
            return False
    return True
