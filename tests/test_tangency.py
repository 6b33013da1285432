import math
from fractions import Fraction as F

import pytest

from conftest import random_germ_of_type
from tanvar import linalg
from tanvar.curves import CurveGerm, TypeSequence
from tanvar.jets import Jet1, Jet2, equal_as_polynomials
from tanvar.polys import solve_ratfun_system
from tanvar.strata import MAX_TYPE_LENGTH
from tanvar.tangency import (
    GeneratingFamilyError,
    NotFrontalUpTo,
    OpeningCertificate,
    Refuted,
    generating_family_tangent,
    grassmann_lift,
    jacobi_membership,
    lift_residuals,
    morin_versal_opening,
    opening_check,
    tangent_map,
    verify_certificate,
)


def monomial_curve(*entries, K=None):
    A = TypeSequence.of(*entries)
    return CurveGerm.monomial(A, K or (max(entries) + 4))


def st_jet(terms, K):
    return Jet2.from_terms(terms, K)


# -- tangent map construction -----------------------------------------------------


def test_tangent_map_immersed_curve():
    tm = tangent_map(monomial_curve(1, 2, 3))
    K = tm.truncation
    assert tm.components[0] == st_jet([(1, 0, 1), (0, 1, 1)], K)
    assert tm.components[1] == st_jet([(0, 2, 1), (1, 1, 2)], K)
    assert tm.components[2] == st_jet([(0, 3, 1), (1, 2, 3)], K)


def test_tangent_map_cusped_curve():
    tm = tangent_map(monomial_curve(2, 3, 4))
    K = tm.truncation
    assert tm.components[0] == st_jet([(0, 2, 1), (1, 0, 2)], K)
    assert tm.components[1] == st_jet([(0, 3, 1), (1, 1, 3)], K)
    assert tm.components[2] == st_jet([(0, 4, 1), (1, 2, 4)], K)


def test_tangent_map_plane_curve():
    tm = tangent_map(monomial_curve(1, 2))
    K = tm.truncation
    assert tm.components == (
        st_jet([(1, 0, 1), (0, 1, 1)], K),
        st_jet([(0, 2, 1), (1, 1, 2)], K),
    )


# -- lift coefficients ----------------------------------------------------------------


def test_lift_orders_immersed():
    tm = tangent_map(monomial_curve(1, 2, 3, K=10))
    (pair,) = grassmann_lift(tm)
    assert pair.p.order() == 2  # a3 - a1
    assert pair.q.order() == 1  # a3 - a2


def test_lift_orders_type_134():
    tm = tangent_map(monomial_curve(1, 3, 4, K=10))
    (pair,) = grassmann_lift(tm)
    assert pair.p.order() == 3
    assert pair.q.order() == 1


def test_lift_orders_across_normal_form_table():
    from tanvar.classify import NORMAL_FORM_TYPES

    for entries in NORMAL_FORM_TYPES:
        tm = tangent_map(monomial_curve(*entries, K=max(entries) + 6))
        lift = grassmann_lift(tm)
        a1, a2 = entries[0], entries[1]
        for i, pair in enumerate(lift, start=2):
            assert pair.p.order() == entries[i] - a1, entries
            assert pair.q.order() == entries[i] - a2, entries


def test_lift_empty_for_plane_curves():
    tm = tangent_map(monomial_curve(1, 2, K=8))
    assert grassmann_lift(tm) == ()


def test_lift_identity_exact_on_random_germs(rng):
    pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 4, 5), (1, 3, 4, 6)]
    checked = 0
    for _ in range(200):
        entries = pool[rng.randrange(len(pool))]
        g = random_germ_of_type(rng, entries, max(entries) + 6)
        tm = tangent_map(g)
        lift = grassmann_lift(tm)
        if isinstance(lift, NotFrontalUpTo):
            continue
        _, residuals = lift_residuals(tm, lift)
        for rs, rt in residuals:
            assert rs.is_zero and rt.is_zero
        checked += 1
    assert checked == 200


def test_lift_verdict_on_misordered_components():
    # component orders (1, 4, 2): the Wronskian quotient W_13/W_12 cannot exist
    g = CurveGerm(
        (Jet1.term(1, 1, 9), Jet1.term(1, 4, 9), Jet1.term(1, 2, 9))
    )
    tm = tangent_map(g)
    assert isinstance(grassmann_lift(tm), NotFrontalUpTo)


# -- membership certificates ---------------------------------------------------------------


def _membership_example():
    K = 8
    g1 = Jet2.variable(0, K)  # u
    g2 = Jet2.from_terms([(0, 2, 1), (1, 1, 1)], K)  # t^2 + u t
    return (g1, g2), K


def test_membership_certificate_found():
    (g1, g2), K = _membership_example()
    h = Jet2.from_terms([(0, 3, F(2, 3)), (1, 2, F(1, 2))], K)
    cert = jacobi_membership((g1, g2), h, 6)
    assert isinstance(cert, OpeningCertificate)
    p, q = cert.multipliers
    assert equal_as_polynomials(p, Jet2.from_terms([(0, 2, F(-1, 2))], 6))
    assert equal_as_polynomials(q, Jet2.from_terms([(0, 1, 1)], 6))
    assert verify_certificate((g1, g2), h, cert)


def test_membership_refuted_with_witness():
    (g1, g2), K = _membership_example()
    h = Jet2.variable(1, K)  # t
    verdict = jacobi_membership((g1, g2), h, 6)
    assert isinstance(verdict, Refuted)
    assert verdict.var == 1
    assert verdict.monomial == (0, 0)
    assert verdict.detail == (
        "coefficient equation at 1-form component 1, monomial (0, 0) reduces to 0 = 1"
    )


def test_membership_tautological():
    (g1, g2), K = _membership_example()
    cert = jacobi_membership((g1, g2), g1, 6)
    assert isinstance(cert, OpeningCertificate)
    p, q = cert.multipliers
    assert equal_as_polynomials(p, Jet2.constant(1, 6))
    assert q.is_zero
    assert verify_certificate((g1, g2), g1, cert)


def test_membership_certificates_reverify(rng):
    (g1, g2), K = _membership_example()
    for _ in range(20):
        # random element of the module: p*dg1 + q*dg2 integrated is not needed;
        # instead combine g-polynomials, whose differentials are in the module
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        h = a * g1 + b * g2 + c * (g1 * g2)
        cert = jacobi_membership((g1, g2), h, 6)
        assert isinstance(cert, OpeningCertificate)
        assert verify_certificate((g1, g2), h, cert)


def test_membership_order_12_on_tangent_map(rng):
    # df3 and df4 of a frontal tangent map lie in the module of (df1, df2)
    tm = tangent_map(random_germ_of_type(rng, (1, 3, 4, 6), 13))
    g = (tm.components[0], tm.components[1])
    for h in tm.components[2:]:
        cert = jacobi_membership(g, h, 12)
        assert isinstance(cert, OpeningCertificate)
        assert cert.verified_order == 12
        assert verify_certificate(g, h, cert)


def test_opening_check_cuspidal_edge():
    tm = tangent_map(monomial_curve(1, 2, 3, K=10))
    certs = opening_check(tm)
    assert len(certs) == 1
    assert verify_certificate(
        (tm.components[0], tm.components[1]), tm.components[2], certs[0]
    )


def test_opening_check_open_swallowtail():
    tm = tangent_map(monomial_curve(2, 3, 4, 5, K=11))
    certs = opening_check(tm)
    assert len(certs) == 2
    g = (tm.components[0], tm.components[1])
    for i, cert in enumerate(certs):
        assert verify_certificate(g, tm.components[2 + i], cert)


def test_opening_check_plane_curve_empty():
    tm = tangent_map(monomial_curve(1, 2, K=8))
    assert opening_check(tm) == ()


# -- versal opening tables ---------------------------------------------------------------------


def test_morin_table_k2():
    mo = morin_versal_opening(2, 0)
    t, l1 = mo.variables
    assert (t, l1) == ("t", "l1")
    assert mo.f_base.coefficient((3, 0)) == 1
    assert mo.f_base.coefficient((1, 1)) == 1
    f1, f2 = mo.f_generators
    assert f1.coefficient((5, 0)) == F(1, 5)
    assert f1.coefficient((3, 1)) == F(1, 3)
    assert f2.coefficient((6, 0)) == F(1, 6)
    assert f2.coefficient((4, 1)) == F(1, 4)


def test_morin_table_k1():
    mo = morin_versal_opening(1, 0)
    assert mo.variables == ("t",)
    assert mo.f_base.coefficient((2,)) == 1
    (f1,) = mo.f_generators
    assert f1.coefficient((4,)) == F(1, 4)
    assert mo.generator_count == 2


def test_morin_variable_cap_boundary():
    assert len(morin_versal_opening(2, 127).variables) == 256
    with pytest.raises(ValueError, match=r"variable count k\*\(m\+1\) = 258 exceeds 256"):
        morin_versal_opening(2, 128)


def test_morin_table_k2_m1():
    mo = morin_versal_opening(2, 1)
    assert mo.variables == ("t", "l1", "m1_1", "m1_2")
    (g1,) = mo.g_base
    assert g1.coefficient((1, 0, 1, 0)) == 1
    assert g1.coefficient((2, 0, 0, 1)) == 1
    ((g11,),) = mo.g_generators
    assert g11.coefficient((3, 0, 1, 0)) == F(1, 3)
    assert g11.coefficient((4, 0, 0, 1)) == F(1, 4)
    assert mo.generator_count == 1 + 2 + 1


def _oracle_integral(terms, ell):
    """Brute-force monomial integration: t-exponent e -> e+ell+1, /(e+ell+1)."""
    out = {}
    for exps, coeff in terms:
        e = exps[0]
        new = (e + ell + 1,) + tuple(exps[1:])
        out[new] = coeff * F(1, e + ell + 1)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_morin_generators_match_integration_oracle(k, m):
    mo = morin_versal_opening(k, m)
    base_f = dict(mo.f_base.terms)
    for ell, gen in enumerate(mo.f_generators, start=1):
        assert dict(gen.terms) == _oracle_integral(base_f.items(), ell)
    for gi, row in zip(mo.g_base, mo.g_generators):
        base = dict(gi.terms)
        assert len(row) == k - 1
        for ell, gen in enumerate(row, start=1):
            assert dict(gen.terms) == _oracle_integral(base.items(), ell)
    assert mo.generator_count == 1 + k + (k - 1) * m


# -- generating families ------------------------------------------------------------------------


def poly_terms(p):
    return dict(p.terms)


def test_family_type_1245():
    sol = generating_family_tangent(TypeSequence.of(1, 2, 4, 5))
    x2, x3, x4 = sol.solved
    assert poly_terms(x2) == {(2, 0): F(-10, 3), (1, 1): F(-2)}
    assert poly_terms(x3) == {(4, 0): F(5), (3, 1): F(2)}
    assert poly_terms(x4) == {(5, 0): F(-8, 3), (4, 1): F(-1)}


def test_family_type_123():
    sol = generating_family_tangent(TypeSequence.of(1, 2, 3))
    x2, x3 = sol.solved
    assert poly_terms(x2) == {(2, 0): F(-3), (1, 1): F(-2)}
    assert poly_terms(x3) == {(3, 0): F(2), (2, 1): F(1)}


def test_family_pattern_guard():
    with pytest.raises(GeneratingFamilyError):
        generating_family_tangent(TypeSequence.of(1, 3, 5, 7))


def test_family_pattern_names():
    assert generating_family_tangent(TypeSequence.of(1, 2, 3)).pattern == "I(N=2, r=1)"
    assert (
        generating_family_tangent(TypeSequence.of(1, 2, 4, 5)).pattern
        == "II(N=3, i=2)"
    )
    assert generating_family_tangent(TypeSequence.of(3, 4, 5)).pattern == "III(N=2)"


def family_types(max_N, max_r=3):
    """Pattern I (r <= max_r), II and III type sequences with N <= max_N."""
    for N in range(1, max_N + 1):
        for r in range(1, max_r + 1):
            yield tuple(range(1, N + 1)) + (N + r,)
        for i in range(N):
            yield tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3))
        yield tuple(range(3, N + 4))


def falling(n, d):
    out = 1
    for i in range(d):
        out *= n - i
    return out


def family_system(entries):
    """Node exponents of x2..x_{N+1} and the targets (top, e_0) of a family type."""
    top = entries[-1]
    exps = [top - a for a in entries[:-1]] + [0]
    return exps[1:], [top, exps[0]]


def dense_falling_solve(exponents, targets):
    """Reference: the dense falling-factorial matrix M[d][j] = falling(n_j, d)
    that ``generating_family_tangent`` eliminated before the closed form,
    solved once per target by the general square solve in ``linalg``."""
    N = len(exponents)
    out = []
    for s in targets:
        rows = []
        for d in range(N):
            row = [*(falling(n, d) for n in exponents), -falling(s, d)]
            rows.append({c: F(v) for c, v in enumerate(row) if v})
        out.append(linalg.solve(rows, N))
    return out


def test_family_solve_matches_dense_elimination():
    for entries in family_types(12):
        exponents, targets = family_system(entries)
        assert solve_ratfun_system(exponents, targets) == dense_falling_solve(
            exponents, targets
        ), entries


def test_family_solve_exact_at_type_cap():
    exponents, targets = family_system(tuple(range(1, MAX_TYPE_LENGTH + 1)))
    N = len(exponents)
    for s, xs in zip(targets, solve_ratfun_system(exponents, targets)):
        # clear denominators so that each equation is checked in integers
        den = math.lcm(*(x.denominator for x in xs))
        ys = [x.numerator * (den // x.denominator) for x in xs]
        column = [1] * N  # falling(n_j, d), advanced one d at a time
        for d in range(N):
            assert sum(f * y for f, y in zip(column, ys)) == -falling(s, d) * den, (s, d)
            column = [f * (n - d) for f, n in zip(column, exponents)]


def substitute_solved(p, sol):
    """A polynomial in (t, x1, ..., x_{N+1}) with x_j (j >= 2) replaced by
    ``sol.solved``, as a polynomial in (t, x1)."""
    from tanvar.polys import Poly

    out_vars = ("t", "x1")
    acc = Poly.zero(out_vars)
    for exps, coeff in p.terms:
        term = Poly.monomial(coeff, exps[:2], out_vars)
        for j, e in enumerate(exps[2:]):
            for _ in range(e):
                term = term * sol.solved[j]
        acc = acc + term
    return acc


def test_family_envelope_equations_hold():
    for entries in family_types(6):
        sol = generating_family_tangent(TypeSequence.of(*entries))
        N = len(entries) - 1
        # plugging the solved components back into the family kills it, and
        # so its t-derivatives along the parametrization
        F_sub = substitute_solved(sol.family, sol)
        for d in range(N):
            assert F_sub.is_zero, (entries, d)
            F_sub = F_sub.derivative("t")
        # the envelope equations themselves: each t-derivative of the family
        # with x held fixed vanishes on the parametrization
        F_d = sol.family
        for d in range(N):
            assert substitute_solved(F_d, sol).is_zero, (entries, d)
            F_d = F_d.derivative("t")


def test_family_matches_sympy_solve_over_q_of_t():
    sympy = pytest.importorskip("sympy")
    for entries in family_types(5):
        sol = generating_family_tangent(TypeSequence.of(*entries))
        N = len(entries) - 1
        t, *x = sympy.symbols(f"t x1:{N + 2}")
        top = entries[-1]
        family = t**top + sum(x[j] * t ** (top - entries[j]) for j in range(N)) + x[N]
        equations = [sympy.diff(family, t, d) for d in range(N)]
        (want,) = sympy.linsolve(equations, x[1:])
        for w, p in zip(want, sol.solved):
            got = sum(
                sympy.Rational(c.numerator, c.denominator) * t**a * x[0] ** b
                for (a, b), c in p.terms
            )
            assert sympy.cancel(w - got) == 0, (entries, w, p)
