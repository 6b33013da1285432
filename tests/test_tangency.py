import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_fraction, random_germ_of_type, random_invertible_matrix
from tanvar import linalg, tangency
from tanvar.curves import CurveGerm, NotFiniteTypeError, NotFiniteTypeUpTo, TypeSequence, curve_type
from tanvar.jets import MAX_TRUNCATION_2, InvariantError, Jet1, Jet2, JetDomainError, equal_as_polynomials
from tanvar.polys import Poly, solve_ratfun_system
from tanvar.strata import MAX_TYPE_LENGTH
from tanvar.tangency import (
    VAR_S,
    VAR_T,
    GeneratingFamilyError,
    LiftPair,
    MorinOpening,
    TangentMapGerm,
    NotFrontalUpTo,
    OpeningCertificate,
    Refuted,
    generating_family_tangent,
    grassmann_lift,
    jacobi_membership,
    lift_residuals,
    lift_verified_order,
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


def test_lift_when_w12_vanishes_within_truncation():
    # W_12 of type (3,4,5) has order 4, above K - 2 = 3: inconclusive, not an error
    assert grassmann_lift(tangent_map(monomial_curve(3, 4, 5, K=5))) == NotFrontalUpTo(5)
    # a plane curve needs no lift, so its W_12 is never formed
    assert grassmann_lift(tangent_map(monomial_curve(2, 3, K=3))) == ()


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


def _certified_example():
    (g1, g2), K = _membership_example()
    h = Jet2.from_terms([(0, 3, F(2, 3)), (1, 2, F(1, 2))], K)
    cert = jacobi_membership((g1, g2), h, 6)
    assert verify_certificate((g1, g2), h, cert)
    return (g1, g2), h, cert


def test_certificate_with_one_changed_coefficient_is_rejected():
    g, h, cert = _certified_example()
    E = cert.verified_order
    for j in (0, 1):
        # below degree E: dg2 has no constant term, so q's degree-E part goes unchecked
        for i, k in ((0, 0), (1, 1), (0, E - 1)):
            mults = list(cert.multipliers)
            mults[j] = mults[j] + Jet2.term(1, i, k, E)
            assert not verify_certificate(g, h, OpeningCertificate(tuple(mults), E))


def test_certificate_failing_only_in_the_dt_component_is_rejected():
    # g1 = s, g2 = t^2 + s t: dg1 = (1, 0) and dg2 = (t, 2t + s), so moving
    # p by -t and q by +1 leaves the ds-component and changes the dt-component
    g, h, cert = _certified_example()
    E = cert.verified_order
    p, q = cert.multipliers
    moved = (p - Jet2.variable(1, E), q + Jet2.constant(1, E))
    for var, vanishes in ((0, True), (1, False)):
        res = h.derivative(var).truncate(E)
        for m, gj in zip(moved, g):
            res = res - m * gj.derivative(var).truncate(E)
        assert res.is_zero is vanishes
    assert not verify_certificate(g, h, OpeningCertificate(moved, E))


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


def random_source_change(rng, K):
    """phi = (phi0, phi1) with an invertible linear part and random terms of degree 2..3."""
    m = random_invertible_matrix(rng, 2)
    phi = []
    for row in m:
        terms = [(1, 0, row[0]), (0, 1, row[1])]
        terms += [
            (d - j, j, random_fraction(rng))
            for d in (2, 3)
            for j in range(d + 1)
            if rng.random() < 0.3
        ]
        phi.append(Jet2.from_terms(terms, K))
    return phi


def membership_input(rng):
    """(g, h) from a random tangent map f: g = (f1, f2), and h is f3, a polynomial in g or noise."""
    entries = rng.choice([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 3, 5)])
    tm = tangent_map(random_germ_of_type(rng, entries, rng.randint(6, 9)))
    g = (tm.components[0], tm.components[1])
    K = tm.truncation
    kind = rng.randrange(3)
    if kind == 0:
        h = tm.components[2]
    elif kind == 1:
        h = rng.randint(-2, 2) * g[0] + g[0] * g[1]
    else:
        h = Jet2.from_terms(
            [(d - j, j, random_fraction(rng)) for d in range(1, K + 1) for j in range(d + 1)
             if rng.random() < 0.2],
            K,
        )
    return g, h


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_membership_invariant_under_source_changes(seed):
    # dh lies in the module of dg1, dg2 exactly when d(h o phi) lies in the
    # module of d(g1 o phi), d(g2 o phi), order by order
    rng = random.Random(seed)
    g, h = membership_input(rng)
    phi = random_source_change(rng, h.truncation)
    moved_g = tuple(x.substitute(*phi) for x in g)
    moved_h = h.substitute(*phi)
    order = rng.randint(3, 6)
    before = jacobi_membership(g, h, order)
    after = jacobi_membership(moved_g, moved_h, order)
    assert type(before) is type(after)
    if isinstance(after, OpeningCertificate):
        assert after.verified_order == before.verified_order
        assert verify_certificate(moved_g, moved_h, after)


def test_membership_order_is_capped_by_the_operands():
    (g1, g2), K = _membership_example()  # truncation 8: coefficients up to degree 7
    h = Jet2.from_terms([(0, 3, F(2, 3)), (1, 2, F(1, 2))], K)
    assert jacobi_membership((g1, g2), h, 20).verified_order == K - 1
    assert jacobi_membership((g1, g2), h.truncate(5), 20).verified_order == 4
    assert jacobi_membership((g1, g2.truncate(5)), h, 20).verified_order == 4


def test_membership_at_order_zero_and_below():
    (g1, g2), K = _membership_example()
    cert = jacobi_membership((g1, g2), g1, 0)
    assert cert == OpeningCertificate((Jet2.constant(1, 0), Jet2.zero(0)), 0)
    with pytest.raises(ValueError, match="no examinable coefficients at this truncation"):
        jacobi_membership((g1, g2), g1, -1)
    with pytest.raises(ValueError, match="no examinable coefficients at this truncation"):
        jacobi_membership((g1, g2), Jet2.zero(0), 3)


@pytest.mark.parametrize("var", [VAR_S, VAR_T])
def test_membership_keeps_the_lowest_degree_multipliers(var):
    # d(x^2) = 2x dx, so both (2x, 0) and (0, 1) are multipliers of
    # d(x^2) over (dx, d(x^2)); the solve keeps the one of lower degree
    x = Jet2.variable(var, 6)
    cert = jacobi_membership((x, x * x), x * x, 4)
    assert cert == OpeningCertificate((Jet2.zero(4), Jet2.constant(1, 4)), 4)


def test_certificate_claiming_more_than_the_operands_hold_is_refused():
    (g1, g2), h, cert = _certified_example()  # verified to order 6
    message = "operands hold less information than the certificate claims"
    # h, then one generator, holds coefficients to degree 5 only
    with pytest.raises(ValueError, match=message):
        verify_certificate((g1, g2), h.truncate(6), cert)
    with pytest.raises(ValueError, match=message):
        verify_certificate((g1, g2.truncate(6)), h, cert)


def test_opening_check_names_the_component_whose_lift_fails(monkeypatch):
    tm = tangent_map(monomial_curve(1, 2, 3, 4, K=10))
    good = grassmann_lift(tm)
    bad = LiftPair(good[1].p + Jet1.term(1, 3, good[1].p.truncation), good[1].q)
    monkeypatch.setattr(tangency, "grassmann_lift", lambda tmap: (good[0], bad))
    message = r"^lift identity failed for component 4: nonzero residual$"
    with pytest.raises(InvariantError, match=message):
        opening_check(tm)


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


# -- term-map constructions against the ring arithmetic they replaced ---------------------------
#
# The three reference_* functions keep the former constructions verbatim: the tangent map by a
# Jet2 product and sum per component, the family and the Morin bases by one Poly sum per term.


def reference_tangent_map(germ: CurveGerm) -> TangentMapGerm:
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
    s = Jet2.variable(VAR_S, T2)
    comps = []
    for idx, x in enumerate(germ.components):
        v = x.derivative().shift_down(a1 - 1)
        if v is None:
            # a1 is the least order of any component, so this cannot happen
            raise InvariantError(f"component {idx + 1}: derivative not divisible by t^{a1 - 1}")
        base = Jet2.from_jet1(x.truncate(T2), VAR_T, T2)
        ruling = s * Jet2.from_jet1(v, VAR_T, T2)
        comps.append(base + ruling)
    return TangentMapGerm(tuple(comps), germ, t)


def reference_family(A: TypeSequence) -> Poly:
    entries = A.entries
    N = len(entries) - 1
    top = entries[-1]
    exps = [top - entries[j] for j in range(N)] + [0]  # exponents of x_1..x_{N+1}
    fam_vars = tuple(["t"] + [f"x{j}" for j in range(1, N + 2)])
    family = Poly.monomial(1, [top] + [0] * (N + 1), fam_vars)
    for j in range(1, N + 2):
        e = [0] * len(fam_vars)
        e[0] = exps[j - 1]
        e[j] = 1
        family = family + Poly.monomial(1, e, fam_vars)
    return family


def reference_morin(k: int, m: int) -> MorinOpening:
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


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5, unique=True),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2 ** 32),
    st.booleans(),
)
def test_tangent_map_matches_the_ring_construction(entries, extra, seed, degenerate):
    entries = sorted(entries)
    rng = random.Random(seed)
    germ = random_germ_of_type(rng, entries, entries[-1] + extra, density=rng.random())
    if degenerate:
        # a repeated component leaves the germ of infinite type
        germ = CurveGerm(germ.components + germ.components[-1:])
    assert outcome(tangent_map, germ) == outcome(reference_tangent_map, germ)


def test_family_matches_the_sum_construction():
    types = list(family_types(24)) + [tuple(range(1, MAX_TYPE_LENGTH + 1))]
    for entries in types:
        A = TypeSequence(entries)
        assert generating_family_tangent(A).family == reference_family(A), entries


def test_morin_tables_match_the_sum_construction():
    for k in range(1, 9):
        for m in range(5):
            assert morin_versal_opening(k, m) == reference_morin(k, m), (k, m)


def test_term_map_constructions_make_no_ring_sums(monkeypatch, rng):
    calls = []
    for cls, name in [(Jet2, "__mul__"), (Jet2, "__add__"), (Poly, "__add__")]:
        def counted(*args, _method=vars(cls)[name], _label=f"{cls.__name__}.{name}"):
            calls.append(_label)
            return _method(*args)

        monkeypatch.setattr(cls, name, counted)
    tangent_map(monomial_curve(2, 3, 5, K=12))
    tangent_map(random_germ_of_type(rng, (1, 3, 4, 6), 14))
    generating_family_tangent(TypeSequence.of(1, 2, 4, 5))
    generating_family_tangent(TypeSequence.of(*range(3, 20)))
    morin_versal_opening(5, 3)
    assert calls == []
    # the counters see a ring sum and product when one is made
    x = Jet2.variable(VAR_S, 2)
    x * x + x
    assert calls == ["Jet2.__mul__", "Jet2.__add__"]


# -- membership by Cramer's rule against the full solve ------------------------------------
#
# reference_jacobi_membership and reference_lift_residuals keep the former functions
# verbatim: the membership solve eliminated the whole coefficient system, and the lift
# residuals were formed from two-variable products.


def _tri_monomials(max_degree: int):
    for d in range(max_degree + 1):
        for j in range(d + 1):
            yield d - j, j


def reference_jacobi_membership(g, h, order):
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


def reference_lift_residuals(tmap, lift):
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


def random_jet2(rng, K, density, low=1):
    return Jet2.from_terms(
        [(d - j, j, random_fraction(rng)) for d in range(low, K + 1) for j in range(d + 1)
         if rng.random() < density],
        K,
    )


def membership_case(rng, generators, member):
    """(g, h, order) with every truncation <= 9, so the order examined is <= 8.

    ``generators`` picks g: the first two components of a tangent map; two
    random jets; a pair with D = det(dg1, dg2) zero identically ("dependent")
    or only within truncation ("flat"); one or three random jets.  ``member``
    picks h: a combination of the g's and their product, the same plus one
    monomial of any degree ("perturbed") or of the top examined degree
    ("top"), or a random jet.
    """
    if generators == "tangent":
        entries = rng.choice([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (2, 3, 5), (1, 3, 4, 6)])
        tm = tangent_map(random_germ_of_type(rng, entries, rng.randint(entries[-1], 8 + entries[0])))
        g = tm.components[:2]
    else:
        K = rng.randint(2, 7)
        density = rng.uniform(0.1, 0.6)
        if generators == "dependent":
            x = random_jet2(rng, K, density)
            g = (x, rng.randint(-2, 2) * x + x * x)
        elif generators == "flat":
            # D = 12 s^2 t^3 has degree 5, above every examined degree
            K = min(K, 5)
            g = (Jet2.term(1, 3, 0, K), Jet2.term(1, 0, 4, K) + random_jet2(rng, K, density, low=5))
        else:
            count = {"one": 1, "two": 2, "three": 3}[generators]
            g = tuple(random_jet2(rng, K, density) for _ in range(count))
    K = g[0].truncation
    order = rng.randint(0, K)
    if member == "random":
        h = random_jet2(rng, K, rng.uniform(0.1, 0.6))
    else:
        h = g[0] * g[-1]
        for gj in g:
            h = h + rng.randint(-2, 2) * gj
        if member != "member":
            # "top" perturbs dh in the highest examined degree, inside the band
            d = rng.randint(1, K) if member == "perturbed" else min(order + 1, K)
            j = rng.randint(0, d)
            h = h + Jet2.term(random_fraction(rng, nonzero=True), d - j, j, K)
    return g, h, order


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["tangent", "tangent", "two", "dependent", "flat", "one", "three"]),
    st.sampled_from(["member", "perturbed", "top", "random"]),
    st.integers(min_value=0, max_value=2 ** 32),
)
def test_membership_matches_the_full_solve(generators, member, seed):
    g, h, order = membership_case(random.Random(seed), generators, member)
    assert jacobi_membership(g, h, order) == reference_jacobi_membership(g, h, order)


def _order_of_det(g, E):
    (g1s, g1t), (g2s, g2t) = [
        (x.derivative(VAR_S).truncate(E), x.derivative(VAR_T).truncate(E)) for x in g
    ]
    return (g1s * g2t - g2s * g1t).order()


@pytest.mark.parametrize("entries", [(1, 2, 4), (1, 3, 4, 6), (2, 3, 4, 5)])
def test_certified_membership_eliminates_only_the_top_band(monkeypatch, rng, entries):
    E = 10
    tm = tangent_map(random_germ_of_type(rng, entries, E + entries[0]))
    g, h = tm.components[:2], tm.components[2]
    d = _order_of_det(g, E)
    assert d == entries[1] - entries[0]
    sizes = []
    real = linalg.solve

    def spy(rows, n):
        sizes.append(n)
        return real(rows, n)

    monkeypatch.setattr(linalg, "solve", spy)
    cert = jacobi_membership(g, h, E)
    assert isinstance(cert, OpeningCertificate) and cert.verified_order == E
    assert len(sizes) == 1 and sizes[0] <= 2 * d * (E + 1) < 2 * 66
    # a non-member still gets the whole system, whose last equation order gives the witness
    sizes.clear()
    refuted = jacobi_membership(g, h + Jet2.term(1, 0, 6, h.truncation), E)
    assert isinstance(refuted, Refuted)
    assert sizes[-1] == 2 * 66


def test_lift_residuals_match_the_two_variable_products(rng):
    cases = 0
    for _ in range(60):
        entries = rng.choice([(1, 2, 3), (1, 2, 4, 5), (1, 3, 4, 6), (2, 3, 4), (2, 3, 5, 7)])
        # truncations from a1 + a2 - 1, where the lift has truncation 0
        K = rng.randint(entries[0] + entries[1] - 1, entries[-1] + 8)
        if K < entries[-1]:
            K = entries[-1]
        tm = tangent_map(random_germ_of_type(rng, entries, K))
        lift = grassmann_lift(tm)
        if isinstance(lift, NotFrontalUpTo):
            continue
        wrong = tuple(
            LiftPair(pair.p + Jet1.term(random_fraction(rng), rng.randint(0, R), R), pair.q)
            for pair in lift
            for R in [pair.p.truncation]
        )
        for pairs in (lift, wrong):
            assert lift_residuals(tm, pairs) == reference_lift_residuals(tm, pairs)
        cases += 1
    assert cases >= 40


def test_inconsistent_band_falls_back_to_the_full_solve(monkeypatch):
    # both Cramer quotients exist here, and only the band solve finds the contradiction
    K = 4
    g = (Jet2.from_terms([(1, 1, 1), (0, 3, 1)], K), Jet2.from_terms([(1, 1, 1), (0, 2, -2)], K))
    h = Jet2.from_terms([(3, 0, F(-4, 3)), (1, 2, -1)], K)
    sizes = []
    real = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda rows, n: sizes.append(n) or real(rows, n))
    assert _order_of_det(g, 2) == 2
    verdict = jacobi_membership(g, h, 2)
    assert sizes == [2 * (2 + 3), 2 * 6]  # degrees 1..2, then 0..2
    assert verdict == reference_jacobi_membership(g, h, 2)
    assert verdict.detail == (
        "coefficient equation at 1-form component 0, monomial (2, 0) reduces to 0 = -4"
    )
