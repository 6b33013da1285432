"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).  Every tolerance is exact rational
equality; nothing is calibrated at runtime.
"""

import contextlib
import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    random_fraction,
    random_germ_of_type,
    random_invertible_matrix,
    random_reparametrization,
)
from tanvar.classify import classify, normal_form_curve
from tanvar.cli import run
from tanvar.curves import (
    CurveGerm,
    TypeSequence,
    affine_chart,
    curve_type,
    homogeneous_lift,
)
from tanvar.jets import Jet1, Jet2, align, equal_as_polynomials
from tanvar.strata import (
    CurveClass,
    Inadmissible,
    codim_flag,
    codim_lagrangian,
    codim_plain,
    enumerate_generic,
    lagrangian_admissible,
    orders_to_type,
)
from tanvar.surfaces import (
    OrdinaryPointClass,
    SajiTag,
    SymMatrix3,
    VeroneseVerdict,
    ordinary_point_class,
    saji_verdict,
    slice_frontality_residuals,
    surface_tangent_map,
    transversal_slice,
    veronese_membership,
)
from tanvar.tangency import (
    grassmann_lift,
    lift_residuals,
    morin_versal_opening,
    tangent_map,
)

from test_surfaces import random_rank2_surface

T = TypeSequence.of


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {title}")
        raise
    print(f"criterion {num:2d}: PASS  {title}")


@pytest.fixture
def rng():
    return random.Random(48620)


# -----------------------------------------------------------------------------


def test_criterion_01_generic_list_reproduction():
    with criterion(1, "generic type lists match the classification statements"):
        for N in range(2, 7):
            ordinary = tuple(range(1, N + 2))
            got = {A.entries for A in enumerate_generic(CurveClass.plain(N))}
            assert got == {ordinary, ordinary[:-1] + (N + 2,)}

            got = {A.entries for A in enumerate_generic(CurveClass.osculating_framed(N))}
            want = {ordinary} | {
                tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3))
                for i in range(0, N + 1)
            }
            assert got == want and len(got) == N + 2

            got = {A.entries for A in enumerate_generic(CurveClass.tangent_framed(N))}
            assert got == {
                ordinary,
                ordinary[:-1] + (N + 2,),
                tuple(range(2, N + 3)),
            }

            got = {A.entries for A in enumerate_generic(CurveClass.tpn_framed(N))}
            assert got == {
                ordinary,
                ordinary[:-1] + (N + 2,),
                (1,) + tuple(range(3, N + 3)),
                tuple(range(2, N + 3)),
            }

        got = {A.entries for A in enumerate_generic(CurveClass.contact_osculating(1))}
        assert got == {(1, 2, 3), (1, 3, 4), (2, 3, 5)}
        got = {A.entries for A in enumerate_generic(CurveClass.contact_osculating(2))}
        assert got == {
            (1, 2, 3, 4, 5),
            (1, 2, 4, 5, 6),
            (1, 3, 4, 6, 7),
            (2, 3, 4, 5, 7),
        }


def test_criterion_02_codimension_consistency(rng):
    with criterion(2, "codimension formulas agree and order data round-trips"):
        for _ in range(1000):
            N = rng.randint(2, 6)
            entries = sorted(rng.sample(range(1, 16), N + 1))
            assert codim_flag(T(*entries), N, N) == entries[-1] - (N + 1)
        for N in range(2, 7):
            ordinary = tuple(range(1, N + 2))
            assert codim_plain(T(*ordinary), N) == 0
            assert codim_plain(T(*(ordinary[:-1] + (N + 2,))), N) == 1
        for entries in ((1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (1, 3, 4, 6, 7), (2, 3, 4, 5, 7)):
            assert codim_lagrangian(T(*entries), 2) in (0, 1)
        for n in (1, 2, 3, 4):
            for entries in itertools.combinations(range(1, 13), 2 * n + 1):
                verdict = lagrangian_admissible(T(*entries), n)
                if isinstance(verdict, Inadmissible):
                    continue
                assert orders_to_type(verdict).entries == entries


def test_criterion_03_normal_form_tangent_map_coherence():
    with criterion(3, "tangent maps of monomial curves equal the stated charts"):
        charts = {
            (1, 2, 3): [
                [(1, 0, 1), (0, 1, 1)],
                [(0, 2, 1), (1, 1, 2)],
                [(0, 3, 1), (1, 2, 3)],
            ],
            (2, 3, 4, 5): [
                [(0, 2, 1), (1, 0, 2)],
                [(0, 3, 1), (1, 1, 3)],
                [(0, 4, 1), (1, 2, 4)],
                [(0, 5, 1), (1, 3, 5)],
            ],
            (1, 3, 4, 5): [
                [(1, 0, 1), (0, 1, 1)],
                [(0, 3, 1), (1, 2, 3)],
                [(0, 4, 1), (1, 3, 4)],
                [(0, 5, 1), (1, 4, 5)],
            ],
            (1, 2, 4, 5): [
                [(1, 0, 1), (0, 1, 1)],
                [(0, 2, 1), (1, 1, 2)],
                [(0, 4, 1), (1, 3, 4)],
                [(0, 5, 1), (1, 4, 5)],
            ],
            (1, 3, 4, 6): [
                [(1, 0, 1), (0, 1, 1)],
                [(0, 3, 1), (1, 2, 3)],
                [(0, 4, 1), (1, 3, 4)],
                [(0, 6, 1), (1, 5, 6)],
            ],
        }
        for entries, comps in charts.items():
            tmap = tangent_map(normal_form_curve(T(*entries)))
            for got, terms in zip(tmap.components, comps):
                want = Jet2.from_terms(terms, 8)
                assert equal_as_polynomials(got, want), entries


def test_criterion_04_wronskian_order_law(rng):
    with criterion(4, "lift coefficient orders and the lift identity are exact"):
        pool = [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5),
            (2, 4, 5), (1, 4, 5), (1, 2, 3, 5), (2, 3, 4, 5), (1, 3, 4, 6),
            (1, 2, 4, 5), (1, 4, 6, 7), (2, 4, 5, 7),
        ]
        checked = 0
        for _ in range(200):
            entries = pool[rng.randrange(len(pool))]
            a1, a2 = entries[0], entries[1]
            assert a1 <= 2 and a2 <= 4
            germ = random_germ_of_type(rng, entries, max(entries) + 6)
            tmap = tangent_map(germ)
            lift = grassmann_lift(tmap)
            if not isinstance(lift, tuple):
                continue  # division failed; restricted out by the criterion
            for i, pair in enumerate(lift, start=2):
                assert pair.p.order() == entries[i] - a1
                assert pair.q.order() == entries[i] - a2
            _, residuals = lift_residuals(tmap, lift)
            for rs, rt in residuals:
                assert rs.is_zero and rt.is_zero
            checked += 1
        assert checked == 200


def test_criterion_05_cubic_cusp_module_identities():
    # Exact expansion refutes the second and third stated coefficient sets:
    # their u-weighted coefficients come out 30 times smaller than asserted.
    # The identities that do hold are proved in test_jets.py.
    with criterion(5, "stated module identities at truncation 12"):
        K = 12
        T_ = Jet2.from_terms([(0, 3, 1), (1, 2, 1)], K)
        u = Jet2.variable(0, K)

        def Ti(i):
            return Jet2.from_terms(
                [(0, i + 3, F(3, i + 3)), (1, i + 2, F(2, i + 2))], K
            )

        first = Ti(4) - (F(4, 7) * (T_ * Ti(1)) - F(20, 21) * (u * Ti(3)))
        assert first.is_zero, "T4 = 4/7 T T1 - 20/21 u T3 failed"
        second = (T_ * Ti(2)) - (
            F(-20, 9) * (u * u * Ti(3))
            + F(4, 3) * (u * (T_ * Ti(1)))
            + F(16, 15) * (Ti(1) * Ti(1))
        )
        assert second.is_zero, (
            "T T2 = -20/9 u^2 T3 + 4/3 u T T1 + 16/15 T1^2 failed: "
            "exact expansion refutes the stated u-weighted coefficients"
        )
        third = (T_ * T_ * T_) - (
            (2 * T_ - F(40, 9) * (u * u * u)) * Ti(3)
            + F(8, 3) * (u * u * (T_ * Ti(1)))
            + F(32, 15) * (u * (Ti(1) * Ti(1)))
        )
        assert third.is_zero, (
            "T^3 = (2T - 40/9 u^3) T3 + 8/3 u^2 T T1 + 32/15 u T1^2 failed: "
            "exact expansion refutes the stated u-weighted coefficients"
        )


def test_criterion_06_generating_family_cli():
    with criterion(6, "family subcommand reproduces the eliminated parametrization"):
        code, out = run(["family", "--type", "1,2,4,5"])
        assert code == 0
        assert "x2: -2*t*x1 - 10/3*t^2" in out
        assert "x3: 2*t^3*x1 + 5*t^4" in out
        assert "x4: -t^4*x1 - 8/3*t^5" in out
        from tanvar.tangency import generating_family_tangent

        sol = generating_family_tangent(T(1, 2, 4, 5))
        x2, x3, x4 = sol.solved
        assert dict(x2.terms) == {(2, 0): F(-10, 3), (1, 1): F(-2)}
        assert dict(x3.terms) == {(4, 0): F(5), (3, 1): F(2)}
        assert dict(x4.terms) == {(5, 0): F(-8, 3), (4, 1): F(-1)}


def test_criterion_07_surface_slice_pipeline(rng):
    with criterion(7, "H sign, slice identity and verdict agree on 100 germs"):
        for _ in range(100):
            surface = random_rank2_surface(rng)
            report = ordinary_point_class(surface)
            assert report.tag is not OrdinaryPointClass.NOT_ORDINARY
            g1, g2, g3 = transversal_slice(surface)
            ru, rv = slice_frontality_residuals(g1, g2, g3)
            assert ru.is_zero and rv.is_zero
            verdict = saji_verdict((g1, g2, g3))
            assert verdict.hessian_determinant == report.h_invariant
            if report.tag is OrdinaryPointClass.HYPERBOLIC:
                assert verdict.tag is SajiTag.D4_PLUS
            elif report.tag is OrdinaryPointClass.ELLIPTIC:
                assert verdict.tag is SajiTag.D4_MINUS
            else:
                assert verdict.tag is SajiTag.INCONCLUSIVE


def test_criterion_08_surface_tangent_identity(rng):
    with criterion(8, "surface tangent maps satisfy the lift identity to order 10"):
        trunc = 12
        for case in range(50):
            pot_terms = []
            for d in range(2, 6):
                for i in range(d + 1):
                    if rng.random() < 0.4:
                        pot_terms.append((i, d - i, random_fraction(rng)))
            pot = Jet2.from_terms(pot_terms, trunc + 1)
            if case % 4 == 0:
                # twist the chart by a linear substitution
                m = random_invertible_matrix(rng, 2)
                l1 = Jet2.from_terms([(1, 0, m[0][0]), (0, 1, m[0][1])], trunc)
                l2 = Jet2.from_terms([(1, 0, m[1][0]), (0, 1, m[1][1])], trunc)
                lam = (l1, l2)
                nu = (
                    pot.derivative(0).truncate(trunc).substitute(l1, l2),
                    pot.derivative(1).truncate(trunc).substitute(l1, l2),
                )
            else:
                lam = (Jet2.variable(0, trunc), Jet2.variable(1, trunc))
                nu = (pot.derivative(0), pot.derivative(1))
            out = surface_tangent_map(lam, nu)
            assert out.verified_order >= 10
            assert out.certificate_holds


def test_criterion_09_veronese_suite(rng):
    with criterion(9, "membership verdicts respect the two ruled strata"):

        def vec():
            return tuple(random_fraction(rng, max_num=4, max_den=2) for _ in range(3))

        def outer(a, b):
            return [[a[i] * b[j] for j in range(3)] for i in range(3)]

        def add(*ms):
            out = [[F(0)] * 3 for _ in range(3)]
            for m in ms:
                for i in range(3):
                    for j in range(3):
                        out[i][j] += m[i][j]
            return out

        def scale(c, m):
            return [[c * m[i][j] for j in range(3)] for i in range(3)]

        def independent(v, w):
            return any(
                x != 0
                for x in (
                    v[0] * w[1] - v[1] * w[0],
                    v[0] * w[2] - v[2] * w[0],
                    v[1] * w[2] - v[2] * w[1],
                )
            )

        hits = 0
        while hits < 500:
            v, w = vec(), vec()
            s = random_fraction(rng, nonzero=True)
            if not independent(v, w):
                continue
            point = add(outer(v, v), scale(s, outer(v, w)), scale(s, outer(w, v)))
            verdict = veronese_membership(SymMatrix3.from_rows(point))
            assert verdict in (VeroneseVerdict.IN_TANGENT, VeroneseVerdict.ON_SURFACE)
            hits += 1
        hits = 0
        while hits < 500:
            v, w = vec(), vec()
            if not independent(v, w):
                continue
            c1 = abs(random_fraction(rng, nonzero=True))
            c2 = abs(random_fraction(rng, nonzero=True))
            point = add(scale(c1, outer(v, v)), scale(c2, outer(w, w)))
            verdict = veronese_membership(SymMatrix3.from_rows(point))
            assert verdict in (
                VeroneseVerdict.IN_SECANT_ONLY,
                VeroneseVerdict.ON_SURFACE,
            )
            hits += 1
        assert veronese_membership(SymMatrix3.diag(1, -1, 0)) is VeroneseVerdict.IN_TANGENT
        assert (
            veronese_membership(SymMatrix3.diag(1, 1, 0)) is VeroneseVerdict.IN_SECANT_ONLY
        )


def test_criterion_10_invariance_suite(rng, tmp_path):
    with criterion(10, "type invariance, prefix stability, CLI determinism"):
        pool = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 4, 6), (2, 3, 4, 5)]
        for trial in range(100):
            entries = pool[rng.randrange(len(pool))]
            K = max(entries) + 6
            germ = random_germ_of_type(rng, entries, K)
            if trial % 2 == 0:
                phi = random_reparametrization(rng, K)
                moved = CurveGerm(tuple(c.compose(phi) for c in germ.components))
            else:
                lift = homogeneous_lift(germ)
                size = len(lift)
                m = random_invertible_matrix(rng, size, chart_safe=True)
                mixed = tuple(
                    sum((F(m[i][j]) * lift[j] for j in range(size)), Jet1.zero(K))
                    for i in range(size)
                )
                moved = affine_chart(mixed)
            assert curve_type(moved) == T(*entries)

        prefixes = {
            (1, 2, 3): "cuspidal edge",
            (1, 3, 4, 5): "open Mond surface",
            (2, 3, 4, 5): "open swallowtail",
            (1, 2, 4, 5): "open folded umbrella",
            (1, 3, 4, 6): "unfurled Mond surface",
        }
        for prefix, name in prefixes.items():
            for _ in range(20):
                tail = list(prefix)
                for _ in range(rng.randint(1, 4)):
                    tail.append(tail[-1] + rng.randint(1, 3))
                got = classify(T(*tail), CurveClass.plain(len(tail) - 1))
                assert got.singularity.value == name

        germ_path = tmp_path / "c.germ"
        germ_path.write_text(
            "kind: curve\ntruncation: 9\ncomponent: t\ncomponent: t^2\ncomponent: t^3\n"
        )
        surface_path = tmp_path / "s.germ"
        surface_path.write_text(
            "kind: surface\ntruncation: 8\nx3: 1/2 u^2\nx4: 1/2 v^2\n"
        )
        batch_path = tmp_path / "b.germs"
        batch_path.write_text(
            germ_path.read_text() + "---\n" + surface_path.read_text()
        )
        invocations = [
            ["type", str(germ_path)],
            ["batch", str(batch_path)],
            ["classify", "--type", "1,2,4,5", "--class", "osculating"],
            ["enumerate", "--class", "contact", "--n", "2"],
            ["codim", "--type", "1,3,4,6", "--class", "plain", "--N", "3"],
            ["tangent", str(germ_path)],
            ["surface", str(surface_path)],
            ["veronese", "--entries", "1 0 0 1 0 0"],
            ["opening", str(germ_path)],
            ["morin", "--k", "4", "--m", "2"],
            ["family", "--type", "1,2,4,5"],
            ["normal-form", "--singularity", "open-mond-surface", "--ambient", "5"],
            ["enumerate", "--class", "tpn", "--N", "5", "--format", "structured"],
        ]
        for argv in invocations:
            first_code, first_text = run(argv)
            second_code, second_text = run(argv)
            assert first_code == second_code
            assert first_text.encode() == second_text.encode()


def test_criterion_11_morin_generator_tables():
    with criterion(11, "versal opening generators match the integration oracle"):
        for k in (1, 2, 3, 4):
            for m in (0, 1, 2):
                mo = morin_versal_opening(k, m)

                def oracle(poly, ell):
                    out = {}
                    for exps, coeff in poly.terms:
                        e = exps[0]
                        out[(e + ell + 1,) + exps[1:]] = coeff / (e + ell + 1)
                    return out

                assert len(mo.f_generators) == k
                for ell, gen in enumerate(mo.f_generators, start=1):
                    assert dict(gen.terms) == oracle(mo.f_base, ell)
                assert len(mo.g_base) == m
                for gi, row in zip(mo.g_base, mo.g_generators):
                    assert len(row) == k - 1
                    for ell, gen in enumerate(row, start=1):
                        assert dict(gen.terms) == oracle(gi, ell)
                assert mo.generator_count == 1 + k + (k - 1) * m


def test_criterion_12_contact_curve_determinant_identity(rng):
    with criterion(12, "det(d1,d2,d3) equals the squared Wronskian for 50 pairs"):
        K = 13
        for _ in range(50):
            lam = Jet1(
                tuple(random_fraction(rng, max_num=3, max_den=2) for _ in range(K + 1))
            )
            nu = Jet1(
                tuple(random_fraction(rng, max_num=3, max_den=2) for _ in range(K + 1))
            )
            dlam, dnu = lam.derivative(), nu.derivative()
            mu = (nu.truncate(K - 1) * dlam - lam.truncate(K - 1) * dnu).weighted_integral(0)
            cols = []
            for f in (lam, mu, nu):
                d1 = f.derivative()
                d2 = d1.derivative()
                d3 = d2.derivative()
                cols.append(align(d1, d2, d3))
            R = min(j.truncation for col in cols for j in col)
            (l1, l2, l3), (m1, m2, m3), (n1, n2, n3) = [
                tuple(j.truncate(R) for j in col) for col in cols
            ]
            det = (
                l1 * (m2 * n3 - m3 * n2)
                - m1 * (l2 * n3 - l3 * n2)
                + n1 * (l2 * m3 - l3 * m2)
            )
            wr = l1 * n2 - l2 * n1
            assert det == (wr * wr).truncate(R)
