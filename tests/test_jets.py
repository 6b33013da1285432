import ast
import copy
import json
import pathlib
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions, jet1s, jet2s
from tanvar import linalg
from tanvar.cli import run
from tanvar.jets import (
    ABOVE_TRUNCATION,
    Jet1,
    Jet2,
    TruncationMismatch,
    _tri_index,
    _tri_size,
    equal_as_polynomials,
)


# -- order -------------------------------------------------------------------


def test_order_leading_exponent():
    assert Jet1.from_terms([(3, 1), (5, 1)], 8).order() == 3


def test_order_zero_series():
    assert Jet1.zero(8).order() is ABOVE_TRUNCATION


def test_order_scaled_linear():
    assert Jet1.from_terms([(1, F(7, 3))], 8).order() == 1


def test_above_truncation_comparisons():
    assert ABOVE_TRUNCATION > 10 ** 9
    assert not (ABOVE_TRUNCATION < 5)
    assert ABOVE_TRUNCATION >= ABOVE_TRUNCATION
    assert not (ABOVE_TRUNCATION > ABOVE_TRUNCATION)
    assert ABOVE_TRUNCATION == ABOVE_TRUNCATION
    assert ABOVE_TRUNCATION != 7
    assert ABOVE_TRUNCATION > 10 ** 400
    assert sorted([ABOVE_TRUNCATION, 3, 0]) == [0, 3, ABOVE_TRUNCATION]


def test_above_truncation_prints_its_name_and_keeps_its_identity():
    assert str(ABOVE_TRUNCATION) == repr(ABOVE_TRUNCATION) == "ABOVE_TRUNCATION"
    assert f"{ABOVE_TRUNCATION}" == "ABOVE_TRUNCATION"
    assert copy.copy(ABOVE_TRUNCATION) is ABOVE_TRUNCATION
    assert copy.deepcopy([ABOVE_TRUNCATION])[0] is ABOVE_TRUNCATION
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ABOVE_TRUNCATION, protocol)) is ABOVE_TRUNCATION


def test_above_truncation_in_a_json_report(tmp_path):
    # both lift multipliers of type (2,4,6) at truncation 6 vanish within truncation
    doc = tmp_path / "c.germ"
    doc.write_text("kind: curve\ntruncation: 6\ncomponent: t^2\ncomponent: t^4\ncomponent: t^6\n")
    code, out = run(["tangent", str(doc), "--format", "structured"])
    report = json.loads(out)
    assert (code, report["order P3"], report["order Q3"]) == (
        0, "ABOVE_TRUNCATION", "ABOVE_TRUNCATION"
    )


# -- ring operations -------------------------------------------------------------


def test_product_of_conjugates():
    a = Jet1.from_terms([(1, 1), (2, 1)], 4)
    b = Jet1.from_terms([(1, 1), (2, -1)], 4)
    assert a * b == Jet1.from_terms([(2, 1), (4, -1)], 4)


def test_two_variable_product_matches_hand_expansion():
    # (t^3 + u t^2) * (3/4 t^4 + 2/3 u t^3), variables (u, t)
    T = Jet2.from_terms([(0, 3, 1), (1, 2, 1)], 8)
    T1 = Jet2.from_terms([(0, 4, F(3, 4)), (1, 3, F(2, 3))], 8)
    expected = Jet2.from_terms(
        [(0, 7, F(3, 4)), (1, 6, F(17, 12)), (2, 5, F(2, 3))], 8
    )
    assert T * T1 == expected


def test_additive_identity():
    a = Jet1.from_terms([(1, 1), (3, F(2, 7))], 6)
    assert a + Jet1.zero(6) == a


def test_truncation_mismatch_rejected():
    with pytest.raises(TruncationMismatch):
        Jet1.zero(4) + Jet1.zero(5)
    with pytest.raises(TruncationMismatch):
        Jet2.zero(4) * Jet2.zero(5)


@settings(max_examples=60)
@given(jet1s(), jet1s(), jet1s())
def test_ring_axioms_one_variable(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30)
@given(jet2s(), jet2s(), jet2s())
def test_ring_axioms_two_variables(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(jet1s(), jet1s())
def test_order_multiplicative(a, b):
    oa, ob = a.order(), b.order()
    if isinstance(oa, int) and isinstance(ob, int) and oa + ob <= a.truncation:
        assert (a * b).order() == oa + ob


# -- calculus ---------------------------------------------------------------------


def test_derivative_monomial():
    assert Jet1.term(1, 4, 6).derivative() == Jet1.term(4, 3, 5)


def test_partial_derivatives():
    j = Jet2.from_terms([(1, 2, 1)], 5)  # u t^2, variables (u, t)
    assert j.derivative(0) == Jet2.from_terms([(0, 2, 1)], 4)
    T = Jet2.from_terms([(0, 3, 1), (1, 2, 1)], 5)
    assert T.derivative(1) == Jet2.from_terms([(0, 2, 3), (1, 1, 2)], 4)


def test_weighted_integral_examples():
    j = Jet1.term(1, 3, 6)
    assert j.weighted_integral(1) == Jet1.term(F(1, 5), 5, 8)
    assert Jet1.constant(1, 4).weighted_integral(0) == Jet1.term(1, 1, 5)


def test_weighted_integral_with_parameter_variable():
    # t^3 + l t in variables (l, t), integrated against t with weight 1
    j = Jet2.from_terms([(0, 3, 1), (1, 1, 1)], 4)
    out = j.weighted_integral(1, 1)
    assert out == Jet2.from_terms([(0, 5, F(1, 5)), (1, 3, F(1, 3))], 6)


@settings(max_examples=60)
@given(jet1s())
def test_derivative_undoes_plain_integral(j):
    assert j.weighted_integral(0).derivative() == j


@settings(max_examples=60)
@given(jet1s())
def test_plain_integral_undoes_derivative_without_constant(j):
    centered = j - Jet1.constant(j.coefficient(0), j.truncation)
    assert centered.derivative().weighted_integral(0) == centered


# -- division ------------------------------------------------------------------------


def test_divide_monomials():
    q = Jet1.term(1, 5, 8).divide(Jet1.term(1, 2, 8))
    assert q == Jet1.term(1, 3, 6)


def test_divide_insufficient_order():
    assert Jet1.term(1, 2, 8).divide(Jet1.term(1, 3, 8)) is None


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Jet1.term(1, 2, 8).divide(Jet1.zero(8))


def test_two_variable_division():
    a = Jet2.from_terms([(0, 4, 1), (1, 3, 1)], 8)  # t^4 + u t^3
    b = Jet2.from_terms([(0, 2, 1), (1, 1, 1)], 8)  # t^2 + u t
    q = a.divide(b)
    assert q == Jet2.from_terms([(0, 2, 1)], 6)


def test_two_variable_division_inconsistent():
    a = Jet2.variable(0, 6)  # u
    b = Jet2.variable(1, 6)  # t
    assert a.divide(b) is None


@settings(max_examples=60)
@given(jet1s(), jet1s())
def test_divide_multiply_roundtrip(a, b):
    if b.is_zero:
        return
    q = a.divide(b)
    if q is None:
        return
    K = q.truncation
    residue = a.truncate(K) - q * b.truncate(K)
    o = residue.order()
    assert o is ABOVE_TRUNCATION or o > a.truncation - b.order()


def linear_solve_divide(self, other):
    """Reference: ``Jet2.divide`` as it was before it went through
    ``Jet1.divide``, one sparse linear solve per quotient degree; its body is
    copied unchanged but for ``Fraction`` spelled ``F``."""
    self._require_same(other)
    d = other.order()
    if d is ABOVE_TRUNCATION:
        raise ZeroDivisionError("divisor vanishes within its truncation")
    K = self.truncation
    nord = self.order()
    if isinstance(nord, int) and nord < d:
        return None
    Kq = K - d
    q = [F(0)] * _tri_size(Kq)
    qterms: list = []
    for m in range(0, Kq + 1):
        # unknowns: q_{(m-j, j)} for j = 0..m; equations: degree m+d of product
        nunk = m + 1
        rows = []
        for eq_j in range(m + d + 1):
            ai, aj = m + d - eq_j, eq_j
            row = {}
            for unk_j in range(nunk):
                bi, bj = ai - (m - unk_j), aj - unk_j
                if bi >= 0 and bj >= 0:
                    bc = other.coeffs[_tri_index(bi, bj)]
                    if bc:
                        row[unk_j] = bc
            acc = self.coeffs[_tri_index(ai, aj)]
            # known lower-degree q contributions
            for qi, qj, qc in qterms:
                bi, bj = ai - qi, aj - qj
                if bi >= 0 and bj >= 0 and bi + bj <= K:
                    bc = other.coeffs[_tri_index(bi, bj)]
                    if bc != 0:
                        acc -= qc * bc
            if acc:
                row[nunk] = acc
            rows.append(row)
        sol = linalg.solve(rows, nunk)
        if isinstance(sol, linalg.Inconsistent):
            return None
        for unk_j, val in enumerate(sol):
            if val != 0:
                q[_tri_index(m - unk_j, unk_j)] = val
                qterms.append((m - unk_j, unk_j, val))
    return Jet2(tuple(q), Kq)


def division_outcome(divide, a, b):
    try:
        return "value", divide(a, b)
    except Exception as exc:  # the type and message are part of the outcome
        return type(exc), str(exc)


@st.composite
def sparse_jet2s(draw, K, shift=(0, 0), min_size=0):
    """A jet of at most ten terms of degree <= K, multiplied by x**shift[0] * y**shift[1]."""
    term = st.tuples(st.integers(0, K), st.integers(0, K), fractions(5, 3))
    terms = draw(st.lists(term, min_size=min_size, max_size=10))
    return Jet2.from_terms(
        [(n - j % (n + 1) + shift[0], j % (n + 1) + shift[1], c) for n, j, c in terms], K
    )


@st.composite
def division_cases(draw):
    """(numerator, divisor): exact products, products with one coefficient
    changed, unrelated numerators and mismatched truncations; the divisor
    is often shifted by y so that its lowest form has no pure-x term."""
    K = draw(st.integers(0, 10))
    b = draw(sparse_jet2s(K, (draw(st.integers(0, 2)), draw(st.integers(0, 2))), min_size=1))
    kind = draw(st.sampled_from(["product", "perturbed", "perturbed", "unrelated", "mismatch"]))
    if kind == "unrelated":
        return draw(sparse_jet2s(K)), b
    if kind == "mismatch":
        return draw(sparse_jet2s(K + 1)), b
    a = draw(sparse_jet2s(K)) * b
    if kind == "perturbed":
        i = draw(st.integers(0, K))
        j = draw(st.integers(0, K - i))
        a = a + Jet2.term(draw(fractions(5, 3).filter(bool)), i, j, K)
    return a, b


@settings(max_examples=400, deadline=None)
@given(division_cases())
def test_jet2_divide_matches_linear_solve(case):
    a, b = case
    assert division_outcome(Jet2.divide, a, b) == division_outcome(linear_solve_divide, a, b)


def test_jet2_divide_dense_product_at_k22():
    K = 22
    g = Jet2.from_terms(
        [(i, n - i, F((i * 7 + n * 3) % 11 - 5 or 1, n + 1)) for n in range(1, K + 1)
         for i in range(n + 1)],
        K,
    )
    q = Jet2.from_terms(
        [(i, n - i, F((i * 5 + n) % 13 - 6 or 2, i + 2)) for n in range(K + 1)
         for i in range(n + 1)],
        K,
    )
    a = q * g
    assert a.divide(g) == linear_solve_divide(a, g) == q.truncate(K - 1)


# -- composition ------------------------------------------------------------------------


def test_compose_binomial():
    j = Jet1.term(1, 2, 4)
    phi = Jet1.from_terms([(1, 1), (2, 1)], 4)
    assert j.compose(phi) == Jet1.from_terms([(2, 1), (3, 2), (4, 1)], 4)


def test_compose_linear():
    assert Jet1.variable(4).compose(Jet1.term(2, 1, 4)) == Jet1.term(2, 1, 4)


def test_compose_cube():
    j = Jet1.term(1, 3, 5)
    phi = Jet1.from_terms([(1, 1), (2, -1)], 5)
    assert j.compose(phi) == Jet1.from_terms([(3, 1), (4, -3), (5, 3)], 5)


# -- cubic-cusp module identities --------------------------------------------------


def _cusp_family(K=12):
    T = Jet2.from_terms([(0, 3, 1), (1, 2, 1)], K)
    u = Jet2.variable(0, K)

    def Ti(i):
        return Jet2.from_terms([(0, i + 3, F(3, i + 3)), (1, i + 2, F(2, i + 2))], K)

    return T, u, Ti


def test_weighted_integrals_generate_the_family():
    T, _, Ti = _cusp_family(8)
    dT = T.derivative(1)
    for i in (1, 2, 3):
        integral = dT.weighted_integral(1, i)
        assert equal_as_polynomials(integral, Ti(i))


def test_cusp_module_identity_degree_seven():
    T, u, Ti = _cusp_family()
    lhs = Ti(4)
    rhs = F(4, 7) * (T * Ti(1)) - F(20, 21) * (u * Ti(3))
    assert (lhs - rhs).is_zero


def test_cusp_module_identity_degree_eight():
    # T*T2 lies in the span of (T3, T*T1, T1^2); the u-weighted coefficients
    # are 2/45 and -2/27 (exact expansion pins them uniquely)
    T, u, Ti = _cusp_family()
    lhs = T * Ti(2)
    rhs = (
        F(16, 15) * (Ti(1) * Ti(1))
        + F(2, 45) * (u * (T * Ti(1)))
        - F(2, 27) * (u * u * Ti(3))
    )
    assert (lhs - rhs).is_zero


def test_cusp_module_identity_degree_nine():
    T, u, Ti = _cusp_family()
    lhs = T * T * T
    rhs = (
        (2 * T - F(4, 27) * (u * u * u)) * Ti(3)
        + F(4, 45) * (u * u * (T * Ti(1)))
        + F(32, 15) * (u * (Ti(1) * Ti(1)))
    )
    assert (lhs - rhs).is_zero


def test_cusp_module_identities_unique_coefficients():
    # solving T*T2 = x*T1^2 + y*u*T*T1 + z*u^2*T3 coefficientwise forces
    # (x, y, z) = (16/15, 2/45, -2/27): cross-check by a tiny exact solve
    T, u, Ti = _cusp_family()
    lhs = T * Ti(2)
    basis = [Ti(1) * Ti(1), u * (T * Ti(1)), u * u * Ti(3)]
    monomials = [(0, 8), (1, 7), (2, 6), (3, 5)]
    import itertools

    rows = [[b.coefficient(i, j) for b in basis] for i, j in monomials]
    rhs = [lhs.coefficient(i, j) for i, j in monomials]
    # solve the overdetermined 4x3 system by elimination
    sol = None
    for trio in itertools.combinations(range(4), 3):
        m = [[rows[r][c] for c in range(3)] + [rhs[r]] for r in trio]
        cand = linalg.solve([{c: x for c, x in enumerate(row) if x} for row in m], 3)
        if not isinstance(cand, linalg.Inconsistent):
            sol = cand
            break
    assert sol == [F(16, 15), F(2, 45), F(-2, 27)]
    assert all(
        sum(rows[r][c] * sol[c] for c in range(3)) == rhs[r] for r in range(4)
    )


# -- misc -------------------------------------------------------------------------------


def test_two_variable_envelope_guard():
    with pytest.raises(ValueError):
        Jet2.zero(25)


def test_mul_monomial_raises_truncation():
    j = Jet2.from_terms([(1, 1, 1)], 3)
    out = j.mul_monomial(1, 0)
    assert out.truncation == 4
    assert out == Jet2.from_terms([(2, 1, 1)], 4)


def test_substitute_two_variables():
    j = Jet2.from_terms([(2, 0, 1), (0, 1, 1)], 6)  # x^2 + y
    phi0 = Jet2.from_terms([(0, 1, 1)], 6)  # x -> y
    phi1 = Jet2.from_terms([(1, 0, 1), (2, 0, 1)], 6)  # y -> x + x^2
    out = j.substitute(phi0, phi1)
    assert out == Jet2.from_terms([(0, 2, 1), (1, 0, 1), (2, 0, 1)], 6)


def test_render_deterministic():
    j = Jet2.from_terms([(0, 2, 1), (1, 1, F(-1, 2))], 4)
    assert j.render(("s", "t")) == "-1/2*s*t + t^2"


def test_jet_core_imports_no_other_tanvar_module():
    """``jets`` is the base layer: every other module may build on it, not the reverse."""
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "tanvar" / "jets.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "tanvar":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "tanvar"]
    assert found == []


# -- the product on integer numerators against the Fraction loop it replaced ----------------


def reference_jet2_mul(self, other):
    """The former ``Jet2.__mul__`` for two jets, its loop copied unchanged."""
    self._require_same(other)
    K = self.truncation
    out = [F(0)] * _tri_size(K)
    right = list(other.terms())
    for i1, j1, c1 in self.terms():
        for i2, j2, c2 in right:
            i, j = i1 + i2, j1 + j2
            if i + j <= K:
                out[_tri_index(i, j)] += c1 * c2
    return Jet2(tuple(out), K)


@st.composite
def product_operands(draw):
    """Two jets of one truncation up to the envelope, dense or sparse, with
    denominators up to 50 so that the common denominators differ."""
    K = draw(st.integers(0, 24))
    if draw(st.booleans()) and K <= 6:
        size = _tri_size(K)
        dense = st.lists(fractions(9, 50), min_size=size, max_size=size)
        return Jet2(tuple(draw(dense)), K), Jet2(tuple(draw(dense)), K)
    term = st.tuples(st.integers(0, K), st.integers(0, K), fractions(9, 50))

    def sparse():
        terms = draw(st.lists(term, max_size=12))
        return Jet2.from_terms([(n - j % (n + 1), j % (n + 1), c) for n, j, c in terms], K)

    return sparse(), sparse()


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_jet2_product_matches_the_fraction_loop(operands):
    a, b = operands
    product = a * b
    assert product == reference_jet2_mul(a, b)
    assert all(type(c) is F for c in product.coeffs)
