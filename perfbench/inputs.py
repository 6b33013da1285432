"""Seeded inputs for the four workloads, each carrying the verdict it must get.

Inputs come in cycles.  A cycle has a fixed multiset of sizes (orders,
truncations, ambient dimensions; curve types too for membership); the seed
draws the coefficients, the other types and classes within each size, and
the order of the cycle.  Whole
cycles keep the percentiles of a run within one size group whatever the
seed, so runs on different seeds can be compared.

Expected verdicts are known by construction or computed with ``oracle``
from the drawn data, never with the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import oracle as O


def _frac(rng: random.Random, num: int = 3, den: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if f or not nonzero:
            return f


# --------------------------------------------------------------------------
# membership: exact elimination
# --------------------------------------------------------------------------

MEMBERSHIP_TYPES = (
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (2, 3, 5), (1, 2, 5),
    (1, 2, 3, 4), (1, 2, 4, 5), (1, 3, 4, 5), (1, 3, 4, 6), (2, 3, 4, 5),
)

# (order, member, curve type) slots.  Orders 6, 8 and 10, with one
# non-member in four.  Per 20 inputs, 13 of order 6 hold the median, 6 of
# order 8 the 90th percentile, and one of order 10 takes the longest
# elimination; a run at the seed holds over 100 inputs.  Each slot has a
# fixed curve type, because elimination costs differ by up to 2x between
# types of one order: a type mix drawn per run moved the 90th percentile
# by 10% from seed to seed.  The seed draws the coefficients and the order
# of the slots.
MEMBERSHIP_CYCLE = (
    [(6, True, A) for A in MEMBERSHIP_TYPES[:10]]
    + [(6, False, A) for A in ((2, 3, 4, 5), (1, 2, 3), (1, 3, 4, 6))]
    + [(8, True, A) for A in ((1, 2, 3), (1, 3, 4), (1, 2, 3, 4), (2, 3, 4, 5))]
    + [(8, False, A) for A in ((2, 3, 5), (1, 2, 4, 5))]
    + [(10, True, (1, 2, 4))]
)


@dataclass
class MembershipInput:
    ident: int
    type_entries: Tuple[int, ...]
    truncation: int
    components: List[Dict[int, Fraction]]  # curve coefficients by degree
    order: int
    h: O.Poly  # in (s, t)
    member: bool
    obstruction: Optional[int]  # degree of the drawn obstruction


def membership_input(rng: random.Random, ident: int, order: int, member: bool,
                     A: Optional[Tuple[int, ...]] = None) -> MembershipInput:
    """``A``: the curve type; drawn from ``MEMBERSHIP_TYPES`` when not given."""
    if A is None:
        A = rng.choice(MEMBERSHIP_TYPES)
    a1 = A[0]
    K = order + a1  # tangent map truncation order + 1, so E = order
    comps = [
        {a: _frac(rng, nonzero=True), **{k: _frac(rng) for k in range(a + 1, K + 1)}}
        for a in A
    ]
    f, T2 = O.tangent_map_dicts(comps, a1, K)
    one = {(0, 0): Fraction(1)}
    phi = [
        (_frac(rng, nonzero=True), f[0], one),
        (_frac(rng, nonzero=True), f[1], one),
        (_frac(rng), f[0], f[1]),
        (_frac(rng), f[0], f[0]),
    ]
    h = O.add(*(O.scale(O.mul(x, y, T2), c) for c, x, y in phi))
    h = O.add(h, *(O.scale(fi, _frac(rng)) for fi in f[2:]))
    obstruction = None
    if not member:
        degree = rng.randint(1, order)
        c = _frac(rng, nonzero=True)
        if degree >= a1 and rng.random() < 0.5:
            h = O.add(h, {(1, degree - a1 + 1): c})  # s t^j: -c t^(a1-1+j)
        else:
            h = O.add(h, {(0, degree + 1): c})  # t^(D+1): (D+1) c t^D
        obstruction = O.membership_obstruction(h, a1, order)
        assert obstruction == degree
    return MembershipInput(ident, A, K, comps, order, h, member, obstruction)


# --------------------------------------------------------------------------
# surface: Jet2 ring operations
# --------------------------------------------------------------------------

SURFACE_CYCLE = [(K, cls) for K in (10, 16, 22) for cls in ("hyperbolic", "elliptic", "parabolic")]


@dataclass
class SurfaceInput:
    ident: int
    truncation: int
    quad: Tuple[Fraction, Fraction, Fraction, Fraction]
    x3: O.Poly
    x4: O.Poly
    expected_class: str
    H: Fraction


def draw_quad(rng: random.Random, cls: str) -> Tuple[Fraction, ...]:
    """Quadratic data (a, b, c, e) of the requested ordinary-point class."""
    if cls == "parabolic":
        # c = 0 gives H = -e (4 b^3 + a^2 e): zero at e = -4 b^3 / a^2, rank 2
        a = _frac(rng, nonzero=True)
        b = _frac(rng, nonzero=True)
        return (a, b, Fraction(0), -4 * b ** 3 / a ** 2)
    if cls == "not ordinary":
        a = _frac(rng, nonzero=True)
        return (a, Fraction(0), Fraction(0), Fraction(0))
    while True:
        quad = tuple(_frac(rng, num=4) for _ in range(4))
        if O.ordinary_class(quad) == cls:
            return quad


def closed_pair(rng: random.Random, quad, K: int, density: float = 1.0) -> Tuple[O.Poly, O.Poly]:
    """x3 = P_u, x4 = P_v for a potential P with the given quadratic data."""
    a, b, c, e = quad
    P = {(3, 0): a / 6, (2, 1): b / 2, (1, 2): c / 2, (0, 3): e / 6}
    for d in range(4, K + 2):
        for j in range(d + 1):
            if rng.random() < density:
                P[(d - j, j)] = _frac(rng, num=4, den=4)
    P = {k: v for k, v in P.items() if v}
    return O.deriv(P, 0), O.deriv(P, 1)


def surface_input(rng: random.Random, ident: int, K: int, cls: str) -> SurfaceInput:
    quad = draw_quad(rng, cls)
    x3, x4 = closed_pair(rng, quad, K)
    return SurfaceInput(ident, K, quad, x3, x4, cls, O.h_invariant(quad))


# --------------------------------------------------------------------------
# symbolic: polys and strata
# --------------------------------------------------------------------------

# Per 24 inputs, in rising cost: Morin tables, classifications at ambient
# 12 and 36, families at N = 4, five families at N = 6 holding the median,
# classifications at 72, families at N = 8, three at N = 10 with the 90th
# percentile in their middle, and a classification at ambient 120.
SYMBOLIC_CYCLE = (
    [("morin", 0)] * 3 + [("classify", 12)] * 3 + [("classify", 36)] * 2
    + [("family", 4)] * 2 + [("family", 6)] * 5 + [("classify", 72)] * 2
    + [("family", 8)] * 3 + [("family", 10)] * 3 + [("classify", 120)]
)

CLASSIFY_PREFIXES = ((1, 2, 3), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5), (1, 3, 4, 6), (1, 2, 4, 6))


@dataclass
class SymbolicInput:
    ident: int
    kind: str  # family | classify | morin
    type_entries: Tuple[int, ...] = ()
    class_spec: Tuple[str, int, int] = ("", 0, 0)  # tag, dimension, flag depth
    expected: Tuple = ()


def family_types(N: int) -> List[Tuple[int, ...]]:
    out = [tuple(range(1, N + 1)) + (N + r,) for r in (1, 2, 3)]
    out += [tuple(range(1, i + 1)) + tuple(range(i + 2, N + 3)) for i in range(N)]
    out.append(tuple(range(3, N + 4)))
    return out


def classify_input(rng: random.Random, ident: int, L: int) -> SymbolicInput:
    """A type of length L - 1, L or L + 1 in a plain, framed, flag or contact class."""
    L1 = L + rng.randint(-1, 1)
    tag = rng.choice(("plain", "tangent", "tpn", "osculating", "contact", "flag", "flag"))
    if tag == "contact":
        n = (L1 - 1) // 2
        u = [2 if rng.random() < 0.1 else 1 for _ in range(n)]
        if rng.random() < 0.5:
            u[rng.randrange(n)] = rng.choice((1, 2, 3))
        A = O.contact_type(u, rng.choice((1, 1, 2, 3)))
        spec = ("contact", n, 0)
        codim = O.codim_contact(A)
    else:
        prefix = rng.choice(CLASSIFY_PREFIXES)
        A = list(prefix) + list(range(prefix[-1] + 1, prefix[-1] + 1 + L1 - len(prefix)))
        bump = rng.choice((0, 0, 1, 2))
        if bump:
            for p in range(rng.randrange(len(prefix), L1), L1):
                A[p] += bump
        A = tuple(A)
        N = L1 - 1
        depth = {"plain": 0, "tangent": 1, "tpn": 2, "osculating": N}.get(tag)
        if depth is None:
            depth = rng.randint(3, N - 1)
        spec = (tag, N, depth if tag == "flag" else 0)
        codim = O.codim_plain(A) if tag == "plain" else O.codim_flag(A, depth)
    expected = (O.singularity(A, tag == "contact"), codim <= 1, codim)
    return SymbolicInput(ident, "classify", A, spec, expected)


def symbolic_input(rng: random.Random, ident: int, kind: str, size: int,
                   families: dict) -> SymbolicInput:
    """``families``: the family types left in the current round, per N.

    Family types of one N are drawn in seeded rounds through all of them, so
    every run holds nearly the same mix of patterns, whose costs differ.
    """
    if kind == "family":
        left = families.setdefault(size, [])
        if not left:
            left.extend(family_types(size))
            rng.shuffle(left)
        A = left.pop()
        return SymbolicInput(ident, "family", A, expected=(O.family_pattern(A),))
    if kind == "classify":
        return classify_input(rng, ident, size)
    k, m = rng.randint(2, 6), rng.randint(0, 4)
    return SymbolicInput(ident, "morin", expected=(k, m))


# --------------------------------------------------------------------------
# cycles
# --------------------------------------------------------------------------


class Stream:
    """Endless seeded stream of input cycles for one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.next_id = 0
        self.family_rounds: dict = {}

    def cycle(self) -> list:
        slots = {
            "membership": MEMBERSHIP_CYCLE,
            "surface": SURFACE_CYCLE,
            "symbolic": SYMBOLIC_CYCLE,
        }[self.workload]
        slots = list(slots)
        self.rng.shuffle(slots)
        out = []
        for slot in slots:
            out.append(self._make(slot))
            self.next_id += 1
        return out

    def _make(self, slot):
        rng, ident = self.rng, self.next_id
        if self.workload == "membership":
            order, member, A = slot
            return membership_input(rng, ident, order, member, A)
        if self.workload == "surface":
            return surface_input(rng, ident, *slot)
        return symbolic_input(rng, ident, *slot, self.family_rounds)


# --------------------------------------------------------------------------
# cli: germ documents and the batch stream
# --------------------------------------------------------------------------


def render_poly(p: O.Poly, names: Tuple[str, ...]) -> str:
    """Germ-format text of a polynomial (integers and p/q only)."""
    out = []
    for e in sorted(p, key=lambda e: (sum(e), e)):
        c = p[e]
        factors = [f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k]
        mag = abs(c)
        coeff = "" if mag == 1 and factors else str(mag)
        body = " ".join(x for x in [coeff] + factors if x)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) or "0"


VERONESE_TEXT = {
    "on S": "on S",
    "tangent": "in Tan(S)",
    "secant": "in Sec(S) \\ Tan(S)",
    "outside": "outside Sec(S)",
}


def _matrix(rng: random.Random, kind: str) -> List[Fraction]:
    """Six upper entries of sum l_i v_i v_i^T; rank and inertia by construction."""
    while True:
        vs = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        det = (
            vs[0][0] * (vs[1][1] * vs[2][2] - vs[1][2] * vs[2][1])
            - vs[0][1] * (vs[1][0] * vs[2][2] - vs[1][2] * vs[2][0])
            + vs[0][2] * (vs[1][0] * vs[2][1] - vs[1][1] * vs[2][0])
        )
        if det != 0:
            break
    signs = {"on S": [1], "tangent": [1, -1], "secant": [1, 1], "outside": [1, 1, rng.choice((1, -1))]}[kind]
    scale = [s * Fraction(rng.randint(1, 3), rng.randint(1, 2)) for s in signs]
    if rng.random() < 0.5:
        scale = [-x for x in scale]  # a projective point: the overall sign is irrelevant
    M = [[sum(l * v[i] * v[j] for l, v in zip(scale, vs)) for j in range(3)] for i in range(3)]
    return [M[0][0], M[0][1], M[0][2], M[1][1], M[1][2], M[2][2]]


def batch_document(rng: random.Random) -> Tuple[str, str, str]:
    """(document text, expected verdict line after 'document i: ', status).

    Status is ok, inconclusive or error, as the batch exit code uses it.
    """
    roll = rng.random()
    if roll < 0.40:
        A = rng.choice(MEMBERSHIP_TYPES + ((1, 2), (2, 3), (1, 2, 3, 4, 5)))
        K = A[-1] + rng.randint(0, 4)
        comps = [
            {a: _frac(rng, nonzero=True), **{k: _frac(rng) for k in range(a + 1, K + 1) if rng.random() < 0.5}}
            for a in A
        ]
        status, line = "ok", "curve: type (" + ",".join(map(str, A)) + ")"
        if rng.random() < 0.08:
            comps[1] = {k: 2 * c for k, c in comps[0].items()}  # rank stays below the ambient
            status, line = "inconclusive", f"curve: not finite type up to truncation {K}"
        lines = ["kind: curve", f"truncation: {K}"]
        for comp in comps:
            if rng.random() < 0.1:
                comp = {**comp, 0: Fraction(rng.randint(1, 3))}  # recentred by the parser
            lines.append("component: " + render_poly({(k,): c for k, c in comp.items()}, ("t",)))
        return "\n".join(lines), line, status
    if roll < 0.75:
        cls = rng.choice(("hyperbolic", "elliptic", "parabolic", "not ordinary"))
        quad = draw_quad(rng, cls)
        K = rng.randint(4, 8)
        x3, x4 = closed_pair(rng, quad, K, density=0.3)
        text = "\n".join(["kind: surface", f"truncation: {K}", "x3: " + render_poly(x3, ("u", "v")),
                          "x4: " + render_poly(x4, ("u", "v"))])
        status = "inconclusive" if cls == "not ordinary" else "ok"
        return text, f"surface: {cls}, H = {O.h_invariant(quad)}", status
    if roll < 0.90:
        kind = rng.choice(tuple(VERONESE_TEXT))
        entries = _matrix(rng, kind)
        return "kind: matrix\nentries: " + " ".join(map(str, entries)), "matrix: " + VERONESE_TEXT[kind], "ok"
    return malformed_document(rng)


def malformed_document(rng: random.Random) -> Tuple[str, str, str]:
    which = rng.randrange(5)
    K = rng.randint(3, 7)
    if which == 0:
        return f"kind: curve\ntruncation: {K}\ncolour: red\ncomponent: t", "error: unknown field 'colour'", "error"
    if which == 1:
        return (f"truncation: {K}\ncomponent: t",
                "error: document needs exactly one 'kind: curve|surface|matrix'", "error")
    if which == 2:
        return "kind: curve\ncomponent: t + t^2", "error: curve documents need a truncation", "error"
    if which == 3:
        e = K + rng.randint(1, 3)
        return (f"kind: curve\ntruncation: {K}\ncomponent: t\ncomponent: t^{e}",
                f"error: exponent {e} exceeds truncation {K}", "error")
    quad = draw_quad(rng, "hyperbolic")
    x3, x4 = closed_pair(rng, quad, K, density=0.3)
    j = rng.randint(1, 2)
    i = rng.randint(3 - j, K - j)
    c = _frac(rng, nonzero=True)
    x3 = O.add(x3, {(i, j): c})
    text = "\n".join(["kind: surface", f"truncation: {K}", "x3: " + render_poly(x3, ("u", "v")),
                      "x4: " + render_poly(x4, ("u", "v"))])
    return text, f"error: x3_v - x4_u has coefficient {j * c} at monomial ({i}, {j - 1})", "error"


def batch_stream(rng: random.Random, count: int) -> Tuple[str, str, int]:
    """Batch input text, the exact plain report expected, and the exit code."""
    docs, lines, statuses = [], ["command: batch", f"documents: {count}"], set()
    for idx in range(1, count + 1):
        text, line, status = batch_document(rng)
        docs.append(text)
        lines.append(f"document {idx}: {line}")
        statuses.add(status)
    code = 2 if "error" in statuses else 3 if "inconclusive" in statuses else 0
    return "\n---\n".join(docs) + "\n", "\n".join(lines) + "\n", code
