"""Verdicts that a change of coordinates must not move (metamorphic tests).

A closed surface chart (x3, x4) = dF is moved by an invertible integer linear
map M of (u, v), F -> F o M, the swap of u and v included, and both charts go
through ``tanvar surface``.  The ordinary class and the D4 tag are invariants
of the germ.  H is a constant times the discriminant of the cubic part of F,
which F o M scales by det(M)^6, so its sign does not change either.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions
from tanvar.cli import run
from tanvar.jets import Jet2

SWAP = ((0, 1), (1, 0))
#: the report lines a change of coordinates must not move
INVARIANT = ("ordinary class", "D4 verdict", "error")


@st.composite
def potentials(draw):
    """F at truncation K + 1 for a chart of truncation 2 <= K <= 8: a cubic
    part (degenerate ones included) and some terms of degree 4 to K + 1."""
    trunc = draw(st.integers(2, 8))
    coeff = fractions(max_num=4, max_den=3)
    terms = [(3 - j, j, draw(coeff)) for j in range(4)]
    for _ in range(draw(st.integers(0, 10)) if trunc >= 3 else 0):
        d = draw(st.integers(4, trunc + 1))
        j = draw(st.integers(0, d))
        terms.append((d - j, j, draw(coeff)))
    return Jet2.from_terms(terms, trunc + 1)


entries = st.integers(-3, 3)
invertible_maps = st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)).filter(
    lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
) | st.just(SWAP)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("invariance") / "surface.germ"


def surface_report(doc_path, potential):
    """Exit code and ``key: value`` lines of ``tanvar surface`` on the chart dF."""
    x3, x4 = (potential.derivative(var).render(("u", "v")) for var in (0, 1))
    K = potential.truncation - 1
    doc_path.write_text(f"kind: surface\ntruncation: {K}\nx3: {x3}\nx4: {x4}\n")
    code, out = run(["surface", str(doc_path)])
    return code, dict(line.split(": ", 1) for line in out.splitlines())


@settings(max_examples=60, deadline=None)
@given(potentials(), invertible_maps)
def test_surface_verdicts_invariant_under_linear_maps(doc_path, F, M):
    K = F.truncation
    u, v = Jet2.variable(0, K), Jet2.variable(1, K)
    moved = F.substitute(*(row[0] * u + row[1] * v for row in M))
    (code, before), (moved_code, after) = (surface_report(doc_path, G) for G in (F, moved))
    assert moved_code == code
    # at truncation 2 an ordinary germ has no D4 verdict: both report the error
    assert [after.get(key) for key in INVARIANT] == [before.get(key) for key in INVARIANT]
    if "H" in before:  # scaled by det(M)^6 > 0, so its sign does not move
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        assert Fraction(after["H"]) == det ** 6 * Fraction(before["H"])
