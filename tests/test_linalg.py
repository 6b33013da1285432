from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tanvar.linalg import Inconsistent, RankTracker, solve


def dense_gauss_jordan(rows, labels, n):
    """Reference: the dense elimination ``jacobi_membership`` ran before the
    sparse kernel, its loop copied unchanged.  Returns ``("refuted", label,
    value)`` for the first inconsistent row or ``("solved", solution)``."""
    r = 0
    piv_cols = []
    for c in range(n):
        piv = None
        for rr in range(r, len(rows)):
            if rows[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        labels[r], labels[piv] = labels[piv], labels[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        piv_cols.append((r, c))
        r += 1
    for rr in range(len(rows)):
        if rows[rr][n] != 0 and all(rows[rr][c] == 0 for c in range(n)):
            return ("refuted", labels[rr], rows[rr][n])
    sol = [Fraction(0)] * n
    for r, c in piv_cols:
        sol[c] = rows[r][n]
    return ("solved", sol)


# two of the three branches give zero, so rows come out sparse
_entry = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def systems(draw):
    """Sparse augmented systems: square, over- and under-determined, and
    inconsistent ones made by adding a row ``a + b`` with a shifted right side."""
    shape = draw(st.sampled_from(["square", "over", "under", "inconsistent"]))
    n = draw(st.integers(2, 7))
    if shape == "square":
        m = n
    elif shape == "over":
        m = n + draw(st.integers(1, 4))
    elif shape == "under":
        m = draw(st.integers(1, n - 1))
    else:
        m = draw(st.integers(1, 8))
    rows = [draw(st.lists(_entry, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    if shape == "inconsistent":
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        extra = [x + y for x, y in zip(rows[a], rows[b])]
        extra[n] += draw(st.sampled_from([Fraction(1), Fraction(-2, 3)]))
        rows.insert(draw(st.integers(0, m)), extra)
    return rows, n


@settings(max_examples=300)
@given(systems())
def test_solve_matches_dense_gauss_jordan(system):
    dense, n = system
    want = dense_gauss_jordan([row[:] for row in dense], list(range(len(dense))), n)
    sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
    got = solve(sparse, n)
    if want[0] == "refuted":
        assert got == Inconsistent(want[1], want[2])
    else:
        assert got == want[1]
    # no row operation leaves a stored zero behind
    assert all(x != 0 for row in sparse for x in row.values())


def test_inconsistent_reports_caller_row_index():
    rows = [{0: Fraction(1), 2: Fraction(1)}, {0: Fraction(2), 2: Fraction(3)}, {1: Fraction(1)}]
    assert solve(rows, 2) == Inconsistent(1, Fraction(1))


def test_free_unknowns_are_zero():
    # x0 + x1 = 2: x0 pivots, x1 is free
    assert solve([{0: Fraction(1), 1: Fraction(1), 2: Fraction(2)}], 2) == [2, 0]


@settings(max_examples=100)
@given(st.lists(st.lists(_entry, min_size=5, max_size=5), max_size=8))
def test_rank_tracker_matches_dense_rank(vectors):
    tracker = RankTracker()
    for k, v in enumerate(vectors, start=1):
        before = tracker.rank
        grew = tracker.add(v)
        prefix = [row + [Fraction(0)] for row in vectors[:k]]
        dense_gauss_jordan(prefix, list(range(k)), 5)  # reduces prefix in place
        rank = sum(1 for row in prefix if any(x != 0 for x in row))
        assert tracker.rank == rank
        assert grew == (rank > before)
