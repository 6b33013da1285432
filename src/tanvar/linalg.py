"""Sparse exact Gaussian elimination over the rationals.

Every exact linear solve in the library goes through this module.  A row is
a ``dict`` from column index to a nonzero ``Fraction``; an absent column is
zero, and no row operation reads or writes a zero entry.  The coefficient
systems of jet arithmetic are almost entirely zero, so this is where their
cost goes down.  An augmented system in ``n`` unknowns keeps its right-hand
side in column ``n``.

The pivot rule is fixed, because refutation witnesses and minimal-degree
multipliers are read off the eliminated rows: columns are visited in the
order the caller gives, and the pivot of a column is the first row at or
below the current rank that is nonzero there, and it trades positions with
the row at the current rank, as in textbook Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Row = Dict[int, Fraction]


def _clear(row: Row, pivot: Row, col: int) -> None:
    """Subtract the multiple of a normalised pivot row that clears ``row[col]``."""
    f = row.get(col)
    if f is None:
        return
    for c, v in pivot.items():
        x = row.get(c)
        if x is None:
            row[c] = -f * v
        else:
            x -= f * v
            if x:
                row[c] = x
            else:
                del row[c]


def _normalise(row: Row, col: int) -> None:
    inv = 1 / row[col]
    for c, v in row.items():
        row[c] = v * inv


def _forward(rows: Sequence[Row], columns: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Forward pass of :func:`eliminate`: pivots normalised and cleared downward.

    Rows at positions ``>= len(pivots)`` are already final here.
    """
    order = list(range(len(rows)))
    pivots: List[int] = []
    for col in columns:
        r = len(pivots)
        for k in range(r, len(order)):
            if col in rows[order[k]]:
                break
        else:
            continue
        order[r], order[k] = order[k], order[r]
        prow = rows[order[r]]
        _normalise(prow, col)
        for k in range(r + 1, len(order)):
            _clear(rows[order[k]], prow, col)
        pivots.append(col)
    return order, pivots


def _backward(rows: Sequence[Row], order: List[int], pivots: List[int]) -> None:
    """Clear each pivot column upward; touches only the pivot rows."""
    # clearing the pivot columns upward only after the forward pass is
    # cheaper than clearing them at once, and gives the same reduced rows
    for r in reversed(range(len(pivots))):
        prow, col = rows[order[r]], pivots[r]
        for k in range(r):
            _clear(rows[order[k]], prow, col)


def eliminate(rows: Sequence[Row], columns: Iterable[int]) -> Tuple[List[int], List[int]]:
    """Gauss-Jordan elimination of ``rows`` in place, over the given columns.

    Returns ``(order, pivots)``: ``order`` lists the row indices in their
    final positions, and the row at position ``k < len(pivots)`` has a 1 in
    column ``pivots[k]``, where every other row has a 0.  Rows at positions
    ``>= len(pivots)`` are zero in every listed column.
    """
    order, pivots = _forward(rows, columns)
    _backward(rows, order, pivots)
    return order, pivots


@dataclass(frozen=True)
class Inconsistent:
    """The first row, in elimination order, that reduces to ``0 = value``."""

    row: int  # index into the caller's rows
    value: Fraction


def solve(rows: Sequence[Row], n: int) -> Union[List[Fraction], Inconsistent]:
    """Solve an augmented system in ``n`` unknowns, reducing ``rows`` in place.

    Returns the solution with every free unknown set to zero, or the first
    inconsistent row.  Unknowns are pivoted in index order, so a caller that
    numbers its unknowns by preference gets the preferred ones as pivots and
    the others as zeros.  An inconsistent system is found after the forward
    pass and left without the upward pass, which would not change its
    witness: that pass touches only the rows above the rank.
    """
    order, pivots = _forward(rows, range(n))
    for i in order[len(pivots):]:
        if n in rows[i]:
            return Inconsistent(i, rows[i][n])
    _backward(rows, order, pivots)
    sol = [Fraction(0)] * n
    for i, col in zip(order, pivots):
        sol[col] = rows[i].get(n, Fraction(0))
    return sol


class RankTracker:
    """Incremental rank of a growing family of rational vectors."""

    def __init__(self):
        self.pivots: List[Tuple[int, Row]] = []  # (pivot column, normalised row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Reduce the vector against the current pivots; True if the rank grew."""
        row = {c: x for c, x in enumerate(vector) if x}
        for col, prow in self.pivots:
            _clear(row, prow, col)
        if not row:
            return False
        col = min(row)
        _normalise(row, col)
        self.pivots.append((col, row))
        return True
