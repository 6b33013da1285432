"""Codimension of type strata and enumeration of generic types.

Five classes of curves are supported.  Plain curves in projective (N+1)-space
carry the stratum codimension sum(a_i - i).  Curves framed by a partial flag
of depth k (tangent frame k = 1, tangent-principal-normal frame k = 2,
full osculating frame k = N) carry

    sum_{i=k}^{N+1} (a_i - i)  -  (N - k + 1)(a_k - k),

which for k = N collapses to a_{N+1} - (N+1).  Contact-integral curves with
osculating isotropic frames in projective (2n+1)-space only realize types
satisfying

    a_{n+j} = a_{n+1} + a_n - a_{n+1-j}   (2 <= j <= n+1, with a_0 = 0),

and then the codimension is a_{n+1} - (n+1).  The admissible types are in
bijection with order data (u_1..u_n, v), all >= 1, via partial sums.

The generic types of a class are those of codimension at most one.  They are
enumerated by bounded search: codimension <= 1 forces a_i <= i + 2 in every
class (each unit excess at a_i costs at least one unit of codimension once
the frame discount is accounted for), so the search space below that bound
is finite and complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from .curves import MAX_TYPE_LENGTH, TypeSequence


@dataclass(frozen=True)
class CurveClass:
    """A curve class: its description, dimension parameter and flag depth.

    ``dimension`` is N for the projective classes (ambient dimension N+1)
    and n for the contact class (ambient dimension 2n+1).  ``depth`` is 0
    for plain curves, k for curves framed by a flag of depth k, and None for
    contact-integral curves.
    """

    description: str
    dimension: int
    depth: Optional[int]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension parameter must be >= 1")
        if self.depth is not None and self.depth > self.dimension:
            raise ValueError(f"{self.description} curves need N >= {self.depth}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def plain(N: int) -> "CurveClass":
        return CurveClass("plain", N, 0)

    @staticmethod
    def tangent_framed(N: int) -> "CurveClass":
        return CurveClass("tangent-framed", N, 1)

    @staticmethod
    def tpn_framed(N: int) -> "CurveClass":
        return CurveClass("tangent-principal-normal-framed", N, 2)

    @staticmethod
    def osculating_framed(N: int) -> "CurveClass":
        return CurveClass("osculating-framed", N, N)

    @staticmethod
    def contact_osculating(n: int) -> "CurveClass":
        return CurveClass("contact-osculating", n, None)

    @staticmethod
    def flag(N: int, k: int) -> "CurveClass":
        """General partial-flag class of depth k (columns 1..k+1 of the flag).

        A depth that a named class of :data:`CLASSES` has (1, 2 or N) gives
        that class, the first in table order.
        """
        if not 1 <= k <= N:
            raise ValueError("flag depth must satisfy 1 <= k <= N")
        for make in CLASSES.values():
            if make(N).depth == k:
                return make(N)
        return CurveClass(f"flag-framed (k={k})", N, k)

    # -- derived data ----------------------------------------------------------

    @property
    def type_length(self) -> int:
        if self.depth is None:
            return 2 * self.dimension + 1
        return self.dimension + 1

    def describe(self) -> str:
        letter = "n" if self.depth is None else "N"
        return f"{self.description} ({letter}={self.dimension})"


#: the ``--class`` names of the command line, each with its constructor
CLASSES = {
    "plain": CurveClass.plain,
    "tangent": CurveClass.tangent_framed,
    "tpn": CurveClass.tpn_framed,
    "osculating": CurveClass.osculating_framed,
    "contact": CurveClass.contact_osculating,
}


@dataclass(frozen=True)
class LagrangianOrders:
    """Order data (u_1..u_n, v) reconstructing an admissible contact type."""

    u: Tuple[int, ...]
    v: int


@dataclass(frozen=True)
class Inadmissible:
    """Why a type sequence is not realizable by contact-osculating curves."""

    reason: str


def _check_length(A: TypeSequence, want: int) -> None:
    if len(A) != want:
        raise ValueError(f"type length {len(A)} does not match expected {want}")


def codim_plain(A: TypeSequence, N: int) -> int:
    """Stratum codimension sum(a_i - i) for plain curves in (N+1)-space."""
    _check_length(A, N + 1)
    return sum(a - i for i, a in enumerate(A.entries, start=1))


def codim_flag(A: TypeSequence, k: int, N: int) -> int:
    """Stratum codimension for depth-k flag-framed curves."""
    if not 1 <= k <= N:
        raise ValueError("flag depth must satisfy 1 <= k <= N")
    _check_length(A, N + 1)
    tail = sum(A.entries[i - 1] - i for i in range(k, N + 2))
    return tail - (N - k + 1) * (A.entries[k - 1] - k)


def lagrangian_admissible(
    A: TypeSequence, n: int
) -> Union[LagrangianOrders, Inadmissible]:
    """Check the contact-osculating realizability constraint and extract orders.

    The constraint is a_{n+j} = a_{n+1} + a_n - a_{n+1-j} for j = 2..n+1
    with the convention a_0 = 0.  On success the orders u_i = a_i - a_{i-1}
    (i <= n) and v = a_{n+1} - a_n are returned after verifying both
    reconstruction formulas round-trip.
    """
    _check_length(A, 2 * n + 1)
    a = (0,) + A.entries  # a[0] = 0 convention
    for j in range(2, n + 2):
        want = a[n + 1] + a[n] - a[n + 1 - j]
        if a[n + j] != want:
            return Inadmissible(
                f"a_{n + j} = {a[n + j]} but the framing forces "
                f"a_{n + 1} + a_{n} - a_{n + 1 - j} = {want}"
            )
    u = tuple(a[i] - a[i - 1] for i in range(1, n + 1))
    v = a[n + 1] - a[n]
    if any(ui < 1 for ui in u) or v < 1:
        return Inadmissible("orders must all be >= 1")
    rebuilt = orders_to_type(LagrangianOrders(u, v))
    assert rebuilt.entries == A.entries
    return LagrangianOrders(u, v)


def codim_lagrangian(A: TypeSequence, n: int) -> int:
    """Stratum codimension a_{n+1} - (n+1) for admissible contact types."""
    verdict = lagrangian_admissible(A, n)
    if isinstance(verdict, Inadmissible):
        raise ValueError(f"inadmissible type: {verdict.reason}")
    return A.entries[n] - (n + 1)


def orders_to_type(orders: LagrangianOrders) -> TypeSequence:
    """Rebuild the contact type from its order data (always admissible)."""
    u, v = orders.u, orders.v
    if any(ui < 1 for ui in u) or v < 1:
        raise ValueError("orders must all be >= 1")
    n = len(u)
    a: List[int] = []
    total = 0
    for ui in u:
        total += ui
        a.append(total)
    a.append(total + v)
    for j in range(1, n + 1):
        a.append(a[n] + sum(u[n - j :]))
    return TypeSequence(tuple(a))


def codimension(A: TypeSequence, cls: CurveClass) -> int:
    """Codimension of the type stratum within the given curve class."""
    if cls.depth is None:
        return codim_lagrangian(A, cls.dimension)
    if cls.depth == 0:
        return codim_plain(A, cls.dimension)
    return codim_flag(A, cls.depth, cls.dimension)


def _bounded_sequences(length: int) -> List[Tuple[int, ...]]:
    """All strictly increasing positive sequences with a_i <= i + 2, in
    lexicographic order.

    a_i - i is non-decreasing with values in {0, 1, 2}, so each sequence is
    i for i <= p, i + 1 for p < i <= q and i + 2 beyond, for breakpoints
    0 <= p <= q <= length; later breakpoints come first.
    """
    e0, e1, e2 = (tuple(range(1 + s, length + 1 + s)) for s in range(3))
    return [
        e0[:p] + e1[p:q] + e2[q:]
        for p in range(length, -1, -1)
        for q in range(length, p - 1, -1)
    ]


@lru_cache(maxsize=None)
def _enumerate_cached(cls: CurveClass) -> Tuple[TypeSequence, ...]:
    result = []
    for seq in _bounded_sequences(cls.type_length):
        A = TypeSequence(seq)
        if cls.depth is None:
            if isinstance(lagrangian_admissible(A, cls.dimension), Inadmissible):
                continue
        if codimension(A, cls) <= 1:
            result.append(A)
    return tuple(result)


def enumerate_generic(cls: CurveClass) -> List[TypeSequence]:
    """All types of codimension <= 1 in the class, sorted lexicographically.

    For the contact class only admissible types qualify.  The search bound
    a_i <= i + 2 is complete for codimension <= 1 (see module docstring).
    Classes whose types are longer than :data:`MAX_TYPE_LENGTH` are refused.
    """
    if cls.type_length > MAX_TYPE_LENGTH:
        raise ValueError(f"type length {cls.type_length} exceeds {MAX_TYPE_LENGTH}")
    return list(_enumerate_cached(cls))
