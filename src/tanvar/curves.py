"""Curve germs in an affine chart of projective space and their types.

A curve germ is a tuple of one-variable jets, one per affine coordinate,
all vanishing at t = 0.  Its *type* (a_1 < a_2 < ... < a_m) records the
derivative counts at which the span of the derivative vectors at 0 grows:
a_i is the smallest k such that (gamma', gamma'', ..., gamma^(k))(0) has
rank i.  A germ whose derivative span never fills the ambient space within
the stored truncation gets the verdict :class:`NotFiniteTypeUpTo` rather
than an answer; finite type is not decidable at a fixed truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .jets import Jet1, JetDomainError, TruncationMismatch
from .linalg import RankTracker, eliminate


class NotFiniteTypeError(ValueError):
    """Raised by operations that require a finite-type curve."""


#: longest type; curve documents are capped at truncation 256
#: (``jets.MAX_TRUNCATION_1``), so every type read from one fits
MAX_TYPE_LENGTH = 256


@dataclass(frozen=True)
class TypeSequence:
    """Strictly increasing positive integers (a_1, ..., a_m), m <= MAX_TYPE_LENGTH."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty type sequence")
        if self.entries[0] < 1:
            raise ValueError("type entries must be positive")
        for a, b in zip(self.entries, self.entries[1:]):
            if b <= a:
                raise ValueError("type entries must increase strictly")
        if len(self.entries) > MAX_TYPE_LENGTH:
            raise ValueError(f"type length {len(self.entries)} exceeds {MAX_TYPE_LENGTH}")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @staticmethod
    def of(*entries: int) -> "TypeSequence":
        return TypeSequence(tuple(entries))

    def render(self) -> str:
        return "(" + ",".join(str(a) for a in self.entries) + ")"

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class NotFiniteTypeUpTo:
    """Verdict: the derivative span did not reach full rank within truncation."""

    truncation: int


@dataclass(frozen=True)
class CurveGerm:
    """Affine-chart curve germ: components x_1(t), ..., x_{N+1}(t), all 0 at t=0."""

    components: Tuple[Jet1, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a curve germ needs at least one component")
        K = self.components[0].truncation
        for c in self.components:
            if c.truncation != K:
                raise ValueError("components must share one truncation order")
            if c.coefficient(0) != 0:
                raise ValueError("curve germ components must vanish at t = 0")

    @staticmethod
    def monomial(type_sequence: TypeSequence, truncation: int) -> "CurveGerm":
        """The monomial curve t -> (t^{a_1}, ..., t^{a_m})."""
        if truncation < type_sequence.entries[-1]:
            raise ValueError("truncation below the largest exponent")
        return CurveGerm(
            tuple(Jet1.term(1, a, truncation) for a in type_sequence)
        )

    @property
    def ambient_dim(self) -> int:
        return len(self.components)

    @property
    def truncation(self) -> int:
        return self.components[0].truncation


def _rank_filtration(components: Sequence[Jet1]) -> Union[TypeSequence, NotFiniteTypeUpTo]:
    """Type read off the degrees k >= 1 at which the coefficient vectors gain rank.

    The k-th derivative at 0 equals k! times the degree-k coefficient vector;
    the scaling is irrelevant for ranks, so the raw coefficients are used.
    The degree-0 vector only seeds the span: it is zero for an affine germ
    and the point itself for a homogeneous lift.
    """
    K = components[0].truncation
    tracker = RankTracker()
    entries: List[int] = []
    for k in range(K + 1):
        if tracker.add([c.coefficient(k) for c in components]) and k > 0:
            entries.append(k)
            if tracker.rank == len(components):
                return TypeSequence(tuple(entries))
    return NotFiniteTypeUpTo(K)


def curve_type(germ: CurveGerm) -> Union[TypeSequence, NotFiniteTypeUpTo]:
    """Type of the germ from the rank filtration of its derivative vectors at 0."""
    return _rank_filtration(germ.components)


def projective_type(lift: Sequence[Jet1]) -> Union[TypeSequence, NotFiniteTypeUpTo]:
    """Type computed from a homogeneous lift (the lift itself joins the matrix).

    a_i is the smallest r such that (lift, lift', ..., lift^(r)) has rank
    i + 1 at t = 0.  The lift must not vanish at the origin, and its
    components must share one truncation order.
    """
    if any(c.truncation != lift[0].truncation for c in lift):
        raise TruncationMismatch("lift components must share one truncation order")
    if all(c.coefficient(0) == 0 for c in lift):
        raise JetDomainError("homogeneous lift vanishes at t = 0")
    return _rank_filtration(lift)


def homogeneous_lift(germ: CurveGerm) -> Tuple[Jet1, ...]:
    """The affine lift (1, x_1(t), ..., x_{N+1}(t))."""
    one = Jet1.constant(1, germ.truncation)
    return (one,) + germ.components


def affine_chart(lift: Sequence[Jet1]) -> CurveGerm:
    """Re-affinize a homogeneous lift and re-center the resulting germ.

    Divides by the first coordinate (which must be a unit) and subtracts the
    constant terms.  The result lives at a lower truncation only if division
    lowers it (a unit divisor keeps it).
    """
    unit = lift[0]
    if unit.coefficient(0) == 0:
        raise JetDomainError("first lift coordinate is not a unit")
    comps = []
    for x in lift[1:]:
        q = x.divide(unit)
        assert q is not None  # unit divisor: division always succeeds
        comps.append(q - Jet1.constant(q.coefficient(0), q.truncation))
    return CurveGerm(tuple(comps))


def normalize(germ: CurveGerm):
    """Bring a finite-type germ to its triangular normal shape.

    Returns ``(normalized, matrix)`` where component i of the result is
    t^{a_i} plus higher terms whose degrees avoid every a_j with j > i, and
    ``matrix`` is the invertible rational matrix with
    ``normalized_i = sum_j matrix[i][j] * original_j``.
    """
    t = curve_type(germ)
    if isinstance(t, NotFiniteTypeUpTo):
        raise NotFiniteTypeError(
            f"germ is not of finite type within truncation {t.truncation}"
        )
    m = germ.ambient_dim
    K = germ.truncation
    # each row carries its component's coefficients in columns 0..K and a row
    # of the identity in columns K+1.., which records the row operations
    rows = [{**dict(x.terms()), K + 1 + i: Fraction(1)} for i, x in enumerate(germ.components)]
    order, pivots = eliminate(rows, t.entries)
    assert len(pivots) == m  # the rank filtration guarantees a pivot row
    zero = Fraction(0)
    comps = tuple(Jet1(tuple(rows[r].get(k, zero) for k in range(K + 1))) for r in order)
    matrix = tuple(tuple(rows[r].get(K + 1 + j, zero) for j in range(m)) for r in order)
    return CurveGerm(comps), matrix


@dataclass(frozen=True)
class FlagFrame:
    """Moving frame whose leading i columns span the i-th osculating space.

    ``columns[j]`` is a tuple of N+2 one-variable jets; column 0 is the
    homogeneous lift of the (normalized) curve and column j >= 1 is its
    a_j-th derivative divided by a_j factorial.
    """

    columns: Tuple[Tuple[Jet1, ...], ...]
    source_type: TypeSequence

    @property
    def size(self) -> int:
        return len(self.columns)

    def at_zero(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The frame matrix evaluated at t = 0, columns in column-major order."""
        return tuple(
            tuple(entry.coefficient(0) for entry in col) for col in self.columns
        )

    def span_at_zero(self, i: int) -> Tuple[Tuple[Fraction, ...], ...]:
        """The first i columns at t = 0 (a basis of V_i(0))."""
        return self.at_zero()[:i]


def flag_lift(germ: CurveGerm) -> FlagFrame:
    """Osculating-flag frame of a finite-type germ.

    The germ is normalized first; the columns are then the homogeneous lift
    and its scaled derivatives of orders a_1, ..., a_{N+1}.  All entries are
    aligned to the truncation of the highest derivative taken.
    """
    normalized, _ = normalize(germ)
    # component i of the normal shape is t^{a_i} plus higher terms
    t = TypeSequence(tuple(x.order() for x in normalized.components))
    lift = homogeneous_lift(normalized)
    a_max = t.entries[-1]
    K_out = germ.truncation - a_max
    if K_out < 0:
        raise NotFiniteTypeError("truncation too small for the flag frame")
    cols: List[Tuple[Jet1, ...]] = [tuple(x.truncate(K_out) for x in lift)]
    fact = 1
    derivs = list(lift)
    step = 0
    for a in t.entries:
        while step < a:
            derivs = [d.derivative() for d in derivs]
            step += 1
            fact *= step
        scale = Fraction(1, fact)
        cols.append(tuple((scale * d).truncate(K_out) for d in derivs))
    return FlagFrame(tuple(cols), t)
