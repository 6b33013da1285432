"""Singularity class of a tangent variety from the type of its curve.

Every verdict here is a lookup in one table, :data:`NORMAL_FORM_TYPES`,
backed by a classification statement; no diffeomorphism is certified
numerically.  The table lists the nine classified singularities, each under
the type of the monomial curve whose tangent map is its (s,t) normal form.
Both normal-form charts, (s,t) and (u,x), are derived from that type rather
than stored.  In ambient dimension three the type determines the class
directly; in higher ambient dimension the verdict depends only on a short
leading prefix of the type, so appending further entries never changes it.
The type (2,3,5) is special: it is classified only within the
contact-osculating class, and even there the type does not pin down the
diffeomorphism class (exactly two classes occur), which the result reports
as a caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .curves import CurveGerm, TypeSequence
from .jets import Jet2
from .strata import MAX_TYPE_LENGTH, CurveClass, enumerate_generic
from .tangency import tangent_map


class SingularityClass(Enum):
    CUSPIDAL_EDGE = "cuspidal edge"
    FOLDED_UMBRELLA = "folded umbrella"
    OPEN_FOLDED_UMBRELLA = "open folded umbrella"
    SWALLOWTAIL = "swallowtail"
    OPEN_SWALLOWTAIL = "open swallowtail"
    MOND_SURFACE = "Mond surface"
    OPEN_MOND_SURFACE = "open Mond surface"
    UNFURLED_MOND_SURFACE = "unfurled Mond surface"
    GENERIC_FOLDED_PLEAT = "generic folded pleat"
    UNCLASSIFIED = "unclassified"


TWO_CLASS_CAVEAT = (
    "type (2,3,5) does not determine the diffeomorphism class: "
    "exactly two classes exist for this type"
)


@dataclass(frozen=True)
class Classification:
    singularity: SingularityClass
    generic: bool
    caveat: Optional[str] = None


#: the classified singularities, each under the type whose monomial curve
#: has the singularity's (s,t) normal form as its tangent map
NORMAL_FORM_TYPES = {
    (1, 2, 3): SingularityClass.CUSPIDAL_EDGE,
    (1, 2, 4): SingularityClass.FOLDED_UMBRELLA,
    (2, 3, 4): SingularityClass.SWALLOWTAIL,
    (1, 3, 4): SingularityClass.MOND_SURFACE,
    (2, 3, 4, 5): SingularityClass.OPEN_SWALLOWTAIL,
    (1, 3, 4, 5): SingularityClass.OPEN_MOND_SURFACE,
    (1, 2, 4, 5): SingularityClass.OPEN_FOLDED_UMBRELLA,
    (1, 3, 4, 6): SingularityClass.UNFURLED_MOND_SURFACE,
    (2, 3, 5): SingularityClass.GENERIC_FOLDED_PLEAT,
}

#: command-line names: the singularity's name lower-cased, blanks hyphenated
SINGULARITY_SLUGS = {
    sing.value.lower().replace(" ", "-"): sing for sing in NORMAL_FORM_TYPES.values()
}


def classify(A: TypeSequence, cls: CurveClass) -> Classification:
    """Look up the singularity of the tangent variety of a type-A curve.

    A type of length three is looked up as it is; a longer one by its prefix
    (1,2,3) if it starts so, and otherwise by its first four entries.  The
    class argument fixes both the admissible table (the (2,3,5) entry counts
    only for the contact class) and the genericity verdict, which holds
    exactly when A lies in the codimension <= 1 list of the class.
    """
    if len(A) != cls.type_length:
        raise ValueError(
            f"type length {len(A)} does not match class ambient {cls.type_length}"
        )
    entries = A.entries
    key = entries[:3] if len(entries) == 3 or entries[:3] == (1, 2, 3) else entries[:4]
    sing = NORMAL_FORM_TYPES.get(key, SingularityClass.UNCLASSIFIED)
    caveat = None
    if sing is SingularityClass.GENERIC_FOLDED_PLEAT:
        if cls.depth is None:
            caveat = TWO_CLASS_CAVEAT
        else:
            sing = SingularityClass.UNCLASSIFIED
    generic = any(A.entries == B.entries for B in enumerate_generic(cls))
    return Classification(sing, generic, caveat)


# --------------------------------------------------------------------------
# normal forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Exact polynomial parametrizations of a singularity, zero-padded.

    ``chart_st`` uses coordinates (s, t) as in a tangent map; ``chart_ux``
    is the alternative (u, x) chart when one is known, with u playing the
    role of the first variable.
    """

    singularity: SingularityClass
    ambient_dim: int
    chart_st: Tuple[Jet2, ...]
    chart_ux: Optional[Tuple[Jet2, ...]]
    caveat: Optional[str] = None


def normal_form_curve(A: TypeSequence, truncation: Optional[int] = None) -> CurveGerm:
    """The monomial curve t -> (t^{a_1}, ..., t^{a_m}) realizing a type."""
    if truncation is None:
        truncation = A.entries[-1] + 3
    return CurveGerm.monomial(A, truncation)


#: truncation order of every normal-form chart
_TRUNCATION = 8

def normal_form_type(singularity: SingularityClass) -> TypeSequence:
    """The type under which ``singularity`` is listed in :data:`NORMAL_FORM_TYPES`."""
    for entries, sing in NORMAL_FORM_TYPES.items():
        if sing is singularity:
            return TypeSequence(entries)
    raise ValueError("no normal form for the unclassified verdict")


def _pad(comps, ambient: int) -> Tuple[Jet2, ...]:
    return tuple(comps) + (Jet2.zero(_TRUNCATION),) * (ambient - len(comps))


def _ux_chart(A: TypeSequence) -> Tuple[Jet2, ...]:
    """The (u,x) chart of the singularity listed under type A.

    Component 1 is u and component i >= 2 is
    (a2/a_i) x^{a_i} + ((a2 - a1)/(a_i - a1)) u x^{a_i - a1}, so the x-partial
    of component i is x^{a_i - a1 - 1} (a2 x^{a1} + (a2 - a1) u).  The
    cuspidal edge is the one exception: it keeps its classical chart
    (u, x^2, x^3).
    """
    u = Jet2.variable(0, _TRUNCATION)
    if A.entries == (1, 2, 3):
        return (u, Jet2.term(1, 0, 2, _TRUNCATION), Jet2.term(1, 0, 3, _TRUNCATION))
    a1, a2 = A[0], A[1]
    return (u,) + tuple(
        Jet2.from_terms(
            [(0, a, Fraction(a2, a)), (1, a - a1, Fraction(a2 - a1, a - a1))], _TRUNCATION
        )
        for a in A[1:]
    )


def normal_form(singularity: SingularityClass, ambient_dim: int) -> NormalForm:
    """Exact parametrizations of a named singularity, padded with zeros.

    The (s,t) chart is the tangent map of the monomial curve of the
    singularity's type, which needs an ambient dimension of at least the
    type's length, and the (u,x) chart is derived from the same type.  The
    folded-pleat entry is a representative tangent map only (its
    diffeomorphism class is not determined by the type) and has no (u,x)
    chart; every other entry is the classifying parametrization in both
    charts.
    """
    A = normal_form_type(singularity)
    if ambient_dim < len(A):
        raise ValueError(
            f"{singularity.value} needs ambient dimension >= {len(A)}"
        )
    if ambient_dim > MAX_TYPE_LENGTH:
        raise ValueError(f"type length {ambient_dim} exceeds {MAX_TYPE_LENGTH}")
    curve = normal_form_curve(A, _TRUNCATION + A[0] - 1)
    chart_st = _pad(tangent_map(curve).components, ambient_dim)
    if singularity is SingularityClass.GENERIC_FOLDED_PLEAT:
        return NormalForm(singularity, ambient_dim, chart_st, None, TWO_CLASS_CAVEAT)
    return NormalForm(singularity, ambient_dim, chart_st, _pad(_ux_chart(A), ambient_dim))
