"""Exact-arithmetic analysis of tangent varieties to curve and surface germs.

The package computes, over the rationals and at explicit jet truncation:
curve types and osculating flags, tangent maps with their Wronskian lift
data and opening certificates, stratum codimensions with generic-type
enumeration for five curve classes, theorem-backed singularity lookup with
exact normal forms, and the integral-surface pipeline in contact 5-space
(ordinary-point invariant, transversal slice, rank-zero Hessian verdict).
"""

from .curves import (
    CurveGerm,
    NotFiniteTypeError,
    NotFiniteTypeUpTo,
    TypeSequence,
    curve_type,
    flag_lift,
    homogeneous_lift,
    normalize,
    projective_type,
)
from .classify import (
    Classification,
    NormalForm,
    SingularityClass,
    classify,
    normal_form,
    normal_form_curve,
)
from .jets import ABOVE_TRUNCATION, InvariantError, Jet1, Jet2, TruncationMismatch
from .strata import (
    CLASSES,
    CurveClass,
    Inadmissible,
    LagrangianOrders,
    codim_flag,
    codim_lagrangian,
    codim_plain,
    codimension,
    enumerate_generic,
    lagrangian_admissible,
    orders_to_type,
)
from .surfaces import (
    LegendreSurfaceGerm,
    OrdinaryPointClass,
    SajiTag,
    SymMatrix3,
    VeroneseVerdict,
    complete_to_legendre,
    ordinary_point_class,
    saji_verdict,
    surface_tangent_map,
    transversal_slice,
    veronese_membership,
)
from .tangency import (
    MorinOpening,
    NotFrontalUpTo,
    OpeningCertificate,
    Refuted,
    TangentMapGerm,
    generating_family_tangent,
    grassmann_lift,
    jacobi_membership,
    morin_versal_opening,
    opening_check,
    tangent_map,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
