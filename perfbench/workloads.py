"""The in-process workloads: what each verdict calls and how it is checked.

Each workload has ``prepare`` (build library inputs, untimed), ``decide``
(the timed verdict, calling the library through module attributes so that
the tracer's wrappers are seen) and ``check`` (untimed, against the
input's expected verdict with ``oracle`` arithmetic only).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

from tanvar import strata, surfaces, tangency
from tanvar.curves import CurveGerm, TypeSequence
from tanvar.jets import Jet1, Jet2

from . import inputs
from . import oracle as O


# the package re-exports the function classify under the module's name
classify_mod = importlib.import_module("tanvar.classify")


@dataclass
class Workload:
    why: str
    prepare: Callable
    decide: Callable
    check: Callable
    warmup: Callable  # rng -> list of small inputs, none of them in a stream
    dominant: tuple  # span names whose self time should be the majority


def _jet2(p: O.Poly, K: int) -> Jet2:
    return Jet2.from_terms(((i, j, c) for (i, j), c in p.items()), K)


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------


def membership_prepare(x: inputs.MembershipInput):
    germ = CurveGerm(tuple(Jet1.from_terms(c.items(), x.truncation) for c in x.components))
    return germ, _jet2(x.h, x.truncation - x.type_entries[0] + 1), x.order


def membership_decide(prepared):
    germ, h, order = prepared
    tmap = tangency.tangent_map(germ)
    opening = tangency.opening_check(tmap)
    g = tmap.components[:2]
    verdict = tangency.jacobi_membership(g, h, order)
    verified = None
    if isinstance(verdict, tangency.OpeningCertificate):
        verified = tangency.verify_certificate(g, h, verdict)
    return tmap, opening, verdict, verified


def membership_check(x: inputs.MembershipInput, out) -> bool:
    tmap, opening, verdict, verified = out
    A = x.type_entries
    f, _ = O.tangent_map_dicts(x.components, A[0], x.truncation)
    if tmap.source_type.entries != A or [O.jet2_dict(c) for c in tmap.components] != f:
        return False
    if not isinstance(opening, tuple) or len(opening) != len(A) - 2:
        return False
    lift_order = x.truncation + 1 - A[0] - A[1]
    for i, cert in enumerate(opening, start=2):
        if cert.verified_order != lift_order:
            return False
        if O.module_residual(f[i], f[:2], [O.jet2_dict(p) for p in cert.multipliers], lift_order):
            return False
    if not x.member:
        return isinstance(verdict, tangency.Refuted) and x.obstruction is not None
    if not isinstance(verdict, tangency.OpeningCertificate) or verdict.verified_order != x.order:
        return False
    mults = [O.jet2_dict(p) for p in verdict.multipliers]
    return verified is True and not O.module_residual(x.h, f[:2], mults, x.order)


def membership_warmup(rng):
    return [inputs.membership_input(rng, -1, 6, True), inputs.membership_input(rng, -2, 6, False)]


# --------------------------------------------------------------------------
# surface
# --------------------------------------------------------------------------


def surface_prepare(x: inputs.SurfaceInput):
    return _jet2(x.x3, x.truncation), _jet2(x.x4, x.truncation)


def surface_decide(prepared):
    x3, x4 = prepared
    surface = surfaces.complete_to_legendre(x3, x4)
    ordinary = surfaces.ordinary_point_class(surface)
    g = surfaces.transversal_slice(surface)
    return surface, ordinary, g, surfaces.saji_verdict(g)


def surface_check(x: inputs.SurfaceInput, out) -> bool:
    surface, ordinary, g, verdict = out
    return (
        tuple(surface.quad) == x.quad
        and ordinary.tag.value == x.expected_class
        and ordinary.h_invariant == x.H
        and O.jet2_dict(g[0]) == O.euler_complement(x.x3)
        and O.jet2_dict(g[1]) == O.euler_complement(x.x4)
        and verdict.tag.value == O.D4_BY_CLASS[x.expected_class]
        and verdict.hessian_determinant == x.H
    )


def surface_warmup(rng):
    return [inputs.surface_input(rng, -1, 6, cls) for cls in ("hyperbolic", "elliptic", "parabolic")]


# --------------------------------------------------------------------------
# symbolic
# --------------------------------------------------------------------------

_CLASS_MAKERS = {
    "plain": lambda N, k: strata.CurveClass.plain(N),
    "tangent": lambda N, k: strata.CurveClass.tangent_framed(N),
    "tpn": lambda N, k: strata.CurveClass.tpn_framed(N),
    "osculating": lambda N, k: strata.CurveClass.osculating_framed(N),
    "contact": lambda n, k: strata.CurveClass.contact_osculating(n),
    "flag": lambda N, k: strata.CurveClass.flag(N, k),
}


def symbolic_prepare(x: inputs.SymbolicInput):
    if x.kind == "classify":
        tag, dim, depth = x.class_spec
        return x.kind, TypeSequence(x.type_entries), _CLASS_MAKERS[tag](dim, depth)
    if x.kind == "family":
        return x.kind, TypeSequence(x.type_entries)
    return (x.kind,) + tuple(x.expected)


def symbolic_decide(prepared):
    kind = prepared[0]
    if kind == "family":
        return tangency.generating_family_tangent(prepared[1])
    if kind == "classify":
        _, A, cls = prepared
        return classify_mod.classify(A, cls), strata.codimension(A, cls)
    return tangency.morin_versal_opening(prepared[1], prepared[2])


def symbolic_check(x: inputs.SymbolicInput, out) -> bool:
    if x.kind == "family":
        A = x.type_entries
        top = A[-1]
        family = {(top,) + (0,) * len(A): 1}
        for j in range(1, len(A) + 1):
            e = [0] * (len(A) + 1)
            e[0], e[j] = top - A[j - 1], 1
            family[tuple(e)] = 1
        return (
            out.type_sequence.entries == A
            and out.pattern == x.expected[0]
            and O.poly_dict(out.family) == family
            and all(p.variables == ("t", "x1") for p in out.solved)
            and O.family_residuals(A, [O.poly_dict(p) for p in out.solved])
        )
    if x.kind == "classify":
        named, codim = out
        return (named.singularity.value, named.generic, codim) == tuple(x.expected)
    return O.morin_generators_ok(*x.expected, out)


def symbolic_warmup(rng):
    families = {}
    return [
        inputs.symbolic_input(rng, -1, "family", 3, families),
        inputs.symbolic_input(rng, -2, "classify", 6, families),
        inputs.symbolic_input(rng, -3, "morin", 0, families),
    ]


WORKLOADS = {
    "membership": Workload(
        "exact elimination in jacobi_membership does ~90% of the work here and almost none "
        "elsewhere; one input in four is refuted, so the inconsistent path is timed too",
        membership_prepare, membership_decide, membership_check, membership_warmup,
        ("tangency.jacobi_membership",),
    ),
    "surface": Workload(
        "all of the time goes to Jet2 ring operations and none to a linear solve, so jet-core "
        "changes show here and elimination changes should read as no change",
        surface_prepare, surface_decide, surface_check, surface_warmup,
        ("jets.Jet2.mul", "jets.Jet2.addsub", "jets.Jet2.derivative", "jets.Jet2.divide"),
    ),
    "symbolic": Workload(
        "polys and strata do the work and jets none; caches are emptied before every verdict, "
        "so enumerate_generic pays the cold path a command-line user pays",
        symbolic_prepare, symbolic_decide, symbolic_check, symbolic_warmup,
        ("polys.solve_ratfun_system", "strata.enumerate_generic"),
    ),
}


def warmup_inputs(name: str, seed: int):
    return WORKLOADS[name].warmup(random.Random(f"warmup:{name}:{seed}"))
