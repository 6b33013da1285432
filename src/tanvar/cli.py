"""Command-line frontend.

Each subcommand is declared once, in :data:`COMMANDS`, with its help line,
arguments and handler; the parser and dispatch read nothing else.  Reports
are printed to stdout in a deterministic order; ``--format structured``
emits JSON instead of plain ``key: value`` lines.

Exit codes: 0 on success, 2 on guard/validation failures (bad documents,
violated preconditions, unsupported patterns), 3 when the analysis ends in
an inconclusive or unclassified verdict, or when an exact re-check inside
the library fails (reported as ``internal error:``, see
:class:`tanvar.jets.InvariantError`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .classify import SINGULARITY_SLUGS, SingularityClass, classify, normal_form
from .curves import NotFiniteTypeError, NotFiniteTypeUpTo, TypeSequence, curve_type
from .germdoc import (
    GermDocumentError,
    build_curve,
    build_matrix,
    build_surface,
    parse_document,
    parse_integer,
    parse_rationals,
    split_documents,
)
from .jets import InvariantError
from .mesh import sample_map, write_obj
from .strata import CLASSES, MAX_TYPE_LENGTH, CurveClass, codimension, enumerate_generic
from .surfaces import (
    OrdinaryPointClass,
    SajiTag,
    SymMatrix3,
    complete_to_legendre,
    ordinary_point_class,
    saji_verdict,
    transversal_slice,
    veronese_membership,
)
from .tangency import (
    NotFrontalUpTo,
    generating_family_tangent,
    lift_verified_order,
    morin_versal_opening,
    opening_check,
    tangent_map,
)

Report = List[Tuple[str, object]]
#: one ``add_argument`` call: its flags and keyword options
Arg = Tuple[Tuple[str, ...], dict]


class Subcommand(NamedTuple):
    """One ``tanvar`` subcommand.  The handler returns an exit code and the
    report below its ``command`` line, which :func:`run` prepends."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], Tuple[int, Report]]
    arguments: Tuple[Arg, ...]


OK, GUARD, INCONCLUSIVE = 0, 2, 3
#: an internal invariant failure reaches no verdict, like an inconclusive one
INTERNAL = INCONCLUSIVE

#: the library's own error classes all derive from ValueError
_GUARD_ERRORS = (ValueError, ZeroDivisionError, OSError)


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _integer(text: str) -> int:
    """An integer option, read by the document rule (:func:`parse_integer`)."""
    value = parse_integer(text.strip())
    if value is None:
        raise ValueError(text)
    return value


_integer.__name__ = "int"  # argparse's refusal names it: "invalid int value: 'x'"


def _parse_type(text: str) -> TypeSequence:
    tokens = text.replace("(", "").replace(")", "").split(",")
    entries = tuple(parse_integer(tok.strip()) for tok in tokens)
    if None in entries:
        raise GermDocumentError(f"cannot parse type {text!r}")
    return TypeSequence(entries)


def _class_for(args, type_length: Optional[int]) -> CurveClass:
    """The ``--class`` of a command; a missing --N or --n is read from the type
    length, which ``enumerate`` (type length None) does not have."""
    if args.curve_class == "contact":
        n = args.n
        if n is None:
            if type_length is None:
                raise GermDocumentError("enumerate --class contact needs --n")
            if type_length % 2 == 0 or type_length < 3:
                raise GermDocumentError(
                    "contact types have odd length 2n+1 >= 3; pass --n explicitly"
                )
            n = (type_length - 1) // 2
        return CurveClass.contact_osculating(n)
    N = args.N
    if N is None:
        if type_length is None:
            raise GermDocumentError("enumerate needs --N")
        if type_length < 2:
            raise GermDocumentError(
                f"type of length {type_length}: a curve needs at least two components"
            )
        N = type_length - 1
    if args.curve_class == "flag":
        if args.k is None:
            raise GermDocumentError("--class flag needs --k")
        return CurveClass.flag(N, args.k)
    return CLASSES[args.curve_class](N)


def _extend_to_ambient(A: TypeSequence, ambient: Optional[int]) -> TypeSequence:
    if ambient is None or ambient == len(A):
        return A
    if ambient < len(A):
        raise GermDocumentError("ambient dimension below the type length")
    if ambient > MAX_TYPE_LENGTH:
        raise GermDocumentError(f"type length {ambient} exceeds {MAX_TYPE_LENGTH}")
    tail = list(A.entries)
    while len(tail) < ambient:
        tail.append(tail[-1] + 1)
    return TypeSequence(tuple(tail))


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_type(args) -> Tuple[int, Report]:
    germ = build_curve(parse_document(_read_input(args.input)))
    verdict = curve_type(germ)
    report: Report = [("ambient", germ.ambient_dim)]
    if isinstance(verdict, NotFiniteTypeUpTo):
        report.append(("verdict", f"not finite type up to truncation {verdict.truncation}"))
        report.append(
            ("caveat", "finite type is undecidable at fixed truncation; raise it to retest")
        )
        return INCONCLUSIVE, report
    report.append(("type", verdict.render()))
    return OK, report


def _cmd_classify(args) -> Tuple[int, Report]:
    if args.type is not None:
        A = _parse_type(args.type)
    else:
        germ = build_curve(parse_document(_read_input(args.input)))
        verdict = curve_type(germ)
        if isinstance(verdict, NotFiniteTypeUpTo):
            return INCONCLUSIVE, [
                ("verdict", f"not finite type up to truncation {verdict.truncation}")
            ]
        A = verdict
    A = _extend_to_ambient(A, args.ambient)
    cls = _class_for(args, len(A))
    result = classify(A, cls)
    report: Report = [
        ("type", A.render()),
        ("class", cls.describe()),
        ("singularity", result.singularity.value),
        ("generic", "yes" if result.generic else "no"),
    ]
    if result.caveat:
        report.append(("caveat", result.caveat))
    code = INCONCLUSIVE if result.singularity is SingularityClass.UNCLASSIFIED else OK
    return code, report


def _cmd_enumerate(args) -> Tuple[int, Report]:
    cls = _class_for(args, None)
    types = enumerate_generic(cls)
    return OK, [
        ("class", cls.describe()),
        ("count", len(types)),
        ("types", [A.render() for A in types]),
    ]


def _cmd_codim(args) -> Tuple[int, Report]:
    A = _parse_type(args.type)
    cls = _class_for(args, len(A))
    value = codimension(A, cls)
    return OK, [
        ("type", A.render()),
        ("class", cls.describe()),
        ("codimension", value),
    ]


def _parse_range(text: str) -> Tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise GermDocumentError("range must look like '-1:1'")


def _parse_coords(text: str) -> Tuple[int, int, int]:
    coords = tuple(parse_integer(x.strip()) for x in text.split(","))
    if len(coords) != 3 or None in coords:
        raise GermDocumentError("coords must look like '1,2,3'")
    return coords


def _write_mesh(args, components, provenance: str) -> Tuple[str, str]:
    """Sample an (s,t) map as the ``--mesh`` flags ask; returns the report entry."""
    coords = _parse_coords(args.coords)
    lo, hi = _parse_range(args.range)
    mesh = sample_map(
        components,
        coords=coords,
        s_range=(lo, hi),
        t_range=(lo, hi),
        grid=args.grid,
        provenance=provenance,
    )
    write_obj(mesh, args.mesh)
    return ("mesh", f"{args.mesh} ({len(mesh.vertices)} vertices, {len(mesh.faces)} faces)")


def _cmd_tangent(args) -> Tuple[int, Report]:
    germ = build_curve(parse_document(_read_input(args.input)))
    report: Report = [("ambient", germ.ambient_dim)]
    try:
        tmap = tangent_map(germ)
    except NotFiniteTypeError as exc:
        report.append(("verdict", str(exc)))
        return INCONCLUSIVE, report
    A = tmap.source_type
    report.append(("type", A.render()))
    cls = _class_for(args, len(A))
    named = classify(A, cls)
    report.append(("singularity", named.singularity.value))
    report.append(("generic", "yes" if named.generic else "no"))
    certs = opening_check(tmap)
    if isinstance(certs, NotFrontalUpTo):
        report.append(("frontal", f"not frontal up to truncation {certs.truncation}"))
        return INCONCLUSIVE, report
    verified = certs[0].verified_order if certs else lift_verified_order(tmap, ())
    report.append(("frontal", f"yes (lift verified to order {verified})"))
    for i, cert in enumerate(certs, start=3):
        p, q = cert.multipliers
        report.append((f"order P{i}", str(p.order())))
        report.append((f"order Q{i}", str(q.order())))
    if args.mesh:
        report.append(
            _write_mesh(
                args,
                tmap.components,
                f"tangent map of type {A.render()} curve, coords {args.coords}",
            )
        )
    return OK, report


def _cmd_surface(args) -> Tuple[int, Report]:
    x3, x4 = build_surface(parse_document(_read_input(args.input)))
    surface = complete_to_legendre(x3, x4)
    a, b, c, e = surface.quad
    ordinary = ordinary_point_class(surface)
    report: Report = [
        ("quad", f"a={a} b={b} c={c} e={e}"),
        ("H", str(ordinary.h_invariant)),
        ("ordinary class", ordinary.tag.value),
        ("x5", surface.x5.render(("u", "v"))),
    ]
    if ordinary.tag is OrdinaryPointClass.NOT_ORDINARY:
        report.append(("verdict", "not an ordinary point (rank < 2)"))
        return INCONCLUSIVE, report
    g = transversal_slice(surface)
    report.append(("slice g1", g.g1.render(("u", "v"))))
    report.append(("slice g2", g.g2.render(("u", "v"))))
    report.append(("slice g3", g.g3.render(("u", "v"))))
    verdict = saji_verdict(g)
    report.append(("D4 verdict", verdict.tag.value))
    if verdict.hessian_determinant is not None:
        report.append(("identifier Hessian", str(verdict.hessian_determinant)))
    if verdict.reason:
        report.append(("reason", verdict.reason))
    return (INCONCLUSIVE if verdict.tag is SajiTag.INCONCLUSIVE else OK), report


def _cmd_veronese(args) -> Tuple[int, Report]:
    if args.entries:
        entries = parse_rationals(args.entries)
        if len(entries) != 6:
            raise GermDocumentError("need six entries a11 a12 a13 a22 a23 a33")
        matrix = SymMatrix3(*entries)
    else:
        matrix = build_matrix(parse_document(_read_input(args.input)))
    verdict = veronese_membership(matrix)
    return OK, [("rank", matrix.rank()), ("membership", verdict.value)]


def _cmd_opening(args) -> Tuple[int, Report]:
    germ = build_curve(parse_document(_read_input(args.input)))
    report: Report = []
    try:
        tmap = tangent_map(germ)
    except NotFiniteTypeError as exc:
        report.append(("verdict", str(exc)))
        return INCONCLUSIVE, report
    report.append(("type", tmap.source_type.render()))
    certs = opening_check(tmap)
    if isinstance(certs, NotFrontalUpTo):
        report.append(("verdict", f"not frontal up to truncation {certs.truncation}"))
        return INCONCLUSIVE, report
    report.append(("certificates", len(certs)))
    for i, cert in enumerate(certs, start=3):
        p, q = cert.multipliers
        report.append(
            (
                f"component {i}",
                f"df{i} = P*df1 + Q*df2 with P = {p.render(('s', 't'))}, "
                f"Q = {q.render(('s', 't'))} (verified to order {cert.verified_order})",
            )
        )
    return OK, report


def _cmd_morin(args) -> Tuple[int, Report]:
    opening = morin_versal_opening(args.k, args.m)
    report: Report = [
        ("k", opening.k),
        ("m", opening.m),
        ("generators (with 1)", opening.generator_count),
        ("F", opening.f_base.render()),
    ]
    for i, g in enumerate(opening.g_base, start=1):
        report.append((f"G{i}", g.render()))
    for ell, gen in enumerate(opening.f_generators, start=1):
        report.append((f"F_({ell})", gen.render()))
    for i, row in enumerate(opening.g_generators, start=1):
        for ell, gen in enumerate(row, start=1):
            report.append((f"G{i}_({ell})", gen.render()))
    return OK, report


def _cmd_family(args) -> Tuple[int, Report]:
    A = _parse_type(args.type)
    solution = generating_family_tangent(A)
    report: Report = [
        ("type", A.render()),
        ("pattern", solution.pattern),
        ("family", solution.family.render() + " = 0"),
    ]
    for j, poly in enumerate(solution.solved, start=2):
        report.append((f"x{j}", poly.render()))
    return OK, report


def _cmd_normal_form(args) -> Tuple[int, Report]:
    slug = args.singularity
    if slug not in SINGULARITY_SLUGS:
        raise GermDocumentError(
            "unknown singularity; choose from " + ", ".join(sorted(SINGULARITY_SLUGS))
        )
    sing = SINGULARITY_SLUGS[slug]
    form = normal_form(sing, args.ambient)
    report: Report = [("singularity", sing.value), ("ambient", form.ambient_dim)]
    for i, comp in enumerate(form.chart_st, start=1):
        report.append((f"(s,t) chart component {i}", comp.render(("s", "t"))))
    if form.chart_ux is not None:
        for i, comp in enumerate(form.chart_ux, start=1):
            report.append((f"(u,x) chart component {i}", comp.render(("u", "x"))))
    if form.caveat:
        report.append(("caveat", form.caveat))
    if args.mesh:
        report.append(
            _write_mesh(
                args, form.chart_st, f"normal form {slug}, (s,t) chart, coords {args.coords}"
            )
        )
    return OK, report


def _cmd_batch(args) -> Tuple[int, Report]:
    chunks = split_documents(_read_input(args.input))
    if not chunks:
        raise GermDocumentError("batch input contains no documents")
    report: Report = [("documents", len(chunks))]
    saw_error = False
    saw_inconclusive = False
    for idx, chunk in enumerate(chunks, start=1):
        try:
            doc = parse_document(chunk)
            if doc.kind == "curve":
                germ = build_curve(doc)
                verdict = curve_type(germ)
                if isinstance(verdict, NotFiniteTypeUpTo):
                    report.append(
                        (f"document {idx}",
                         f"curve: not finite type up to truncation {verdict.truncation}")
                    )
                    saw_inconclusive = True
                else:
                    report.append((f"document {idx}", f"curve: type {verdict.render()}"))
            elif doc.kind == "surface":
                surface = complete_to_legendre(*build_surface(doc))
                ordinary = ordinary_point_class(surface)
                report.append(
                    (f"document {idx}",
                     f"surface: {ordinary.tag.value}, H = {ordinary.h_invariant}")
                )
                if ordinary.tag is OrdinaryPointClass.NOT_ORDINARY:
                    saw_inconclusive = True
            else:
                verdict = veronese_membership(build_matrix(doc))
                report.append((f"document {idx}", f"matrix: {verdict.value}"))
        except _GUARD_ERRORS as exc:
            report.append((f"document {idx}", f"error: {exc}"))
            saw_error = True
        except InvariantError as exc:
            report.append((f"document {idx}", f"internal error: {exc}"))
            saw_inconclusive = True
    return (GUARD if saw_error else INCONCLUSIVE if saw_inconclusive else OK), report


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------


def _arg(*flags: str, **options) -> Arg:
    return flags, options


_INPUT = _arg("input", nargs="?")
_CLASS_FLAGS = (
    _arg("--class", dest="curve_class", choices=tuple(CLASSES) + ("flag",), default="plain"),
    _arg("--N", type=_integer),
    _arg("--n", type=_integer),
    _arg("--k", type=_integer),
)
_MESH_FLAGS = (
    _arg("--mesh", help="write an OBJ mesh here"),
    _arg("--coords", default="1,2,3"),
    _arg("--range", default="-1:1"),
    _arg("--grid", type=_integer, default=50),
)
#: added to every subcommand, after its own arguments
_FORMAT = _arg("--format", choices=("plain", "structured"), default="plain")

#: every subcommand in ``tanvar --help`` order
COMMANDS = (
    Subcommand("type", "type of a curve germ document", _cmd_type, (_INPUT,)),
    Subcommand(
        "classify",
        "singularity of the tangent variety",
        _cmd_classify,
        (_INPUT, _arg("--type"), _arg("--ambient", type=_integer), *_CLASS_FLAGS),
    ),
    Subcommand("enumerate", "generic types of a curve class", _cmd_enumerate, _CLASS_FLAGS),
    Subcommand(
        "codim",
        "stratum codimension of a type",
        _cmd_codim,
        (_arg("--type", required=True), *_CLASS_FLAGS),
    ),
    Subcommand(
        "tangent",
        "tangent map, lift orders, optional mesh",
        _cmd_tangent,
        (_INPUT, *_CLASS_FLAGS, *_MESH_FLAGS),
    ),
    Subcommand("surface", "integral surface analysis", _cmd_surface, (_INPUT,)),
    Subcommand(
        "veronese",
        "rank-one quadric locus membership",
        _cmd_veronese,
        (_INPUT, _arg("--entries")),
    ),
    Subcommand("opening", "membership certificates of a tangent map", _cmd_opening, (_INPUT,)),
    Subcommand(
        "morin",
        "versal opening generator table",
        _cmd_morin,
        (_arg("--k", type=_integer, required=True), _arg("--m", type=_integer, default=0)),
    ),
    Subcommand(
        "family",
        "tangent variety from its generating family",
        _cmd_family,
        (_arg("--type", required=True),),
    ),
    Subcommand(
        "normal-form",
        "normal-form charts of a singularity",
        _cmd_normal_form,
        (
            _arg("--singularity", required=True),
            _arg("--ambient", type=_integer, required=True),
            *_MESH_FLAGS,
        ),
    ),
    Subcommand("batch", "analyse several documents in one stream", _cmd_batch, (_INPUT,)),
)


class _UsageError(Exception):
    """An argparse usage error, which :func:`run` reports like a guard failure."""


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would exit, so that :func:`run` prints the report."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tanvar",
        description="Exact analysis of tangent varieties to curve and surface germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flags, options in command.arguments + (_FORMAT,):
            p.add_argument(*flags, **options)
        p.set_defaults(handler=command.handler)
    return parser


def _render(report: Report, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(dict(report), indent=2, sort_keys=False) + "\n"
    lines = []
    for key, value in report:
        if isinstance(value, list):
            lines.append(f"{key}:")
            lines.extend(f"  {item}" for item in value)
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def run(argv: Sequence[str]) -> Tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, report text)."""
    try:
        args = build_parser().parse_args(list(argv))
    except _UsageError as exc:
        # plain, since --format may be the argument that failed
        return GUARD, _render([("error", str(exc))], "plain")
    try:
        code, report = args.handler(args)
    except _GUARD_ERRORS as exc:
        return GUARD, _render([("error", str(exc))], args.format)
    except InvariantError as exc:
        return INTERNAL, _render([("internal error", str(exc))], args.format)
    return code, _render([("command", args.command)] + report, args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
