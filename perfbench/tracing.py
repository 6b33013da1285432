"""Spans around the library's public functions, installed from outside ``src/``.

``Tracer.install`` replaces each listed function by a wrapper in every
loaded ``tanvar`` module that binds it (``tanvar.cli.complete_to_legendre``
and ``tanvar.surfaces.complete_to_legendre`` are separate names), and
replaces ``Jet1``/``Jet2`` methods on the class.  Spans are kept in memory
as (name, start, end, parent, input id, attributes, attribute time) and
written out at the end.  A layer's self time is its span minus its child
spans; the time spent computing a child's attributes is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PACKAGE = "tanvar"


def _term_count(x) -> int:
    return sum(1 for _ in x.terms()) if hasattr(x, "terms") else 1


def _mul_attrs(args, kwargs, result):
    return {"term_pairs": _term_count(args[0]) * _term_count(args[1])}


def _jacobi_attrs(args, kwargs, result):
    g, h, order = args[0], args[1], args[2]
    E = min([order, h.truncation - 1] + [gj.truncation - 1 for gj in g])
    return {
        "size": f"o{order}",
        "outcome": "certified" if type(result).__name__ == "OpeningCertificate" else "refuted",
        "unknowns": len(g) * (E + 1) * (E + 2) // 2,
    }


def _saji_attrs(args, kwargs, result):
    return {"size": f"k{args[0][0].truncation}"}


def _family_attrs(args, kwargs, result):
    return {"size": f"n{len(args[0]) - 1}"}


# (span name, module, attribute, attributes from (args, kwargs, result) or None).
# Attributes of Jet1/Jet2 are methods, patched on the class.
TARGETS = [
    ("jets.Jet2.mul", "jets", "Jet2.__mul__", _mul_attrs),
    ("jets.Jet2.addsub", "jets", "Jet2.__add__", None),
    ("jets.Jet2.addsub", "jets", "Jet2.__sub__", None),
    ("jets.Jet2.derivative", "jets", "Jet2.derivative", None),
    ("jets.Jet2.divide", "jets", "Jet2.divide", None),
    ("jets.Jet1.mul", "jets", "Jet1.__mul__", None),
    ("jets.Jet1.divide", "jets", "Jet1.divide", None),
    ("curves.curve_type", "curves", "curve_type", None),
    ("tangency.tangent_map", "tangency", "tangent_map", None),
    ("tangency.grassmann_lift", "tangency", "grassmann_lift", None),
    ("tangency.opening_check", "tangency", "opening_check", None),
    ("tangency.jacobi_membership", "tangency", "jacobi_membership", _jacobi_attrs),
    ("tangency.verify_certificate", "tangency", "verify_certificate", None),
    ("tangency.generating_family_tangent", "tangency", "generating_family_tangent", _family_attrs),
    ("tangency.morin_versal_opening", "tangency", "morin_versal_opening", None),
    ("polys.solve_ratfun_system", "polys", "solve_ratfun_system", None),
    ("strata.enumerate_generic", "strata", "enumerate_generic", None),
    ("classify.classify", "classify", "classify", None),
    ("surfaces.complete_to_legendre", "surfaces", "complete_to_legendre", None),
    ("surfaces.ordinary_point_class", "surfaces", "ordinary_point_class", None),
    ("surfaces.transversal_slice", "surfaces", "transversal_slice", None),
    ("surfaces.saji_verdict", "surfaces", "saji_verdict", _saji_attrs),
    ("germdoc.parse_document", "germdoc", "parse_document", None),
    ("germdoc.build", "germdoc", "build_curve", None),
    ("germdoc.build", "germdoc", "build_surface", None),
    ("germdoc.build", "germdoc", "build_matrix", None),
    ("cli.run", "cli", "run", None),
]

# Called thousands of times per enumeration: counted, not spanned, so their
# time stays in the caller's self time.
COUNTED = [("strata.codimension", "strata", "codimension")]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.input_id = None
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, attrs_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs, aux = None, 0.0
                if attrs_fn:
                    attrs = attrs_fn(args, kwargs, result)
                    aux = clock() - end  # charged to no layer
                spans[idx] = (name, start, end, parent, self.input_id, attrs, aux)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, make):
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._restore.append(lambda: setattr(cls, meth, orig))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append(lambda mod=mod, key=key: setattr(mod, key, orig))

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")  # load every importing module first
        for name, module, attr, attrs_fn in TARGETS:
            self._patch(module, attr, lambda fn, n=name, a=attrs_fn: self._span(n, fn, a))
        for name, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **(extra or {})}, handle)


def layer_totals(spans, counts=None) -> Dict[str, float]:
    """Self seconds and call counts per span name, plus per-size and per-outcome splits.

    Keys: ``<name>.self`` (seconds), ``<name>.calls``, ``<name>.<size>.total``
    (seconds including child spans) and ``<name>.<size>.calls``,
    ``<name>.<outcome>_self``, ``<name>.<attr>`` for numeric attributes, and
    ``root`` (seconds covered by spans without a parent).
    """
    child = defaultdict(float)
    for name, start, end, parent, _, _, aux in spans:
        if parent >= 0:
            child[parent] += end - start + aux
    out: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, _, attrs, _) in enumerate(spans):
        dur = end - start
        self_s = dur - child.get(idx, 0.0)
        out[f"{name}.self"] += self_s
        out[f"{name}.calls"] += 1
        if parent < 0:
            out["root"] += dur
        for key, value in (attrs or {}).items():
            if key == "size":
                out[f"{name}.{value}.total"] += dur
                out[f"{name}.{value}.calls"] += 1
            elif key == "outcome":
                out[f"{name}.{value}_self"] += self_s
            else:
                out[f"{name}.{key}"] += value
    for name, n in (counts or {}).items():
        out[f"{name}.calls"] += n
    return out
