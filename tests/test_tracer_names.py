"""The benchmark tracer binds library functions by name; a rename must fail here.

``perfbench/tracing.py`` is loaded from its file, as the benchmark runs it,
and each name it patches is resolved the way ``Tracer._patch`` resolves it:
a module attribute, or a method defined on the class itself.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
BOUND = [(module, attr) for _, module, attr, _ in tracing.TARGETS] + [
    (module, attr) for _, module, attr in tracing.COUNTED
]


@pytest.mark.parametrize("module_name, attr", BOUND, ids=[f"{m}.{a}" for m, a in BOUND])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{cls_name} defines no {meth}"
    else:
        assert callable(getattr(module, attr))
