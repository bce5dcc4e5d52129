"""The benchmark's tracer looks library functions up by name, so a renamed or
deleted function would break only traced benchmark runs; these checks keep
every name it wraps present in the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in tracer.ENTRY_POINTS.items() for name in names
])
def test_entry_point_resolves(layer, name):
    module = importlib.import_module(f"agcodes.{layer}")
    assert callable(getattr(module, name, None)), f"agcodes.{layer}.{name}"


@pytest.mark.parametrize("cls", tracer.CURVE_CLASSES)
@pytest.mark.parametrize("method", tracer.CURVE_METHODS)
def test_curve_method_resolves(cls, method):
    curves = importlib.import_module("agcodes.curves")
    assert callable(getattr(getattr(curves, cls), method, None)), f"{cls}.{method}"
