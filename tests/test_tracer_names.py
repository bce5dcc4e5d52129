"""The benchmark's tracer looks library functions up by name, so a renamed or
deleted function would break only traced benchmark runs; these checks keep
every name it wraps present in the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import agcodes.combined
import agcodes.sections
from agcodes.curves import build_curve
from agcodes.field import make_field_q

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
    # the tracer wraps cls.__dict__[method], so an inherited method would
    # pass getattr yet fail every traced run
    curves = importlib.import_module("agcodes.curves")
    assert callable(vars(getattr(curves, cls)).get(method)), f"{cls}.{method}"


@pytest.mark.parametrize("q,divisor,h", [(3, "0", 2), (3, "1,0,1:1;inf:-2", 1)])
def test_section_count_is_the_length_of_the_result(q, divisor, h):
    # the tracer counts sections with len() of what enumerate_sections returns
    curve = build_curve("p1", make_field_q(q))
    assert len(agcodes.sections.enumerate_sections(curve, curve.parse_divisor(divisor), h)) == q ** (2 * h + 1)


def test_combined_reaches_enumeration_through_the_sections_name():
    # the tracer rebinds enumerate_sections in every module that holds it
    assert agcodes.combined.enumerate_sections is agcodes.sections.enumerate_sections
