"""Tests of the benchmark itself: the seeded generator, the output checks
and the outside-in tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

lib = run._import_library()
from agcodes import cli, combined, curves, field, kernels, sections, xing  # noqa: E402


def _argvs(wl):
    return [op.argv for op in wl.setup + wl.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert _argvs(workloads.generate(name, 7)) == _argvs(workloads.generate(name, 7))
    assert _argvs(workloads.generate(name, 7)) != _argvs(workloads.generate(name, 8))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_has_the_same_composition(name):
    def strata(seed):
        wl = workloads.generate(name, seed)
        return Counter((op.kind, op.q, op.curve) for op in wl.setup + wl.ops)

    first = strata(0)
    assert all(strata(seed) == first for seed in range(1, 10))
    assert len(workloads.generate(name, 0).ops) * 3 >= run.MIN_OPS


def _static_preconditions(op):
    """The library's own validators accept the generated parameters."""
    argv = op.resolve("/tmp/x", "/tmp/x/out")
    args = cli._parser().parse_args(argv)  # usage errors would raise SystemExit
    if op.kind in ("combined build", "xing build", "goppa build", "sections enumerate",
                   "sections proposition", "verify averaging"):
        curve = curves.build_curve(getattr(args, "curve", "p1"), field.make_field_q(args.q))
        D = curve.parse_divisor(args.divisor)
        points = cli._resolve_points(curve, D, getattr(args, "points", None))
        assert len(set(points)) == len(points), "repeated evaluation point"
        assert not {curve.place_of_point(p) for p in points} & set(D.support)
        n, q = len(points), args.q
        if op.kind == "combined build":
            combined.CombinedParams(args.h, args.s0, args.d0).validate(len(curve.points), q)
            assert q ** (2 * (args.h + D.pos_part().degree) + 1) <= 8 * sections.SECTION_ENUM_GUARD
        elif op.kind == "xing build" or getattr(args, "kind", None) == "xing":
            radii = tuple(int(t) for t in args.radii.split(","))
            xing.XingParams(args.m, radii).validate(n, q)
            if op.kind == "xing build":  # the census checks no distance floor
                assert xing.distance_floor(n, args.m, radii, D.degree) > 0
            if getattr(args, "strategy", "exhaustive") == "exhaustive":
                assert q ** (args.m * n) <= kernels.EXHAUSTIVE_CENTER_CAP
        elif op.kind == "goppa build":
            assert 0 <= D.degree < n
        elif op.kind.startswith("sections"):
            h = args.h if op.kind == "sections enumerate" else args.h_max // 2
            assert q ** (2 * h + 1) <= sections.SECTION_ENUM_GUARD


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_ops_pass_library_preconditions(name):
    for seed in range(20):
        wl = workloads.generate(name, seed)
        for op in wl.setup + wl.ops:
            _static_preconditions(op)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_pass_runs_clean(name, tmp_path):
    wl = workloads.generate(name, 0)
    run.set_up(lib, wl, str(tmp_path))
    result = run.run_pass(lib, wl, str(tmp_path))
    assert result["failures"] == []
    assert len(result["times"]) == len(wl.ops)


def test_output_check_rejects_a_wrong_census(tmp_path):
    good = workloads._op("verify", "averaging", "--kind", "combined", "--q", 3, "--h", 1,
                         "--s0", 1, q=3, curve="p1", census=3 ** 3 * 13)
    assert run.run_op(cli, good, str(tmp_path), tmp_path / "o")[2] is None
    bad = workloads._op(*good.argv, q=3, curve="p1", census=3 ** 3 * 13 + 1)
    assert "output check failed" in run.run_op(cli, bad, str(tmp_path), tmp_path / "o")[2]


def _namespace_snapshot():
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "agcodes" or n.startswith("agcodes.")}
    methods = {(c, m): getattr(curves, c).__dict__[m]
               for c in tracer.CURVE_CLASSES for m in tracer.CURVE_METHODS}
    return mods, methods


def test_tracer_rebinds_every_entry_point_and_restores_them():
    before_mods, before_methods = _namespace_snapshot()
    originals = {f"{layer}.{fn}": getattr(sys.modules[f"agcodes.{layer}"], fn)
                 for layer, fns in tracer.ENTRY_POINTS.items() for fn in fns}
    with tracer.Tracer(tracer.Recorder()):
        for name, original in originals.items():
            for mod_name, mod in sys.modules.items():
                if mod_name == "agcodes" or mod_name.startswith("agcodes."):
                    held = [a for a, v in vars(mod).items() if v is original]
                    assert held == [], f"{mod_name}.{held} still holds {name}"
        # names the issue singles out, reached through importing modules
        assert combined.enumerate_sections is not originals["sections.enumerate_sections"]
        assert cli.build_combined is not originals["combined.build_combined"]
        assert lib.build_xing is not originals["xing.build_xing"]
        for cls in tracer.CURVE_CLASSES:
            for m in tracer.CURVE_METHODS:
                assert getattr(curves, cls).__dict__[m] is not before_methods[(cls, m)]
    after_mods, after_methods = _namespace_snapshot()
    assert after_methods == before_methods
    for name, ns in before_mods.items():
        assert all(after_mods[name][k] is v for k, v in ns.items()), name


def test_traced_pass_matches_untraced_and_nests_self_time(tmp_path):
    wl = workloads.generate("section-build", 3)
    wl = workloads.Workload(wl.name, wl.seed, (), wl.ops[:8], wl.why)
    plain = run.run_pass(lib, wl, str(tmp_path / "a"))
    rec = tracer.Recorder()
    with tracer.Tracer(rec):
        traced = run.run_pass(lib, wl, str(tmp_path / "b"))
    # same digests from another scratch directory and with tracing on
    assert traced["fingerprint"] == plain["fingerprint"]
    assert rec.stats["cli.main"]["calls"] == len(wl.ops)
    assert rec.stats["sections.enumerate_sections"]["calls"] > 0
    self_total = sum(st["self_s"] for st in rec.stats.values())
    assert all(st["self_s"] >= 0 for st in rec.stats.values())
    assert self_total == pytest.approx(traced["wall"], rel=0.05)
    values = tracer.per_layer_values(rec, 1.0)
    assert set(values) == {name for name, _, _ in tracer.per_layer_metrics()}


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in doc["workloads"])
    assert [m["name"] for m in doc["end_to_end"]] == list(run.RESULT_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in tracer.per_layer_metrics()
    ]
