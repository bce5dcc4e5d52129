"""Closed-loop benchmark of the agcodes command line, one client, one process.

    python3 perfbench/run.py --workload center-search --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` of
that checkout (never from an installed copy). The workload's operation list
is generated from ``--seed`` and every operation runs in-process through
``agcodes.cli.main(argv)`` with ``--out`` inside a scratch directory of the
checkout, removed at exit. The list is repeated until ``--seconds`` are
used up; every output is checked and a run fingerprint (sha256 over the
artifact digests in operation order) must repeat on every pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics together with
the tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # so that at least 10 operations lie beyond the 90th percentile
MEASURE_LIMIT_S = 120.0  # hard stop for the measuring loop (the run must end within 180 s)
SETUP_SAMPLE_LIMIT_S = 8.0  # set-up seconds sampled in fresh processes per run, at most

END_TO_END = (  # (name, unit) in report order
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("setup_s", "s"),
    ("fail_ratio", "1"),
    ("peak_rss_mb", "MiB"),
)
# fail_ratio is 0 on a healthy run, so the result line carries it as
# attempted/failed (and correct) rather than as a bounded metric
RESULT_METRICS = tuple(name for name, _ in END_TO_END if name != "fail_ratio")


def _import_library():
    src = ROOT / "src"
    if not (src / "agcodes" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/agcodes under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))
    import agcodes
    import agcodes.cli

    if not Path(agcodes.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported agcodes from {agcodes.__file__}, not {src}")
    return agcodes


def machine_facts(load) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "AGCODES_THREADS": os.environ.get("AGCODES_THREADS"),
        "loadavg_start": load,
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# One operation: run it, then check its output against what it must show.

class OpFailure(Exception):
    pass


def _read_build(out: Path) -> tuple[dict, str]:
    manifest = json.loads((out / "manifest.json").read_text())
    digest = _sha((out / manifest["artifact"]).read_text())
    if digest != manifest["artifact_sha256"]:
        raise OpFailure("artifact digest differs from its manifest")
    return manifest, digest


def check(op: workloads.Op, rc, stdout: str, tmp: str, out: Path) -> str:
    """Raise OpFailure on a wrong output; return the operation's digest."""
    if rc != 0:
        raise OpFailure(f"exit code {rc}")
    kind = op.kind
    if kind in ("combined build", "xing build", "goppa build"):
        manifest, digest = _read_build(out)
        res = manifest["results"]
        claimed, measured = res["claimed_distance"], res["measured_distance"]
        words = res.get("code_words", res.get("words"))
        if "claimed" in op.expect and claimed != op.expect["claimed"]:
            raise OpFailure(f"claimed distance {claimed} != {op.expect['claimed']}")
        if measured is None:
            if words >= 2:
                raise OpFailure("no measured distance for a code of two or more words")
        elif measured < claimed:
            raise OpFailure(f"measured distance {measured} < claimed {claimed}")
        return digest
    if kind == "sections enumerate":
        manifest, digest = _read_build(out)
        if manifest["results"]["count"] != op.expect["count"]:
            raise OpFailure(f"{manifest['results']['count']} sections, expected {op.expect['count']}")
        return digest
    if kind == "bounds table":
        manifest, digest = _read_build(out)
        lines = (out / manifest["artifact"]).read_text().splitlines()
        if len(lines) != op.expect["rows"] + 1:
            raise OpFailure(f"{len(lines) - 1} table rows, expected {op.expect['rows']}")
        return digest
    text = stdout.replace(str(out), "{out}").replace(tmp, "{tmp}")
    if kind == "verify distance":
        ok = "distance guarantee holds" in text
    elif kind == "verify averaging":
        m = re.search(r"census total=(\d+) expected=(\d+)", text)
        ok = bool(m) and int(m[1]) == int(m[2]) == op.expect["census"]
    elif kind == "sections proposition":
        ok = f"proposition verified on {op.expect['pairs']} pairs" in text
    elif kind == "replay manifest":
        ok = "replay identical" in text
    elif kind == "bounds crossing":
        ok = re.search(r"crossing=(true|false) peak=\S+ at delta=\S+", text) is not None
    else:
        raise OpFailure(f"no output check for {kind!r}")
    if not ok:
        raise OpFailure("output check failed: " + text.strip().replace("\n", " | ")[-200:])
    return _sha(text)


def run_op(cli, op: workloads.Op, tmp: str, out: Path):
    """(seconds, digest or None, failure message or None)."""
    argv = op.resolve(tmp, str(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        rc = exc.code
    except Exception:  # an uncaught library exception is a failed operation
        rc = "exception: " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
    seconds = perf_counter() - t0
    try:
        return seconds, check(op, rc, stdout.getvalue(), tmp, out), None
    except (OpFailure, OSError, KeyError, ValueError) as exc:
        err = stderr.getvalue().strip().replace("\n", " | ")
        return seconds, None, f"{' '.join(argv)}: {exc} {err}".strip()


# ---------------------------------------------------------------------------


def set_up(lib, wl: workloads.Workload, tmp: str):
    """First construction of every field, curve and kernel table the lists
    use, then the set-up operations (artifacts the verify ops read)."""
    for q, curve in wl.fields_and_curves():
        F = lib.field.make_field_q(q)
        lib.kernels.field_tables(F)
        if curve is not None:
            lib.curves.build_curve(curve, F)
    for op in wl.setup:
        # a set-up operation names its own output directory, its last argument
        _, _, failure = run_op(lib.cli, op, tmp, Path(op.resolve(tmp, "")[-1]))
        if failure:
            raise SystemExit(f"perfbench: set-up operation failed: {failure}")


def run_pass(lib, wl, tmp: str) -> dict:
    times, digests, failures = [], [], []
    for i, op in enumerate(wl.ops):
        out = Path(tmp) / "ops" / str(i)
        seconds, digest, failure = run_op(lib.cli, op, tmp, out)
        shutil.rmtree(out, ignore_errors=True)
        times.append(seconds)
        digests.append(digest or "FAILED")
        if failure:
            failures.append(failure)
    return {"times": times, "wall": sum(times), "failures": failures,
            "fingerprint": _sha("\n".join(digests))}


def _setup_sample(args) -> float:
    """set-up time of a fresh process running only the set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def _list_seconds(passes) -> float:
    """Time to finish the operation list: the sum over the list of each
    operation's median time across the passes. Per-operation medians shed
    the bursts of a shared machine better than a median of pass totals."""
    return sum(statistics.median(p["times"][i] for p in passes)
               for i in range(len(passes[0]["times"])))


def measure(lib, wl, tmp: str, seconds: float, trace: bool, between_passes=None):
    """Repeat the operation list until the time is used up (at least MIN_OPS
    operations). With tracing, passes alternate untraced/traced.
    ``between_passes`` runs after each pass, outside the measured time."""
    passes, recorders = [], []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        recorder = tracer.Recorder()
        with tracer.Tracer(recorder) if traced else contextlib.nullcontext():
            result = run_pass(lib, wl, tmp)
        if traced:
            recorders.append(recorder)
        result["traced"] = traced
        passes.append(result)
        if between_passes is not None:
            paused = perf_counter()
            between_passes()
            start += perf_counter() - paused
        elapsed = perf_counter() - start
        n_ops = sum(len(p["times"]) for p in passes)
        if elapsed > MEASURE_LIMIT_S:
            break
        if trace and not recorders:
            continue
        next_pass = statistics.median(p["wall"] for p in passes)
        if elapsed + next_pass > seconds and n_ops >= MIN_OPS:
            break
    return passes, recorders


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if "AGCODES_THREADS" in os.environ:
        raise SystemExit("perfbench: AGCODES_THREADS must be unset (runs are single-threaded)")
    load = os.getloadavg()
    lib = _import_library()
    wl = workloads.generate(args.workload, args.seed)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        setup_recorder = tracer.Recorder()
        with tracer.Tracer(setup_recorder) if args.trace else contextlib.nullcontext():
            set_up(lib, wl, tmp)
        own_setup = perf_counter() - _PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup]

        def sample_setup():
            # one fresh set-up after each pass, so the samples span the run
            if sum(setup_samples) < SETUP_SAMPLE_LIMIT_S:
                setup_samples.append(_setup_sample(args))

        passes, recorders = measure(lib, wl, tmp, args.seconds, bool(args.trace),
                                    None if args.trace else sample_setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    untraced = [p for p in passes if not p["traced"]]
    times = [t for p in untraced for t in p["times"]]
    list_s = _list_seconds(untraced)
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    fingerprints = sorted({p["fingerprint"] for p in passes})
    correct = not failures and len(fingerprints) == 1
    e2e = {
        "wall_s": list_s,
        "op_s.p50": statistics.median(times),
        "op_s.p90": _percentile(times, 90),
        # the fastest set-up: a slower sample measures the shared host, not set-up work
        "setup_s": min(setup_samples),
        "fail_ratio": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "workload": wl.name,
        "seed": wl.seed,
        "why": wl.why,
        "machine": machine_facts(load),
        "operations_per_pass": len(wl.ops),
        "passes": len(passes),
        "pass_seconds": [p["wall"] for p in passes],
        "op_samples": len(times),
        "setup_samples": setup_samples,
        "field_curve_reuse_share": workloads.reuse_share(wl),
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
        "failures": failures[:20],
    }
    if args.trace:
        overhead = _list_seconds([p for p in passes if p["traced"]]) / list_s
        per_pass = tracer.Recorder()
        per_pass.merge(setup_recorder)
        for rec in recorders:  # set-up once plus the mean traced pass
            per_pass.merge(rec, 1.0 / len(recorders))
        values = tracer.per_layer_values(per_pass, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.per_layer_metrics()}
        report["trace_overhead"] = overhead
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name in RESULT_METRICS}

    for name, unit in END_TO_END:
        print(f"{name:>12} {e2e[name]:.6g} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
