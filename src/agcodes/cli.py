"""Command-line harness: build code artifacts with manifests, verify the
recorded guarantees from scratch, tabulate bounds, and replay manifests
bit-for-bit.

Exit codes: 0 success, 2 usage error (argparse), 3 precondition violation,
4 verification failure (a mathematical guarantee did not hold, or a replay
diverged). All randomness flows from the --seed flag through Python's
Mersenne Twister (random.Random), so every artifact is reproducible from
its manifest. Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time

from . import bounds, kernels
from .codes import build_goppa, closest_pair, code_from_text, code_to_text
from .combined import CombinedParams, build_combined
from .curves import build_curve, default_eval_points, distinct_points
from .errors import PreconditionError, VerificationError
from .field import make_field_q
from .sections import count_reference, enumerate_sections, multiplicity_census
from .xing import XingParams, build_xing, search_centers

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-agcodes-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _resolve_curve(args):
    field = make_field_q(args.q)
    return build_curve(args.curve, field)


def _read_text(path: str) -> str:
    """The file's text as written: no newline translation, so a carriage
    return reaches the code-file reader, which rejects it."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None


# argparse types: a syntax error in an argument exits 2 like any usage
# error; the text is returned unchanged so manifests record what was typed

def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _int_list_arg(text: str) -> str:
    if not all(_is_int(t) for t in text.split(",") if t.strip() != ""):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return text


def _divisor_arg(text: str) -> str:
    """'0', or entries place:coefficient joined by ';', where a place is
    'inf' or the comma-separated coefficients of a polynomial."""
    if text.strip() in ("", "0"):
        return text
    for entry in text.strip().split(";"):
        place, sep, coeff = entry.rpartition(":")
        tokens = [] if place.strip() in ("", "inf") else place.split(",")
        if not sep or not all(_is_int(t) for t in tokens + [coeff]):
            raise argparse.ArgumentTypeError(f"malformed divisor entry {entry!r}")
    return text


def _nonnegative_int(text: str) -> int:
    if not _is_int(text) or int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _resolve_points(curve, D, spec: str | None):
    if spec is None:
        return default_eval_points(curve, D)
    idx = _ints(spec)
    for i in idx:
        if not 0 <= i < len(curve.points):
            raise PreconditionError(f"point index {i} outside [0, {len(curve.points)})")
    return distinct_points(curve.points[i] for i in idx)


def _manifest(command: str, params: dict, extra: dict, artifact: str, text: str,
              elapsed: float, context: dict | None = None) -> str:
    doc = {
        "command": command,
        "params": params,
        "results": extra,
        "artifact": artifact,
        "artifact_sha256": _sha256(text),
        "timings": {"build_seconds": round(elapsed, 6)},
    }
    if context:
        doc["context"] = context
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _curve_context(curve, points=None) -> dict:
    ctx = {
        "field": {
            "p": curve.field.p,
            "alpha": curve.field.degree,
            "modulus": list(curve.field.modulus),
        },
        "point_order": ";".join(p.serialize() for p in curve.points),
    }
    if points is not None:
        ctx["eval_points"] = ";".join(p.serialize() for p in points)
    return ctx


def _emit(args, command: str, extra: dict, artifact_name: str, text: str,
          elapsed: float, context: dict | None = None):
    """Write the artifact and its manifest. The manifest's params are the
    command's flags as parsed, which replay passes back; the output
    directory is left out, so a manifest replays anywhere."""
    params = {k: v for k, v in vars(args).items() if k not in ("group", "sub", "fn", "out")}
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    artifact_path = os.path.join(out_dir, artifact_name)
    _write_atomic(artifact_path, text)
    manifest = _manifest(command, params, extra, artifact_name, text, elapsed, context)
    _write_atomic(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote {artifact_path}")
    for k, v in extra.items():
        print(f"  {k}: {v}")


# ---------------------------------------------------------------------------
# Subcommand bodies. Each returns an exit code.

def cmd_field_selftest(args) -> int:
    import random

    for q in args.q or [2, 3, 4, 5, 8, 9, 16, 25, 49]:
        field = make_field_q(q)
        rng = random.Random(args.seed)
        for _ in range(200):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            if field.add(field.mul(a, b), field.mul(a, c)) != field.mul(a, field.add(b, c)):
                print(f"distributivity failed in GF({q}) at (a, b, c) = ({a}, {b}, {c})")
                return EXIT_VERIFICATION
        for a in range(q):
            if field.pow(a, q) != a:
                print(f"Frobenius fixed-point failed in GF({q}) at a = {a}")
                return EXIT_VERIFICATION
        print(f"GF({q}) ok (modulus {','.join(str(c) for c in field.modulus)})")
    return EXIT_OK


def cmd_curve_info(args) -> int:
    curve = _resolve_curve(args)
    info = curve.info()
    info["points"] = ";".join(p.serialize() for p in curve.points)
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_goppa_build(args) -> int:
    t0 = time.perf_counter()
    curve = _resolve_curve(args)
    D = curve.parse_divisor(args.divisor)
    points = _resolve_points(curve, D, args.points)
    code = build_goppa(curve, D, points)
    text = code_to_text(code)
    extra = {
        "n": code.length,
        "dim": code.metadata["dim"],
        "words": code.size,
        "claimed_distance": code.metadata["claimed_distance"],
        "measured_distance": code.metadata["measured_distance"],
    }
    _emit(args, "goppa build", extra, "goppa_code.txt", text,
          time.perf_counter() - t0, context=_curve_context(curve, points))
    return EXIT_OK


def cmd_xing_build(args) -> int:
    t0 = time.perf_counter()
    curve = _resolve_curve(args)
    D = curve.parse_divisor(args.divisor)
    points = _resolve_points(curve, D, args.points)
    params = XingParams(
        m=args.m,
        radii=tuple(_ints(args.radii)),
        strategy=args.strategy,
        seed=args.seed,
        trials=args.trials,
    )
    build = build_xing(curve, D, params, points)
    text = code_to_text(build.code)
    extra = {
        "n": build.code.length,
        "functions": build.code.metadata["n_functions"],
        "survivors": build.search.best_count,
        "code_words": build.code.size,
        "average": build.code.metadata["average"],
        "claimed_distance": build.code.metadata["claimed_distance"],
        "measured_distance": build.code.metadata["measured_distance"],
    }
    _emit(args, "xing build", extra, "xing_code.txt", text,
          time.perf_counter() - t0, context=_curve_context(curve, points))
    return EXIT_OK


def _serialize_row(coeffs: list) -> str:  # Polynomial.serialize of a padded row
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return ",".join(map(str, coeffs))


def cmd_sections_enumerate(args) -> int:
    t0 = time.perf_counter()
    field = make_field_q(args.q)
    curve = build_curve("p1", field)
    D = curve.parse_divisor(args.divisor)
    sections = enumerate_sections(curve, D, args.h)
    lines = [f"# sections of height <= {args.h} for divisor {D.serialize()} over GF({field.q})"]
    lines += [f"{_serialize_row(u)}/{_serialize_row(v)} height={ht}" for u, v, ht in
              zip(sections.numer.tolist(), sections.denom.tolist(), sections.heights.tolist())]
    text = "\n".join(lines) + "\n"
    extra = {
        "count": len(sections),
        **count_reference(field.q, curve.n_points, args.h, len(sections)),
    }
    _emit(args, "sections enumerate", extra, "sections.txt", text,
          time.perf_counter() - t0, context=_curve_context(curve))
    return EXIT_OK


def cmd_sections_proposition(args) -> int:
    import random

    field = make_field_q(args.q)
    curve = build_curve("p1", field)
    D = curve.parse_divisor(args.divisor)
    h_each = args.h_max // 2
    sections = enumerate_sections(curve, D, h_each, census=True)
    rng = random.Random(args.seed)
    # blocks of about _CHUNK_CELLS bytes: five polynomials' coefficients by as many places, int64
    block = max(1, kernels._CHUNK_CELLS // (40 * (2 * sections.numer.shape[1] - 1) ** 2))
    checked = 0
    while checked < args.pairs:
        pairs = []
        while len(pairs) < min(block, args.pairs - checked):
            i, j = rng.randrange(len(sections)), rng.randrange(len(sections))
            if i != j:  # rows are distinct sections
                pairs.append((i, j))
        census = multiplicity_census(sections, pairs)
        target = sections.heights[pairs].sum(axis=1)
        total, mu_total = census.totals()
        failed = (total != target) | (mu_total != target)
        if failed.any():
            k = int(failed.argmax())  # the first failing pair in draw order
            a, b = pairs[k]
            heights = sections.heights.tolist()
            print(f"multiplicity total {total[k]} != {heights[a]} + {heights[b]}"
                  if total[k] != target[k] else "pole-count identity failed")
            for name, row in (("a", a), ("b", b)):
                print(f"witness section {name}: {_serialize_row(sections.numer[row].tolist())}/"
                      f"{_serialize_row(sections.denom[row].tolist())} height {heights[row]}")
            for r in census.rows(k):
                print(f"census {r['place'].serialize()}: m={r['m']} mu={r['mu']} "
                      f"mu2={r['mu2']} v_diff={r['v_diff']}")
            return EXIT_VERIFICATION
        checked += len(pairs)
    print(f"proposition verified on {checked} pairs (q={args.q}, h<= {h_each} each)")
    return EXIT_OK


def cmd_combined_build(args) -> int:
    t0 = time.perf_counter()
    field = make_field_q(args.q)
    curve = build_curve("p1", field)
    D = curve.parse_divisor(args.divisor)
    points = tuple(curve.points) if args.points is None else _resolve_points(curve, D, args.points)
    params = CombinedParams(
        h=args.h, s0=args.s0, d0=args.d0,
        strategy=args.strategy, seed=args.seed, trials=args.trials,
    )
    result = build_combined(curve, D, params, points)
    text = code_to_text(result.code)
    extra = {
        "n": result.code.length,
        "sections": result.code.metadata["n_sections"],
        "survivors": len(result.survivors),
        "code_words": result.code.size,
        "average": result.code.metadata["average"],
        "claimed_distance": result.code.metadata["claimed_distance"],
        "measured_distance": result.code.metadata["measured_distance"],
    }
    _emit(args, "combined build", extra, "combined_code.txt", text,
          time.perf_counter() - t0, context=_curve_context(curve, points))
    return EXIT_OK


def cmd_bounds_table(args) -> int:
    t0 = time.perf_counter()
    text = bounds.frontier_csv(args.q, args.grid, args.m)
    q0 = bounds.sqrt_if_square(args.q)
    extra = {"rows": args.grid, "reference_ratio": q0 - 1}
    _emit(args, "bounds table", extra, f"frontier_q{args.q}.csv", text,
          time.perf_counter() - t0)
    return EXIT_OK


def cmd_bounds_crossing(args) -> int:
    result = bounds.gv_crossing(args.q)
    argmax, peak = bounds.entropy_gap_max(args.q)
    print(f"q={args.q} crossing={'true' if result else 'false'} "
          f"peak={float(peak):.9f} at delta={float(argmax):.9f}")
    return EXIT_OK


def cmd_verify_distance(args) -> int:
    code = code_from_text(_read_text(args.code))
    claimed = code.metadata.get("claimed_distance")
    scan = closest_pair(code)  # minimum weight if proven a subspace, else all pairs
    measured = None if scan is None else scan[0]
    print(f"words={code.size} claimed={claimed} measured={measured}")
    if scan is not None and claimed is not None and measured < claimed:
        for k in scan[1]:
            print(f"witness word {k}: " + ",".join(map(str, code.words[k].tolist())))
        print("distance guarantee FAILED")
        return EXIT_VERIFICATION
    print("distance guarantee holds")
    return EXIT_OK


def cmd_verify_averaging(args) -> int:
    field = make_field_q(args.q)
    curve = build_curve("p1", field)
    D = curve.parse_divisor(args.divisor)
    if args.kind == "xing":
        params = XingParams(m=args.m, radii=tuple(_ints(args.radii)), strategy="census")
        res = search_centers(curve, D, params)
        total, expected = res.census_total, res.expected_census
    else:
        from .combined import averaging_census

        total, expected = averaging_census(curve, D, args.h, args.s0)
    print(f"census total={total} expected={expected}")
    if total != expected:
        print("averaging identity FAILED")
        return EXIT_VERIFICATION
    print("averaging identity holds")
    return EXIT_OK


# the commands that write manifests; replay runs nothing else
REPLAYABLE = ("goppa build", "xing build", "sections enumerate", "combined build", "bounds table")


def cmd_replay_manifest(args) -> int:
    try:
        doc = json.loads(_read_text(args.manifest))
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"manifest is not JSON: {exc}") from None
    fields = {"command": str, "params": dict, "artifact": str, "artifact_sha256": str}
    if not isinstance(doc, dict) or any(not isinstance(doc.get(k), t) for k, t in fields.items()):
        raise PreconditionError("manifest needs " + ", ".join(fields))
    command = doc["command"]
    if command not in REPLAYABLE:
        raise PreconditionError(f"manifest command {command!r} is not one that writes manifests")
    params = doc["params"]
    out_dir = args.out or tempfile.mkdtemp(prefix="agcodes-replay-")
    argv = command.split()
    for k, v in params.items():
        if v is None:
            continue
        argv += [f"--{k.replace('_', '-')}", str(v)]
    argv += ["--out", out_dir]
    rc = main(argv)
    if rc != EXIT_OK:
        return rc
    artifact = os.path.join(out_dir, doc["artifact"])
    text = _read_text(artifact)
    if _sha256(text) != doc["artifact_sha256"]:
        print("replay diverged from the recorded artifact")
        return EXIT_VERIFICATION
    print(f"replay identical: {artifact}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args returns a fresh namespace each call."""
    ap = argparse.ArgumentParser(prog="agcodes", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    def add(group_parser, name, fn, **kwargs):
        p = group_parser.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    field_g = sub.add_parser("field").add_subparsers(dest="sub", required=True)
    p = add(field_g, "selftest", cmd_field_selftest)
    p.add_argument("--q", type=int, action="append")
    p.add_argument("--seed", type=int, default=0)

    curve_g = sub.add_parser("curve").add_subparsers(dest="sub", required=True)
    p = add(curve_g, "info", cmd_curve_info)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--curve", choices=("p1", "hermitian"), default="p1")

    goppa_g = sub.add_parser("goppa").add_subparsers(dest="sub", required=True)
    p = add(goppa_g, "build", cmd_goppa_build)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--curve", choices=("p1", "hermitian"), default="p1")
    p.add_argument("--divisor", type=_divisor_arg, required=True)
    p.add_argument("--points", type=_int_list_arg, default=None)
    p.add_argument("--out", default="artifacts")

    xing_g = sub.add_parser("xing").add_subparsers(dest="sub", required=True)
    p = add(xing_g, "build", cmd_xing_build)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--curve", choices=("p1", "hermitian"), default="p1")
    p.add_argument("--divisor", type=_divisor_arg, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--radii", type=_int_list_arg, required=True)
    p.add_argument("--strategy", choices=("exhaustive", "random", "greedy"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_nonnegative_int, default=64)
    p.add_argument("--points", type=_int_list_arg, default=None)
    p.add_argument("--out", default="artifacts")

    sections_g = sub.add_parser("sections").add_subparsers(dest="sub", required=True)
    p = add(sections_g, "enumerate", cmd_sections_enumerate)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--divisor", type=_divisor_arg, default="0")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", default="artifacts")
    p = add(sections_g, "proposition", cmd_sections_proposition)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--divisor", type=_divisor_arg, default="0")
    p.add_argument("--h-max", type=int, default=6)
    p.add_argument("--pairs", type=_nonnegative_int, default=50)
    p.add_argument("--seed", type=int, default=0)

    combined_g = sub.add_parser("combined").add_subparsers(dest="sub", required=True)
    p = add(combined_g, "build", cmd_combined_build)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--divisor", type=_divisor_arg, default="0")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--s0", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--strategy", choices=("exhaustive", "random", "greedy"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_nonnegative_int, default=64)
    p.add_argument("--points", type=_int_list_arg, default=None)
    p.add_argument("--out", default="artifacts")

    bounds_g = sub.add_parser("bounds").add_subparsers(dest="sub", required=True)
    p = add(bounds_g, "table", cmd_bounds_table)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--grid", type=int, default=99)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", default="artifacts")
    p = add(bounds_g, "crossing", cmd_bounds_crossing)
    p.add_argument("--q", type=int, required=True)

    verify_g = sub.add_parser("verify").add_subparsers(dest="sub", required=True)
    p = add(verify_g, "distance", cmd_verify_distance)
    p.add_argument("--code", required=True)
    p = add(verify_g, "averaging", cmd_verify_averaging)
    p.add_argument("--kind", choices=("xing", "combined"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--divisor", type=_divisor_arg, default="0")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--radii", type=_int_list_arg, default="1")
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--s0", type=int, default=1)

    replay_g = sub.add_parser("replay").add_subparsers(dest="sub", required=True)
    p = add(replay_g, "manifest", cmd_replay_manifest)
    p.add_argument("manifest")
    p.add_argument("--out", default=None)

    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
