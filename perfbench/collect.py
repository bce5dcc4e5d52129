"""Run a workload over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload verify --seeds 1-10 [--trace 1] [--json out.json]

Each run is a fresh ``perfbench/run.py`` process, one after another. For
every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and the spread, the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the runs and the summary to this file")
    args = ap.parse_args(argv)
    results = []
    for seed in _seeds(args.seeds):
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        shown = {k: round(v["value"], 4) for k, v in r["metrics"].items()
                 if args.trace == 0 or k.endswith(".self_s") or k == "trace_overhead"}
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {json.dumps(shown) if args.trace == 0 else ''}", flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        if args.trace == 0 or name.endswith(".self_s") or name == "trace_overhead":
            print(f"{name:>45} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": results}, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
