"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ladder,d2d] \\
        [--held-out 101] [--traced] [--out FILE]

For every workload, runs perfbench/run.py once per seed with tracing off and
prints, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. The spread is marked when it
is not below a third of the metric's bound in BENCHMARK.json. --held-out
adds a run on a seed kept out of the spread; --traced adds one traced run on
the first seed. --out writes every result, digests included, as JSON; that
file is the form of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": record["digest"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "environment": record["environment"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--held-out", type=int, default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    out = {"seconds": spec["run_seconds"], "seeds": args.seeds, "held_out_seed": args.held_out,
           "environment": None, "digests": {}, "end_to_end": {}, "held_out": {},
           "per_layer": {}}
    steady = True
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(bench(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items())
                + f" failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        out["environment"] = runs[-1]["environment"]
        out["digests"][name] = {str(r["seed"]): r["digest"] for r in runs}
        out["end_to_end"][name] = {}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric] for r in runs])
            out["end_to_end"][name][metric] = s
            ok = s["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  bound {bound}{'' if ok else '  <-- not below bound/3'}",
                  flush=True)
        if any(r["failed"] or not r["correct"] for r in runs):
            steady = False
            print(f"  {name}: failed runs", flush=True)
        if args.held_out is not None:
            held = bench(name, args.held_out, spec["run_seconds"], 0)
            out["held_out"][name] = held["metrics"]
            out["digests"][name][str(args.held_out)] = held["digest"]
            print(f"{name} held-out seed {args.held_out}: {held['metrics']}", flush=True)
        if args.traced:
            out["per_layer"][name] = bench(name, args.seeds[0], spec["run_seconds"], 1)["metrics"]
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
