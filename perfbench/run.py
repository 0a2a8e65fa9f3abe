"""Benchmark of the stochanneal annealer: one closed-batch study per workload.

    python3 perfbench/run.py --workload {ladder,d2d,solve-large} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from ./src.
A run first times set-up in fresh interpreters (perfbench/setup_probe.py),
then repeats the study on the inputs made from --seed until the next pass
would end after --seconds. Every pass is checked; a failed check marks the
pass's sampler runs failed and the benchmark carries on.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
alternates untraced and traced passes and reports per-layer metrics from the
spans of the traced ones, plus the tracing overhead. --smoke runs every
workload at tiny sizes, for the benchmark's own test.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a JSON record of the
run: environment, pass times, and the result digest next to the digest
stored in perfbench/baseline.json for this workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    traced: bool
    wall: float
    iterations: int
    attempted: int
    failed: int
    digest: str | None
    problems: list = field(default_factory=list)
    layers: dict | None = None


@dataclass
class Context:
    """What a workload's pass may use besides its seed and sizes."""

    workdir: str
    log: object
    tracer: object

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def probe_setup(workload: str, seed: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload, seed, params, ctx: Context) -> Pass:
    from workloads import digest

    records = ctx.log.records
    records.clear()
    rows = None
    problems = []
    start = time.perf_counter()
    try:
        with ctx.tracer.installed() if ctx.tracer is not None else nullcontext():
            rows, problems = workload.run(seed, params, ctx)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed pass is counted
        traceback.print_exc()
        problems = [f"raised {exc!r}"]
    wall = time.perf_counter() - start

    bad_runs = [p for p in (r.problem() for r in records) if p]
    raised = rows is None
    attempted = len(records) + raised
    failed = attempted if problems else len(bad_runs)
    return Pass(traced=ctx.tracer is not None, wall=wall,
                iterations=sum(r.iterations for r in records), attempted=attempted,
                failed=failed, digest=None if raised else digest(rows),
                problems=problems + bad_runs,
                layers=ctx.tracer.metrics(wall) if ctx.tracer is not None and not raised else None)


def stored_digest(workload: str, seed: int, smoke: bool):
    if smoke or not BASELINE.is_file():
        return None
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh).get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "d2d", "solve-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "stochanneal" / "__init__.py").is_file():
        print(f"error: no stochanneal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # calibration failures are counted per run; their warnings are noise here
    warnings.simplefilter("ignore", UserWarning)

    probes = [probe_setup(args.workload, args.seed, args.smoke) for _ in range(SETUP_PROBES)]

    import stochanneal
    import tracer
    from workloads import WORKLOADS

    if Path(stochanneal.__file__).resolve().parent != SRC / "stochanneal":
        print(f"error: imported stochanneal from {stochanneal.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = workload.smoke if args.smoke else workload.full
    log = tracer.RunLog()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    passes: list[Pass] = []
    spans = []
    start = time.perf_counter()
    try:
        while True:
            # trace mode alternates untraced and traced passes, untraced first
            traced = bool(args.trace) and len(passes) % 2 == 1
            ctx = Context(str(workdir), log, tracer.Tracer() if traced else None)
            passes.append(run_pass(workload, args.seed, params, ctx))
            if traced:
                spans = ctx.tracer.dump()
            typical = statistics.median(p.wall for p in passes)
            if args.trace and len(passes) < 2:
                continue
            if time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0].digest
    for p in passes[1:]:
        # the passes share their inputs, so a pass whose result differs fails
        if p.digest != first:
            p.problems.append(f"digest {p.digest} differs from first pass {first}")
            p.failed = p.attempted
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced_passes = [p for p in passes if p.traced and p.layers is not None]
        metrics = {}
        if traced_passes:
            for key in traced_passes[0].layers:
                metrics[key] = statistics.median(p.layers[key] for p in traced_passes)
            metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced_passes)
                                           - statistics.median(p.wall for p in untraced))
        metrics["reference.get_reference_s"] = statistics.median(
            p["get_reference_s"] for p in probes)
        metrics["io_ingest.generate_instance_rss_mb"] = statistics.median(
            p["generate_rss_mb"] for p in probes)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "cycles_per_s": statistics.median(p.iterations / p.wall for p in untraced),
            "peak_rss_mb": peak_rss_mb,
        }

    units = unit_table()
    stored = stored_digest(args.workload, args.seed, args.smoke)
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "environment": environment(),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "iterations": p.iterations,
                    "attempted": p.attempted, "failed": p.failed} for p in passes],
        "setup_probes": probes,
        "digest": first, "stored_digest": stored,
        "digest_match": None if stored is None else stored == first,
        "problems": [q for p in passes for q in p.problems],
    }
    if record["digest_match"] is False:
        print(f"warning: {args.workload} seed {args.seed} results changed: digest {first} "
              f"!= stored {stored}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"failed check: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_table() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
