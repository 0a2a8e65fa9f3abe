"""Time one workload's set-up in a fresh interpreter.

Set-up is everything before the first sampler run: importing stochanneal
(the package, its experiments and its CLI, as the benchmark does), loading
the packaged reference (get_reference), and generating the workload's
instances. Prints one JSON line with each phase in host seconds and the
ru_maxrss growth across instance generation in MB.

    python3 perfbench/setup_probe.py --workload d2d --seed 1 [--smoke]
"""

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    from workloads import WORKLOADS, reference

    t1 = time.perf_counter()
    reference.get_reference()
    t2 = time.perf_counter()
    workload = WORKLOADS[args.workload]
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.generate(args.seed, workload.smoke if args.smoke else workload.full)
    t3 = time.perf_counter()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(json.dumps({
        "import_s": t1 - t0,
        "get_reference_s": t2 - t1,
        "generate_s": t3 - t2,
        "generate_rss_mb": (rss1 - rss0) / 1024.0,
        "setup_s": t3 - t0,
    }))


if __name__ == "__main__":
    main()
