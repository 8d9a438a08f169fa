"""Benchmark: incremental vs static top-K reselection in evoinf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of growth-100k, churn-20k, multistep-2k, greedy-200, or `all`
(the default), which runs each workload in its own process in turn. The
last line of output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). Result
records, traces and cached stream files go to perfbench/out/.

The program is imported from ../src, never from an installed copy, and only
its public names are called. See README.md for the workloads and metrics.
"""

import os

# one thread per workload process, numpy's pools included; must precede
# the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("growth-100k", "churn-20k", "multistep-2k", "greedy-200")


def use_source_tree() -> bool:
    """Put ../src first on the import path; False if it is not there."""
    if not (SRC_DIR / "evoinf" / "__init__.py").is_file():
        return False
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")

    if not use_source_tree():
        print(f"run.py: evoinf sources not found in {SRC_DIR}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            status = status or proc.returncode
        return status

    from harness import report, run_workload
    from workloads import workloads

    record = run_workload(workloads()[args.workload], args.seed,
                          args.seconds, bool(args.trace), OUT_DIR)
    result = report(record, OUT_DIR)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
