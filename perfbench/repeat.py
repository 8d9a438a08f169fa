"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --workload churn-20k --seeds 1-10 \
        --seconds 15 [--trace 0] [--label set1]

Runs run.py once per seed, in sequence, and prints for every metric the
median, the quartiles (statistics.quantiles, n=4) and the interquartile
distance as a share of the median, plus each run's wall time. The summary
is also written to perfbench/out/repeats/<workload>-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="15")
    p.add_argument("--trace", default="0")
    p.add_argument("--label", default="set")
    args = p.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
            else (xs[0], None, xs[0])
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else 0.0}
        print(f"{name:<36} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {summary[name]['iqr_share']:.4f}")
    walls = [r["wall_s"] for r in runs]
    print(f"wall per run: median {statistics.median(walls):.1f}s, "
          f"max {max(walls):.1f}s, total {sum(walls):.0f}s")
    out = BENCH_DIR / "out" / "repeats"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-{args.label}.json").write_text(
        json.dumps({"args": vars(args), "runs": runs, "summary": summary},
                   indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
