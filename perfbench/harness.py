"""Measurement loop, per-layer extraction and the result record.

One run of a workload:

1. `prepare`: stream files are generated once per checkout (untimed).
2. Set-up is repeated `setup_reps` times; `setup_s` is the median.
3. Rounds of the workload's ops repeat until `seconds` have passed, whole
   rounds only. Before each timed call the inputs are made fresh and the
   collector runs. Each end-to-end time is the median of its samples.
4. Peak RSS is read, then every correctness check runs, untimed.
5. Traced runs turn the recorded spans into per-layer metrics: per-round
   sums, median over rounds.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import evoinf as ev

from tracing import NullTracer, Tracer

END_TO_END_UNITS = {"setup_s": "s", "task_s": "s", "static_s": "s",
                    "eval_s": "s", "spread_ratio": "ratio",
                    "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "generate.generate_s": "s",
    "graph.replay_s": "s",
    "graph.apply_all_s": "s",
    "graph.diff_s": "s",
    "graph.kernel_stream_s": "s",
    "graph.kernel_changes": "count",
    "incremental.accumulate_deltas_s": "s",
    "incremental.add_edge_s": "s",
    "incremental.add_edge_calls": "count",
    "incremental.add_edge_effective": "count",
    "incremental.remove_edge_s": "s",
    "incremental.remove_edge_calls": "count",
    "incremental.remove_edge_effective": "count",
    "incremental.node_s": "s",
    "incremental.touched_nodes": "count",
    "incremental.prune_s": "s",
    "incremental.candidates": "count",
    "incremental.candidate_ratio": "ratio",
    "select.base_s": "s",
    "select.add_seed_s": "s",
    "select.incinf_select_s": "s",
    "select.mia_select_s": "s",
    "select.live_edge_samples_s": "s",
    "select.greedy_rounds_s": "s",
    "select.live_edge_bytes": "B",
    "localize.out_region_s": "s",
    "localize.out_region_members": "count",
    "localize.in_region_members": "count",
    "simulate.prepare_s": "s",
    "simulate.cascade_s": "s",
    "simulate.activated_nodes": "count",
    "bench.incinf_rows_s": "s",
    "bench.mia_rows_s": "s",
    "bench.eval_share": "ratio",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(tracer, name: str, call):
    gc.collect()
    with tracer.span(name):
        t0 = time.perf_counter()
        out = call()
        dt = time.perf_counter() - t0
    return out, dt


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    tracer = Tracer() if trace else NullTracer()
    phases = {"start": time.perf_counter()}
    wl.prepare(out_dir / "cache")
    phases["prepared"] = time.perf_counter()
    samples: dict[str, list[float]] = {"setup_s": []}
    attempted = failed = rounds = 0

    with tracer.installed():
        st = None
        for _ in range(wl.setup_reps):
            st = None  # one instance in memory at a time
            st, dt = _timed(tracer, "setup", lambda: wl.setup(tracer, seed))
            samples["setup_s"].append(dt)
            attempted += 1

        phases["set_up"] = time.perf_counter()
        ops = wl.ops()
        for op in ops:
            samples[op.metric] = []
        t_start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - t_start < seconds:
            with tracer.span("round"):
                for op in ops:
                    for _ in range(op.reps):
                        attempted += 1
                        try:
                            call = op.prepare(st)
                            out, dt = _timed(tracer, "op." + op.metric,
                                             call)
                            op.record(st, out)
                        except Exception:
                            failed += 1
                            traceback.print_exc(file=sys.stderr)
                            continue
                        samples[op.metric].append(dt)
            rounds += 1
        rss = peak_rss_mb()
        phases["measured"] = time.perf_counter()

        layers = _probe_and_extract(tracer, wl, st) if trace else None

    missing = [m for m, xs in samples.items() if not xs]
    if missing:
        raise RuntimeError(f"no successful samples for {missing}")
    ratio = wl.spread_ratio(st)
    checks = wl.checks(st, ratio)
    phases["checked"] = time.perf_counter()

    e2e = {m: statistics.median(xs) for m, xs in samples.items()}
    e2e["spread_ratio"] = ratio
    e2e["peak_rss_mb"] = rss
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": rounds,
        "attempted": attempted, "failed": failed,
        "correct": all(c.ok for c in checks),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                    "seconds": c.seconds} for c in checks],
        "samples": samples, "end_to_end": e2e,
        # wall time of each phase of this run, for sizing the benchmark
        "phase_s": {b: phases[b] - phases[a] for a, b in zip(
            list(phases), list(phases)[1:])},
    }
    if trace:
        record["per_layer"] = layers
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{wl.name}-seed{seed}.json")
    return record


def _probe_and_extract(tracer: Tracer, wl, st) -> dict:
    """Layer probes around the chosen seeds, then span aggregation."""
    g, seeds, theta = wl.subjects(st)
    with tracer.span("probe"):
        for s in seeds:
            with tracer.span("localize.out_region") as sp:
                sp.attrs["members"] = len(
                    ev.local_region(g, s, "out", theta).members)
            with tracer.span("localize.in_region") as sp:
                sp.attrs["members"] = len(
                    ev.local_region(g, s, "in", theta).members)
        prepare = []
        for _ in range(3):
            _, dt = _timed(tracer, "simulate.prepare",
                           lambda: ev.simulate_spread(g, seeds, 1, st.seed))
            prepare.append(dt)
    return layer_metrics(tracer.spans, statistics.median(prepare))


def layer_metrics(spans, prepare_s: float) -> dict:
    """Per-layer values: sums over each round's spans, median over rounds;
    set-up layers are medians per call; probes are read once."""
    round_of: dict[int, int | None] = {}
    in_bench: dict[int, bool] = {}
    per_round: dict[int, list] = {}
    probe: list = []
    for s in spans:
        parent = s.parent
        round_of[s.id] = s.id if s.name == "round" else \
            round_of.get(parent)
        in_bench[s.id] = s.name == "bench.run_benchmark" or \
            in_bench.get(parent, False)
        if s.name == "round":
            per_round[s.id] = []
        elif round_of[s.id] is not None:
            per_round[round_of[s.id]].append(s)
        elif s.name.startswith("localize."):
            probe.append(s)

    def over_rounds(fn) -> float:
        return statistics.median(fn(group) for group in per_round.values())

    def total(name, value=lambda s: s.duration):
        return over_rounds(lambda grp: sum(value(s) for s in grp
                                           if s.name == name))

    def count(name):
        return total(name, lambda s: 1)

    def effective(name):
        return total(name, lambda s: int(s.adds_end > s.adds_start))

    def attr(name, key):
        return total(name, lambda s: s.attrs[key])

    def per_call(name):
        xs = [s.duration for s in spans if s.name == name]
        return statistics.median(xs) if xs else 0.0

    def mean_ratio(grp):
        xs = [s.attrs["ratio"] for s in grp
              if s.name == "select.incinf_select"]
        return sum(xs) / len(xs) if xs else 0.0

    def eval_share(grp):
        bench = sum(s.duration for s in grp
                    if s.name == "bench.run_benchmark")
        sim = sum(s.duration for s in grp
                  if s.name == "simulate.simulate_spread"
                  and in_bench[s.id])
        return sim / bench if bench else 0.0

    def cascades(grp):
        sims = [s.duration for s in grp
                if s.name == "simulate.simulate_spread"]
        return sum(sims) - len(sims) * prepare_s

    def probe_sum(name, value):
        return sum(value(s) for s in probe if s.name == name)

    out = {
        "generate.generate_s": per_call("generate.generate"),
        "graph.replay_s": per_call("graph.replay"),
        "graph.apply_all_s": total("graph.apply_all"),
        "graph.diff_s": total("graph.diff"),
        "graph.kernel_stream_s": total("graph.kernel_stream"),
        "graph.kernel_changes": attr("graph.kernel_stream", "changes"),
        "incremental.accumulate_deltas_s":
            total("incremental.accumulate_deltas"),
        "incremental.add_edge_s": total("incremental.add_edge"),
        "incremental.add_edge_calls": count("incremental.add_edge"),
        "incremental.add_edge_effective": effective("incremental.add_edge"),
        "incremental.remove_edge_s": total("incremental.remove_edge"),
        "incremental.remove_edge_calls": count("incremental.remove_edge"),
        "incremental.remove_edge_effective":
            effective("incremental.remove_edge"),
        "incremental.node_s": total("incremental.node"),
        "incremental.touched_nodes":
            attr("incremental.accumulate_deltas", "touched"),
        "incremental.prune_s": total("incremental.prune"),
        "incremental.candidates": attr("select.incinf_select", "candidates"),
        "incremental.candidate_ratio": over_rounds(mean_ratio),
        "select.base_s": total("select.base"),
        "select.add_seed_s": total("select.add_seed"),
        "select.incinf_select_s": total("select.incinf_select"),
        "select.mia_select_s": total("select.mia_select"),
        "select.live_edge_samples_s": total("select.live_edge_samples"),
        "select.greedy_rounds_s": over_rounds(
            lambda grp: sum(s.duration for s in grp
                            if s.name == "select.greedy_select")
            - sum(s.duration for s in grp
                  if s.name == "select.live_edge_samples")),
        "select.live_edge_bytes": attr("select.live_edge_samples", "bytes"),
        "localize.out_region_s": probe_sum("localize.out_region",
                                           lambda s: s.duration),
        "localize.out_region_members": probe_sum(
            "localize.out_region", lambda s: s.attrs["members"]),
        "localize.in_region_members": probe_sum(
            "localize.in_region", lambda s: s.attrs["members"]),
        "simulate.prepare_s": prepare_s,
        "simulate.cascade_s": over_rounds(cascades),
        "simulate.activated_nodes": attr("simulate.simulate_spread",
                                         "activated"),
        "bench.incinf_rows_s": attr("bench.run_benchmark", "incinf"),
        "bench.mia_rows_s": attr("bench.run_benchmark", "mia"),
        "bench.eval_share": over_rounds(eval_share),
    }
    return out


def report(record: dict, out_dir: Path) -> dict:
    """Print the human-readable lines and return the result object whose
    JSON is the run's last line of output."""
    trace = record["trace"]
    values = record["per_layer"] if trace else record["end_to_end"]
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['rounds']} rounds, {record['attempted']} operations "
          f"attempted, {record['failed']} failed"
          + (" (traced)" if trace else ""))
    for name, xs in record["samples"].items():
        print(f"  {name:<14} {record['end_to_end'][name]:.6f} s "
              f"(median of {len(xs)})")
    for name in ("spread_ratio", "peak_rss_mb"):
        print(f"  {name:<14} {record['end_to_end'][name]:.6f} "
              f"{END_TO_END_UNITS[name]}")
    if trace:
        for name, value in values.items():
            print(f"  {name:<36} {value:.6g} {units[name]}")
    for c in record["checks"]:
        print(f"  check {c['name']:<14} {'PASS' if c['ok'] else 'FAIL'}: "
              f"{c['detail']}")
    result_dir = out_dir / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    path = result_dir / (f"{record['workload']}-seed{record['seed']}"
                         f"-trace{trace}.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}
