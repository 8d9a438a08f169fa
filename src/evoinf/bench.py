"""Benchmark harness: run selection algorithms across snapshot transitions.

Scenarios are flat key=value files (# comments allowed). The instance either
comes from the synthetic generator (gen.* keys) or from a temporal edge list
with explicit snapshot times. Every algorithm row within a scenario is
evaluated with the same Monte-Carlo seed so spread columns are comparable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import MISSING, dataclass, field, fields

from .errors import InvalidConfig, ScenarioError
from .generate import GenConfig, generate_evolving
from .graph import Snapshot, _records
from .incremental import (EvolutionContext, PruneConfig, _check_eta,
                          incinf_select)
from .ingest import load_temporal_edges, parse_prob_policy, snapshot_at
from .localize import _check_theta
from .select import (SeedResult, _check_k, degree_select, greedy_select,
                     mia_select, random_select)
from .simulate import _check_runs, simulate_spread

SCHEMA_VERSION = 1
# static selectors by name, called as (g, k, theta, runs, seed); each name is
# looked up when called, so a selector patched into this module is the one run
_STATIC = {
    "greedy": lambda g, k, theta, runs, seed: greedy_select(g, k, runs, seed),
    "mia": lambda g, k, theta, runs, seed: mia_select(g, k, theta),
    "degree": lambda g, k, theta, runs, seed: degree_select(g, k),
    "random": lambda g, k, theta, runs, seed: random_select(g, k, seed),
}
ALGORITHMS = (*_STATIC, "incinf")

CSV_COLUMNS = [
    "transition", "from_label", "to_label", "nodes", "edges", "algorithm",
    "k", "theta", "eta", "wall_time_s", "spread_mean", "spread_stderr",
    "eval_runs", "eval_seed", "prune_ratio_mean", "prune_ratios", "seeds",
]


@dataclass
class Scenario:
    algos: list[str]
    k: int
    theta: float
    eta: float
    eval_runs: int
    eval_seed: int
    select_runs: int = 10_000   # greedy's per-estimate sample count
    select_seed: int = 0
    gen: GenConfig | None = None
    edges_file: str | None = None
    snapshot_times: list[int] = field(default_factory=list)
    prob_policy: str = "trivalency"
    prob_seed: int = 0
    undirected: bool = False


def parse_scenario(path) -> Scenario:
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, text in _records(fh):
            if "=" not in text:
                raise ScenarioError(text, f"line {line_no} is not key=value")
            key, value = text.split("=", 1)
            raw[key.strip()] = value.strip()

    read: set[str] = set()

    def typed(key: str, cast=str, default=None):
        """raw[key] converted by cast; default when absent, or missing if
        there is no default."""
        read.add(key)
        val = raw.get(key)
        if val is None:
            if default is None:
                raise ScenarioError(key, "missing")
            return default
        try:
            return cast(val)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise ScenarioError(key, f"not {kind}: {val!r}")

    algos = [a.strip() for a in typed("algos").split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise ScenarioError("algos", f"unknown algorithm {a!r}")
        if algos.count(a) > 1:
            raise ScenarioError("algos", f"repeated algorithm {a!r}")
    if not algos:
        raise ScenarioError("algos", "empty")

    sc = Scenario(
        algos=algos,
        k=typed("k", int),
        theta=typed("theta", float),
        eta=typed("eta", float, 0.05),
        eval_runs=typed("eval_runs", int, 10_000),
        eval_seed=typed("eval_seed", int),
        select_runs=typed("select_runs", int, 10_000),
        select_seed=typed("select_seed", int, 0),
    )
    for key, check in [("k", _check_k), ("theta", _check_theta),
                       ("eta", _check_eta), ("eval_runs", _check_runs),
                       ("select_runs", _check_runs)]:
        try:
            check(getattr(sc, key), key)
        except InvalidConfig as exc:
            raise ScenarioError(key, str(exc))

    if "gen.n0" in raw:
        # one gen.<field> key per GenConfig field, gen.seed for master_seed;
        # a field without a default is a required integer
        values = {}
        for f in fields(GenConfig):
            key = "gen.seed" if f.name == "master_seed" else f"gen.{f.name}"
            if f.default is MISSING:
                values[f.name] = typed(key, int)
            else:
                values[f.name] = typed(key, type(f.default), f.default)
        sc.gen = GenConfig(**values)
    elif "edges_file" in raw:
        sc.edges_file = typed("edges_file")
        times = typed("snapshot_times")
        try:
            sc.snapshot_times = [int(t) for t in times.split(",")]
        except ValueError:
            raise ScenarioError("snapshot_times", f"bad list: {times!r}")
        if len(sc.snapshot_times) < 2:
            raise ScenarioError("snapshot_times", "need at least two times")
        sc.prob_policy = typed("prob_policy", default="trivalency")
        sc.prob_seed = typed("prob_seed", int, 0)
        undirected = typed("undirected", default="false").lower()
        if undirected not in ("true", "false"):
            raise ScenarioError("undirected", "must be true or false")
        sc.undirected = undirected == "true"
    else:
        raise ScenarioError("gen.n0/edges_file",
                            "scenario needs a gen.* block or an edges_file")
    unread = sorted(set(raw) - read)
    if unread:
        raise ScenarioError(unread[0], "unknown key, or not used by this "
                            "scenario")
    return sc


def _load_snapshots(sc: Scenario) -> list[Snapshot]:
    if sc.gen is not None:
        snapshots, _ = generate_evolving(sc.gen)
        return snapshots
    records, _ = load_temporal_edges(sc.edges_file, undirected=sc.undirected)
    policy = parse_prob_policy(sc.prob_policy, sc.prob_seed)
    return [snapshot_at(records, t, policy) for t in sc.snapshot_times]


def run_benchmark(sc: Scenario) -> dict:
    """Execute the scenario; returns the full report as a dictionary."""
    snapshots = _load_snapshots(sc)
    rows: list[dict] = []
    prev_inc: SeedResult | None = None

    for idx in range(1, len(snapshots)):
        g_old, g_new = snapshots[idx - 1], snapshots[idx]
        for algo in sc.algos:
            context_s = 0.0  # the row's context construction (its diff)
            if algo == "incinf":
                t0 = time.perf_counter()
                ctx = EvolutionContext.from_snapshots(g_old, g_new)
                context_s = time.perf_counter() - t0
                if prev_inc is None:
                    prev_inc = mia_select(g_old, sc.k, sc.theta)
                res = incinf_select(ctx, prev_inc, sc.k, sc.theta,
                                    PruneConfig(sc.eta, prev_inc.seeds),
                                    pad=True)
                prev_inc = res
            else:
                res = _STATIC[algo](g_new, sc.k, sc.theta, sc.select_runs,
                                    sc.select_seed)
            est = simulate_spread(g_new, res.seeds, sc.eval_runs,
                                  sc.eval_seed)
            ratios = res.params.get("prune_ratios", [])
            rows.append({
                "transition": idx,
                "from_label": g_old.label,
                "to_label": g_new.label,
                "nodes": g_new.num_nodes,
                "edges": g_new.num_edges,
                "algorithm": algo,
                "k": sc.k,
                "theta": sc.theta,
                "eta": sc.eta if algo == "incinf" else "",
                "wall_time_s": round(res.wall_time + context_s, 6),
                "spread_mean": est.mean,
                "spread_stderr": est.std_error,
                "eval_runs": sc.eval_runs,
                "eval_seed": sc.eval_seed,
                "prune_ratio_mean": (round(sum(ratios) / len(ratios), 6)
                                     if ratios else ""),
                "prune_ratios": ";".join(f"{r:.6f}" for r in ratios),
                "seeds": ";".join(str(s) for s in res.seeds),
            })

    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenario": {
            "algos": sc.algos, "k": sc.k, "theta": sc.theta, "eta": sc.eta,
            "eval_runs": sc.eval_runs, "eval_seed": sc.eval_seed,
        },
        "rows": rows,
    }


def report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    return buf.getvalue()


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2)
