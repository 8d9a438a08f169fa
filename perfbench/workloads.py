"""The benchmark's workloads.

Each workload is a fixed instance: its generator configuration, generator
seed included, is part of the definition (README.md explains why). The run
seed drives everything else that is random: Monte-Carlo evaluation seeds,
greedy's live-edge draws, random_select, the nodes the checks sample and
the checks' own generator.

A workload builds its instance in `setup`, then the harness times rounds of
its `ops`. Every op is split into untimed preparation (fresh snapshot
copies, so each timed call starts from empty `sorted_row` caches) and the
timed call, which goes through public evoinf names looked up at call time so
the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import evoinf as ev
import evoinf.bench as ev_bench
from evoinf.graph import apply_all as _untraced_apply_all

import oracles

BENCH_DIR = Path(__file__).resolve().parent


def fresh(g):
    """An equal snapshot with empty sorted-row caches (not traced)."""
    return _untraced_apply_all(g, [])


@dataclass
class Op:
    metric: str                       # end-to-end metric its samples feed
    reps: int                         # timed calls per round
    prepare: Callable                 # state -> zero-argument timed call
    record: Callable                  # (state, result) -> None, untimed


@dataclass
class State:
    seed: int
    results: dict = field(default_factory=dict)   # latest result per op
    seeds_seen: dict = field(default_factory=dict)
    nondeterministic: list = field(default_factory=list)

    def keep(self, metric: str, result, seeds) -> None:
        """Keep the latest result; note if its seeds differ between rounds."""
        self.results[metric] = result
        first = self.seeds_seen.setdefault(metric, list(seeds))
        if list(seeds) != first and metric not in self.nondeterministic:
            self.nondeterministic.append(metric)

    def determinism(self) -> oracles.Check:
        return oracles.Check(
            "determinism", not self.nondeterministic,
            "same seeds in every round" if not self.nondeterministic
            else f"seeds changed between rounds: {self.nondeterministic}")


def _gen_key(gen: dict) -> str:
    return hashlib.sha256(json.dumps(gen, sort_keys=True).encode()
                          ).hexdigest()[:12]


def write_streams(gen: dict, out_dir: str) -> None:
    """Generate the instance and write it as stream files, as `evoinf gen`
    does: stream_0000 builds snapshot 0 from the empty graph."""
    snapshots, streams = ev.generate_evolving(ev.GenConfig(**gen))
    out = Path(out_dir)
    out.mkdir(parents=True)
    ev.write_change_stream(out / "stream_0000.txt",
                           ev.diff(ev.Snapshot({}, {}, 0), snapshots[0]))
    for i, stream in enumerate(streams, start=1):
        ev.write_change_stream(out / f"stream_{i:04d}.txt", stream)


class Transition:
    """One evolution step replayed from stream files: incremental
    reselection against static reselection on the new snapshot."""

    def __init__(self, name: str, gen: dict, k: int, theta: float,
                 eta: float, eval_runs: int, setup_reps: int):
        self.name, self.gen = name, gen
        self.k, self.theta, self.eta = k, theta, eta
        self.eval_runs, self.setup_reps = eval_runs, setup_reps
        self.stream_dir: Path | None = None

    def prepare(self, cache_dir: Path) -> None:
        """Generate the stream files once per checkout.

        Generation runs in a child process so that its memory does not
        count towards this process's peak RSS.
        """
        self.stream_dir = cache_dir / f"{self.name}-{_gen_key(self.gen)}"
        if self.stream_dir.is_dir():
            return
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f"{self.stream_dir.name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(ev.__file__).parent.parent), str(BENCH_DIR)]))
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys, workloads; "
             "workloads.write_streams(json.loads(sys.argv[1]), sys.argv[2])",
             json.dumps(self.gen), str(tmp)], env=env)
        if proc.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            raise RuntimeError(f"stream generation for {self.name} exited "
                               f"with {proc.returncode}")
        try:
            tmp.rename(self.stream_dir)
        except OSError:
            # another run finished the same files first
            shutil.rmtree(tmp, ignore_errors=True)

    def setup(self, tracer, seed: int) -> State:
        steps = self.gen["steps"]
        path = self.stream_dir / "stream_{:04d}.txt"
        b = ev.GraphBuilder()
        with tracer.span("graph.replay"):
            for i in range(steps):
                b.apply_all(ev.read_change_stream(str(path).format(i)))
            g_old = b.freeze(steps - 1)
            stream = ev.read_change_stream(str(path).format(steps))
            b.apply_all(stream)
            g_new = b.freeze(steps)
        st = State(seed)
        st.g_old, st.g_new, st.stream = g_old, g_new, stream
        st.prev = ev.mia_select(g_old, self.k, self.theta)
        return st

    def ops(self) -> list[Op]:
        def reselect(st):
            g_old = fresh(st.g_old)
            return lambda: ev.incinf_select(
                ev.EvolutionContext.from_stream(g_old, st.stream), st.prev,
                self.k, self.theta, ev.PruneConfig(self.eta, st.prev.seeds))

        def static(st):
            g_new = fresh(st.g_new)
            return lambda: ev.mia_select(g_new, self.k, self.theta)

        def evaluate(st):
            seeds = st.results["task_s"].seeds
            return lambda: ev.simulate_spread(st.g_new, seeds,
                                              self.eval_runs, st.seed)

        return [
            Op("task_s", 1, reselect,
               lambda st, r: st.keep("task_s", r, r.seeds)),
            Op("static_s", 1, static,
               lambda st, r: st.keep("static_s", r, r.seeds)),
            Op("eval_s", 1, evaluate,
               lambda st, r: st.keep("eval_s", r, [r.mean])),
        ]

    def subjects(self, st):
        """Snapshot, seeds and theta the layer probes look at."""
        return st.g_new, st.results["task_s"].seeds, self.theta

    def spread_ratio(self, st) -> float:
        inc, ref = st.results["task_s"], st.results["static_s"]
        est = st.results["eval_s"]
        if set(ref.seeds) == set(inc.seeds):
            ref_est = est  # simulate_spread only sees the seed set
        else:
            ref_est = ev.simulate_spread(st.g_new, ref.seeds,
                                         self.eval_runs, st.seed)
        return est.mean / ref_est.mean

    def checks(self, st, ratio: float) -> list[oracles.Check]:
        rng = random.Random(st.seed)
        inc, ref = st.results["task_s"], st.results["static_s"]
        g = oracles.guarded
        in_regions: dict = {}

        def deltas():
            ctx = ev.EvolutionContext.from_stream(fresh(st.g_old), st.stream)
            table = ev.accumulate_deltas(ctx, frozenset(), self.theta)
            return oracles.delta_table(st.g_old, st.g_new, table, self.theta,
                                       rng, extra=st.prev.seeds + inc.seeds)
        return [
            g("replay", oracles.replay, st.g_old, st.g_new, st.stream),
            g("delta_table", deltas),
            g("gains_incinf", oracles.marginal_gains, "incinf", st.g_new,
              inc, self.theta, in_regions),
            g("gains_mia", oracles.marginal_gains, "mia", st.g_new, ref,
              self.theta, in_regions),
            g("seeds_incinf", oracles.seed_set, "incinf", st.g_new,
              inc.seeds, self.k),
            g("seeds_mia", oracles.seed_set, "mia", st.g_new, ref.seeds,
              self.k),
            oracles.spread_ratio(ratio),
            g("evaluation", oracles.evaluation, st.g_new, inc.seeds,
              st.results["eval_s"], self.eval_runs, rng),
            st.determinism(),
        ]


def _row_seeds(row) -> list[int]:
    return [int(s) for s in row["seeds"].split(";") if s]


class MultiStep:
    """An `evoinf bench` scenario run end to end by `run_benchmark`."""

    def __init__(self, name: str, scenario: str, static_reps: int,
                 eval_reps: int, setup_reps: int,
                 overrides: dict | None = None):
        self.name, self.scenario = name, BENCH_DIR / scenario
        self.static_reps, self.eval_reps = static_reps, eval_reps
        self.setup_reps = setup_reps
        self.overrides = overrides or {}

    def prepare(self, cache_dir: Path) -> None:
        pass

    def setup(self, tracer, seed: int) -> State:
        sc = ev_bench.parse_scenario(self.scenario)
        sc = dataclasses.replace(sc, eval_seed=seed, select_seed=seed,
                                 **self.overrides)
        st = State(seed)
        st.sc = sc
        st.snaps, _ = ev.generate_evolving(sc.gen)
        return st

    def ops(self) -> list[Op]:
        def bench(st):
            return lambda: ev_bench.run_benchmark(st.sc)

        def static(st):
            g_new = fresh(st.snaps[-1])
            return lambda: ev.mia_select(g_new, st.sc.k, st.sc.theta)

        def evaluate(st):
            seeds = self._last_seeds(st, "incinf")
            return lambda: ev.simulate_spread(st.snaps[-1], seeds,
                                              st.sc.eval_runs,
                                              st.sc.eval_seed)

        def keep_report(st, report):
            st.keep("task_s", report,
                    [row["seeds"] for row in report["rows"]])
        return [
            Op("task_s", 1, bench, keep_report),
            Op("static_s", self.static_reps, static,
               lambda st, r: st.keep("static_s", r, r.seeds)),
            Op("eval_s", self.eval_reps, evaluate,
               lambda st, r: st.keep("eval_s", r, [r.mean])),
        ]

    @staticmethod
    def _rows(st, algo: str) -> list[dict]:
        return [r for r in st.results["task_s"]["rows"]
                if r["algorithm"] == algo]

    def _last_seeds(self, st, algo: str) -> list[int]:
        return _row_seeds(self._rows(st, algo)[-1])

    def subjects(self, st):
        return st.snaps[-1], self._last_seeds(st, "incinf"), st.sc.theta

    def spread_ratio(self, st) -> float:
        pairs = zip(self._rows(st, "incinf"), self._rows(st, "mia"))
        ratios = [a["spread_mean"] / b["spread_mean"] for a, b in pairs]
        return sum(ratios) / len(ratios)

    def checks(self, st, ratio: float) -> list[oracles.Check]:
        rng = random.Random(st.seed)
        sc, snaps = st.sc, st.snaps
        ref, est = st.results["static_s"], st.results["eval_s"]
        g = oracles.guarded

        def seeds():
            rows = self._rows(st, "incinf") + self._rows(st, "mia")
            for row in rows:
                c = oracles.seed_set(row["algorithm"],
                                     snaps[row["transition"]],
                                     _row_seeds(row), sc.k)
                if not c.ok:
                    return oracles.Check("seeds", False,
                                         f"transition {row['transition']}: "
                                         f"{c.name} {c.detail}")
            return oracles.Check("seeds", True,
                                 f"{len(rows)} incinf and mia rows")

        def rows_match():
            # the report's last rows agree with direct calls on the same
            # snapshot: mia seeds, and the incinf row's evaluation
            mia_row = self._rows(st, "mia")[-1]
            inc_row = self._rows(st, "incinf")[-1]
            ok = (_row_seeds(mia_row) == ref.seeds
                  and inc_row["spread_mean"] == est.mean)
            return oracles.Check("report_rows", ok,
                                 f"last mia row {_row_seeds(mia_row)} vs "
                                 f"mia_select {ref.seeds}; incinf spread "
                                 f"{inc_row['spread_mean']} vs {est.mean}")

        def deltas():
            ctx = ev.EvolutionContext.from_snapshots(snaps[-2], snaps[-1])
            table = ev.accumulate_deltas(ctx, frozenset(), sc.theta)
            return oracles.delta_table(snaps[-2], snaps[-1], table, sc.theta,
                                       rng, extra=ref.seeds)
        return [
            g("seeds", seeds),
            oracles.spread_ratio(ratio),
            g("report_rows", rows_match),
            g("gains_mia", oracles.marginal_gains, "mia", snaps[-1], ref,
              sc.theta, {}),
            g("delta_table", deltas),
            g("evaluation", oracles.evaluation, snaps[-1],
              self._last_seeds(st, "incinf"), est, sc.eval_runs, rng),
            st.determinism(),
        ]


class Greedy:
    """Lazy hill-climbing greedy over shared live-edge samples."""

    def __init__(self, name: str, gen: dict, k: int, samples: int,
                 theta: float, eval_runs: int, static_reps: int,
                 setup_reps: int):
        self.name, self.gen, self.k, self.samples = name, gen, k, samples
        self.theta, self.eval_runs = theta, eval_runs
        self.static_reps, self.setup_reps = static_reps, setup_reps

    def prepare(self, cache_dir: Path) -> None:
        pass

    def setup(self, tracer, seed: int) -> State:
        snaps, _ = ev.generate_evolving(ev.GenConfig(**self.gen))
        st = State(seed)
        st.g = snaps[-1]
        return st

    def ops(self) -> list[Op]:
        def greedy(st):
            g = fresh(st.g)
            # draws keyed apart from the evaluation's (seed, run) streams
            return lambda: ev.greedy_select(g, self.k, self.samples,
                                            st.seed + 1)

        def static(st):
            g = fresh(st.g)
            return lambda: ev.mia_select(g, self.k, self.theta)

        def evaluate(st):
            seeds = st.results["task_s"].seeds
            return lambda: ev.simulate_spread(st.g, seeds, self.eval_runs,
                                              st.seed)
        return [
            Op("task_s", 1, greedy,
               lambda st, r: st.keep("task_s", r, r.seeds)),
            Op("static_s", self.static_reps, static,
               lambda st, r: st.keep("static_s", r, r.seeds)),
            Op("eval_s", 1, evaluate,
               lambda st, r: st.keep("eval_s", r, [r.mean])),
        ]

    def subjects(self, st):
        return st.g, st.results["task_s"].seeds, self.theta

    def spread_ratio(self, st) -> float:
        ref = st.results["static_s"]
        ref_est = ev.simulate_spread(st.g, ref.seeds, self.eval_runs,
                                     st.seed)
        return st.results["eval_s"].mean / ref_est.mean

    def checks(self, st, ratio: float) -> list[oracles.Check]:
        rng = random.Random(st.seed)
        res, ref = st.results["task_s"], st.results["static_s"]
        est = st.results["eval_s"]
        g = oracles.guarded
        return [
            g("seeds_greedy", oracles.seed_set, "greedy", st.g, res.seeds,
              self.k),
            g("seeds_mia", oracles.seed_set, "mia", st.g, ref.seeds, self.k),
            g("greedy", oracles.greedy, res, est, self.samples),
            g("gains_mia", oracles.marginal_gains, "mia", st.g, ref,
              self.theta, {}),
            oracles.spread_ratio(ratio),
            g("evaluation", oracles.evaluation, st.g, res.seeds, est,
              self.eval_runs, rng),
            st.determinism(),
        ]


C5 = dict(n0=200, steps=40, nodes_per_step=2500, m=3,
          prob_policy="trivalency", master_seed=31)
CHURN = dict(n0=100, steps=8, nodes_per_step=2500, m=3,
             prob_policy="trivalency", master_seed=31,
             extra_edge_fraction=0.3, remove_edge_fraction=0.002,
             weight_change_fraction=0.002, remove_node_count=20)
GREEDY = dict(n0=10, steps=2, nodes_per_step=95, m=3,
              prob_policy="trivalency", master_seed=31,
              extra_edge_fraction=0.23)


def workloads(tiny: bool = False) -> dict:
    """The four workloads; `tiny` shrinks every instance for the smoke test
    while keeping each code path and check."""
    if tiny:
        small = dict(n0=20, steps=3, nodes_per_step=100)
        return {w.name: w for w in [
            Transition("growth-100k", {**C5, **small}, 5, 1 / 300, 0.05,
                       200, 2),
            Transition("churn-20k", {**CHURN, **small,
                                     "remove_node_count": 3},
                       5, 0.01, 0.05, 200, 2),
            MultiStep("multistep-2k", "multistep-2k.scenario", 2, 2, 2, {
                "gen": ev.GenConfig(n0=20, steps=3, nodes_per_step=40, m=3,
                                    master_seed=31,
                                    extra_edge_fraction=0.6),
                "eval_runs": 100}),
            Greedy("greedy-200", {**GREEDY, "nodes_per_step": 15}, 5, 50,
                   0.01, 500, 2, 2),
        ]}
    return {w.name: w for w in [
        Transition("growth-100k", C5, 10, 1 / 300, 0.05, 2000, 2),
        Transition("churn-20k", CHURN, 10, 0.01, 0.05, 2000, 2),
        MultiStep("multistep-2k", "multistep-2k.scenario", 5, 5, 5),
        Greedy("greedy-200", GREEDY, 10, 200, 0.01, 10000, 5, 10),
    ]}
