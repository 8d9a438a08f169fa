"""Correctness checks that run after the timed regions.

Each check recomputes what it verifies by a route other than the timed
call: localized spreads by `mia_spread` node by node, cascades by a plain
Python IC simulation with its own random generator, snapshots by replay.
None of them compares against stored output. Every check returns a
`Check`; a check that raises counts as failed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import evoinf as ev

DELTA_REL_TOL = 1e-6    # C2's tolerance for delta tables
DELTA_ABS_TOL = 1e-9
GAIN_REL_TOL = 1e-9
SPREAD_RATIO_MIN = 0.95  # C4's bound
STD_ERRORS = 4.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0


def guarded(name: str, fn, *args) -> Check:
    """Run one check, timing it; a check that raises has failed."""
    t0 = time.perf_counter()
    try:
        c = fn(*args)
    except Exception as exc:
        c = Check(name, False, f"raised {type(exc).__name__}: {exc}")
    c.seconds = time.perf_counter() - t0
    return c


def replay(g_old, g_new, stream) -> Check:
    """Replayed snapshots are consistent and the stream maps old to new."""
    g_old.audit()
    g_new.audit()
    ok = ev.apply_all(g_old, stream) == g_new
    return Check("replay", ok, f"{g_new.num_nodes} nodes, "
                               f"{g_new.num_edges} edges, "
                               f"{len(stream)} changes")


def delta_table(g_old, g_new, table, theta: float, rng: random.Random,
                extra=(), touched: int = 100, untouched: int = 50) -> Check:
    """Sampled entries equal static differencing of mia_spread."""
    nonzero = sorted(v for v, d in table.values.items() if d != 0.0)
    zero = sorted(v for v in g_new.nodes()
                  if g_old.has_node(v) and table.get(v) == 0.0)
    sample = set(rng.sample(nonzero, min(touched, len(nonzero))))
    sample |= set(rng.sample(zero, min(untouched, len(zero))))
    sample |= {v for v in extra if g_old.has_node(v) or g_new.has_node(v)}
    worst = 0.0
    for v in sorted(sample):
        old = ev.mia_spread(g_old, v, set(), theta) \
            if g_old.has_node(v) else 0.0
        new = ev.mia_spread(g_new, v, set(), theta) \
            if g_new.has_node(v) else 0.0
        expected = new - old
        if not math.isclose(table.get(v), expected, rel_tol=DELTA_REL_TOL,
                            abs_tol=DELTA_ABS_TOL):
            return Check("delta_table", False,
                         f"node {v}: table {table.get(v)!r} vs static "
                         f"{expected!r}")
        if expected:
            worst = max(worst, abs(table.get(v) - expected) / abs(expected))
    return Check("delta_table", True,
                 f"{len(sample)} nodes ({min(touched, len(nonzero))} "
                 f"touched), worst relative error {worst:.1e}")


def localized_spread(g, v, seeds, theta: float, in_regions: dict) -> float:
    """mia_spread(g, v, seeds, theta) term by term, with the in-regions of
    the reached nodes shared between calls (`in_regions` caches them).

    Same arithmetic in the same order as mia_spread, so the results are
    bit-identical; sharing the in-regions makes the K checks per seed list
    several times cheaper on the large workloads.
    """
    region = ev.local_region(g, v, "out", theta)
    total = 0.0
    for j in sorted(region.members):
        ap = 0.0
        if seeds:
            in_r = in_regions.get(j)
            if in_r is None:
                in_r = in_regions[j] = ev.local_region(g, j, "in", theta)
            if any(s in in_r.members for s in seeds):
                ap = ev.activation_prob(in_r, seeds)
        total += region.members[j][0] * (1.0 - ap)
    return total


def marginal_gains(label: str, g, res, theta: float, in_regions: dict
                   ) -> Check:
    """gains[i] == mia_spread(g, s_i, {s_1..s_(i-1)}, theta).

    Every gain is recomputed by `localized_spread`; the last one also by
    mia_spread itself, which must agree with it bit for bit.
    """
    worst = 0.0
    for i, (s, gain) in enumerate(zip(res.seeds, res.marginal_gains)):
        prefix = set(res.seeds[:i])
        expected = localized_spread(g, s, prefix, theta, in_regions)
        if i == len(res.seeds) - 1 and \
                ev.mia_spread(g, s, prefix, theta) != expected:
            return Check(f"gains_{label}", False,
                         f"localized_spread {expected!r} differs from "
                         f"mia_spread for seed {i} ({s})")
        if not math.isclose(gain, expected, rel_tol=GAIN_REL_TOL):
            return Check(f"gains_{label}", False,
                         f"seed {i} ({s}): gain {gain!r} vs mia_spread "
                         f"{expected!r}")
        worst = max(worst, abs(gain - expected) / abs(expected))
    return Check(f"gains_{label}", True,
                 f"{len(res.seeds)} gains, worst relative error {worst:.1e}")


def seed_set(label: str, g, seeds, k: int) -> Check:
    """K distinct seeds, all nodes of the snapshot they were chosen on."""
    missing = [s for s in seeds if not g.has_node(s)]
    ok = len(seeds) == k and len(set(seeds)) == k and not missing
    return Check(f"seeds_{label}", ok,
                 f"{len(set(seeds))} distinct of {len(seeds)}, "
                 f"{len(missing)} not in the snapshot")


def spread_ratio(ratio: float) -> Check:
    return Check("spread_ratio", ratio >= SPREAD_RATIO_MIN,
                 f"{ratio:.4f} >= {SPREAD_RATIO_MIN}")


def ic_spread(g, seeds, runs: int, rng: random.Random
              ) -> tuple[float, float]:
    """Independent cascade by plain breadth-first flooding.

    Every newly active node tries each out-edge once. Returns the mean
    activated count and its standard error.
    """
    total = total_sq = 0
    for _ in range(runs):
        active = set(seeds)
        frontier = list(active)
        while frontier:
            nxt = []
            for u in frontier:
                for v, p in g.out_neighbors(u).items():
                    if v not in active and rng.random() < p:
                        active.add(v)
                        nxt.append(v)
            frontier = nxt
        n = len(active)
        total += n
        total_sq += n * n
    mean = total / runs
    var = (total_sq - runs * mean * mean) / (runs - 1) if runs > 1 else 0.0
    return mean, math.sqrt(max(var, 0.0) / runs)


def evaluation(g, seeds, est, runs: int, rng: random.Random) -> Check:
    """simulate_spread within 4 combined standard errors of ic_spread."""
    mean, se = ic_spread(g, seeds, runs, rng)
    tol = STD_ERRORS * math.hypot(est.std_error, se)
    ok = abs(est.mean - mean) <= tol
    return Check("evaluation", ok,
                 f"simulate {est.mean:.3f}±{est.std_error:.3f} vs plain IC "
                 f"{mean:.3f}±{se:.3f} ({runs} runs)")


def greedy(res, est, samples: int) -> Check:
    """Lazy greedy gains never increase, and their sum (greedy's own
    estimate of the seed set's spread) agrees with an independent
    simulate_spread of the seeds within 4 combined standard errors."""
    gains = res.marginal_gains
    rising = [i for i in range(1, len(gains))
              if gains[i] > gains[i - 1] + 1e-9 * abs(gains[i - 1])]
    # greedy averages `samples` live-edge draws; the per-run spread spread
    # is read off the simulation's own standard error
    sd = est.std_error * math.sqrt(est.runs)
    tol = STD_ERRORS * math.hypot(sd / math.sqrt(samples), est.std_error)
    total = sum(gains)
    ok = not rising and abs(total - est.mean) <= tol
    return Check("greedy", ok,
                 f"gains sum {total:.3f} vs simulate {est.mean:.3f} "
                 f"(tolerance {tol:.3f}), {len(rising)} increases")
