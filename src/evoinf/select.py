"""Static top-K seed selection baselines.

`greedy_select` is the hill-climbing algorithm: K rounds, each adding the
node with the largest estimated marginal spread. Estimates reuse one fixed
set of live-edge samples for the whole selection (`simulate_spread`'s runs,
redrawn per estimate, never stored), which makes the estimated objective
genuinely monotone and submodular. `mia_select` ranks nodes by localized
spread over theta-truncated regions and discounts nodes already covered by
chosen seeds. Both run one lazy loop, `_celf`, which provably selects the
same sequence as exhaustive re-evaluation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .errors import EmptyGraph, InvalidConfig
from .graph import Snapshot, _check_snapshot
from .localize import (LocalRegion, _check_theta, _search, activation_prob,
                       region_weighted_sum, theta_floor)
from .simulate import _check_runs, _kernel


@dataclass
class SeedResult:
    """Ordered seed set with the marginal gain recorded at selection time."""
    seeds: list[int]
    marginal_gains: list[float]
    algorithm: str
    wall_time: float
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seeds": self.seeds,
            "marginal_gains": self.marginal_gains,
            "wall_time": self.wall_time,
            "params": self.params,
        }


def _check_k(k: int, name: str = "k") -> None:
    if k < 1:
        raise InvalidConfig(f"{name} must be >= 1, got {k}")


def _start(g: Snapshot, k: int, theta: float | None = None
           ) -> tuple[int, float]:
    """Shared selector preamble: validate the arguments, then return k
    capped at the node count and the start time."""
    _check_snapshot(g)
    _check_k(k)
    if theta is not None:
        _check_theta(theta)
    if g.num_nodes == 0:
        raise EmptyGraph("selection on an empty graph")
    return min(k, g.num_nodes), time.perf_counter()


class LiveEdgeEstimator:
    """Spread estimator over one fixed set of live-edge samples.

    sigma(S) equals `simulate_spread(g, S, runs, master_seed).mean`. For
    fixed samples that function is monotone and submodular exactly, and
    estimates are cached per seed set so every caller sees identical
    floats. Coins are redrawn per call, so memory is O(n + m).
    """

    def __init__(self, g: Snapshot, runs: int, master_seed: int):
        _check_runs(runs)
        self.runs = runs
        self.master_seed = master_seed
        self._kernel = _kernel(g)
        self._cache: dict[frozenset, float] = {}

    def sigma(self, seed_set: frozenset) -> float:
        got = self._cache.get(seed_set)
        if got is not None:
            return got
        counts = self._kernel.counts(seed_set, self.runs, self.master_seed)
        val = int(counts.sum()) / self.runs
        self._cache[seed_set] = val
        return val

    def marginal(self, v: int, seed_set: frozenset) -> float:
        return self.sigma(seed_set | {v}) - self.sigma(seed_set)


def _celf(nodes, k: int, gain, take) -> list[float]:
    """Lazy greedy (CELF, Leskovec et al., KDD 2007): k times, pass the node
    of largest gain(v) to take, ties to the smaller id; return those gains.

    Entries (-gain, id, seeds taken when computed) are recomputed when they
    reach the top stale. That is exact if no gain rises as nodes are taken.
    """
    heap = [(-gain(v), v, 0) for v in nodes]
    heapify(heap)
    gains: list[float] = []
    while len(gains) < k:
        neg, v, at = heappop(heap)
        if at == len(gains):
            take(v)
            gains.append(-neg)
        else:
            heappush(heap, (-gain(v), v, len(gains)))
    return gains


def greedy_select(g: Snapshot, k: int, runs: int, master_seed: int
                  ) -> SeedResult:
    """Hill-climbing greedy selection by `_celf`, ties to the smaller id."""
    k, t0 = _start(g, k)
    est = LiveEdgeEstimator(g, runs, master_seed)
    seeds: list[int] = []
    gains = _celf(g.nodes(), k, lambda v: est.marginal(v, frozenset(seeds)),
                  seeds.append)
    return SeedResult(seeds, gains, "greedy", time.perf_counter() - t0,
                      {"k": k, "runs": runs, "seed": master_seed})


class MiaSelector:
    """Incrementally maintained localized-spread gains over one graph.

    A candidate's gain sum_j prob(v->j) * (1 - ap(j, S)) is kept as
    base(v) - penalty(v): the seed-independent region sum, minus the
    accumulated coverage sum_j prob(v->j) * ap(j, S). When a new seed
    changes ap(j) for the nodes j it reaches, the penalty of every node
    that reaches j absorbs the difference, so no gain is ever recomputed
    from scratch and no region is searched twice.
    """

    def __init__(self, g: Snapshot, theta: float):
        _check_snapshot(g)
        self.g = g
        self.theta = theta
        self._floor = theta_floor(theta)
        self.seeds: list[int] = []
        self._seed_set: set[int] = set()
        self._ap: dict[int, float] = {}
        self._base: dict[int, float] = {}
        self._penalty: dict[int, float] = {}
        self._in_cache: dict[int, LocalRegion] = {}

    def _in_region(self, j: int) -> LocalRegion:
        got = self._in_cache.get(j)
        if got is None:
            got = self._in_cache[j] = LocalRegion(
                j, "in", self.theta, _search(self.g, j, self._floor, "in"))
        return got

    def base(self, v: int) -> float:
        """Standalone localized spread of v: `mia_spread(g, v, (), theta)`."""
        got = self._base.get(v)
        if got is None:
            got = self._base[v] = region_weighted_sum(
                _search(self.g, v, self._floor, "out"), {})
        return got

    def gain(self, v: int) -> float:
        return self.base(v) - self._penalty.get(v, 0.0)

    def add_seed(self, s: int) -> None:
        self.seeds.append(s)
        self._seed_set.add(s)
        penalty = self._penalty
        get = penalty.get
        for j in sorted(_search(self.g, s, self._floor, "out")):
            in_r = self._in_region(j)
            new_ap = activation_prob(in_r, self._seed_set)
            old_ap = self._ap.get(j, 0.0)
            if new_ap == old_ap:
                continue
            self._ap[j] = new_ap
            diff = new_ap - old_ap
            for v, entry in in_r.members.items():
                penalty[v] = get(v, 0.0) + entry[0] * diff

    def best(self, candidates) -> tuple[int, float]:
        """Argmax of gain over candidates; ties go to the smaller node id.

        The candidates may come in any order.
        """
        gain = self.gain
        ranked = [(-gain(v), v) for v in candidates if v not in self._seed_set]
        if not ranked:
            raise EmptyGraph("no candidates left to select from")
        neg, v = min(ranked)
        return v, -neg


def mia_select(g: Snapshot, k: int, theta: float) -> SeedResult:
    """K rounds of argmax over localized marginal spread, by `_celf`.

    No gain rises as seeds are added, in floats too: a new seed adds a
    factor <= 1 to a node's failure product, shrinks one, or sets the node
    to 1, so no ap(j) falls (rounding is monotone), and every penalty
    update adds a term >= 0.
    """
    k, t0 = _start(g, k, theta)
    sel = MiaSelector(g, theta)
    gains = _celf(g.nodes(), k, sel.gain, sel.add_seed)
    return SeedResult(sel.seeds, gains, "mia", time.perf_counter() - t0,
                      {"k": k, "theta": theta})


def degree_select(g: Snapshot, k: int) -> SeedResult:
    """Top-K nodes by out-degree, ties to the smaller node id."""
    k, t0 = _start(g, k)
    ranked = sorted(g.nodes(), key=lambda u: (-g.out_degree(u), u))
    seeds = ranked[:k]
    gains = [float(g.out_degree(u)) for u in seeds]
    return SeedResult(seeds, gains, "degree", time.perf_counter() - t0,
                      {"k": k})


def random_select(g: Snapshot, k: int, master_seed: int) -> SeedResult:
    """Uniform sample of K distinct nodes, deterministic in master_seed."""
    k, t0 = _start(g, k)
    rng = random.Random(master_seed)
    seeds = rng.sample(sorted(g.nodes()), k)
    return SeedResult(seeds, [0.0] * k, "random", time.perf_counter() - t0,
                      {"k": k, "seed": master_seed})
