"""Ground-truth influence evaluation under the Independent Cascade model.

`simulate_spread` is the Monte-Carlo estimator; `exact_spread` enumerates
live-edge subsets and is kept deliberately independent of the simulation
code paths so the two can verify each other.

A cascade with fixed edge coins is reachability over one live-edge sample
(Kempe, Kleinberg, Tardos, KDD 2003); `_ReachKernel` computes it for
`simulate_spread` and greedy's `LiveEdgeEstimator`. Edge (u, v) is live in
run r iff a SplitMix64 hash of (master_seed mod 2^64, r, u, v), read as a
uniform in [0, 1), is below p(u, v). So each run is a pure function of
(master_seed, r), whatever the chunking or adjacency order, and a fixed
master seed is a fixed set of live-edge samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidConfig, TooLarge, UnknownNode
from .graph import Snapshot, _check_snapshot

# A chunk has max(_MIN_ROWS, 2^18 // (nodes + edges)) runs, and a level
# expands in slices of at most 2^18 (run, edge) pairs plus one out-degree.
# The marks hold at most max(2^18, 32 * nodes) int32 cells; the cells a
# chunk reached (kept to reset the marks) and a level's frontier are int64
# arrays of at most as many cells. On 100,200 nodes with p = 0.5 (58 % of
# them reached per run) 64 runs peaked at 40 MB, 1.4 MB at 1 run per chunk.
# 2^20 was faster on 100k nodes but raised the peak of 10,000-run
# evaluations on 200 nodes from ~1 MB to ~3.5 MB. On 100k nodes 2,000 runs
# took ~300 ms at 1 run per chunk, 27 ms at 8, 11 ms at 32 (12.8 MB of
# marks) and 10 ms at 64.
_CHUNK_CELLS = 1 << 18
_MIN_ROWS = 32


@dataclass(frozen=True)
class SpreadEstimate:
    mean: float
    std_error: float
    runs: int


def _validate_seeds(g: Snapshot, seeds) -> list[int]:
    out = []
    for s in seeds:
        if s not in g:
            raise UnknownNode(f"seed {s} not in graph")
        out.append(s)
    return sorted(set(out))


def _check_runs(runs: int, name: str = "runs") -> None:
    if runs < 1:
        raise InvalidConfig(f"{name} must be >= 1, got {runs}")


def simulate_spread(g: Snapshot, seeds, runs: int, master_seed: int
                    ) -> SpreadEstimate:
    """Mean activated-node count over `runs` independent cascades from seeds.

    Each newly activated node gets a single chance to activate each of its
    currently inactive out-neighbors, succeeding with the edge probability.
    Deterministic for fixed (g, seeds, runs, master_seed); the first R runs
    are the same for every runs >= R.
    """
    _check_snapshot(g)
    _check_runs(runs)
    seed_list = _validate_seeds(g, seeds)
    if not seed_list:
        return SpreadEstimate(0.0, 0.0, runs)

    counts = _kernel(g).counts(seed_list, runs, master_seed)
    mean = int(counts.sum()) / runs
    if runs > 1:
        std_error = float(np.std(counts, ddof=1) / math.sqrt(runs))
    else:
        std_error = 0.0
    return SpreadEstimate(mean, std_error, runs)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; returns x."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _kernel(g: Snapshot) -> _ReachKernel:
    """g's kernel; a Snapshot never changes, so it keeps it for later calls
    (`evoinf bench` evaluates each snapshot once per algorithm)."""
    _check_snapshot(g)
    if g._reach is None:
        g._reach = _ReachKernel(g)
    return g._reach


class _ReachKernel:
    """Live-edge reachability over a CSR out-adjacency in ascending node id
    order. Edge (u, v) has key mix(mix(u) ^ v), run r of master seed s has
    key mix(mix(s) ^ r), and their coin is mix(run key ^ edge key)."""

    def __init__(self, g: Snapshot):
        self._ids = np.sort(np.fromiter(g.nodes(), np.int64, g.num_nodes))
        rows = [g.out_neighbors(u) for u in self._ids.tolist()]
        self._deg = np.fromiter(map(len, rows), np.int64, len(rows))
        self._start = np.cumsum(self._deg) - self._deg
        dst = np.fromiter(chain.from_iterable(rows), np.int64)
        prob = np.fromiter(chain.from_iterable(r.values() for r in rows),
                           np.float64)
        self._dst = self._rows_of(dst)
        # the coin's top 53 bits h give the uniform h / 2^53, which is
        # below p iff h < ceil(p * 2^53), exact in float64
        self._thr = np.ceil(prob * 2.0 ** 53).astype(np.uint64)
        src = _mix(np.repeat(self._ids, self._deg).astype(np.uint64))
        self._edge_key = _mix(src ^ dst.astype(np.uint64))

    def _rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row of each node id; UnknownNode for an id not in the graph."""
        rows = np.searchsorted(self._ids, ids)
        if ids.size and (rows.max() >= self._ids.size
                         or (self._ids[rows] != ids).any()):
            raise UnknownNode(f"node ids {ids.tolist()} not all in graph")
        return rows

    def counts(self, seeds, runs: int, master_seed: int) -> np.ndarray:
        """Per-run count of nodes reachable from `seeds` (distinct node
        ids) over the live edges of runs 0 .. runs-1."""
        seed_rows = self._rows_of(np.fromiter(seeds, np.int64))
        seed_key = _mix(np.array([int(master_seed) % 2 ** 64], np.uint64))
        n = self._ids.size
        chunk = min(runs, max(_MIN_ROWS, _CHUNK_CELLS // (n + self._dst.size)))
        # cell run * n + node of a chunk; -1 until reached, and each chunk
        # resets the cells it reached
        mark = np.full(chunk * n, -1, dtype=np.int32)
        out = np.empty(runs, dtype=np.int64)
        for lo in range(0, runs, chunk):
            hi = min(lo + chunk, runs)
            run_key = _mix(seed_key ^ np.arange(lo, hi, dtype=np.uint64))
            out[lo:hi] = self._chunk_counts(run_key, seed_rows, mark)
        return out

    def _chunk_counts(self, run_key: np.ndarray, seed_rows: np.ndarray,
                      mark: np.ndarray) -> np.ndarray:
        """Frontier BFS that advances all runs of one chunk together; each
        level expands in slices of at most _CHUNK_CELLS out-edges, cut by
        their cumulative count."""
        n, rows = self._ids.size, run_key.size
        out = np.zeros(rows, dtype=np.int64)
        cells = (np.arange(rows)[:, None] * n + seed_rows).ravel()
        mark[cells] = 0
        levels = []
        while cells.size:
            levels.append(cells)
            run, u = np.divmod(cells, n)
            out += np.bincount(run, minlength=rows)
            deg = self._deg[u]
            end = np.cumsum(deg)
            if end[-1] <= _CHUNK_CELLS:
                # a level in one slice skips the cut search: 12 % of
                # greedy-200's task_s in paired runs (BENCH_17.json)
                cells = self._expand(run, u, deg, end, run_key, mark)
                continue
            cuts = np.searchsorted(
                end, np.arange(_CHUNK_CELLS, end[-1], _CHUNK_CELLS),
                side="right").tolist()
            parts = []
            for a, b in zip([0] + cuts, cuts + [cells.size]):
                if a < b:
                    base = end[a - 1] if a else 0
                    parts.append(self._expand(
                        run[a:b], u[a:b], deg[a:b], end[a:b] - base,
                        run_key, mark))
            cells = np.concatenate(parts)
        for cells in levels:
            mark[cells] = -1
        return out

    def _expand(self, run: np.ndarray, u: np.ndarray, deg: np.ndarray,
                end: np.ndarray, run_key: np.ndarray,
                mark: np.ndarray) -> np.ndarray:
        """Cells first reached over the live out-edges of frontier cells
        (run, u), whose cumulative out-degree is `end`.

        A new cell's mark is its position among the candidates, and keeping
        only the cells whose mark is their own position drops repeats in
        O(len) without a sort.
        """
        # CSR positions of every out-edge of every frontier cell
        edge = np.repeat(self._start[u] - end + deg, deg)
        edge += np.arange(end[-1])
        run = np.repeat(run, deg)
        coin = run_key[run]
        coin ^= self._edge_key[edge]
        _mix(coin)
        coin >>= np.uint64(11)
        live = coin < self._thr[edge]
        cells = run[live] * self._ids.size + self._dst[edge[live]]
        cells = cells[mark[cells] < 0]
        pos = np.arange(cells.size, dtype=np.int32)
        mark[cells] = pos
        return cells[mark[cells] == pos]


def exact_spread(g: Snapshot, seeds) -> float:
    """Exact expected spread by enumeration over all live-edge subsets.

    Sums, over every subset of edges, the probability of exactly that subset
    being live times the number of nodes reachable from the seeds through
    it. Capped at 25 edges (2^25 subsets).
    """
    _check_snapshot(g)
    seed_list = _validate_seeds(g, seeds)
    edge_list = sorted(g.edges())
    m = len(edge_list)
    if m > 25:
        raise TooLarge(f"{m} edges exceed the enumeration cap of 25")
    if not seed_list:
        return 0.0

    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        adj: dict[int, list[int]] = {}
        for e in range(m):
            u, v, p = edge_list[e]
            if mask >> e & 1:
                prob *= p
                adj.setdefault(u, []).append(v)
            else:
                prob *= 1.0 - p
        if prob == 0.0:
            continue
        # plain BFS, independent of the simulation kernels
        reached = set(seed_list)
        stack = list(seed_list)
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        total += prob * len(reached)
    return total
