"""Evolution analytics: degree histograms, attachment curves, growth series.

Degree histograms are log-binned (base-2 bins) for power-law inspection;
the fitted log-log slope of the binned density is the summary statistic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnknownNode
from .graph import Snapshot


def _degree(g: Snapshot, u: int, kind: str) -> int:
    if kind == "in":
        return g.in_degree(u)
    if kind == "out":
        return g.out_degree(u)
    if kind == "total":
        return g.in_degree(u) + g.out_degree(u)
    raise ValueError(f"degree kind must be in/out/total, got {kind!r}")


def _bin(d: int) -> int:
    """Lower bound of d's base-2 bin: the largest power of two <= d, or 0."""
    return 1 << d.bit_length() >> 1


def degree_distribution(g: Snapshot, kind: str = "total") -> dict[int, int]:
    """Log-binned histogram: bin lower bound (power of two) -> node count.

    Degree-zero nodes land in bin 0; counts sum to the node count.
    """
    hist: dict[int, int] = {}
    for u in g.nodes():
        binlow = _bin(_degree(g, u, kind))
        hist[binlow] = hist.get(binlow, 0) + 1
    return hist


def powerlaw_slope(hist: dict[int, int]) -> float:
    """Least-squares slope of log2(density) against log2(bin center).

    Density divides each count by its bin width so doubling bins do not
    distort the tail. Bins with zero lower bound (isolated nodes) are
    excluded. Needs at least two populated bins.
    """
    xs, ys = [], []
    for binlow, count in sorted(hist.items()):
        if binlow == 0 or count == 0:
            continue
        width = binlow  # bin [b, 2b) has width b
        center = binlow * 1.5
        xs.append(math.log2(center))
        ys.append(math.log2(count / width))
    if len(xs) < 2:
        raise ValueError("need at least two populated bins to fit a slope")
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)


def pa_correlation(g_old: Snapshot, g_new: Snapshot
                   ) -> dict[int, tuple[float, int]]:
    """Mean new in-edges acquired per old-degree bucket.

    Buckets nodes present in both snapshots by their in-degree in the old
    snapshot (log-binned like the degree histogram: bucket key is the bin's
    lower bound) and reports (mean newly acquired in-edges, sample count)
    per bucket. A newly acquired in-edge of u is an edge (w, u) of g_new
    that g_old lacks, so removed edges do not count against it and every
    mean is >= 0. Under preferential attachment the means grow with degree.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for u in g_old.nodes():
        if not g_new.has_node(u):
            continue
        binlow = _bin(g_old.in_degree(u))
        old_in = g_old.in_neighbors(u)
        gained = sum(1 for w in g_new.in_neighbors(u) if w not in old_in)
        sums[binlow] = sums.get(binlow, 0.0) + gained
        counts[binlow] = counts.get(binlow, 0) + 1
    return {b: (sums[b] / counts[b], counts[b]) for b in sorted(sums)}


def growth_stats(snapshots: list[Snapshot]) -> list[tuple[int, int, int]]:
    """(label, node count, edge count) per snapshot."""
    return [(g.label, g.num_nodes, g.num_edges) for g in snapshots]


def degree_ranks(g: Snapshot, kind: str = "out") -> dict[int, int]:
    """Rank of every node under descending degree, ties to smaller ids."""
    ordered = sorted(g.nodes(), key=lambda u: (-_degree(g, u, kind), u))
    return {u: r for r, u in enumerate(ordered, start=1)}


def influence_degree_rank(g: Snapshot, seeds, kind: str = "out") -> list[int]:
    """Descending-degree rank of each seed, in seed order (rank 1 = top)."""
    ranks = degree_ranks(g, kind)
    out = []
    for s in seeds:
        if s not in ranks:
            raise UnknownNode(f"seed {s} not in graph")
        out.append(ranks[s])
    return out
