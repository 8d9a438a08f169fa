"""Maximum-influence-path machinery.

The influence a node exerts is approximated by restricting propagation to
paths whose probability stays at or above a threshold theta. The best path
between two nodes maximizes the product of edge probabilities and is found
by best-first search over those products; the theta prune keeps every
retained probability bounded away from zero. The cut itself carries a
1e-12 relative tolerance (measured in the log domain, where it is scale
free) so that products landing exactly on theta up to rounding are treated
consistently everywhere.

All operations are pure functions of the graph; they are safe to call
concurrently on a shared snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heappop

from .errors import UnknownNode

# members map: node -> (prob, parent, edge_prob)
#   prob      product of edge probabilities along the tree path
#   parent    next hop toward the root (None for the root itself)
#   edge_prob probability of the edge between node and parent


@dataclass(frozen=True)
class MaxInfluencePath:
    """Best path u -> v; prob is the product of its edge probabilities."""
    nodes: tuple[int, ...]
    prob: float


@dataclass
class LocalRegion:
    """Theta-truncated arborescence of best paths into or out of a root.

    direction "out": members are nodes the root reaches with path
    probability >= theta; parent pointers lead back toward the root.
    direction "in": members are nodes that reach the root; parent pointers
    point along each member's best path toward the root.
    """
    root: int
    direction: str
    theta: float
    members: dict[int, tuple[float, int | None, float]]

    def __contains__(self, u: int) -> bool:
        return u in self.members

    def prob_of(self, u: int) -> float:
        return self.members[u][0]

    def parent_of(self, u: int) -> int | None:
        return self.members[u][1]


def _log_cut(theta: float) -> tuple[float, float]:
    cutoff = -math.log(theta)
    return cutoff, 1e-12 * max(1.0, cutoff)


def theta_floor(theta: float) -> float:
    """Probability-domain equivalent of the log-domain theta cut.

    A path passes iff its probability is >= this floor; the floor sits a
    relative 1e-12 (in the log domain) below theta so that products landing
    exactly on theta up to rounding are included consistently everywhere.
    """
    cutoff, tol = _log_cut(theta)
    return math.exp(-(cutoff + tol))


def _search(g, root: int, theta: float, direction: str,
            target: int | None = None, stop_after=None):
    """Best-first expansion from root pruned at theta.

    Heap keys are (-prob, hops, path), which makes the pop order a total
    order independent of adjacency iteration order: equal-probability paths
    resolve to fewer hops, then to the smallest lexicographic node sequence.
    Probabilities stay in the product domain; the theta prune bounds them
    away from zero, so nothing underflows. Neighbor rows are scanned in
    descending probability order, so a scan stops at the first neighbor
    whose extension falls under the floor.

    `stop_after` (a set) ends the expansion once every listed node has been
    settled; members settled up to that point keep their exact values, so
    lookups restricted to that set are unaffected.

    Returns (members, target_path): members as in LocalRegion, and the full
    node sequence of the target's best path when a target was given and
    reached.
    """
    floor = theta_floor(theta)
    members: dict[int, tuple[float, int | None, float]] = {}
    target_path = None
    remaining = None if stop_after is None else \
        {t for t in stop_after if t in g}
    heap = [(-1.0, 0, (root,), 1.0)]  # -prob, hops, path, edge_prob
    push, pop = heappush, heappop
    row_of = g.sorted_row
    while heap:
        neg_prob, hops, path, edge_p = pop(heap)
        u = path[-1]
        if u in members:
            continue
        prob = -neg_prob
        members[u] = (prob, path[-2] if hops else None, edge_p)
        if target is not None and u == target:
            target_path = path
            break
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        nh = hops + 1
        for v, p in row_of(u, direction):
            np_ = prob * p
            if np_ < floor:
                break
            if v in members:
                continue
            push(heap, (-np_, nh, path + (v,), p))
    return members, target_path


def mip(g, u: int, v: int, theta: float) -> MaxInfluencePath | None:
    """Maximum-probability path from u to v, or None if it falls below theta.

    Ties between equal-probability paths go to the one with fewer hops, then
    to the smallest lexicographic node sequence.
    """
    if u not in g:
        raise UnknownNode(f"node {u} not in graph")
    if v not in g:
        raise UnknownNode(f"node {v} not in graph")
    members, path = _search(g, u, theta, "out", target=v)
    if path is None:
        return None
    return MaxInfluencePath(path, members[v][0])


def local_region(g, root: int, direction: str, theta: float) -> LocalRegion:
    """All nodes whose best path to (in) or from (out) the root clears theta."""
    if root not in g:
        raise UnknownNode(f"node {root} not in graph")
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    members, _ = _search(g, root, theta, direction)
    return LocalRegion(root, direction, theta, members)


def bounded_region_members(g, root: int, direction: str, theta: float,
                           targets) -> dict:
    """Region members, explored only until every target node is settled.

    Entries present are exactly the region's values; nodes that would be
    settled later than the last target are simply absent, so the result is
    only valid for lookups within `targets`.
    """
    members, _ = _search(g, root, theta, direction, stop_after=targets)
    return members


def activation_prob(region: LocalRegion, seeds) -> float:
    """Probability that the region's root is activated by the seed set.

    Evaluated bottom-up over the in-arborescence: a node in the seed set is
    active with probability 1; otherwise it fails to be activated only if
    every tree child independently fails to pass activation across its edge.
    Seeds outside the region contribute nothing.

    Only the sub-forest spanned by the seeds' tree paths to the root is
    walked; every other node has activation 0 and contributes a factor of
    exactly 1, so the result is identical to a full bottom-up pass.
    """
    if region.direction != "in":
        raise ValueError("activation_prob needs an in-region")
    seed_set = seeds if isinstance(seeds, (set, frozenset)) else set(seeds)
    members = region.members
    root = region.root
    if root in seed_set:
        return 1.0
    rel_children: dict[int, list[int]] = {}
    linked: set[int] = set()
    for s in sorted(seed_set):
        if s not in members:
            continue
        x = s
        while x != root and x not in linked:
            linked.add(x)
            parent = members[x][1]
            rel_children.setdefault(parent, []).append(x)
            x = parent
    if not rel_children:
        return 0.0
    for lst in rel_children.values():
        lst.sort()
    ap: dict[int, float] = {}
    stack = [(root, False)]
    while stack:
        x, expanded = stack.pop()
        if x in seed_set:
            ap[x] = 1.0
            continue
        if expanded:
            fail = 1.0
            for c in rel_children.get(x, ()):
                fail *= 1.0 - ap[c] * members[c][2]
            ap[x] = 1.0 - fail
        else:
            stack.append((x, True))
            stack.extend((c, False) for c in rel_children.get(x, ()))
    return ap[root]


def region_weighted_sum(region: LocalRegion, ap: dict[int, float]) -> float:
    """Sum of member path probabilities discounted by activation probability.

    Members are accumulated in ascending node order so every caller sees
    the same float for the same inputs.
    """
    total = 0.0
    members = region.members
    for j in sorted(members):
        total += members[j][0] * (1.0 - ap.get(j, 0.0))
    return total


def mia_spread(g, v: int, seeds, theta: float) -> float:
    """Localized spread of v given already-chosen seeds.

    Sums, over every node j in v's out-region, the best-path probability
    from v to j times the probability that the seed set has not already
    activated j. With no seeds this is v's standalone localized spread.
    """
    if v not in g:
        raise UnknownNode(f"node {v} not in graph")
    region = local_region(g, v, "out", theta)
    seed_set = seeds if isinstance(seeds, (set, frozenset)) else set(seeds)
    ap: dict[int, float] = {}
    if seed_set:
        for j in region.members:
            in_r = local_region(g, j, "in", theta)
            if any(s in in_r.members for s in seed_set):
                ap[j] = activation_prob(in_r, seed_set)
    return region_weighted_sum(region, ap)
