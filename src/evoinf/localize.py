"""Maximum-influence-path machinery.

The influence a node exerts is approximated by restricting propagation to
paths whose probability stays at or above a threshold theta. The best path
between two nodes maximizes the product of edge probabilities; one
best-first search over those products from a root finds the best paths to
or from every node that clears theta, as the parent pointers of a local
region (an arborescence rooted there). The theta prune keeps every
retained probability bounded away from zero. The cut itself carries a
1e-12 relative tolerance (measured in the log domain, where it is scale
free) so that products landing exactly on theta up to rounding are treated
consistently everywhere.

All operations are pure functions of a snapshot; they are safe to call
concurrently on a shared one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heappop

from .errors import InvalidConfig, UnknownNode
from .graph import Snapshot, _check_snapshot

# members map: node -> (prob, parent, edge_prob)
#   prob      product of edge probabilities along the tree path
#   parent    next hop toward the root (None for the root itself)
#   edge_prob probability of the edge between node and parent


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


def _check_theta(theta: float, name: str = "theta") -> None:
    if not (0.0 < theta < 1.0):
        raise InvalidConfig(f"{name} must be in (0, 1), got {theta}")


def theta_floor(theta: float) -> float:
    """Probability-domain equivalent of the log-domain theta cut.

    A path passes iff its probability is >= this floor; the floor sits a
    relative 1e-12 (in the log domain) below theta so that products landing
    exactly on theta up to rounding are included consistently everywhere.
    """
    cutoff = -math.log(theta)
    return math.exp(-(cutoff + 1e-12 * max(1.0, cutoff)))


def _search(g: Snapshot, root: int, floor: float, direction: str):
    """Best-first expansion from root pruned at `floor` (see `theta_floor`).

    Heap entries are (-prob, hops, parent_path, node, edge_prob). For equal
    hops the parent paths have equal length, so comparing
    (parent_path, node) compares the full paths: the pop order is a total
    order independent of adjacency iteration order, and equal-probability
    paths resolve to fewer hops, then to the smallest lexicographic node
    sequence. A node's path tuple is built at most once: on its first push.
    Probabilities stay in the product domain; the theta prune bounds them
    away from zero, so nothing underflows. A snapshot's rows iterate in
    descending probability order, so a scan stops at the first neighbor
    whose extension falls under the floor.

    Returns the members as in LocalRegion.
    """
    members: dict[int, tuple[float, int | None, float]] = {}
    heap = [(-1.0, 0, (), root, 1.0)]
    push, pop = heappush, heappop
    rows = g._out if direction == "out" else g._in
    while heap:
        neg_prob, hops, parent_path, u, edge_p = pop(heap)
        if u in members:
            continue
        prob = -neg_prob
        members[u] = (prob, parent_path[-1] if hops else None, edge_p)
        path = None
        for v, p in rows[u].items():
            np_ = prob * p
            if np_ < floor:
                break
            if v in members:
                continue
            if path is None:
                path = parent_path + (u,)
                nh = hops + 1
            push(heap, (-np_, nh, path, v, p))
    return members


def local_region(g: Snapshot, root: int, direction: str, theta: float
                 ) -> LocalRegion:
    """All nodes whose best path to (in) or from (out) the root clears theta."""
    _check_snapshot(g)
    if root not in g:
        raise UnknownNode(f"node {root} not in graph")
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    _check_theta(theta)
    members = _search(g, root, theta_floor(theta), direction)
    return LocalRegion(root, direction, theta, members)


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


def region_weighted_sum(members: dict, ap: dict[int, float]) -> float:
    """Sum of the path probabilities in a region's members map, discounted
    by activation probability.

    Members are accumulated in ascending node order so every caller sees
    the same float for the same inputs.
    """
    total = 0.0
    for j in sorted(members):
        total += members[j][0] * (1.0 - ap.get(j, 0.0))
    return total


def mia_spread(g: Snapshot, v: int, seeds, theta: float) -> float:
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
    return region_weighted_sum(region.members, ap)
