"""Shared helpers: seeded random graphs and sequentially valid change streams."""

import random
from heapq import heappop, heappush

_acceptance_results = []
_acceptance_details = {}


def record_acceptance_detail(cid: str, detail: str) -> None:
    """Called by the acceptance tests so per-criterion measurements show up
    in the terminal summary even under output capture."""
    _acceptance_details[cid] = detail


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1],
                                    report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        cid = name.split("_")[1].upper()
        detail = _acceptance_details.get(cid)
        suffix = f" ({detail})" if detail and outcome == "PASSED" else ""
        terminalreporter.write_line(f"{name}: {outcome}{suffix}")

from evoinf import (AddEdge, AddNode, AddWeight, DecWeight, DeltaTable,
                    GraphBuilder, PreconditionViolation, RemoveEdge,
                    RemoveNode, Snapshot, delta_add_edge, delta_node,
                    delta_remove_edge)
from evoinf.localize import theta_floor
from evoinf.select import LiveEdgeEstimator, MiaSelector


def fold_kernels(ctx, theta: float) -> DeltaTable:
    """The per-change kernels folded over the decomposed stream.

    Each edge kernel adds the table of its one-change transition, so the
    fold checks that a stream's table is the sum of its steps' tables.
    """
    w = GraphBuilder(ctx.g_old)
    table = DeltaTable()
    for c in ctx.kernel_stream:
        if isinstance(c, AddEdge):
            delta_add_edge(w, c, theta, table)
        elif isinstance(c, RemoveEdge):
            delta_remove_edge(w, c, theta, table)
        else:
            delta_node(w, c, table)
    return table


def greedy_exhaustive(g, k: int, runs: int, master_seed: int
                      ) -> tuple[list[int], list[float]]:
    """Greedy that re-evaluates every node each round: the oracle of lazy
    `greedy_select`. A fresh estimator with the same runs and master seed
    gives the same floats. Returns (seeds, marginal gains).
    """
    est = LiveEdgeEstimator(g, runs, master_seed)
    remaining = sorted(g.nodes())
    seeds, gains = [], []
    chosen = frozenset()
    for _ in range(min(k, g.num_nodes)):
        best_v, best_gain = None, None
        for v in remaining:
            gain = est.marginal(v, chosen)
            if best_gain is None or gain > best_gain:
                best_v, best_gain = v, gain
        seeds.append(best_v)
        gains.append(best_gain)
        chosen = chosen | {best_v}
        remaining.remove(best_v)
    return seeds, gains


def mia_full_scan(g, k: int, theta: float
                  ) -> tuple[list[int], list[float]]:
    """MIA selection as first written, the oracle of the lazy loop: K rounds
    of `MiaSelector.best` over every node, then `add_seed`. Returns (seeds,
    marginal gains)."""
    sel = MiaSelector(g, theta)
    gains = []
    for _ in range(min(k, g.num_nodes)):
        v, gain = sel.best(g.nodes())
        sel.add_seed(v)
        gains.append(gain)
    return sel.seeds, gains


def reference_search(g, root: int, theta: float, direction: str) -> dict:
    """The theta search as first written: the oracle of `local_region`.

    Heap keys carry the full path (-prob, hops, path, edge_prob), the floor
    is recomputed per search and every row is sorted afresh with a Python
    key function. Returns the members in settle order.
    """
    floor = theta_floor(theta)
    members = {}
    heap = [(-1.0, 0, (root,), 1.0)]
    while heap:
        neg_prob, hops, path, edge_p = heappop(heap)
        u = path[-1]
        if u in members:
            continue
        prob = -neg_prob
        members[u] = (prob, path[-2] if hops else None, edge_p)
        raw = g.out_neighbors(u) if direction == "out" else g.in_neighbors(u)
        for v, p in sorted(raw.items(), key=lambda kv: (-kv[1], kv[0])):
            np_ = prob * p
            if np_ < floor:
                break
            if v in members:
                continue
            heappush(heap, (-np_, hops + 1, path + (v,), p))
    return members


def random_graph(rng: random.Random, n: int, avg_deg: float,
                 prob_low: float = 0.05, prob_high: float = 0.95,
                 prob_choices=None) -> Snapshot:
    """Random simple directed graph with n nodes and ~n*avg_deg edges."""
    nodes = list(range(n))
    edges = []
    have = set()
    target = min(int(n * avg_deg), n * (n - 1))
    while len(edges) < target:
        u, v = rng.sample(nodes, 2)
        if (u, v) in have:
            continue
        have.add((u, v))
        if prob_choices is not None:
            p = rng.choice(prob_choices)
        else:
            p = rng.uniform(prob_low, prob_high)
        edges.append((u, v, p))
    return Snapshot.build(nodes, edges)


def random_stream(rng: random.Random, base: Snapshot, n_changes: int,
                  kinds=("an", "rn", "ae", "re", "aw", "dw"),
                  prob_choices=None) -> list:
    """Sequentially valid stream over `base` mixing the requested change kinds.

    Validity is guaranteed by applying each candidate change to a builder
    and discarding the ones whose preconditions fail.
    """
    b = GraphBuilder(base)
    next_id = max(b.nodes(), default=-1) + 1
    stream = []

    def draw_prob():
        if prob_choices is not None:
            return rng.choice(prob_choices)
        return rng.uniform(0.05, 0.95)

    for _ in range(n_changes):
        for _attempt in range(80):
            kind = rng.choice(kinds)
            try:
                if kind == "an":
                    c = AddNode(next_id)
                elif kind == "rn":
                    iso = [x for x in b.nodes()
                           if b.out_degree(x) == 0 and b.in_degree(x) == 0]
                    if not iso:
                        continue
                    c = RemoveNode(rng.choice(sorted(iso)))
                elif kind == "ae":
                    ns = sorted(b.nodes())
                    if len(ns) < 2:
                        continue
                    u, v = rng.sample(ns, 2)
                    if b.has_edge(u, v):
                        continue
                    c = AddEdge(u, v, draw_prob())
                else:
                    es = sorted((u, v) for u in b.nodes()
                                for v in b.out_neighbors(u))
                    if not es:
                        continue
                    u, v = rng.choice(es)
                    w = b.prob(u, v)
                    if kind == "re":
                        c = RemoveEdge(u, v)
                    elif kind == "aw":
                        if w >= 0.99:
                            continue
                        c = AddWeight(u, v, rng.uniform(0.0, 1.0 - w) * 0.9)
                    else:
                        dw = rng.uniform(0.0, w) * 0.9
                        if dw <= 0.0:
                            continue
                        c = DecWeight(u, v, dw)
                b.apply(c)
                if kind == "an":
                    next_id += 1
                stream.append(c)
                break
            except PreconditionViolation:
                continue
    return stream
