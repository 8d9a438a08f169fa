"""Synthetic evolving-graph generator with preferential attachment.

Growth follows the rich-get-richer rule: each new node attaches m out-edges
to existing nodes chosen proportional to in-degree + 1. Optional churn knobs
add edges between existing nodes (both endpoints chosen preferentially),
remove random edges, jitter edge weights, and retire nodes, so a single
stream can exercise all six change types.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InvalidConfig
from .graph import (AddEdge, AddNode, AddWeight, Change, ChangeStream,
                    DecWeight, GraphBuilder, RemoveEdge, Snapshot,
                    cascade_node_removal)
from .ingest import parse_prob_policy


@dataclass
class GenConfig:
    n0: int
    steps: int
    nodes_per_step: int
    m: int
    prob_policy: str = "trivalency"
    master_seed: int = 0
    extra_edge_fraction: float = 0.0   # existing-existing adds per step,
                                       # relative to nodes_per_step * m
    remove_edge_fraction: float = 0.0  # of current edge count, per step
    weight_change_fraction: float = 0.0
    remove_node_count: int = 0         # low-degree retirements per step

    def validate(self) -> None:
        if self.m < 1 or self.n0 < self.m:
            raise InvalidConfig(f"need n0 >= m >= 1, got n0={self.n0} "
                                f"m={self.m}")
        if self.steps < 1:
            raise InvalidConfig(f"steps must be >= 1, got {self.steps}")
        if self.nodes_per_step < 0:
            raise InvalidConfig("nodes_per_step must be >= 0")
        for name in ("extra_edge_fraction", "remove_edge_fraction",
                     "weight_change_fraction"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfig(f"{name} must be finite and >= 0, got "
                                    f"{value}")
        if self.remove_node_count < 0:
            raise InvalidConfig("remove_node_count must be >= 0")
        parse_prob_policy(self.prob_policy, self.master_seed)


def generate_evolving(cfg: GenConfig) -> tuple[list[Snapshot],
                                               list[ChangeStream]]:
    """Deterministic evolving network: snapshots 0..steps and one stream per
    transition. Every stream is sequentially valid and replays to the next
    snapshot exactly (changes are applied as they are emitted).
    """
    cfg.validate()
    rng = random.Random(cfg.master_seed)
    policy = parse_prob_policy(cfg.prob_policy, cfg.master_seed)

    b = GraphBuilder()
    for u in range(cfg.n0):
        b.apply(AddNode(u))
    next_id = cfg.n0
    snapshots = [b.freeze(0)]
    streams: list[ChangeStream] = []

    # preferential pool: each node appears in-degree + 1 times; grown
    # incrementally while the graph only grows, rebuilt per step once churn
    # starts invalidating entries
    def build_pool() -> list[int]:
        pool = []
        for u in b.nodes():
            pool.extend([u] * (b.in_degree(u) + 1))
        return pool

    def pick_targets(pool: list[int], count: int, forbidden: set[int]
                     ) -> list[int]:
        picked: list[int] = []
        misses = 0
        while len(picked) < count and misses < 50 * (count + 1):
            v = pool[rng.randrange(len(pool))]
            if v in forbidden or v in picked or not b.has_node(v):
                misses += 1
                continue
            picked.append(v)
        return picked

    churny = (cfg.weight_change_fraction > 0 or cfg.remove_edge_fraction > 0
              or cfg.remove_node_count > 0)

    for step in range(1, cfg.steps + 1):
        changes: ChangeStream = []

        def emit(c: Change):
            b.apply(c)
            changes.append(c)

        # the edge census is only needed to draw churn victims
        all_edges = sorted((u, v) for u in b.nodes()
                           for v in b.out_neighbors(u)) if churny else []

        # weight jitter on surviving edges (half increases, half decreases)
        n_weight = math.ceil(cfg.weight_change_fraction * len(all_edges)) \
            if cfg.weight_change_fraction else 0
        if n_weight and all_edges:
            chosen = rng.sample(all_edges, min(n_weight, len(all_edges)))
            for idx, (u, v) in enumerate(chosen):
                w = b.prob(u, v)
                if idx % 2 == 0 and w < 1.0:
                    emit(AddWeight(u, v, rng.uniform(0.0, 1.0 - w) * 0.5))
                else:
                    dw = rng.uniform(0.0, w) * 0.5
                    if dw > 0.0:
                        emit(DecWeight(u, v, dw))

        # random edge removals
        n_remove = math.ceil(cfg.remove_edge_fraction * len(all_edges)) \
            if cfg.remove_edge_fraction else 0
        if n_remove and all_edges:
            survivors = [e for e in all_edges if b.has_edge(*e)]
            for (u, v) in rng.sample(survivors, min(n_remove, len(survivors))):
                emit(RemoveEdge(u, v))

        # node retirements: lowest-degree nodes, incident edges first
        for _ in range(cfg.remove_node_count):
            nodes = sorted(b.nodes())
            if len(nodes) <= cfg.m:
                break
            sample = rng.sample(nodes, min(8, len(nodes)))
            victim = min(sample,
                         key=lambda u: (b.out_degree(u) + b.in_degree(u), u))
            for c in cascade_node_removal(b, victim):
                emit(c)

        if churny or step == 1:
            pool = build_pool()

        # growth: new nodes attach preferentially
        for _ in range(cfg.nodes_per_step):
            u = next_id
            next_id += 1
            emit(AddNode(u))
            targets = pick_targets(pool, min(cfg.m, b.num_nodes - 1), {u})
            for v in targets:
                emit(AddEdge(u, v, policy.prob_for(u, v)))
                pool.append(v)
            pool.append(u)

        # densification between existing nodes, both ends preferential; no
        # more tries than there are absent ordered pairs, and the step's
        # densification ends at the first target pick that fails
        n_extra = 0
        if cfg.extra_edge_fraction:
            n = b.num_nodes
            n_extra = math.ceil(min(cfg.extra_edge_fraction
                                    * cfg.nodes_per_step * cfg.m,
                                    n * (n - 1) - b.num_edges))
        for _ in range(n_extra):
            src = pick_targets(pool, 1, set())
            if not src:
                break
            u = src[0]
            forbidden = {u} | set(b.out_neighbors(u))
            tgt = pick_targets(pool, 1, forbidden)
            if not tgt:
                break
            v = tgt[0]
            emit(AddEdge(u, v, policy.prob_for(u, v)))
            pool.append(v)

        streams.append(changes)
        snapshots.append(b.freeze(step))

    return snapshots, streams
