"""Incremental influence maintenance over a change stream.

Instead of recomputing localized spreads from scratch after the graph
evolves, each topology change is translated into per-node spread deltas
confined to the local regions the change can actually reach. Summed over a
change stream, the deltas reproduce static recomputation (per-node localized
spread on the new graph minus the old one) up to float noise.

Selection then prunes: a node is only worth re-evaluating if its spread grew
more than the previous holder of the seat did, or (when the previous seat
lost ground) if it also carries a top-percentile degree or degree growth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import (EmptyGraph, InsufficientSeeds, InvalidConfig,
                     PreconditionViolation, UnknownNode)
from .graph import (AddEdge, AddNode, AddWeight, Change, ChangeStream,
                    DecWeight, GraphBuilder, RemoveEdge, RemoveNode, Snapshot,
                    apply_all, decompose_weight_change, diff)
from .localize import bounded_region_members, local_region, mip, theta_floor
from .select import MiaSelector, SeedResult, mia_select


@dataclass
class DeltaTable:
    """Per-node localized-spread change accumulated over a change stream.

    Nodes never touched by any change have no entry and count as zero.
    `born` and `removed` track stream-level node lifecycle: a freshly added
    node carries a +1 standalone-spread delta that does not count as growth
    when candidates are compared against the previous seeds.
    """
    values: dict[int, float] = field(default_factory=dict)
    born: set[int] = field(default_factory=set)
    removed: set[int] = field(default_factory=set)

    def get(self, v: int) -> float:
        return self.values.get(v, 0.0)

    def add(self, v: int, delta: float) -> None:
        self.values[v] = self.values.get(v, 0.0) + delta

    def growth(self, v: int) -> float:
        """Delta with a new node's +1 birth contribution factored out."""
        d = self.values.get(v, 0.0)
        if v in self.born:
            d -= 1.0
        return d

    def write_csv(self, fh) -> None:
        fh.write("node,delta\n")
        for v in sorted(self.values):
            fh.write(f"{v},{self.values[v]!r}\n")


@dataclass
class PruneConfig:
    """Candidate filter: percentile threshold and the previous seed list."""
    eta: float
    prev_seeds: list[int]

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise InvalidConfig(f"eta must be in (0, 1], got {self.eta}")


class EvolutionContext:
    """One evolution step: old snapshot, new snapshot, and the stream between.

    Owns the working graph the delta kernels advance change by change, plus
    cached degree rankings for pruning. Weight changes are decomposed into
    remove + re-add before delta processing, so the kernel stream carries
    only four change types.
    """

    def __init__(self, g_old: Snapshot, g_new: Snapshot, stream: ChangeStream,
                 verify: bool = True):
        if verify and apply_all(g_old, stream) != g_new:
            raise ValueError("stream does not transform g_old into g_new")
        self.g_old = g_old
        self.g_new = g_new
        self.stream = stream
        self.working: GraphBuilder = GraphBuilder(g_old)
        self._kernel_stream: ChangeStream | None = None
        self._top_degree: dict[float, set[int]] = {}
        self._top_increase: dict[float, set[int]] = {}

    @classmethod
    def from_stream(cls, g_old: Snapshot, stream: ChangeStream,
                    label: int | None = None) -> "EvolutionContext":
        g_new = apply_all(g_old, stream)
        if label is not None:
            g_new.label = label
        return cls(g_old, g_new, stream, verify=False)

    @classmethod
    def from_snapshots(cls, g_old: Snapshot, g_new: Snapshot
                       ) -> "EvolutionContext":
        return cls(g_old, g_new, diff(g_old, g_new), verify=False)

    @property
    def kernel_stream(self) -> ChangeStream:
        """The stream with every weight change decomposed, validated by replay."""
        if self._kernel_stream is None:
            out: ChangeStream = []
            b = GraphBuilder(self.g_old)
            for c in self.stream:
                if isinstance(c, (AddWeight, DecWeight)):
                    out.extend(decompose_weight_change(b, c))
                else:
                    out.append(c)
                b.apply(c)
            self._kernel_stream = out
        return self._kernel_stream

    def reset(self) -> None:
        self.working = GraphBuilder(self.g_old)

    def top_degree_set(self, eta: float) -> set[int]:
        """Nodes whose new out-degree ranks in the top eta fraction."""
        got = self._top_degree.get(eta)
        if got is None:
            nodes = sorted(self.g_new.nodes(),
                           key=lambda u: (-self.g_new.out_degree(u), u))
            keep = math.ceil(eta * len(nodes))
            got = set(nodes[:keep])
            self._top_degree[eta] = got
        return got

    def top_increase_set(self, eta: float) -> set[int]:
        """Nodes whose out-degree growth ratio ranks in the top eta fraction.

        Nodes absent from the old snapshot grew from nothing and rank at the
        top whenever they have any out-edge at all.
        """
        got = self._top_increase.get(eta)
        if got is None:
            def ratio(u: int) -> float:
                dn = self.g_new.out_degree(u)
                do = (self.g_old.out_degree(u)
                      if self.g_old.has_node(u) else 0)
                if do == 0:
                    return math.inf if dn > 0 else 0.0
                return dn / do

            nodes = sorted(self.g_new.nodes(), key=lambda u: (-ratio(u), u))
            keep = math.ceil(eta * len(nodes))
            got = set(nodes[:keep])
            self._top_increase[eta] = got
        return got


def _edge_gains(w, u: int, v: int, p: float, theta: float,
                table: DeltaTable, sign: float) -> None:
    """Spread gained by adding edge (u, v, p) to the working graph w.

    w must not hold the edge. The edge is ignored when its probability is
    below theta or not above the probability of the best existing path
    between its endpoints. Otherwise every node that reaches the source may
    gain: for each reachable downstream node, either a brand-new
    above-theta path appears (full path probability gained) or an existing
    one improves (difference gained). Each gain is added to the table
    multiplied by `sign`.

    Only pairs whose composite path i -> u -> v -> j clears theta can
    contribute, so the endpoint regions are explored only down to theta/p
    and filtered exactly afterwards.
    """
    if p < theta:
        return
    existing = mip(w, u, v, theta)
    if existing is not None and p <= existing.prob:
        return

    floor = theta_floor(theta)
    theta_end = min(1.0, (theta / p) * (1.0 - 1e-9))
    in_u = local_region(w, u, "in", theta_end).members
    out_v = local_region(w, v, "out", theta_end).members
    pairs_i = sorted(i for i, e in in_u.items() if e[0] * p >= floor)
    pairs_j = sorted(j for j, e in out_v.items() if p * e[0] >= floor)

    if len(pairs_i) > 8 * max(1, len(pairs_j)):
        # per-target: old best paths read off each target's in-region; the
        # cheap side when far more nodes reach the source than leave the
        # target (hub sources)
        source_set = frozenset(pairs_i)
        for j in pairs_j:
            pj = out_v[j][0]
            in_j = bounded_region_members(w, j, "in", theta, source_set)
            for i in pairs_i:
                cand = in_u[i][0] * p * pj
                old = in_j.get(i)
                if old is None:
                    if cand >= floor:
                        table.add(i, sign * cand)
                else:
                    gain = cand - old[0]
                    if gain > 0.0:
                        table.add(i, sign * gain)
    else:
        # per-source: old best paths read off each source's out-region,
        # explored only far enough to settle the target side
        target_set = frozenset(pairs_j)
        for i in pairs_i:
            pi = in_u[i][0]
            out_i = bounded_region_members(w, i, "out", theta, target_set)
            for j in pairs_j:
                cand = pi * p * out_v[j][0]
                old = out_i.get(j)
                if old is None:
                    if cand >= floor:
                        table.add(i, sign * cand)
                else:
                    gain = cand - old[0]
                    if gain > 0.0:
                        table.add(i, sign * gain)


def delta_add_edge(ctx: EvolutionContext, change: AddEdge, theta: float,
                   table: DeltaTable) -> DeltaTable:
    """Spread deltas caused by one edge addition; advances the working graph.

    The gains are those of `_edge_gains` on the graph before the addition.
    """
    w = ctx.working
    u, v, p = change.source, change.target, change.prob
    if u == v or not w.has_node(u) or not w.has_node(v) or w.has_edge(u, v) \
            or not (0.0 < p <= 1.0):
        raise PreconditionViolation(change, "invalid edge addition")
    _edge_gains(w, u, v, p, theta, table, 1.0)
    w.apply(change)
    return table


def delta_remove_edge(ctx: EvolutionContext, change: RemoveEdge, theta: float,
                      table: DeltaTable) -> DeltaTable:
    """Spread deltas caused by one edge removal; advances the working graph.

    Removing e from G loses exactly what adding e to G - e gains, so the
    edge is removed first and the addition's gains are negated.
    """
    w = ctx.working
    u, v = change.source, change.target
    if not w.has_edge(u, v):
        raise PreconditionViolation(change, f"edge ({u},{v}) not present")
    p = w.prob(u, v)
    w.apply(change)
    _edge_gains(w, u, v, p, theta, table, -1.0)
    return table


def delta_node(ctx: EvolutionContext, change: Change,
               table: DeltaTable) -> DeltaTable:
    """Node lifecycle deltas: +1 standalone spread on add, -1 on removal.

    A removed node is additionally marked ineligible for selection.
    """
    w = ctx.working
    if isinstance(change, AddNode):
        w.apply(change)
        table.add(change.node, 1.0)
        table.born.add(change.node)
        table.removed.discard(change.node)
    elif isinstance(change, RemoveNode):
        w.apply(change)  # validates the zero-degree precondition
        table.add(change.node, -1.0)
        table.removed.add(change.node)
    else:
        raise PreconditionViolation(change, "not a node change")
    return table


def accumulate_deltas(ctx: EvolutionContext, seeds, theta: float
                      ) -> DeltaTable:
    """Fold the per-change kernels over the whole (decomposed) stream.

    Deltas are standalone-spread changes: `seeds` must be empty.
    """
    if frozenset(seeds):
        raise ValueError("seeded deltas are not supported; pass an empty "
                         "seed set")
    ctx.reset()
    table = DeltaTable()
    for c in ctx.kernel_stream:
        if isinstance(c, AddEdge):
            delta_add_edge(ctx, c, theta, table)
        elif isinstance(c, RemoveEdge):
            delta_remove_edge(ctx, c, theta, table)
        elif isinstance(c, (AddNode, RemoveNode)):
            delta_node(ctx, c, table)
        else:
            raise PreconditionViolation(c, "unexpected change in kernel stream")
    return table


def prune(table: DeltaTable, cfg: PruneConfig, ctx: EvolutionContext,
          iteration: int) -> set[int]:
    """Candidate nodes for one selection round.

    Qualification 1: grow faster than the seat's previous holder did.
    Qualification 2 (only when that holder lost spread): additionally carry
    a top-eta-percentile out-degree or out-degree growth ratio. The previous
    holder itself always stays a candidate while it is still in the graph.
    """
    if not (1 <= iteration <= len(cfg.prev_seeds)):
        raise ValueError(f"iteration {iteration} outside the previous seed "
                         f"list (length {len(cfg.prev_seeds)})")
    g_new = ctx.g_new
    prev = cfg.prev_seeds[iteration - 1]
    top_union = None

    if not g_new.has_node(prev):
        # seat holder left the network: fall back to the degree qualification
        # alone, with no growth threshold to compare against
        top_union = ctx.top_degree_set(cfg.eta) | ctx.top_increase_set(cfg.eta)
        return {v for v in top_union if g_new.has_node(v)}

    d = table.growth(prev)
    if d >= 0.0:
        cand = {v for v in table.values
                if g_new.has_node(v) and table.growth(v) > d}
    else:
        top_union = ctx.top_degree_set(cfg.eta) | ctx.top_increase_set(cfg.eta)
        cand = {v for v in top_union
                if g_new.has_node(v) and table.growth(v) > d}
    cand.add(prev)
    return cand


def incinf_select(ctx: EvolutionContext, prev, k: int, theta: float,
                  cfg: PruneConfig | None = None, prune_enabled: bool = True,
                  pad: bool = False) -> SeedResult:
    """Incremental top-K selection on the evolved graph.

    Reuses the previous seed list as the reference for pruning, evaluates
    localized marginal gains only for surviving candidates, and picks the
    argmax each round (ties to the smaller node id). The delta table is
    computed once per evolution step with an empty seed set: the previous
    spreads themselves are assumed unknown, so candidates are compared by
    their spread changes only. Per-round seed coverage enters through the
    marginal gains, not through the deltas.

    With `prune_enabled=False` every node of the new graph is a candidate,
    which makes the output identical to `mia_select` on the new snapshot.
    """
    g_new = ctx.g_new
    if g_new.num_nodes == 0:
        raise EmptyGraph("evolved graph has no nodes")
    prev_seeds = list(prev.seeds) if isinstance(prev, SeedResult) else list(prev)
    for s in prev_seeds:
        if not ctx.g_old.has_node(s):
            raise UnknownNode(f"previous seed {s} not in the old snapshot")

    t0 = time.perf_counter()
    k = min(k, g_new.num_nodes)
    if prune_enabled and len(prev_seeds) < k:
        if not pad:
            raise InsufficientSeeds(
                f"{len(prev_seeds)} previous seeds < k={k} and padding is "
                f"disabled")
        for s in mia_select(g_new, k, theta).seeds:
            if s not in prev_seeds:
                prev_seeds.append(s)
            if len(prev_seeds) >= k:
                break

    eta = cfg.eta if cfg is not None else 1.0
    if prune_enabled:
        cfg = cfg or PruneConfig(eta, prev_seeds)
        if cfg.prev_seeds != prev_seeds:
            cfg = PruneConfig(cfg.eta, prev_seeds)

    table = accumulate_deltas(ctx, frozenset(), theta)
    selector = MiaSelector(g_new, theta)
    all_nodes = sorted(g_new.nodes())
    gains: list[float] = []
    ratios: list[float] = []

    for i in range(1, k + 1):
        if prune_enabled:
            cand = prune(table, cfg, ctx, i)
            chosen = set(selector.seeds)
            if not (cand - chosen):
                # this seat's reference seed was already taken for an earlier
                # seat: fall back to the previous seeds not yet chosen
                cand = {s for s in prev_seeds
                        if s not in chosen and g_new.has_node(s)}
            if not cand:
                cand = set(all_nodes) - chosen
        else:
            cand = all_nodes
        ratios.append(len(cand) / g_new.num_nodes)
        v, gain = selector.best(cand)
        selector.add_seed(v)
        gains.append(gain)

    return SeedResult(selector.seeds, gains, "incinf",
                      time.perf_counter() - t0,
                      {"k": k, "theta": theta, "eta": eta,
                       "pruning": prune_enabled, "prune_ratios": ratios})
