"""Incremental influence maintenance over a change stream.

Instead of recomputing localized spreads of every node after the graph
evolves, `accumulate_deltas` confines the work to the nodes the changes can
reach: the affected set, made of the nodes that reach the source of a
changed edge above theta in either snapshot, plus the born and removed
nodes. Differencing their localized spreads on the new and the old snapshot
gives the same table as static recomputation over every node, bit for bit;
every other node's delta is exactly zero.

The per-change kernels (`delta_add_edge`, `delta_remove_edge`, `delta_node`,
folded over `EvolutionContext.kernel_stream` on a `GraphBuilder` of the old
snapshot) build the same table change by change: each edge kernel adds
`accumulate_deltas` of its one-change transition. Nothing in the package
calls them; the tests fold them to check a stream's table against its steps.

Selection then prunes: a node is only worth re-evaluating if its spread grew
more than the previous holder of the seat did, or (when the previous seat
lost ground) if it also carries a top-percentile degree or degree growth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import (InsufficientSeeds, InvalidConfig, PreconditionViolation,
                     UnknownNode)
from .graph import (AddEdge, AddNode, AddWeight, Change, ChangeStream,
                    DecWeight, GraphBuilder, RemoveEdge, RemoveNode, Snapshot,
                    apply_all, diff)
from .localize import _check_theta, _search, theta_floor
from .select import MiaSelector, SeedResult, _celf, _start, mia_select


@dataclass
class DeltaTable:
    """Per-node localized-spread change accumulated over a change stream.

    Nodes never touched by any change have no entry and count as zero.
    `born` holds the nodes of the new snapshot absent from the old one, and
    `removed` the reverse. A born node's delta includes its +1 standalone
    spread, which does not count as growth when candidates are compared
    against the previous seeds.
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


def _check_eta(eta: float, name: str = "eta") -> None:
    if not (0.0 < eta <= 1.0):
        raise InvalidConfig(f"{name} must be in (0, 1], got {eta}")


@dataclass
class PruneConfig:
    """Candidate filter: percentile threshold and the previous seed list."""
    eta: float
    prev_seeds: list[int]

    def __post_init__(self):
        _check_eta(self.eta)


class EvolutionContext:
    """One evolution step: old snapshot, new snapshot, and the stream between.

    A context is valid once built: the constructor checks that the stream
    turns g_old into g_new (`PreconditionViolation` for an invalid change,
    `ValueError` for a wrong end state), and `from_stream` and
    `from_snapshots` are valid by construction. Holds cached degree rankings
    for pruning. For the per-change kernels it also offers the kernel
    stream, in which weight changes are decomposed into remove + re-add so
    that it carries only four change types.
    """

    def __init__(self, g_old: Snapshot, g_new: Snapshot, stream: ChangeStream):
        if apply_all(g_old, stream) != g_new:
            raise ValueError("stream does not transform g_old into g_new")
        self._hold(g_old, g_new, stream)

    def _hold(self, g_old: Snapshot, g_new: Snapshot, stream: ChangeStream):
        self.g_old = g_old
        self.g_new = g_new
        self.stream = stream
        self._top_degree: dict[float, set[int]] = {}
        self._top_increase: dict[float, set[int]] = {}

    @classmethod
    def _valid(cls, g_old, g_new, stream) -> "EvolutionContext":
        """A context whose caller's construction proves it valid."""
        ctx = cls.__new__(cls)
        ctx._hold(g_old, g_new, stream)
        return ctx

    @classmethod
    def from_stream(cls, g_old: Snapshot, stream: ChangeStream
                    ) -> "EvolutionContext":
        return cls._valid(g_old, apply_all(g_old, stream), stream)

    @classmethod
    def from_snapshots(cls, g_old: Snapshot, g_new: Snapshot
                       ) -> "EvolutionContext":
        return cls._valid(g_old, g_new, diff(g_old, g_new))

    @property
    def kernel_stream(self) -> ChangeStream:
        """The stream with every weight change decomposed, validated by a
        replay on every access."""
        out: ChangeStream = []
        b = GraphBuilder(self.g_old)
        for c in self.stream:
            b.apply(c)
            if isinstance(c, (AddWeight, DecWeight)):
                u, v = c.source, c.target
                out += [RemoveEdge(u, v), AddEdge(u, v, b.prob(u, v))]
            else:
                out.append(c)
        return out

    def _top(self, cache: dict[float, set[int]], eta: float, score
             ) -> set[int]:
        """The ceil(eta * n) nodes of g_new with the highest score(u), ties
        to the smaller id, cached per eta."""
        got = cache.get(eta)
        if got is None:
            nodes = sorted(self.g_new.nodes(), key=lambda u: (-score(u), u))
            got = cache[eta] = set(nodes[:math.ceil(eta * len(nodes))])
        return got

    def top_degree_set(self, eta: float) -> set[int]:
        """Nodes whose new out-degree ranks in the top eta fraction."""
        return self._top(self._top_degree, eta, self.g_new.out_degree)

    def top_increase_set(self, eta: float) -> set[int]:
        """Nodes whose out-degree growth ratio ranks in the top eta fraction.

        Nodes absent from the old snapshot grew from nothing and rank at the
        top whenever they have any out-edge at all.
        """
        def ratio(u: int) -> float:
            dn = self.g_new.out_degree(u)
            do = self.g_old.out_degree(u) if self.g_old.has_node(u) else 0
            if do == 0:
                return math.inf if dn > 0 else 0.0
            return dn / do

        return self._top(self._top_increase, eta, ratio)


def _fold_edge_change(w: GraphBuilder, change: Change, theta: float,
                      table: DeltaTable) -> DeltaTable:
    """Apply one edge change to w and add the deltas of that transition.

    The deltas are `accumulate_deltas` of the one-change context between the
    snapshots frozen from w before and after the change.
    """
    before = w.freeze()
    w.apply(change)  # validates the change
    ctx = EvolutionContext._valid(before, w.freeze(), [change])
    for v, d in accumulate_deltas(ctx, frozenset(), theta).values.items():
        table.add(v, d)
    return table


def delta_add_edge(w: GraphBuilder, change: AddEdge, theta: float,
                   table: DeltaTable) -> DeltaTable:
    """Spread deltas caused by one edge addition; applies it to w."""
    return _fold_edge_change(w, change, theta, table)


def delta_remove_edge(w: GraphBuilder, change: RemoveEdge, theta: float,
                      table: DeltaTable) -> DeltaTable:
    """Spread deltas caused by one edge removal; applies it to w."""
    return _fold_edge_change(w, change, theta, table)


def delta_node(w: GraphBuilder, change: Change,
               table: DeltaTable) -> DeltaTable:
    """Node lifecycle deltas: +1 standalone spread on add, -1 on removal.

    `born` and `removed` follow membership in the snapshots at both ends of
    the fold: re-adding a removed id, or removing an added one, undoes the
    mark instead of setting the other one.
    """
    if isinstance(change, AddNode):
        w.apply(change)
        table.add(change.node, 1.0)
        if change.node in table.removed:
            table.removed.discard(change.node)
        else:
            table.born.add(change.node)
    elif isinstance(change, RemoveNode):
        w.apply(change)  # validates the zero-degree precondition
        table.add(change.node, -1.0)
        if change.node in table.born:
            table.born.discard(change.node)
        else:
            table.removed.add(change.node)
    else:
        raise PreconditionViolation(change, "not a node change")
    return table


def accumulate_deltas(ctx: EvolutionContext, seeds, theta: float
                      ) -> DeltaTable:
    """Standalone-spread deltas of the stream by affected-set differencing.

    A node v's theta out-region can differ between the two snapshots only
    if, in one of them, v reaches the source a of a changed edge (a, b) with
    P(v -> a) * p(a, b) at or above `theta_floor(theta)`. So the affected set
    is the union, over both snapshots and every changed source, of one
    in-region of a truncated at floor/p (p the largest changed probability
    out of a), plus the born and removed nodes. The delta of an affected
    node is its localized spread on the new snapshot minus the old one (0 on
    a side without the node); every other node's delta is exactly 0. So the
    table is static differencing, bit for bit, without visiting the rest of
    the graph (Chen, Wang & Wang, KDD 2010; the localization follows dynamic
    influence maintenance, Ohsaka et al., VLDB 2016).

    The context guarantees that the stream is valid, so it is only scanned
    for node ids and edge pairs. `born` and `removed` are the stream's node
    ids by snapshot membership, so a removed and re-added id is neither.
    Deltas are standalone-spread changes: `seeds` must be empty.
    """
    if frozenset(seeds):
        raise ValueError("seeded deltas are not supported; pass an empty "
                         "seed set")
    _check_theta(theta)
    g_old, g_new = ctx.g_old, ctx.g_new
    touched: set[tuple[int, int]] = set()
    nodes: set[int] = set()
    for c in ctx.stream:
        if isinstance(c, (AddNode, RemoveNode)):
            nodes.add(c.node)
        else:
            touched.add((c.source, c.target))
    table = DeltaTable(
        born={v for v in nodes if g_new.has_node(v) and not g_old.has_node(v)},
        removed={v for v in nodes
                 if g_old.has_node(v) and not g_new.has_node(v)})

    floor = theta_floor(theta)
    affected = table.born | table.removed
    changed = [(a, b) for a, b in touched
               if g_old.prob(a, b) != g_new.prob(a, b)]
    for g in (g_old, g_new):
        top_p: dict[int, float] = {}  # source -> largest changed p on g
        for a, b in changed:
            p = g.prob(a, b)
            if p >= floor and p > top_p.get(a, 0.0):
                top_p[a] = p
        # every path through (a, b) that clears the floor, with a 1e-9
        # relative slack for product rounding; p >= floor keeps the cut < 1
        for a, p in top_p.items():
            affected.update(_search(g, a, floor / p * (1.0 - 1e-9), "in"))

    spread_new = MiaSelector(g_new, theta).base  # = mia_spread(g, v, ())
    spread_old = MiaSelector(g_old, theta).base
    for v in sorted(affected):
        d = (spread_new(v) if g_new.has_node(v) else 0.0) \
            - (spread_old(v) if g_old.has_node(v) else 0.0)
        if d != 0.0:
            table.values[v] = d
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

    # both top sets are drawn from g_new's nodes
    if not g_new.has_node(prev):
        # seat holder left the network: fall back to the degree qualification
        # alone, with no growth threshold to compare against
        return ctx.top_degree_set(cfg.eta) | ctx.top_increase_set(cfg.eta)

    d = table.growth(prev)
    if d >= 0.0:
        cand = {v for v in table.values
                if g_new.has_node(v) and table.growth(v) > d}
    else:
        top_union = ctx.top_degree_set(cfg.eta) | ctx.top_increase_set(cfg.eta)
        cand = {v for v in top_union if table.growth(v) > d}
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

    Only `cfg.eta` is read (1.0 without a `cfg`): the seats come from
    `prev`, which lists distinct nodes of the old snapshot, padded from
    `mia_select` when `pad` is set, never from `cfg.prev_seeds`.

    With `prune_enabled=False` every node of the new graph is a candidate in
    every round: it runs `mia_select`'s loop on the new snapshot, so the
    output is `mia_select`'s.
    """
    return _incinf(ctx, prev, k, theta, cfg, prune_enabled, pad)[0]


def _incinf(ctx: EvolutionContext, prev, k: int, theta: float,
            cfg: PruneConfig | None, prune_enabled: bool, pad: bool
            ) -> tuple[SeedResult, DeltaTable]:
    """`incinf_select` and the delta table it pruned with."""
    g_new = ctx.g_new
    k, t0 = _start(g_new, k, theta)
    prev_seeds = list(prev.seeds) if isinstance(prev, SeedResult) else list(prev)
    seen: set[int] = set()
    for s in prev_seeds:
        if not ctx.g_old.has_node(s):
            raise UnknownNode(f"previous seed {s} not in the old snapshot")
        if s in seen:
            raise InvalidConfig(f"previous seed {s} is repeated")
        seen.add(s)

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
    cfg = PruneConfig(eta, prev_seeds)

    table = accumulate_deltas(ctx, frozenset(), theta)
    selector = MiaSelector(g_new, theta)
    if not prune_enabled:
        # every node is a candidate in every round: the static loop
        gains = _celf(g_new.nodes(), k, selector.gain, selector.add_seed)
        ratios = [1.0] * k
    else:
        gains, ratios = [], []
        for i in range(1, k + 1):
            cand = prune(table, cfg, ctx, i)
            chosen = set(selector.seeds)
            if not (cand - chosen):
                # the seat's reference seed was taken for an earlier seat:
                # fall back to the previous seeds not yet chosen
                cand = {s for s in prev_seeds
                        if s not in chosen and g_new.has_node(s)}
            if not cand:
                cand = set(g_new.nodes()) - chosen
            ratios.append(len(cand) / g_new.num_nodes)
            v, gain = selector.best(cand)
            selector.add_seed(v)
            gains.append(gain)

    res = SeedResult(selector.seeds, gains, "incinf",
                     time.perf_counter() - t0,
                     {"k": k, "theta": theta, "eta": eta,
                      "pruning": prune_enabled, "prune_ratios": ratios})
    return res, table
