"""Directed snapshot graphs and the six basic topology-change operations.

A snapshot is an immutable directed graph with one influence probability per
edge. Evolution is expressed as an ordered stream of changes: add/remove node,
add/remove edge, increase/decrease edge weight. Streams must be sequentially
valid: every change's preconditions hold against the graph produced by the
changes before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .errors import ParseError, PreconditionViolation


@dataclass(frozen=True)
class AddNode:
    node: int


@dataclass(frozen=True)
class RemoveNode:
    node: int


@dataclass(frozen=True)
class AddEdge:
    source: int
    target: int
    prob: float


@dataclass(frozen=True)
class RemoveEdge:
    source: int
    target: int


@dataclass(frozen=True)
class AddWeight:
    source: int
    target: int
    delta: float


@dataclass(frozen=True)
class DecWeight:
    source: int
    target: int
    delta: float


Change = Union[AddNode, RemoveNode, AddEdge, RemoveEdge, AddWeight, DecWeight]
ChangeStream = list  # list[Change]; kept a plain list on purpose


class _ReadGraph:
    """Read interface shared by Snapshot and GraphBuilder.

    Subclasses hold mirrored out- and in-adjacency dicts (`_out`, `_in`).
    """

    __slots__ = ()

    def has_node(self, u: int) -> bool:
        return u in self._out

    def has_edge(self, u: int, v: int) -> bool:
        row = self._out.get(u)
        return row is not None and v in row

    def prob(self, u: int, v: int) -> float:
        """Edge probability, 0.0 for absent edges (matching p's definition)."""
        row = self._out.get(u)
        if row is None:
            return 0.0
        return row.get(v, 0.0)

    def nodes(self) -> Iterator[int]:
        return iter(self._out)

    def out_neighbors(self, u: int) -> Mapping[int, float]:
        return self._out[u]

    def in_neighbors(self, u: int) -> Mapping[int, float]:
        return self._in[u]

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def in_degree(self, u: int) -> int:
        return len(self._in[u])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for u, row in self._out.items():
            for v, p in row.items():
                yield u, v, p

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self._out.values())

    def __contains__(self, u: int) -> bool:
        return u in self._out


class Snapshot(_ReadGraph):
    """Immutable directed graph with per-edge probabilities in (0, 1].

    Out- and in-adjacency are exact mirrors. No self-loops, at most one edge
    per ordered pair. `label` is the time index of the snapshot and is not
    part of equality (two snapshots are equal iff nodes, edges and
    probabilities coincide).

    Instances may share adjacency dictionaries with the snapshots they were
    derived from; nothing mutates them after construction, so they are safe
    to read from any number of threads.

    Every out- and in-row iterates by descending probability, then node id:
    the path searches read rows in that order and stop at the first
    neighbor under their floor.
    """

    __slots__ = ("label", "_out", "_in", "_reach")

    def __init__(self, out: dict[int, dict[int, float]],
                 inn: dict[int, dict[int, float]], label: int = 0):
        # Internal constructor: callers must hand over consistent mirrors
        # in search order (`GraphBuilder.freeze` sorts them).
        self._out = out
        self._in = inn
        self.label = label
        self._reach = None  # evoinf.simulate's kernel, built on first use

    @classmethod
    def build(cls, nodes: Iterable[int] = (),
              edges: Iterable[tuple[int, int, float]] = (),
              label: int = 0) -> "Snapshot":
        """Validating constructor from node and (source, target, prob) lists."""
        b = GraphBuilder()
        for u in nodes:
            b.apply(AddNode(u))
        for u, v, p in edges:
            if not b.has_node(u):
                b.apply(AddNode(u))
            if not b.has_node(v):
                b.apply(AddNode(v))
            b.apply(AddEdge(u, v, p))
        return b.freeze(label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self._out == other._out

    def __repr__(self) -> str:
        return (f"Snapshot(label={self.label}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")

    def audit(self) -> None:
        """Consistency check: mirrors, probabilities, loops and row order."""
        seen = 0
        for u, row in self._out.items():
            for v, p in row.items():
                if u == v:
                    raise AssertionError(f"self-loop at {u}")
                if not (0.0 < p <= 1.0):
                    raise AssertionError(f"bad probability p({u},{v})={p}")
                if v not in self._in or self._in[v].get(u) != p:
                    raise AssertionError(f"mirror mismatch at ({u},{v})")
                seen += 1
        if seen != sum(len(r) for r in self._in.values()):
            raise AssertionError("in/out edge counts differ")
        if self._out.keys() != self._in.keys():
            raise AssertionError("in/out node sets differ")
        for direction, rows in (("out", self._out), ("in", self._in)):
            for u, row in rows.items():
                pairs = list(row.items())
                if pairs != sorted(pairs, key=lambda vp: (-vp[1], vp[0])):
                    raise AssertionError(f"{direction}-row of {u} out of order")


def _check_snapshot(g) -> None:
    """Searches need a Snapshot's row order, and cascades its kernel slot."""
    if not isinstance(g, Snapshot):
        raise TypeError(f"expected a Snapshot, got {type(g).__name__}; "
                        f"freeze() a GraphBuilder first")


class GraphBuilder(_ReadGraph):
    """Mutable working graph with the same read interface as Snapshot.

    Used for applying change streams efficiently (copy-on-write against a
    base snapshot) and for building snapshots. Single writer; not safe for
    concurrent mutation.
    """

    def __init__(self, base: Snapshot | None = None):
        if base is None:
            self._out: dict[int, dict[int, float]] = {}
            self._in: dict[int, dict[int, float]] = {}
        else:
            self._out = dict(base._out)
            self._in = dict(base._in)
        self._owned_out: set[int] = set()
        self._owned_in: set[int] = set()

    # row ownership: inner dicts of a base or frozen snapshot are copied on
    # first write; rows created by AddNode are owned from the start

    def _own_out(self, u: int) -> dict[int, float]:
        if u not in self._owned_out:
            self._out[u] = dict(self._out[u])
            self._owned_out.add(u)
        return self._out[u]

    def _own_in(self, u: int) -> dict[int, float]:
        if u not in self._owned_in:
            self._in[u] = dict(self._in[u])
            self._owned_in.add(u)
        return self._in[u]

    # -- mutation --

    def apply(self, c: Change) -> None:
        """Apply one change, validating its preconditions."""
        if isinstance(c, AddNode):
            if c.node in self._out:
                raise PreconditionViolation(c, f"node {c.node} already present")
            self._out[c.node] = {}
            self._in[c.node] = {}
            self._owned_out.add(c.node)
            self._owned_in.add(c.node)
        elif isinstance(c, RemoveNode):
            u = c.node
            if u not in self._out:
                raise PreconditionViolation(c, f"node {u} not present")
            if self._out[u] or self._in[u]:
                raise PreconditionViolation(
                    c, f"node {u} still has incident edges")
            del self._out[u]
            del self._in[u]
            self._owned_out.discard(u)
            self._owned_in.discard(u)
        elif isinstance(c, AddEdge):
            u, v, p = c.source, c.target, c.prob
            if u == v:
                raise PreconditionViolation(c, "self-loops are not allowed")
            if u not in self._out:
                raise PreconditionViolation(c, f"dangling source {u}")
            if v not in self._out:
                raise PreconditionViolation(c, f"dangling target {v}")
            if v in self._out[u]:
                raise PreconditionViolation(c, f"duplicate edge ({u},{v})")
            if not (0.0 < p <= 1.0):
                raise PreconditionViolation(
                    c, f"probability {p} outside (0, 1]")
            self._own_out(u)[v] = p
            self._own_in(v)[u] = p
        elif isinstance(c, RemoveEdge):
            u, v = c.source, c.target
            if not self.has_edge(u, v):
                raise PreconditionViolation(c, f"edge ({u},{v}) not present")
            del self._own_out(u)[v]
            del self._own_in(v)[u]
        elif isinstance(c, (AddWeight, DecWeight)):
            u, v = c.source, c.target
            if not self.has_edge(u, v):
                raise PreconditionViolation(c, f"edge ({u},{v}) not present")
            w = self._out[u][v]
            nw = w + c.delta if isinstance(c, AddWeight) else w - c.delta
            if not (0.0 < nw <= 1.0):
                raise PreconditionViolation(
                    c, f"resulting probability {nw} outside (0, 1]")
            self._own_out(u)[v] = nw
            self._own_in(v)[u] = nw
        else:
            raise PreconditionViolation(c, f"unknown change type {type(c)}")

    def apply_all(self, changes: Iterable[Change]) -> None:
        for c in changes:
            self.apply(c)

    def freeze(self, label: int = 0) -> Snapshot:
        """Return the current state as an immutable snapshot.

        Adjacency rows are handed over without copying; the builder detaches
        from them (future mutations copy on write), so it stays usable for
        building the next snapshot on top of this one. The rows it wrote are
        put in search order; the others are a snapshot's, so already are.
        """
        for rows, owned in ((self._out, self._owned_out),
                            (self._in, self._owned_in)):
            for u in owned:
                if len(rows[u]) > 1:
                    # by id (keys are unique), then a stable sort by
                    # descending prob: the order of the key (-prob, id)
                    # without a Python key function per pair
                    pairs = sorted(rows[u].items())
                    pairs.sort(key=itemgetter(1), reverse=True)
                    rows[u] = dict(pairs)
        snap = Snapshot(self._out, self._in, label)
        self._out = dict(self._out)
        self._in = dict(self._in)
        self._owned_out = set()
        self._owned_in = set()
        return snap


def apply_all(g: Snapshot, changes: Iterable[Change]) -> Snapshot:
    """Apply a sequentially valid stream to a snapshot.

    Structure is shared where possible: only adjacency rows touched by the
    stream are copied.
    """
    _check_snapshot(g)
    b = GraphBuilder(g)
    b.apply_all(changes)
    return b.freeze(g.label)


def cascade_node_removal(g: Snapshot | GraphBuilder, u: int) -> ChangeStream:
    """Removal of u with its incident edge removals emitted first."""
    if not g.has_node(u):
        raise PreconditionViolation(RemoveNode(u), f"node {u} not present")
    stream: ChangeStream = [RemoveEdge(u, v) for v in sorted(g.out_neighbors(u))]
    stream.extend(RemoveEdge(w, u) for w in sorted(g.in_neighbors(u)))
    stream.append(RemoveNode(u))
    return stream


def diff(a: Snapshot, b: Snapshot) -> ChangeStream:
    """Change stream transforming `a` into `b` exactly.

    Emission order guarantees sequential validity: node additions, edge
    removals, edge additions and weight changes, node removals. Weight drift
    on a surviving edge is emitted as AddWeight/DecWeight when float addition
    reproduces the target probability bit-exactly, and as a remove + re-add
    pair otherwise.
    """
    added: ChangeStream = []
    removals: ChangeStream = []
    additions: ChangeStream = []
    gone: ChangeStream = []
    for u in sorted(a._out.keys() | b._out.keys()):
        row_a = a._out.get(u)
        row_b = b._out.get(u)
        if row_a is row_b:  # a row both snapshots share holds no change
            continue
        if row_a is None:
            added.append(AddNode(u))
            row_a = {}
        elif row_b is None:
            gone.append(RemoveNode(u))
            row_b = {}
        for v in sorted(row_a):
            if v not in row_b:
                removals.append(RemoveEdge(u, v))
        for v in sorted(row_b):
            pb = row_b[v]
            if v not in row_a:
                additions.append(AddEdge(u, v, pb))
                continue
            pa = row_a[v]
            if pa == pb:
                continue
            d = pb - pa
            if pa + d == pb:
                additions.append(AddWeight(u, v, d) if d > 0
                                 else DecWeight(u, v, -d))
            else:
                # float addition would not land on pb exactly
                additions.append(RemoveEdge(u, v))
                additions.append(AddEdge(u, v, pb))
    return added + removals + additions + gone


# -- change stream files: one change per line --
#   AN u | RN u | AE u v w | RE u v | AW u v dw | DW u v dw

def format_change(c: Change) -> str:
    if isinstance(c, AddNode):
        return f"AN {c.node}"
    if isinstance(c, RemoveNode):
        return f"RN {c.node}"
    if isinstance(c, AddEdge):
        return f"AE {c.source} {c.target} {c.prob!r}"
    if isinstance(c, RemoveEdge):
        return f"RE {c.source} {c.target}"
    if isinstance(c, AddWeight):
        return f"AW {c.source} {c.target} {c.delta!r}"
    if isinstance(c, DecWeight):
        return f"DW {c.source} {c.target} {c.delta!r}"
    raise ValueError(f"unknown change {c}")


def parse_change(line: str, line_no: int = 0) -> Change:
    parts = line.split()
    try:
        op = parts[0]
        if op == "AN" and len(parts) == 2:
            return AddNode(int(parts[1]))
        if op == "RN" and len(parts) == 2:
            return RemoveNode(int(parts[1]))
        if op == "AE" and len(parts) == 4:
            return AddEdge(int(parts[1]), int(parts[2]), float(parts[3]))
        if op == "RE" and len(parts) == 3:
            return RemoveEdge(int(parts[1]), int(parts[2]))
        if op == "AW" and len(parts) == 4:
            return AddWeight(int(parts[1]), int(parts[2]), float(parts[3]))
        if op == "DW" and len(parts) == 4:
            return DecWeight(int(parts[1]), int(parts[2]), float(parts[3]))
    except (ValueError, IndexError) as exc:
        raise ParseError(line_no, f"bad change record: {line!r}") from exc
    raise ParseError(line_no, f"bad change record: {line!r}")


def write_change_stream(path, changes: Iterable[Change]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in changes:
            fh.write(format_change(c) + "\n")


def _records(fh) -> Iterator[tuple[int, str]]:
    """(line number from 1, text) of each line of a record file that holds
    more than a `#` comment, with the comment and outer blanks cut."""
    for line_no, raw in enumerate(fh, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield line_no, text


def read_change_stream(path) -> ChangeStream:
    with open(path, "r", encoding="utf-8") as fh:
        return [parse_change(line, i) for i, line in _records(fh)]
