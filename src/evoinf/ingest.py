"""Temporal edge-list ingestion and snapshot extraction.

File format, one record per line, tab (or any whitespace) separated:

    u <TAB> v <TAB> timestamp [<TAB> prob]

`#` starts a comment, timestamps are non-negative integers. Node ids may be
arbitrary strings; they are mapped to dense integer ids in first-appearance
order and the mapping is returned (and written as a sidecar by the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidProbability, ParseError
from .graph import Snapshot, _records

TRIVALENCY = (0.1, 0.01, 0.001)


class FixedProb:
    """Fill every missing probability with one constant."""

    def __init__(self, p: float):
        if not (0.0 < p <= 1.0):
            raise InvalidProbability(f"fixed probability {p} outside (0, 1]")
        self.p = p

    def prob_for(self, u: int, v: int) -> float:
        return self.p

    def __repr__(self):
        return f"fixed:{self.p}"


class TrivalencyProb:
    """Draw each missing probability from {0.1, 0.01, 0.001}.

    The draw is a pure function of (seed, u, v): independent of record order
    and of how many edges were filled before this one.
    """

    def __init__(self, seed: int = 0):
        if seed < 0:  # numpy's SeedSequence takes only non-negative entropy
            raise InvalidConfig(f"trivalency seed must be >= 0, got {seed}")
        self.seed = seed

    def prob_for(self, u: int, v: int) -> float:
        entropy = (self.seed, u, v)
        if 0 <= min(entropy) and max(entropy) <= 0xFFFFFFFF:
            # the uint32 words SeedSequence would split the tuple into, one
            # per int, without its per-call conversion (half the cost)
            entropy = np.array(entropy, dtype=np.uint32)
        k = np.random.SeedSequence(entropy).generate_state(1)[0]
        return TRIVALENCY[int(k) % 3]

    def __repr__(self):
        return "trivalency"


def parse_prob_policy(spec: str, seed: int = 0):
    """Parse a policy spec: 'trivalency' or 'fixed:<p>'."""
    if spec == "trivalency":
        return TrivalencyProb(seed)
    if spec.startswith("fixed:"):
        try:
            return FixedProb(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise InvalidProbability(f"bad policy spec {spec!r}") from exc
    raise InvalidProbability(f"unknown probability policy {spec!r}")


@dataclass(frozen=True)
class TemporalEdge:
    u: int
    v: int
    t: int
    prob: float | None


def load_temporal_edges(path, undirected: bool = False
                        ) -> tuple[list[TemporalEdge], dict[str, int]]:
    """Read a temporal edge list; returns (records, original-id mapping).

    Ids are assigned densely in first-appearance order. With
    `undirected=True` every record also yields the reverse edge (standard
    treatment for friendship-style source data). Self-loops are rejected.
    """
    ids: dict[str, int] = {}
    records: list[TemporalEdge] = []

    def intern(token: str) -> int:
        idx = ids.get(token)
        if idx is None:
            idx = len(ids)
            ids[token] = idx
        return idx

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in _records(fh):
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ParseError(line_no, f"expected 3 or 4 fields, got "
                                          f"{len(parts)}")
            if parts[0] == parts[1]:
                raise ParseError(line_no, f"self-loop on {parts[0]!r}")
            u = intern(parts[0])
            v = intern(parts[1])
            try:
                t = int(parts[2])
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {parts[2]!r}")
            if t < 0:
                raise ParseError(line_no, f"negative timestamp {t}")
            prob = None
            if len(parts) == 4:
                try:
                    prob = float(parts[3])
                except ValueError:
                    raise ParseError(line_no, f"bad probability {parts[3]!r}")
                if not (0.0 <= prob <= 1.0):
                    raise InvalidProbability(
                        f"line {line_no}: probability {prob} outside [0, 1]")
            records.append(TemporalEdge(u, v, t, prob))
            if undirected:
                records.append(TemporalEdge(v, u, t, prob))
    return records, ids


def snapshot_at(records: list[TemporalEdge], t: int, prob_policy=None
                ) -> Snapshot:
    """Graph induced by all records with timestamp <= t.

    Repeated (u, v) records collapse to the one with the largest timestamp
    (ties: the later record in file order wins). Missing probabilities are
    filled by `prob_policy`. A zero-probability record adds its endpoints but
    no edge, since the engine stores only edges with p in (0, 1].
    """
    latest: dict[tuple[int, int], TemporalEdge] = {}
    for r in records:
        if r.t > t:
            continue
        cur = latest.get((r.u, r.v))
        if cur is None or r.t >= cur.t:
            latest[(r.u, r.v)] = r

    pairs = sorted(latest)
    edges = []
    for (u, v) in pairs:
        p = latest[(u, v)].prob
        if p is None:
            if prob_policy is None:
                raise InvalidProbability(
                    f"edge ({u},{v}) has no probability and no fill policy "
                    f"was given")
            p = prob_policy.prob_for(u, v)
        if p > 0.0:
            edges.append((u, v, p))
    nodes = dict.fromkeys(x for pair in pairs for x in pair)
    return Snapshot.build(nodes, edges, t)


def write_id_map(path, ids: dict[str, int]) -> None:
    """Sidecar mapping: original string id <TAB> dense integer id."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, idx in sorted(ids.items(), key=lambda kv: kv[1]):
            fh.write(f"{token}\t{idx}\n")
