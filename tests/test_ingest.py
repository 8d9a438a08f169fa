import random

import numpy as np
import pytest

from evoinf import (InvalidConfig, InvalidProbability, ParseError,
                    TrivalencyProb, load_temporal_edges, parse_prob_policy,
                    snapshot_at)
from evoinf.ingest import FixedProb, TRIVALENCY, write_id_map


SAMPLE = """\
# social trace
a\tb\t1\t0.5
b\tc\t2
a\tc\t5\t0.25
"""


def test_dense_ids_in_first_appearance_order(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(SAMPLE)
    records, ids = load_temporal_edges(path)
    assert ids == {"a": 0, "b": 1, "c": 2}
    assert [(r.u, r.v, r.t) for r in records] == [(0, 1, 1), (1, 2, 2), (0, 2, 5)]
    assert records[0].prob == 0.5 and records[1].prob is None


def test_snapshot_at_respects_time(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(SAMPLE)
    records, _ = load_temporal_edges(path)
    empty = snapshot_at(records, 0, FixedProb(0.1))
    assert empty.num_nodes == 0 and empty.num_edges == 0
    mid = snapshot_at(records, 2, FixedProb(0.1))
    assert mid.num_edges == 2 and mid.prob(1, 2) == 0.1
    full = snapshot_at(records, 99, FixedProb(0.1))
    assert full.num_edges == 3 and full.prob(0, 2) == 0.25
    assert full.label == 99


def test_parallel_records_keep_latest_timestamp(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("x\ty\t1\t0.5\nx\ty\t9\t0.9\nx\ty\t4\t0.1\n")
    records, _ = load_temporal_edges(path)
    g = snapshot_at(records, 10)
    assert g.prob(0, 1) == 0.9
    g = snapshot_at(records, 5)
    assert g.prob(0, 1) == 0.1


def test_zero_probability_records_add_isolated_nodes(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("c\td\t1\t0\n"      # ids 0, 1: nodes only
                    "a\tb\t1\t0.5\n"    # ids 2, 3
                    "e\ta\t1\t0.0\n"    # id 4; a already has a node
                    "c\tb\t2\t0.25\n")
    records, _ = load_temporal_edges(path)
    g = snapshot_at(records, 1)
    assert sorted(g.edges()) == [(2, 3, 0.5)]
    assert g.num_nodes == 5 and g.out_degree(0) == g.in_degree(1) == 0
    # first appearance over the sorted (u, v) pairs: (0,1), (2,3), (4,2)
    assert list(g.nodes()) == [0, 1, 2, 3, 4]
    g.audit()
    # the later record for (0, 3) is an edge; (0, 1) stays edgeless
    g2 = snapshot_at(records, 2)
    assert sorted(g2.edges()) == [(0, 3, 0.25), (2, 3, 0.5)]
    assert list(g2.nodes()) == [0, 1, 3, 2, 4]


def test_undirected_ingestion_doubles_edges(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\t1\t0.5\n")
    records, _ = load_temporal_edges(path, undirected=True)
    g = snapshot_at(records, 1)
    assert g.prob(0, 1) == 0.5 and g.prob(1, 0) == 0.5


def test_self_loop_rejected(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\ta\t1\t0.5\n")
    with pytest.raises(ParseError) as err:
        load_temporal_edges(path)
    assert err.value.line_no == 1


def test_malformed_lines(tmp_path):
    path = tmp_path / "edges.tsv"
    for text in ("a\tb\n", "a\tb\t-3\n", "a\tb\tx\n", "a\tb\t1\t2.5\n",
                 "a\tb\t1\tnope\n"):
        path.write_text(text)
        with pytest.raises((ParseError, InvalidProbability)):
            load_temporal_edges(path)


def test_missing_prob_without_policy(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\t1\n")
    records, _ = load_temporal_edges(path)
    with pytest.raises(InvalidProbability):
        snapshot_at(records, 1)


def test_trivalency_policy_is_deterministic(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"n{i}\tn{i+1}\t1\n" for i in range(40)))
    records, _ = load_temporal_edges(path)
    g1 = snapshot_at(records, 1, TrivalencyProb(7))
    g2 = snapshot_at(records, 1, TrivalencyProb(7))
    assert g1 == g2
    assert all(p in TRIVALENCY for _, _, p in g1.edges())
    g3 = snapshot_at(records, 1, TrivalencyProb(8))
    assert g1 != g3  # 3^40 to one against a full collision
    probs = {p for _, _, p in g1.edges()}
    assert len(probs) > 1


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**70 + 5])
def test_trivalency_draw_is_the_seed_sequence_of_the_triple(seed):
    # ids and seeds of one uint32 word and of more, around the word boundary
    policy = TrivalencyProb(seed)
    rng = random.Random(seed)
    pairs = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(200)]
    for u, v in pairs + [(0, 1), (1, 0), (2**32 - 1, 3), (2**32, 3),
                         (5, 2**40 + 1)]:
        k = np.random.SeedSequence((seed, u, v)).generate_state(1)[0]
        assert policy.prob_for(u, v) == TRIVALENCY[int(k) % 3], (u, v)


def test_parse_prob_policy():
    assert isinstance(parse_prob_policy("trivalency", 3), TrivalencyProb)
    assert parse_prob_policy("fixed:0.25").p == 0.25
    with pytest.raises(InvalidProbability):
        parse_prob_policy("fixed:1.5")
    with pytest.raises(InvalidProbability):
        parse_prob_policy("nonsense")
    # numpy's SeedSequence would fail on the first draw instead
    with pytest.raises(InvalidConfig):
        parse_prob_policy("trivalency", -1)


def test_id_map_sidecar(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("alice\tbob\t1\t0.5\n")
    _, ids = load_temporal_edges(path)
    out = tmp_path / "ids.tsv"
    write_id_map(out, ids)
    assert out.read_text() == "alice\t0\nbob\t1\n"
