import hashlib
import math

import pytest

from evoinf import (GenConfig, InvalidConfig, InvalidProbability, apply_all,
                    diff, generate_evolving)
from evoinf.cli import main
from evoinf.graph import format_change
from evoinf.ingest import TRIVALENCY


def test_config_validation():
    bad = [
        GenConfig(n0=1, steps=1, nodes_per_step=1, m=2),       # n0 < m
        GenConfig(n0=5, steps=0, nodes_per_step=1, m=2),       # steps < 1
        GenConfig(n0=5, steps=1, nodes_per_step=-1, m=2),
        GenConfig(n0=5, steps=1, nodes_per_step=1, m=0),
        GenConfig(n0=5, steps=1, nodes_per_step=1, m=2,
                  extra_edge_fraction=-0.1),
        GenConfig(n0=5, steps=1, nodes_per_step=1, m=2,
                  prob_policy="bogus"),
    ]
    # non-finite fractions would reach math.ceil in the generator
    bad += [GenConfig(n0=5, steps=1, nodes_per_step=1, m=2, **{name: value})
            for name in ("extra_edge_fraction", "remove_edge_fraction",
                         "weight_change_fraction")
            for value in (math.nan, math.inf)]
    for cfg in bad:
        with pytest.raises((InvalidConfig, InvalidProbability)):
            generate_evolving(cfg)
    with pytest.raises(InvalidConfig):
        generate_evolving(GenConfig(n0=1, steps=1, nodes_per_step=1, m=2))


def test_no_growth_step():
    snaps, streams = generate_evolving(
        GenConfig(n0=4, steps=1, nodes_per_step=0, m=2))
    assert len(snaps) == 2 and len(streams) == 1
    assert streams[0] == []
    assert snaps[1] == snaps[0]


def test_new_nodes_born_with_m_out_edges():
    snaps, _ = generate_evolving(
        GenConfig(n0=5, steps=1, nodes_per_step=100, m=2, master_seed=1))
    g = snaps[1]
    assert all(g.out_degree(u) == 2 for u in range(5, 105))
    assert all(g.in_degree(u) == 0 or u < 5 or g.in_degree(u) >= 0
               for u in g.nodes())


def test_streams_replay_to_snapshots_exactly():
    cfg = GenConfig(n0=6, steps=3, nodes_per_step=30, m=2,
                    prob_policy="fixed:0.2", master_seed=9,
                    extra_edge_fraction=0.25, remove_edge_fraction=0.03,
                    weight_change_fraction=0.03, remove_node_count=1)
    snaps, streams = generate_evolving(cfg)
    assert len(snaps) == 4 and len(streams) == 3
    for k, stream in enumerate(streams):
        assert apply_all(snaps[k], stream) == snaps[k + 1]
        snaps[k + 1].audit()
    # and they round-trip through diff
    for k in range(3):
        replayed = apply_all(snaps[k], diff(snaps[k], snaps[k + 1]))
        assert replayed == snaps[k + 1]


def test_all_six_change_kinds_appear_with_churn():
    cfg = GenConfig(n0=6, steps=3, nodes_per_step=30, m=2,
                    prob_policy="fixed:0.2", master_seed=9,
                    extra_edge_fraction=0.25, remove_edge_fraction=0.03,
                    weight_change_fraction=0.03, remove_node_count=1)
    _, streams = generate_evolving(cfg)
    kinds = {type(c).__name__ for s in streams for c in s}
    assert kinds == {"AddNode", "RemoveNode", "AddEdge", "RemoveEdge",
                     "AddWeight", "DecWeight"}


def test_determinism():
    cfg = GenConfig(n0=5, steps=2, nodes_per_step=25, m=2,
                    prob_policy="trivalency", master_seed=33,
                    extra_edge_fraction=0.2)
    s1, st1 = generate_evolving(cfg)
    s2, st2 = generate_evolving(cfg)
    assert st1 == st2
    assert all(a == b for a, b in zip(s1, s2))
    s3, _ = generate_evolving(GenConfig(n0=5, steps=2, nodes_per_step=25,
                                        m=2, prob_policy="trivalency",
                                        master_seed=34,
                                        extra_edge_fraction=0.2))
    assert s3[-1] != s1[-1]


def test_churn_streams_are_pinned():
    # the small churn instance of the benchmark; every change of every
    # stream, as stream-file lines, hashes to the value of a reference run,
    # so a refactor of the generator cannot change the instances unnoticed
    cfg = GenConfig(n0=20, steps=3, nodes_per_step=100, m=3,
                    prob_policy="trivalency", master_seed=31,
                    extra_edge_fraction=0.3, remove_edge_fraction=0.002,
                    weight_change_fraction=0.002, remove_node_count=3)
    _, streams = generate_evolving(cfg)
    kinds = [type(c).__name__ for s in streams for c in s]
    assert len(set(kinds)) == 6
    assert (kinds.count("RemoveNode"), kinds.count("AddWeight"),
            kinds.count("DecWeight")) == (9, 2, 1)
    text = "".join(format_change(c) + "\n" for s in streams for c in s)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1fd2859de615e0884abf31e6855e5d8e81ce6a2a53f8731a4fee56102c6669a1")


@pytest.mark.parametrize("fraction", [1e9, 1e308])
def test_densification_stops_when_no_pair_is_left(tmp_path, capsys, fraction):
    # asks for far more extra edges than a 5-node graph can hold
    cfg = GenConfig(n0=2, steps=1, nodes_per_step=3, m=2,
                    extra_edge_fraction=fraction)
    snapshots, _ = generate_evolving(cfg)
    for g in snapshots:
        g.audit()
    assert snapshots[-1].num_edges <= 5 * 4
    assert main(["gen", "--n0", "2", "--steps", "1", "--nodes-per-step", "3",
                 "--m", "2", "--extra-edge-fraction", str(fraction),
                 "--out-dir", str(tmp_path / "net")]) == 0


def test_densification_ends_at_the_first_failed_pick():
    # ~1M absent ordered pairs: a step that kept drawing after failed picks
    # would fill ~876k of them, for half a minute
    cfg = GenConfig(n0=3, steps=1, nodes_per_step=1000, m=3,
                    extra_edge_fraction=1e9)
    snapshots, _ = generate_evolving(cfg)
    for g in snapshots:
        g.audit()
    assert 3 * 1000 < snapshots[-1].num_edges < 100_000


def test_trivalency_probabilities():
    snaps, _ = generate_evolving(
        GenConfig(n0=5, steps=1, nodes_per_step=50, m=2,
                  prob_policy="trivalency", master_seed=3))
    probs = {p for _, _, p in snaps[-1].edges()}
    assert probs <= set(TRIVALENCY)
    assert len(probs) > 1


def test_snapshot_labels_are_step_indices():
    snaps, _ = generate_evolving(
        GenConfig(n0=5, steps=3, nodes_per_step=5, m=2))
    assert [g.label for g in snaps] == [0, 1, 2, 3]
