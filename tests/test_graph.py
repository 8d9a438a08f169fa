import random

import pytest

from evoinf import (AddEdge, AddNode, AddWeight, DecWeight,
                    EvolutionContext, PreconditionViolation, RemoveEdge,
                    RemoveNode, Snapshot, apply_all, diff)
from conftest import random_graph, random_stream


def test_add_node_to_empty_graph():
    g = apply_all(Snapshot.build(), [AddNode(0)])
    assert g.num_nodes == 1 and g.num_edges == 0
    assert g.has_node(0) and not g.has_node(1)


def test_add_weight_is_additive():
    g = Snapshot.build([0, 1])
    g = apply_all(g, [AddEdge(0, 1, 0.5)])
    g = apply_all(g, [AddWeight(0, 1, 0.3)])
    assert g.prob(0, 1) == 0.8


def test_remove_node_requires_zero_degree():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    with pytest.raises(PreconditionViolation):
        apply_all(g, [RemoveNode(0)])
    g = apply_all(g, [RemoveEdge(0, 1)])
    g = apply_all(g, [RemoveNode(0)])
    assert not g.has_node(0) and g.has_node(1)


def test_precondition_violations():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    cases = [
        AddNode(0),                # duplicate node
        AddEdge(0, 1, 0.3),        # duplicate edge
        AddEdge(0, 2, 0.3),        # dangling target
        AddEdge(2, 1, 0.3),        # dangling source
        AddEdge(0, 0, 0.3),        # self-loop (needs node 0 only)
        AddEdge(1, 0, 1.5),        # probability out of range
        AddEdge(1, 0, 0.0),        # zero probability
        RemoveEdge(1, 0),          # absent edge
        RemoveNode(2),             # absent node
        AddWeight(0, 1, 0.6),      # result > 1
        DecWeight(0, 1, 0.5),      # result = 0
        AddWeight(1, 0, 0.1),      # absent edge
    ]
    for c in cases:
        with pytest.raises(PreconditionViolation):
            apply_all(g, [c])


def test_apply_is_persistent():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    g2 = apply_all(g, [AddWeight(0, 1, 0.2)])
    assert g.prob(0, 1) == 0.5
    assert g2.prob(0, 1) == 0.7
    g.audit()
    g2.audit()


def decompose(g, c):
    """The kernel stream of the one-change transition g -> c."""
    return EvolutionContext.from_stream(g, [c]).kernel_stream


def test_decompose_weight_change():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    pair = decompose(g, AddWeight(0, 1, 0.2))
    assert pair == [RemoveEdge(0, 1), AddEdge(0, 1, 0.7)]
    assert apply_all(g, pair) == apply_all(g, [AddWeight(0, 1, 0.2)])

    g2 = Snapshot.build([0, 1], [(0, 1, 0.3)])
    pair = decompose(g2, DecWeight(0, 1, 0.1))
    assert pair == [RemoveEdge(0, 1), AddEdge(0, 1, 0.3 - 0.1)]
    assert apply_all(g2, pair) == apply_all(g2, [DecWeight(0, 1, 0.1)])

    with pytest.raises(PreconditionViolation):
        decompose(g, AddWeight(1, 0, 0.2))


def test_decompose_equals_direct_apply_randomized():
    rng = random.Random(4)
    for _ in range(50):
        g = random_graph(rng, 12, 1.5)
        edges = sorted(g.edges())
        if not edges:
            continue
        u, v, w = rng.choice(edges)
        if rng.random() < 0.5 and w < 0.99:
            c = AddWeight(u, v, rng.uniform(0.0, 1.0 - w) * 0.9)
        else:
            dw = rng.uniform(0.0, w) * 0.9
            if dw <= 0.0:
                continue
            c = DecWeight(u, v, dw)
        assert apply_all(g, decompose(g, c)) == apply_all(g, [c])


def test_diff_trivial_cases():
    a = Snapshot.build([0])
    assert diff(a, a) == []
    b = Snapshot.build([0, 1], [(0, 1, 0.5)])
    assert diff(a, b) == [AddNode(1), AddEdge(0, 1, 0.5)]
    a2 = Snapshot.build([0, 1], [(0, 1, 0.5)])
    b2 = Snapshot.build([0, 1], [(0, 1, 0.7)])
    d = diff(a2, b2)
    assert len(d) == 1 and isinstance(d[0], AddWeight)
    assert apply_all(a2, d) == b2


def test_diff_exact_when_delta_addition_would_drift():
    # 1.0 -> 0.1 cannot be reproduced by float subtraction + addition
    a = Snapshot.build([0, 1], [(0, 1, 1.0)])
    b = Snapshot.build([0, 1], [(0, 1, 0.1)])
    assert apply_all(a, diff(a, b)) == b


def test_diff_round_trip_randomized():
    rng = random.Random(11)
    for trial in range(40):
        g = random_graph(rng, 15, 1.5)
        stream = random_stream(rng, g, 25)
        target = apply_all(g, stream)
        replayed = apply_all(g, diff(g, target))
        assert replayed == target, trial
        replayed.audit()


def test_mirror_consistency_over_random_streams():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, 12, 1.2)
        stream = random_stream(rng, g, 30)
        out = apply_all(g, stream)
        out.audit()


def test_snapshot_equality_ignores_label():
    a = Snapshot.build([0, 1], [(0, 1, 0.5)], label=0)
    b = Snapshot.build([0, 1], [(0, 1, 0.5)], label=7)
    assert a == b
    c = Snapshot.build([0, 1], [(0, 1, 0.50001)])
    assert a != c


def test_cascade_node_removal():
    from evoinf.graph import cascade_node_removal
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (2, 0, 0.4), (1, 2, 0.3)])
    stream = cascade_node_removal(g, 0)
    assert stream == [RemoveEdge(0, 1), RemoveEdge(2, 0), RemoveNode(0)]
    out = apply_all(g, stream)
    assert not out.has_node(0) and out.has_edge(1, 2)
    with pytest.raises(PreconditionViolation):
        cascade_node_removal(g, 9)


def test_structure_sharing_does_not_leak():
    g = Snapshot.build(range(100), [(i, i + 1, 0.5) for i in range(99)])
    g2 = apply_all(g, [AddWeight(3, 4, 0.1)])
    # untouched rows are shared, touched ones are not
    assert g._out[50] is g2._out[50]
    assert g._out[3] is not g2._out[3]
    g.audit()
    g2.audit()


@pytest.mark.parametrize("out, inn", [
    # out-row of 0 by ascending probability
    ({0: {1: 0.2, 2: 0.5}, 1: {}, 2: {}},
     {0: {}, 1: {0: 0.2}, 2: {0: 0.5}}),
    # in-row of 2: a probability tie with the larger id first
    ({0: {2: 0.5}, 1: {2: 0.5}, 2: {}},
     {0: {}, 1: {}, 2: {1: 0.5, 0: 0.5}}),
], ids=["out_by_prob", "in_by_id"])
def test_audit_rejects_a_row_out_of_search_order(out, inn):
    with pytest.raises(AssertionError, match="out of order"):
        Snapshot(out, inn).audit()
