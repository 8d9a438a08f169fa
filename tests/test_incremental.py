import math
import random

import pytest

from evoinf import (AddEdge, AddNode, DeltaTable, EvolutionContext,
                    InsufficientSeeds, PreconditionViolation, PruneConfig,
                    RemoveEdge, RemoveNode, Snapshot, accumulate_deltas,
                    delta_add_edge, delta_node, delta_remove_edge, diff,
                    incinf_select, mia_select, mia_spread, prune)
from conftest import random_graph, random_stream


def static_delta(ctx, v, theta):
    old = mia_spread(ctx.g_old, v, set(), theta) \
        if ctx.g_old.has_node(v) else 0.0
    new = mia_spread(ctx.g_new, v, set(), theta) \
        if ctx.g_new.has_node(v) else 0.0
    return new - old


def assert_matches_static(ctx, table, theta):
    for v in set(ctx.g_old.nodes()) | set(ctx.g_new.nodes()):
        assert math.isclose(table.get(v), static_delta(ctx, v, theta),
                            rel_tol=1e-6, abs_tol=1e-9), v


# -- single-change kernels --

def test_add_edge_below_theta_is_ignored():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [AddEdge(1, 2, 0.05)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert table.values == {}


def test_add_edge_upstream_gains():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [AddEdge(1, 2, 0.5)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(1), 0.5, rel_tol=1e-12)
    assert math.isclose(table.get(0), 0.25, rel_tol=1e-12)
    assert table.get(2) == 0.0
    assert_matches_static(ctx, table, 0.1)


def test_add_edge_weaker_than_existing_path_is_ignored():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.6), (1, 2, 0.5)])  # best 0->2: 0.3
    ctx = EvolutionContext.from_stream(g, [AddEdge(0, 2, 0.2)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert table.values == {}


def test_add_edge_improvement_counts_difference_only():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.6), (1, 2, 0.5)])
    ctx = EvolutionContext.from_stream(g, [AddEdge(0, 2, 0.8)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(0), 0.8 - 0.3, rel_tol=1e-12)
    assert_matches_static(ctx, table, 0.1)


def test_remove_only_edge():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [RemoveEdge(0, 1)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(0), -0.5, rel_tol=1e-12)
    assert table.get(1) == 0.0


def test_remove_chain_edge_hits_upstream():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    ctx = EvolutionContext.from_stream(g, [RemoveEdge(1, 2)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(1), -0.5, rel_tol=1e-12)
    assert math.isclose(table.get(0), -0.25, rel_tol=1e-12)


def test_remove_edge_off_best_path_changes_nothing():
    g = Snapshot.build([0, 1, 2],
                       [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.3)])
    ctx = EvolutionContext.from_stream(g, [RemoveEdge(0, 2)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert table.values == {}


def test_remove_falls_back_to_detour():
    g = Snapshot.build([0, 1, 2],
                       [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.95)])
    ctx = EvolutionContext.from_stream(g, [RemoveEdge(0, 2)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    # 0 falls from 0.95 to the 0.81 detour
    assert math.isclose(table.get(0), 0.81 - 0.95, rel_tol=1e-9)
    assert_matches_static(ctx, table, 0.1)


def test_node_lifecycle_deltas():
    g = Snapshot.build([0])
    ctx = EvolutionContext.from_stream(g, [AddNode(7)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert table.get(7) == 1.0 and 7 in table.born and 7 not in table.removed

    ctx = EvolutionContext.from_stream(g, [AddNode(7), RemoveNode(7)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert table.get(7) == 0.0 and 7 in table.removed


def test_kernels_validate_changes():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [])
    ctx.reset()
    with pytest.raises(PreconditionViolation):
        delta_add_edge(ctx, AddEdge(0, 1, 0.5), 0.1, DeltaTable())
    with pytest.raises(PreconditionViolation):
        delta_add_edge(ctx, AddEdge(0, 9, 0.5), 0.1, DeltaTable())
    with pytest.raises(PreconditionViolation):
        delta_remove_edge(ctx, RemoveEdge(1, 0), 0.1, DeltaTable())
    with pytest.raises(PreconditionViolation):
        delta_node(ctx, AddEdge(0, 1, 0.5), DeltaTable())


def test_accumulate_rejects_seed_set():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [AddEdge(1, 2, 0.5)])
    with pytest.raises(ValueError):
        accumulate_deltas(ctx, frozenset({2}), 0.1)
    with pytest.raises(ValueError):
        accumulate_deltas(ctx, [2], 0.1)


# -- stream accumulation --

def test_accumulate_empty_stream():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [])
    assert accumulate_deltas(ctx, frozenset(), 0.1).values == {}


def test_accumulate_below_theta_stream():
    g = Snapshot.build([0, 1, 2])
    ctx = EvolutionContext.from_stream(
        g, [AddEdge(0, 1, 0.05), AddEdge(1, 2, 0.09)])
    assert accumulate_deltas(ctx, frozenset(), 0.1).values == {}


def test_accumulate_matches_static_differencing_small():
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    ctx = EvolutionContext.from_stream(g, [AddNode(2), AddEdge(1, 2, 0.5)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert_matches_static(ctx, table, 0.1)


def test_hub_source_edges_match_static_differencing():
    # many nodes reach the source, few leave the target: exercises the
    # per-target kernel path chosen for hub sources
    nodes = list(range(40))
    edges = [(i, 30, 0.6) for i in range(25)] + [(i + 1, i, 0.3)
                                                 for i in range(10)]
    edges += [(31, 32, 0.7), (32, 33, 0.7)]
    g = Snapshot.build(nodes, edges)
    stream = [AddEdge(30, 31, 0.8), RemoveEdge(30, 31)]
    for theta in (0.1, 0.01):
        ctx = EvolutionContext.from_stream(g, stream[:1])
        assert_matches_static(ctx, accumulate_deltas(ctx, frozenset(), theta),
                              theta)
        g2 = ctx.g_new
        ctx2 = EvolutionContext.from_stream(g2, stream[1:])
        assert_matches_static(ctx2,
                              accumulate_deltas(ctx2, frozenset(), theta),
                              theta)


def test_accumulate_matches_static_differencing_randomized():
    rng = random.Random(424)
    for trial in range(12):
        g = random_graph(rng, 40, 2.0)
        stream = random_stream(rng, g, 30)
        theta = rng.choice([0.1, 0.01])
        ctx = EvolutionContext.from_stream(g, stream)
        table = accumulate_deltas(ctx, frozenset(), theta)
        assert_matches_static(ctx, table, theta)


def test_accumulate_handles_weight_changes_via_decomposition():
    from evoinf import AddWeight, DecWeight
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.4)])
    stream = [AddWeight(1, 2, 0.3), DecWeight(0, 1, 0.2)]
    ctx = EvolutionContext.from_stream(g, stream)
    table = accumulate_deltas(ctx, frozenset(), 0.05)
    assert_matches_static(ctx, table, 0.05)
    # kernel stream carries only the four kernel change types
    kinds = {type(c).__name__ for c in ctx.kernel_stream}
    assert kinds <= {"AddEdge", "RemoveEdge", "AddNode", "RemoveNode"}


def test_weight_change_across_the_threshold():
    from evoinf import AddWeight, DecWeight
    # a sub-theta edge bumped over theta starts contributing...
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.08)])
    ctx = EvolutionContext.from_stream(g, [AddWeight(1, 2, 0.4)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(1), 0.48, rel_tol=1e-9)
    assert_matches_static(ctx, table, 0.1)
    # ...and one dropped under theta stops contributing
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.4)])
    ctx = EvolutionContext.from_stream(g, [DecWeight(1, 2, 0.35)])
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    assert math.isclose(table.get(1), -0.4, rel_tol=1e-9)
    assert_matches_static(ctx, table, 0.1)


def test_order_insensitivity_for_disjoint_regions():
    # two disconnected components; interleavings must agree
    g = Snapshot.build(range(6), [(0, 1, 0.5), (3, 4, 0.5)])
    a = [AddEdge(1, 2, 0.6), AddEdge(4, 5, 0.7)]
    b = [AddEdge(4, 5, 0.7), AddEdge(1, 2, 0.6)]
    ta = accumulate_deltas(EvolutionContext.from_stream(g, a), frozenset(), 0.1)
    tb = accumulate_deltas(EvolutionContext.from_stream(g, b), frozenset(), 0.1)
    assert ta.values.keys() == tb.values.keys()
    for v in ta.values:
        assert math.isclose(ta.get(v), tb.get(v), rel_tol=1e-12)


def test_context_invariant_checked():
    g = Snapshot.build([0, 1])
    g_wrong = Snapshot.build([0, 1], [(0, 1, 0.5)])
    with pytest.raises(ValueError):
        EvolutionContext(g, g_wrong, [])
    ctx = EvolutionContext.from_snapshots(g, g_wrong)
    assert ctx.stream == diff(g, g_wrong)


# -- pruning --

def make_ctx(nodes, prev_extra=()):
    g = Snapshot.build(nodes)
    return EvolutionContext.from_stream(g, [])


def test_prune_keeps_only_previous_seed_when_quiet():
    table = DeltaTable()
    ctx = make_ctx([0, 1, 2])
    assert prune(table, PruneConfig(1.0, [1]), ctx, 1) == {1}


def test_prune_strictly_better_growers():
    table = DeltaTable(values={5: 3.0, 1: 2.0, 4: 1.0})
    ctx = make_ctx([0, 1, 2, 4, 5])
    cand = prune(table, PruneConfig(1.0, [1]), ctx, 1)
    assert cand == {1, 5}


def test_prune_birth_delta_is_not_growth():
    # a fresh isolated node carries +1 but did not out-grow anyone
    table = DeltaTable(values={9: 1.0}, born={9})
    ctx = make_ctx([0, 1, 9])
    assert prune(table, PruneConfig(1.0, [1]), ctx, 1) == {1}
    # a fresh node that also gained edges does qualify
    table = DeltaTable(values={9: 1.7}, born={9})
    assert prune(table, PruneConfig(1.0, [1]), ctx, 1) == {1, 9}


def test_prune_negative_reference_applies_degree_filter():
    rng = random.Random(10)
    g_old = random_graph(rng, 100, 1.5)
    stream = random_stream(rng, g_old, 30, kinds=("ae", "re"))
    ctx = EvolutionContext.from_stream(g_old, stream)
    values = {v: rng.uniform(-0.5, 2.0) for v in range(0, 100, 3)}
    values[7] = -1.0
    table = DeltaTable(values=values)
    eta = 0.05
    cand = prune(table, PruneConfig(eta, [7]), ctx, 1)
    top = ctx.top_degree_set(eta) | ctx.top_increase_set(eta)
    for v in cand - {7}:
        assert table.growth(v) > -1.0
        assert v in top
    assert 7 in cand
    # brute-force reference for the qualifying set
    expected = {v for v in top
                if ctx.g_new.has_node(v) and table.growth(v) > -1.0}
    expected.add(7)
    assert cand == expected


def test_prune_removed_previous_seed_falls_back_to_degree_rule():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (0, 2, 0.5)])
    stream = [RemoveEdge(0, 1), RemoveEdge(0, 2), RemoveNode(0)]
    ctx = EvolutionContext.from_stream(g, stream)
    table = accumulate_deltas(ctx, frozenset(), 0.1)
    cand = prune(table, PruneConfig(1.0, [0]), ctx, 1)
    assert 0 not in cand
    assert cand <= {1, 2}
    assert cand


def test_prune_percentile_boundary_uses_ceiling():
    nodes = list(range(10))
    edges = [(i, (i + 1) % 10, 0.5) for i in range(5)]  # first 5 have degree 1
    g = Snapshot.build(nodes, edges)
    ctx = EvolutionContext.from_stream(g, [])
    assert len(ctx.top_degree_set(0.05)) == 1   # ceil(0.5)
    assert len(ctx.top_degree_set(0.25)) == 3   # ceil(2.5)


def test_prune_safety_at_full_eta():
    # with eta=1.0 and a non-negative reference delta, the true argmax of
    # the localized marginal on g_new is a candidate whenever it out-grew
    # the reference seed or is the reference seed itself; instances where
    # the argmax was genuinely pruned are the algorithm's documented
    # approximation and are counted, not failed
    rng = random.Random(909)
    pruned_argmax = 0
    checked = 0
    for trial in range(20):
        g = random_graph(rng, 30, 1.8)
        stream = random_stream(rng, g, 20, kinds=("an", "ae", "aw"))
        ctx = EvolutionContext.from_stream(g, stream)
        prev = mia_select(g, 1, 0.05)
        table = accumulate_deltas(ctx, frozenset(), 0.05)
        d = table.growth(prev.seeds[0])
        if d < 0:
            continue
        checked += 1
        cand = prune(table, PruneConfig(1.0, prev.seeds), ctx, 1)
        best_v, best_gain = None, None
        for v in sorted(ctx.g_new.nodes()):
            gain = mia_spread(ctx.g_new, v, set(), 0.05)
            if best_gain is None or gain > best_gain:
                best_v, best_gain = v, gain
        if table.growth(best_v) > d or best_v == prev.seeds[0]:
            assert best_v in cand, trial
        elif best_v not in cand:
            pruned_argmax += 1
    assert checked >= 10
    # the qualification itself is exact; pruned argmaxes stay a minority
    assert pruned_argmax <= checked // 2, (pruned_argmax, checked)


def test_prune_iteration_bounds():
    table = DeltaTable()
    ctx = make_ctx([0, 1])
    with pytest.raises(ValueError):
        prune(table, PruneConfig(0.5, [0]), ctx, 2)


# -- incremental selection --

def test_incinf_quiet_stream_keeps_previous_seeds():
    g = Snapshot.build(range(6), [(0, i, 0.5) for i in range(1, 4)] +
                       [(1, 4, 0.5)])
    prev = mia_select(g, 2, 0.1)
    ctx = EvolutionContext.from_stream(g, [AddNode(10), AddNode(11)])
    res = incinf_select(ctx, prev, 2, 0.1, PruneConfig(0.5, prev.seeds))
    assert res.seeds == prev.seeds


def test_incinf_new_node_overtakes():
    g = Snapshot.build(range(4), [(0, i, 0.5) for i in (1, 2, 3)])
    prev = mia_select(g, 1, 0.1)
    stream = [AddNode(9)] + [AddNode(10 + i) for i in range(5)] + \
             [AddEdge(9, 10 + i, 0.9) for i in range(5)]
    ctx = EvolutionContext.from_stream(g, stream)
    res = incinf_select(ctx, prev, 1, 0.1, PruneConfig(0.5, prev.seeds))
    assert res.seeds == [9]


def test_incinf_unpruned_equals_static_reselection():
    rng = random.Random(606)
    for trial in range(10):
        g = random_graph(rng, 25, 1.8)
        stream = random_stream(rng, g, 15)
        ctx = EvolutionContext.from_stream(g, stream)
        prev = mia_select(g, 4, 0.05)
        inc = incinf_select(ctx, prev, 4, 0.05, prune_enabled=False)
        ref = mia_select(ctx.g_new, 4, 0.05)
        assert inc.seeds == ref.seeds, trial
        assert inc.marginal_gains == ref.marginal_gains, trial


def test_incinf_never_returns_removed_or_duplicate_nodes():
    rng = random.Random(77)
    for trial in range(8):
        g = random_graph(rng, 30, 1.5)
        stream = random_stream(rng, g, 25)
        ctx = EvolutionContext.from_stream(g, stream)
        prev = mia_select(g, 5, 0.05)
        res = incinf_select(ctx, prev, 5, 0.05,
                            PruneConfig(0.2, prev.seeds))
        assert len(res.seeds) == 5 == len(set(res.seeds))
        for s in res.seeds:
            assert ctx.g_new.has_node(s)


def test_incinf_requires_enough_previous_seeds():
    g = Snapshot.build(range(8), [(0, i, 0.5) for i in range(1, 5)])
    prev = mia_select(g, 1, 0.1)
    ctx = EvolutionContext.from_stream(g, [AddNode(20)])
    with pytest.raises(InsufficientSeeds):
        incinf_select(ctx, prev, 3, 0.1, PruneConfig(0.5, prev.seeds))
    res = incinf_select(ctx, prev, 3, 0.1, PruneConfig(0.5, prev.seeds),
                        pad=True)
    assert len(res.seeds) == 3


def test_incinf_reports_prune_ratios():
    g = Snapshot.build(range(5), [(0, i, 0.5) for i in range(1, 5)])
    prev = mia_select(g, 2, 0.1)
    ctx = EvolutionContext.from_stream(g, [AddNode(9)])
    res = incinf_select(ctx, prev, 2, 0.1, PruneConfig(0.5, prev.seeds))
    ratios = res.params["prune_ratios"]
    assert len(ratios) == 2
    assert all(0.0 < r <= 1.0 for r in ratios)


def test_delta_table_csv(tmp_path):
    table = DeltaTable(values={3: 1.5, 1: -0.25})
    out = tmp_path / "d.csv"
    with open(out, "w") as fh:
        table.write_csv(fh)
    assert out.read_text() == "node,delta\n1,-0.25\n3,1.5\n"
