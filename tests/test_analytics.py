import pytest

from evoinf import (GenConfig, Snapshot, UnknownNode, degree_distribution,
                    degree_ranks, generate_evolving, growth_stats,
                    influence_degree_rank, pa_correlation, powerlaw_slope)


def test_histogram_counts_sum_to_node_count():
    g = Snapshot.build(range(7), [(0, i, 0.5) for i in range(1, 5)])
    hist = degree_distribution(g, kind="out")
    assert sum(hist.values()) == 7
    assert hist[4] == 1           # the hub, bin [4, 8)
    assert hist[0] == 6           # everyone else has out-degree 0


def test_regular_graph_single_bucket():
    g = Snapshot.build(range(6), [(i, (i + 1) % 6, 0.5) for i in range(6)])
    hist = degree_distribution(g, kind="total")
    assert hist == {2: 6}


def test_log_bins_are_powers_of_two():
    g = Snapshot.build(range(20),
                       [(0, i, 0.5) for i in range(1, 18)])
    hist = degree_distribution(g, kind="out")
    assert set(hist) <= {0, 1, 2, 4, 8, 16}
    assert hist[16] == 1


def test_powerlaw_slope_on_constructed_powerlaw():
    # counts ~ d^-2 over doubling bins
    hist = {1: 4096, 2: 1024, 4: 256, 8: 64, 16: 16, 32: 4, 64: 1}
    slope = powerlaw_slope(hist)
    assert slope == pytest.approx(-3.0, abs=0.2)  # density slope = -2 - 1
    with pytest.raises(ValueError):
        powerlaw_slope({0: 10})


def test_generator_degree_distribution_is_heavy_tailed():
    snaps, _ = generate_evolving(
        GenConfig(n0=20, steps=1, nodes_per_step=3000, m=3,
                  prob_policy="trivalency", master_seed=3))
    slope = powerlaw_slope(degree_distribution(snaps[-1], kind="total"))
    assert -4.0 <= slope <= -1.5


def test_pa_correlation_monotone_on_generator_output():
    snaps, _ = generate_evolving(
        GenConfig(n0=50, steps=2, nodes_per_step=2500, m=3,
                  prob_policy="trivalency", master_seed=5))
    curve = pa_correlation(snaps[1], snaps[2])
    qualified = [(b, mean) for b, (mean, n) in curve.items() if n >= 30]
    assert len(qualified) >= 3
    for (_, a), (_, b) in zip(qualified, qualified[1:]):
        assert b >= a


def test_pa_correlation_ignores_departed_nodes():
    a = Snapshot.build([0, 1, 2], [(0, 1, 0.5)])
    b = Snapshot.build([0, 1], [(0, 1, 0.5), (1, 0, 0.5)])  # 2 left
    curve = pa_correlation(a, b)
    assert sum(n for _, n in curve.values()) == 2


def test_pa_correlation_counts_only_new_in_edges():
    a = Snapshot.build(range(5), [(0, 1, 0.5), (2, 1, 0.5), (3, 1, 0.5),
                                  (4, 2, 0.5)])
    # (0, 1) and (2, 1) go, (4, 1) and (0, 2) come: node 1 loses net in-degree
    # but still acquired one in-edge
    b = Snapshot.build(range(5), [(3, 1, 0.5), (4, 1, 0.5), (4, 2, 0.5),
                                  (0, 2, 0.5)])
    assert pa_correlation(a, b) == {0: (0.0, 3), 1: (1.0, 1), 2: (1.0, 1)}
    # reversed: 1 gets (0, 1) and (2, 1) back, 2 gains nothing
    assert pa_correlation(b, a) == {0: (0.0, 3), 2: (1.0, 2)}


def test_pa_correlation_reversed_generator_output_gains_nothing():
    snaps, _ = generate_evolving(
        GenConfig(n0=10, steps=2, nodes_per_step=20, m=2, master_seed=1))
    curve = pa_correlation(snaps[1], snaps[0])
    assert curve and all(mean == 0.0 for mean, _ in curve.values())


def test_growth_stats():
    snaps, _ = generate_evolving(
        GenConfig(n0=5, steps=3, nodes_per_step=10, m=2, master_seed=2))
    rows = growth_stats(snaps)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert [r[1] for r in rows] == [5, 15, 25, 35]
    assert all(rows[i][2] <= rows[i + 1][2] for i in range(3))


def test_degree_ranks_break_ties_by_id():
    g = Snapshot.build([0, 1, 2], [(1, 0, 0.5), (2, 0, 0.5)])
    ranks = degree_ranks(g, kind="out")
    assert ranks == {1: 1, 2: 2, 0: 3}


def test_influence_degree_rank_star():
    g = Snapshot.build(range(6), [(0, i, 0.5) for i in range(1, 6)])
    assert influence_degree_rank(g, [0], kind="out") == [1]
    assert influence_degree_rank(g, [0], kind="in") == [6]
    with pytest.raises(UnknownNode):
        influence_degree_rank(g, [0, 9999])
