import math
import random
import tracemalloc

import pytest

from evoinf import (EmptyGraph, InvalidConfig, Snapshot, degree_select,
                    exact_spread, greedy_select, mia_select, mia_spread,
                    random_select, simulate_spread)
from evoinf.select import LiveEdgeEstimator, MiaSelector
from conftest import greedy_exhaustive, random_graph


def star(p=1.0, leaves=5):
    return Snapshot.build(range(leaves + 1),
                          [(0, i, p) for i in range(1, leaves + 1)])


def test_greedy_two_isolated_nodes():
    g = Snapshot.build([3, 8])
    res = greedy_select(g, 2, 50, 1)
    assert sorted(res.seeds) == [3, 8]
    assert res.marginal_gains == [1.0, 1.0]


def test_greedy_star_center():
    res = greedy_select(star(1.0), 1, 100, 7)
    assert res.seeds == [0]
    assert res.marginal_gains == [6.0]


def test_greedy_chain_gain_matches_exact_oracle():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    expected = exact_spread(g, {0})
    res = greedy_select(g, 1, 200_000, 11)
    assert res.seeds == [0]
    # 3 * std_error of the estimator at 200k runs (var <= 0.6875)
    assert abs(res.marginal_gains[0] - expected) <= 3 * 0.83 / math.sqrt(200_000) + 1e-12


def test_greedy_k_truncates_to_node_count():
    g = Snapshot.build([0, 1])
    res = greedy_select(g, 5, 10, 0)
    assert sorted(res.seeds) == [0, 1]


def test_greedy_lazy_equals_naive_under_shared_estimator():
    rng = random.Random(333)
    for trial in range(8):
        g = random_graph(rng, rng.randint(5, 30), 1.8)
        lazy = greedy_select(g, 5, 300, 17 + trial)
        seeds, gains = greedy_exhaustive(g, 5, 300, 17 + trial)
        assert lazy.seeds == seeds, trial
        assert lazy.marginal_gains == gains


def test_greedy_rejects_runs_below_one():
    g = star(0.5)
    with pytest.raises(InvalidConfig):
        greedy_select(g, 1, 0, 0)
    with pytest.raises(InvalidConfig):
        LiveEdgeEstimator(g, -1, 0)


def test_estimator_samples_are_simulate_spread_runs():
    rng = random.Random(71)
    g = random_graph(rng, 40, 2.0)
    est = LiveEdgeEstimator(g, 700, 23)
    for seeds in ({0}, {1, 7}, {2, 3, 30}):
        assert est.sigma(frozenset(seeds)) == \
            simulate_spread(g, seeds, 700, 23).mean


def test_estimator_memory_does_not_grow_with_runs_times_edges():
    # storing one bool per run per edge would take 3000 * ~8000 = 24 MB
    rng = random.Random(9)
    g = random_graph(rng, 1000, 8.0, prob_low=0.01, prob_high=0.1)
    runs, bound = 3000, 4_000_000
    assert runs * g.num_edges > 5 * bound
    tracemalloc.start()
    try:
        est = LiveEdgeEstimator(g, runs, 4)
        after_init = tracemalloc.get_traced_memory()[1]
        assert after_init < bound, after_init
        assert est.sigma(frozenset({0, 1, 2})) >= 3.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_greedy_deterministic():
    rng = random.Random(5)
    g = random_graph(rng, 15, 1.5)
    a = greedy_select(g, 3, 500, 9)
    b = greedy_select(g, 3, 500, 9)
    assert a.seeds == b.seeds and a.marginal_gains == b.marginal_gains


def test_mia_star_gain():
    res = mia_select(star(0.5), 1, 0.1)
    assert res.seeds == [0]
    assert math.isclose(res.marginal_gains[0], 3.5, rel_tol=1e-12)


def test_mia_two_disjoint_stars():
    edges = [(0, i, 0.5) for i in range(1, 4)] + \
            [(10, i, 0.5) for i in range(11, 14)]
    g = Snapshot.build(list(range(4)) + list(range(10, 14)), edges)
    res = mia_select(g, 2, 0.1)
    assert sorted(res.seeds) == [0, 10]


def test_mia_matches_bruteforce_reselection():
    rng = random.Random(88)
    for trial in range(10):
        g = random_graph(rng, 8, 1.8)
        res = mia_select(g, 4, 0.01)
        # brute force: recompute every candidate's localized marginal from
        # scratch each round
        seeds = []
        gains = []
        for _ in range(4):
            best_v, best_gain = None, None
            for v in sorted(g.nodes()):
                if v in seeds:
                    continue
                gain = mia_spread(g, v, set(seeds), 0.01)
                if best_gain is None or gain > best_gain:
                    best_v, best_gain = v, gain
            seeds.append(best_v)
            gains.append(best_gain)
        assert res.seeds == seeds, trial
        # the selector tracks seed coverage incrementally, so gains may
        # differ from fresh evaluation by rounding only
        for a, b in zip(res.marginal_gains, gains):
            assert math.isclose(a, b, rel_tol=1e-9), trial


def _strict_sorted_scan(sel, candidates):
    """`MiaSelector.best` as first written: strict `>` over the sorted
    candidates, so the smallest id of equal gains wins."""
    best_v, best_gain = None, None
    for v in sorted(candidates):
        if v in sel.seeds:
            continue
        gain = sel.gain(v)
        if best_gain is None or gain > best_gain:
            best_v, best_gain = v, gain
    return best_v, best_gain


def test_mia_best_over_a_set_matches_the_strict_sorted_scan():
    # five equal stars: every center's gain is exactly 2.5, and the ids
    # are chosen so that a set of them does not iterate in sorted order
    centers = [400, 8, 330, 1, 650]
    g = Snapshot.build(
        sorted(c + i for c in centers for i in range(4)),
        [(c, c + i, 0.5) for c in centers for i in range(1, 4)])
    sel = MiaSelector(g, 0.1)
    cand = set(g.nodes())
    assert list(cand) != sorted(cand)
    for want in (1, 8, 330):
        assert sel.best(cand) == _strict_sorted_scan(sel, cand) == (want, 2.5)
        sel.add_seed(want)  # stays in cand: best must skip it
    # the chosen seed has the smallest id of the tie and is excluded
    cand = {1, 650, 400}
    assert sel.best(cand) == _strict_sorted_scan(sel, cand) == (400, 2.5)
    with pytest.raises(EmptyGraph):
        sel.best({1, 8})


def test_mia_best_matches_the_strict_scan_on_tie_heavy_graphs():
    rng = random.Random(17)
    for trial in range(20):
        g = random_graph(rng, 30, 1.5, prob_choices=(0.25, 0.5, 1.0))
        sel = MiaSelector(g, 0.1)
        nodes = sorted(g.nodes())
        for _ in range(5):
            # unordered candidates that may hold already-chosen seeds
            cand = set(rng.sample(nodes, 12)) | set(sel.seeds[:2])
            got = sel.best(cand)
            assert got == _strict_sorted_scan(sel, cand), trial
            sel.add_seed(got[0])


def test_mia_gains_nonincreasing_on_trees():
    rng = random.Random(55)
    for _ in range(10):
        # random out-trees: node i's parent drawn from earlier nodes
        edges = [(rng.randrange(i), i, rng.uniform(0.2, 0.9))
                 for i in range(1, 14)]
        g = Snapshot.build(range(14), edges)
        res = mia_select(g, 6, 0.05)
        for a, b in zip(res.marginal_gains, res.marginal_gains[1:]):
            assert a >= b - 1e-9


def test_degree_select():
    res = degree_select(star(0.5), 1)
    assert res.seeds == [0]
    g = Snapshot.build([0, 1, 2], [(1, 0, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
    res = degree_select(g, 3)
    assert res.seeds == [1, 2, 0]  # degrees 2, 1, 0


def test_random_select_deterministic_and_distinct():
    g = star(0.5, leaves=9)
    a = random_select(g, 4, 123)
    b = random_select(g, 4, 123)
    assert a.seeds == b.seeds
    assert len(set(a.seeds)) == 4
    c = random_select(g, 10, 1)
    assert sorted(c.seeds) == sorted(g.nodes())


def test_all_selectors_reject_empty_graph():
    g = Snapshot.build()
    for call in (lambda: greedy_select(g, 1, 10, 0),
                 lambda: mia_select(g, 1, 0.1),
                 lambda: degree_select(g, 1),
                 lambda: random_select(g, 1, 0)):
        with pytest.raises(EmptyGraph):
            call()


@pytest.mark.parametrize("select, args", [
    (mia_select, (0, 0.1)), (mia_select, (-1, 0.1)), (mia_select, (2, 0.0)),
    (mia_select, (2, 1.0)), (mia_select, (2, math.nan)),
    (greedy_select, (0, 10, 0)), (degree_select, (0,)),
    (random_select, (0, 0)), (random_select, (-1, 0)),
], ids=["mia-k0", "mia-k-1", "mia-theta0", "mia-theta1", "mia-theta-nan",
        "greedy-k0", "degree-k0", "random-k0", "random-k-1"])
def test_selectors_reject_out_of_range_k_and_theta(select, args):
    with pytest.raises(InvalidConfig):
        select(star(0.5), *args)


def test_selectors_return_k_distinct_seeds():
    rng = random.Random(2)
    g = random_graph(rng, 20, 1.5)
    for res in (greedy_select(g, 6, 100, 3), mia_select(g, 6, 0.05),
                degree_select(g, 6), random_select(g, 6, 3)):
        assert len(res.seeds) == 6
        assert len(set(res.seeds)) == 6
        assert len(res.marginal_gains) == 6
