import math
import random

import pytest

from evoinf import (InvalidConfig, Snapshot, TooLarge, UnknownNode,
                    exact_spread, simulate_spread)
from evoinf import simulate
from conftest import random_graph


def chain(probs):
    n = len(probs) + 1
    return Snapshot.build(range(n), [(i, i + 1, p) for i, p in enumerate(probs)])


def test_isolated_seed():
    g = Snapshot.build([5])
    est = simulate_spread(g, {5}, 100, 1)
    assert est.mean == 1.0 and est.std_error == 0.0 and est.runs == 100


def test_all_nodes_seeded():
    g = chain([0.5, 0.5])
    est = simulate_spread(g, {0, 1, 2}, 64, 9)
    assert est.mean == 3.0 and est.std_error == 0.0


def test_chain_matches_exact_oracle():
    g = chain([0.5, 0.5])
    expected = exact_spread(g, {0})
    assert math.isclose(expected, 1.75, rel_tol=1e-12)
    est = simulate_spread(g, {0}, 200_000, 42)
    assert abs(est.mean - expected) <= 3 * est.std_error


def test_unknown_seed():
    g = chain([0.5])
    with pytest.raises(UnknownNode):
        simulate_spread(g, {9}, 10, 0)
    with pytest.raises(UnknownNode):
        exact_spread(g, {9})


def test_empty_seed_set():
    g = chain([0.5])
    assert exact_spread(g, set()) == 0.0
    assert simulate_spread(g, set(), 10, 0).mean == 0.0


def test_determinism_bit_identical():
    rng = random.Random(3)
    g = random_graph(rng, 12, 1.5)
    a = simulate_spread(g, {0, 1}, 5000, 123)
    b = simulate_spread(g, {0, 1}, 5000, 123)
    assert a == b
    c = simulate_spread(g, {0, 1}, 5000, 124)
    assert a.mean != c.mean  # different master seed, different draws


def test_runs_below_one_rejected():
    g = chain([0.5])
    for runs in (0, -3):
        with pytest.raises(InvalidConfig):
            simulate_spread(g, {0}, runs, 1)


def test_runs_are_a_prefix_whatever_the_chunking(monkeypatch):
    rng = random.Random(41)
    g = random_graph(rng, 300, 3.0)
    per_chunk = simulate._CHUNK_CELLS // (g.num_nodes + g.num_edges)
    long_runs = 2 * per_chunk + 77
    kernel = simulate._ReachKernel(g)
    full = kernel.counts([0, 5, 9], long_runs, 8)
    prefix = kernel.counts([0, 5, 9], per_chunk + 13, 8)
    assert full[:len(prefix)].tolist() == prefix.tolist()
    # the same runs in chunks of a handful of rows
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 5 * (g.num_nodes
                                                       + g.num_edges))
    monkeypatch.setattr(simulate, "_MIN_ROWS", 1)
    assert kernel.counts([0, 5, 9], long_runs, 8).tolist() == full.tolist()
    assert full.min() >= 3 and full.max() > 3


_M64 = (1 << 64) - 1


def _splitmix(x: int) -> int:
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _M64
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _M64
    return x ^ x >> 31


def plain_counts(g, seeds, runs, master_seed):
    """Per-run reach by a plain-Python BFS over the documented coins: edge
    (u, v) is live in run r iff the top 53 bits of
    mix(mix(mix(s) ^ r) ^ mix(mix(u) ^ v)), read as a uniform, are below p."""
    run_keys = [_splitmix(_splitmix(master_seed % 2 ** 64) ^ r)
                for r in range(runs)]
    out = []
    for key in run_keys:
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            u = stack.pop()
            for v, p in g.out_neighbors(u).items():
                coin = _splitmix(key ^ _splitmix(_splitmix(u) ^ v))
                if v not in reached and (coin >> 11) / 2.0 ** 53 < p:
                    reached.add(v)
                    stack.append(v)
        out.append(len(reached))
    return out


@pytest.mark.parametrize("runs", [5, 70])
def test_kernel_matches_a_plain_bfs_under_the_row_floor(runs):
    # n + m > 8,192: chunks are the row floor, not 2^18 // (n + m) rows
    g = random_graph(random.Random(7), 3000, 2.0,
                     prob_choices=[0.05, 0.2, 0.6])
    assert (simulate._CHUNK_CELLS // (g.num_nodes + g.num_edges)
            < simulate._MIN_ROWS < 70)
    seeds = [0, 11, 2999]
    got = simulate._ReachKernel(g).counts(seeds, runs, 2 ** 64 + 5)
    assert got.tolist() == plain_counts(g, seeds, runs, 2 ** 64 + 5)


@pytest.mark.parametrize("runs", [3, 45])
def test_kernel_matches_a_plain_bfs_when_levels_are_sliced(monkeypatch,
                                                           runs):
    # mostly certain edges, so each level has far more than 7 (run, edge)
    # pairs and expands in slices of a cell or two
    g = random_graph(random.Random(8), 40, 3.0,
                     prob_choices=[1.0, 1.0, 0.4])
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 7)
    seeds = [0, 1]
    got = simulate._ReachKernel(g).counts(seeds, runs, 9)
    want = plain_counts(g, seeds, runs, 9)
    assert got.tolist() == want and len(set(want)) > 1


def test_insertion_order_does_not_change_results():
    rng = random.Random(12)
    g = random_graph(rng, 150, 2.5)
    nodes = sorted(g.nodes())
    edges = sorted(g.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    h = Snapshot.build(nodes, edges)
    assert h == g and list(h.nodes()) != list(g.nodes())
    for seeds in ({0}, {3, 40, 99}):
        assert simulate_spread(h, seeds, 3000, 6) == \
            simulate_spread(g, seeds, 3000, 6)


def test_lazy_regime_matches_analytic_value():
    # on a 400-node chain with p = 0.3 the expected spread from its head is
    # the geometric series sum_k 0.3^k
    g = Snapshot.build(range(400), [(i, i + 1, 0.3) for i in range(399)])
    est = simulate_spread(g, {0}, 30_000, 5)
    expected = sum(0.3 ** k for k in range(400))
    assert abs(est.mean - expected) <= 4 * est.std_error


def test_exact_spread_examples():
    g = Snapshot.build([0, 1], [(0, 1, 0.3)])
    assert math.isclose(exact_spread(g, {0}), 1.3, rel_tol=1e-12)
    diamond = Snapshot.build(
        [0, 1, 2, 3], [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0)])
    assert math.isclose(exact_spread(diamond, {0}), 2.75, rel_tol=1e-12)


def test_exact_spread_cap():
    g = Snapshot.build(range(27), [(i, i + 1, 0.5) for i in range(26)])
    with pytest.raises(TooLarge):
        exact_spread(g, {0})


def test_exact_monotone_in_seeds():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, 6, 1.3)
        nodes = sorted(g.nodes())
        s = set(rng.sample(nodes, 2))
        base = exact_spread(g, s)
        for v in nodes:
            assert exact_spread(g, s | {v}) >= base - 1e-12


def test_exact_submodular():
    rng = random.Random(29)
    for _ in range(12):
        g = random_graph(rng, 6, 1.3)
        nodes = sorted(g.nodes())
        small = set(rng.sample(nodes, 1))
        big = small | set(rng.sample(nodes, 2))
        for v in nodes:
            if v in big:
                continue
            gain_small = exact_spread(g, small | {v}) - exact_spread(g, small)
            gain_big = exact_spread(g, big | {v}) - exact_spread(g, big)
            assert gain_small >= gain_big - 1e-9


def test_simulate_agrees_with_exact_on_random_graphs():
    # scaled-down version of the acceptance gate for fast feedback
    rng = random.Random(101)
    for trial in range(10):
        g = random_graph(rng, 8, 1.5)
        seeds = set(rng.sample(sorted(g.nodes()), rng.randint(1, 3)))
        expected = exact_spread(g, seeds)
        est = simulate_spread(g, seeds, 40_000, 1000 + trial)
        tol = 4 * est.std_error if est.std_error else 1e-9
        assert abs(est.mean - expected) <= tol, (trial, est, expected)
