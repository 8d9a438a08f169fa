"""Acceptance suite: one test per release criterion, fixed corpus seeds.

Each test prints a PASS line on success; the terminal summary repeats one
line per criterion. Criteria 4 and 6 share the same instance batch.
"""

import gc
import math
import random
import time

import pytest

from evoinf import (EvolutionContext, GenConfig, PruneConfig,
                    accumulate_deltas, degree_distribution, exact_spread,
                    generate_evolving, greedy_select, incinf_select,
                    influence_degree_rank, local_region, mia_select,
                    mia_spread, pa_correlation, powerlaw_slope,
                    random_select, simulate_spread, activation_prob,
                    apply_all, diff)
from conftest import (greedy_exhaustive, random_graph, random_stream,
                      record_acceptance_detail)


def _report(cid: str, detail: str):
    record_acceptance_detail(cid, detail)
    print(f"\nACCEPTANCE {cid}: PASS ({detail})")


# -- criterion 1 ----------------------------------------------------------

def test_c1_oracle_agreement_simulation_vs_enumeration():
    """simulate_spread (100k runs) within 4 std errors of exact_spread on
    100 random graphs with <= 15 edges, in under two minutes."""
    t0 = time.perf_counter()
    rng = random.Random(20_001)
    for trial in range(100):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.8, 15 / n))
        assert g.num_edges <= 15
        k = rng.randint(1, min(3, n))
        seeds = set(rng.sample(sorted(g.nodes()), k))
        expected = exact_spread(g, seeds)
        est = simulate_spread(g, seeds, 100_000, 50_000 + trial)
        tol = 4 * est.std_error if est.std_error > 0 else 1e-9
        assert abs(est.mean - expected) <= tol, \
            (trial, est.mean, expected, est.std_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("C1", f"100 graphs in {elapsed:.1f}s")


# -- criterion 2 ----------------------------------------------------------

def test_c2_incremental_matches_static_recomputation():
    """accumulate_deltas with no seeds equals per-node static localized
    spread differencing, every node, 200 random streams, 1e-6 relative."""
    t0 = time.perf_counter()
    for trial in range(200):
        rng = random.Random(30_000 + trial)
        g = random_graph(rng, 100, rng.uniform(1.5, 3.0))
        stream = random_stream(rng, g, 50)
        assert len(stream) == 50
        theta = 0.1 if trial % 2 == 0 else 0.01
        ctx = EvolutionContext.from_stream(g, stream)
        table = accumulate_deltas(ctx, frozenset(), theta)
        for v in set(ctx.g_old.nodes()) | set(ctx.g_new.nodes()):
            old = mia_spread(ctx.g_old, v, set(), theta) \
                if ctx.g_old.has_node(v) else 0.0
            new = mia_spread(ctx.g_new, v, set(), theta) \
                if ctx.g_new.has_node(v) else 0.0
            assert math.isclose(table.get(v), new - old,
                                rel_tol=1e-6, abs_tol=1e-9), \
                (trial, theta, v, table.get(v), new - old)
    _report("C2", f"200 streams in {time.perf_counter() - t0:.1f}s")


# -- criterion 3 ----------------------------------------------------------

def test_c3_unpruned_incremental_equals_static_selection():
    """With pruning disabled, incinf_select returns mia_select's seeds,
    seed for seed, on 50 random evolving instances."""
    for trial in range(50):
        rng = random.Random(40_000 + trial)
        n = rng.randint(10, 50)
        g = random_graph(rng, n, rng.uniform(1.2, 2.5))
        stream = random_stream(rng, g, rng.randint(5, 25))
        theta = rng.choice([0.1, 0.05, 0.01])
        k = rng.randint(1, 5)
        ctx = EvolutionContext.from_stream(g, stream)
        prev = mia_select(g, k, theta)
        inc = incinf_select(ctx, prev, k, theta, prune_enabled=False)
        ref = mia_select(ctx.g_new, k, theta)
        assert inc.seeds == ref.seeds, (trial, inc.seeds, ref.seeds)
    _report("C3", "50 instances, seed-for-seed")


# -- criteria 4 and 6 share one instance batch ----------------------------

@pytest.fixture(scope="module")
def pruning_batch():
    results = []
    for inst in range(10):
        cfg = GenConfig(n0=60, steps=6, nodes_per_step=320, m=3,
                        prob_policy="trivalency", master_seed=60_000 + inst,
                        extra_edge_fraction=0.6)
        snaps, streams = generate_evolving(cfg)
        g_old, g_new = snaps[-2], snaps[-1]
        assert 1500 <= g_new.num_nodes <= 2500
        theta, eta, k = 1 / 100, 0.05, 10
        prev = mia_select(g_old, k, theta)
        ctx = EvolutionContext.from_stream(g_old, streams[-1])
        inc = incinf_select(ctx, prev, k, theta,
                            PruneConfig(eta, prev.seeds))
        ref = mia_select(g_new, k, theta)
        ev_inc = simulate_spread(g_new, inc.seeds, 2000, 777)
        ev_ref = simulate_spread(g_new, ref.seeds, 2000, 777)
        results.append({
            "instance": inst,
            "quality": ev_inc.mean / ev_ref.mean,
            "ratios": inc.params["prune_ratios"],
        })
    return results


def test_c4_pruned_seed_quality(pruning_batch):
    """MC-evaluated spread of pruned incremental seeds stays within 5% of
    static reselection, averaged over 10 instances (~2000 nodes, K=10,
    eta=5%, theta=1/100)."""
    qualities = [r["quality"] for r in pruning_batch]
    mean_quality = sum(qualities) / len(qualities)
    assert mean_quality >= 0.95, qualities
    _report("C4", f"mean spread ratio {mean_quality:.4f}")


def test_c6_pruning_ratio(pruning_batch):
    """Mean per-iteration candidate ratio stays at or below 15% of the
    node count on the criterion-4 instances."""
    per_instance = []
    for r in pruning_batch:
        ratios = r["ratios"]
        assert len(ratios) == 10  # reported per iteration
        per_instance.append(sum(ratios) / len(ratios))
    overall = sum(per_instance) / len(per_instance)
    assert overall <= 0.15, per_instance
    _report("C6", f"mean candidate ratio {overall:.4f}")


# -- criterion 5 ----------------------------------------------------------

def test_c5_speedup_on_large_transition():
    """Incremental reselection at least twice as fast as full static
    reselection on a ~100k-node preferential-attachment transition."""
    cfg = GenConfig(n0=200, steps=40, nodes_per_step=2500, m=3,
                    prob_policy="trivalency", master_seed=31)
    snaps, streams = generate_evolving(cfg)
    g_old, g_new = snaps[-2], snaps[-1]
    assert g_new.num_nodes >= 100_000
    theta, k = 1 / 300, 10
    prev = mia_select(g_old, k, theta)
    ctx = EvolutionContext.from_stream(g_old, streams[-1])
    # a collection of the generator's garbage must not land in either timing
    gc.collect()
    inc = incinf_select(ctx, prev, k, theta, PruneConfig(0.05, prev.seeds))
    gc.collect()
    ref = mia_select(g_new, k, theta)
    assert inc.wall_time <= 0.5 * ref.wall_time, \
        (inc.wall_time, ref.wall_time)
    _report("C5", f"incremental {inc.wall_time:.2f}s vs static "
                  f"{ref.wall_time:.2f}s "
                  f"({ref.wall_time / inc.wall_time:.1f}x)")


# -- criterion 7 ----------------------------------------------------------

def test_c7_analytics_sanity():
    """Generator output shows the expected evolution fingerprints: a
    power-law degree tail, degree-proportional attachment, and influential
    nodes drawn from the high-degree tier."""
    snaps, _ = generate_evolving(
        GenConfig(n0=20, steps=1, nodes_per_step=5000, m=3,
                  prob_policy="trivalency", master_seed=3))
    slope = powerlaw_slope(degree_distribution(snaps[-1], kind="total"))
    assert -4.0 <= slope <= -1.5, slope

    snaps, _ = generate_evolving(
        GenConfig(n0=50, steps=2, nodes_per_step=2500, m=3,
                  prob_policy="trivalency", master_seed=5))
    curve = pa_correlation(snaps[1], snaps[2])
    qualified = [(b, mean) for b, (mean, n) in curve.items() if n >= 30]
    assert len(qualified) >= 3
    for (_, a), (_, b) in zip(qualified, qualified[1:]):
        assert b >= a, qualified

    snaps, _ = generate_evolving(
        GenConfig(n0=30, steps=2, nodes_per_step=800, m=3,
                  prob_policy="trivalency", master_seed=11,
                  extra_edge_fraction=0.3))
    g = snaps[-1]
    seeds = mia_select(g, 10, 0.01).seeds
    ranks = influence_degree_rank(g, seeds, kind="out")
    assert max(ranks) <= 0.10 * g.num_nodes, ranks
    _report("C7", f"slope {slope:.2f}, {len(qualified)} attachment buckets, "
                  f"max seed degree rank {max(ranks)}/{g.num_nodes}")


# -- criterion 8 ----------------------------------------------------------

def test_c8_property_suites():
    """Compact reruns of the randomized property suites with fixed seeds:
    lazy greedy equivalence, spread monotonicity and submodularity,
    activation monotonicity, diff/apply round trip, deterministic replay."""
    # lazy greedy == exhaustive re-evaluation on the same samples
    rng = random.Random(80_001)
    for _ in range(5):
        g = random_graph(rng, rng.randint(8, 30), 1.8)
        lazy = greedy_select(g, 4, 200, 5)
        assert lazy.seeds == greedy_exhaustive(g, 4, 200, 5)[0]

    # exact spread is monotone and submodular
    rng = random.Random(80_002)
    for _ in range(8):
        g = random_graph(rng, 6, 1.4)
        nodes = sorted(g.nodes())
        small = set(rng.sample(nodes, 1))
        big = small | set(rng.sample(nodes, 2))
        for v in nodes:
            assert exact_spread(g, small | {v}) >= \
                exact_spread(g, small) - 1e-12
            if v not in big:
                gain_small = exact_spread(g, small | {v}) - \
                    exact_spread(g, small)
                gain_big = exact_spread(g, big | {v}) - exact_spread(g, big)
                assert gain_small >= gain_big - 1e-9

    # activation probability is monotone in the seed set
    rng = random.Random(80_003)
    for _ in range(10):
        g = random_graph(rng, 9, 1.6)
        region = local_region(g, rng.choice(sorted(g.nodes())), "in", 0.05)
        nodes = sorted(g.nodes())
        small = set(rng.sample(nodes, 2))
        big = small | set(rng.sample(nodes, 2))
        assert activation_prob(region, small) <= \
            activation_prob(region, big) + 1e-12

    # diff / apply round trip
    rng = random.Random(80_004)
    for _ in range(10):
        g = random_graph(rng, 15, 1.5)
        stream = random_stream(rng, g, 20)
        target = apply_all(g, stream)
        assert apply_all(g, diff(g, target)) == target

    # deterministic replay contracts
    cfg = GenConfig(n0=6, steps=2, nodes_per_step=20, m=2,
                    prob_policy="trivalency", master_seed=9,
                    extra_edge_fraction=0.2)
    s1, st1 = generate_evolving(cfg)
    s2, st2 = generate_evolving(cfg)
    assert st1 == st2 and all(a == b for a, b in zip(s1, s2))
    g = s1[-1]
    assert simulate_spread(g, {0}, 3000, 11) == simulate_spread(g, {0}, 3000, 11)
    assert random_select(g, 3, 2).seeds == random_select(g, 3, 2).seeds
    seeds = sorted(g.nodes())[:2]
    assert local_region(g, seeds[0], "out", 0.01) == \
        local_region(g, seeds[0], "out", 0.01)
    _report("C8", "property suites green")
