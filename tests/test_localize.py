import math
import random

import pytest

from evoinf import (Snapshot, UnknownNode, activation_prob, local_region,
                    mia_spread, mip)
from evoinf.localize import theta_floor
from conftest import random_graph


# -- brute-force oracles --

def enumerate_simple_paths(g, u, v):
    """All simple u -> v paths with their probabilities."""
    path = [u]
    seen = {u}

    def rec(x, prob):
        if x == v:
            yield prob, tuple(path)
            return
        for y, p in sorted(g.out_neighbors(x).items()):
            if y in seen:
                continue
            seen.add(y)
            path.append(y)
            yield from rec(y, prob * p)
            path.pop()
            seen.remove(y)

    yield from rec(u, 1.0)


def activation_table(region, seeds):
    """Activation probability of every region member, by a full bottom-up
    pass over the in-arborescence."""
    members = region.members
    kids = {u: [] for u in members}
    for u, (_, parent, _) in members.items():
        if parent is not None:
            kids[parent].append(u)
    for lst in kids.values():
        lst.sort()
    # process children before parents: order by decreasing tree depth
    depth = {}
    for u in members:
        d = 0
        x = u
        while members[x][1] is not None:
            x = members[x][1]
            d += 1
        depth[u] = d
    ap = {}
    for u in sorted(members, key=lambda n: (-depth[n], n)):
        if u in seeds:
            ap[u] = 1.0
            continue
        fail = 1.0
        for w in kids[u]:
            fail *= 1.0 - ap[w] * members[w][2]
        ap[u] = 1.0 - fail
    return ap


def test_mip_chain_product():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.4)])
    m = mip(g, 0, 2, 0.1)
    assert m.nodes == (0, 1, 2)
    assert math.isclose(m.prob, 0.2, rel_tol=1e-12)


def test_mip_argmax_and_threshold():
    g = Snapshot.build([0, 1, 2], [(0, 2, 0.3), (0, 1, 0.5), (1, 2, 0.5)])
    m = mip(g, 0, 2, 0.01)
    assert m.nodes == (0, 2) and m.prob == 0.3
    assert mip(g, 0, 2, 0.35) is None
    assert mip(g, 2, 0, 0.01) is None  # no reverse path at all


def test_mip_tie_breaks_to_fewer_hops():
    # 0.2 * 0.5 is exactly 0.1 in floats, tying the direct edge
    g = Snapshot.build([0, 1, 2], [(0, 2, 0.1), (0, 1, 0.2), (1, 2, 0.5)])
    m = mip(g, 0, 2, 0.01)
    assert m.nodes == (0, 2)


def test_mip_tie_breaks_lexicographically():
    # two 2-hop routes with identical probability multisets
    g = Snapshot.build([0, 1, 2, 3],
                       [(0, 1, 0.5), (1, 3, 0.2), (0, 2, 0.2), (2, 3, 0.5)])
    m = mip(g, 0, 3, 0.01)
    assert m.nodes == (0, 1, 3)


def test_mip_unknown_node():
    g = Snapshot.build([0])
    with pytest.raises(UnknownNode):
        mip(g, 0, 9, 0.1)


def test_mip_beats_enumerated_paths():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, 8, 1.6)
        nodes = sorted(g.nodes())
        u, v = rng.sample(nodes, 2)
        best = max((p for p, _ in enumerate_simple_paths(g, u, v)),
                   default=None)
        m = mip(g, u, v, 1e-9)
        if best is None:
            assert m is None
        else:
            assert m is not None
            assert math.isclose(m.prob, best, rel_tol=1e-12)


def test_local_region_trivial_and_star():
    iso = Snapshot.build([7])
    r = local_region(iso, 7, "out", 0.5)
    assert set(r.members) == {7} and r.prob_of(7) == 1.0

    star = Snapshot.build(range(6), [(0, i, 0.2) for i in range(1, 6)])
    r = local_region(star, 0, "out", 0.1)
    assert set(r.members) == set(range(6))
    assert all(r.prob_of(i) == 0.2 for i in range(1, 6))
    assert all(r.parent_of(i) == 0 for i in range(1, 6))


def test_local_region_depth_cut():
    g = Snapshot.build(range(4), [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
    r = local_region(g, 0, "out", 0.2)
    assert set(r.members) == {0, 1, 2}  # 0.25 passes, 0.125 does not


def test_local_region_membership_matches_mip():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 10, 1.8)
        root = rng.choice(sorted(g.nodes()))
        theta = rng.choice([0.3, 0.1, 0.05])
        region = local_region(g, root, "out", theta)
        for v in g.nodes():
            m = mip(g, root, v, theta)
            if v in region.members:
                assert m is not None and m.prob == region.prob_of(v)
            else:
                assert m is None


def test_in_region_mirrors_reverse_reachability():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    r = local_region(g, 2, "in", 0.1)
    assert set(r.members) == {0, 1, 2}
    assert r.parent_of(0) == 1 and r.parent_of(1) == 2
    assert math.isclose(r.prob_of(0), 0.25, rel_tol=1e-12)


def test_activation_prob_cases():
    g = Snapshot.build([0, 1], [(0, 1, 0.3)])
    r = local_region(g, 1, "in", 0.01)
    assert activation_prob(r, {1}) == 1.0
    assert math.isclose(activation_prob(r, {0}), 0.3, rel_tol=1e-12)
    assert activation_prob(r, set()) == 0.0

    g2 = Snapshot.build([0, 1, 2], [(0, 2, 0.5), (1, 2, 0.5)])
    r2 = local_region(g2, 2, "in", 0.01)
    assert math.isclose(activation_prob(r2, {0, 1}), 0.75, rel_tol=1e-12)


def test_activation_outside_region_contributes_nothing():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.05), (1, 2, 0.9)])
    r = local_region(g, 2, "in", 0.5)  # node 0 falls outside
    assert 0 not in r.members
    assert activation_prob(r, {0}) == 0.0


def test_activation_monotone_in_seeds():
    rng = random.Random(71)
    for _ in range(20):
        g = random_graph(rng, 9, 1.5)
        j = rng.choice(sorted(g.nodes()))
        region = local_region(g, j, "in", 0.05)
        nodes = sorted(g.nodes())
        small = set(rng.sample(nodes, 2))
        big = small | set(rng.sample(nodes, 2))
        assert activation_prob(region, small) <= \
            activation_prob(region, big) + 1e-12


def test_activation_table_keys():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    r = local_region(g, 2, "in", 0.1)
    table = activation_table(r, {0})
    assert set(table) == {0, 1, 2}
    assert table[0] == 1.0


def test_mia_spread_examples():
    iso = Snapshot.build([9])
    assert mia_spread(iso, 9, set(), 0.1) == 1.0

    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.5)])
    assert math.isclose(mia_spread(g, 0, set(), 0.1), 1.75, rel_tol=1e-12)
    assert math.isclose(mia_spread(g, 0, {1}, 0.1), 1.125, rel_tol=1e-12)


def test_mia_spread_nonincreasing_in_theta():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, 10, 1.8)
        v = rng.choice(sorted(g.nodes()))
        values = [mia_spread(g, v, set(), th)
                  for th in (0.01, 0.05, 0.1, 0.3, 0.6)]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-12


def test_deterministic_outputs():
    rng = random.Random(99)
    g = random_graph(rng, 12, 2.0)
    a = [mia_spread(g, v, {0, 3}, 0.05) for v in sorted(g.nodes())]
    b = [mia_spread(g, v, {0, 3}, 0.05) for v in sorted(g.nodes())]
    assert a == b
    r1 = local_region(g, 4, "out", 0.05)
    r2 = local_region(g, 4, "out", 0.05)
    assert r1.members == r2.members


def test_sparse_activation_matches_full_table():
    # activation_prob walks only the seeds' tree paths; the full bottom-up
    # table must agree bit for bit at the root
    rng = random.Random(4242)
    for _ in range(40):
        g = random_graph(rng, 12, 2.0)
        root = rng.choice(sorted(g.nodes()))
        region = local_region(g, root, "in", rng.choice([0.2, 0.05, 0.01]))
        seeds = set(rng.sample(sorted(g.nodes()), rng.randint(0, 4)))
        full = activation_table(region, seeds)[root]
        assert activation_prob(region, seeds) == full


def test_bounded_search_agrees_on_targets():
    from evoinf.localize import bounded_region_members
    rng = random.Random(515)
    for _ in range(30):
        g = random_graph(rng, 15, 2.0)
        nodes = sorted(g.nodes())
        root = rng.choice(nodes)
        theta = rng.choice([0.2, 0.05])
        direction = rng.choice(["in", "out"])
        targets = frozenset(rng.sample(nodes, 4))
        full = local_region(g, root, direction, theta).members
        bounded = bounded_region_members(g, root, direction, theta, targets)
        for t in targets:
            assert bounded.get(t) == full.get(t)


def test_theta_boundary_is_inclusive():
    # 0.1 * 0.1 lands on theta = 0.01 exactly (up to rounding): kept
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.1), (1, 2, 0.1)])
    r = local_region(g, 0, "out", 0.01)
    assert 2 in r.members
    floor = theta_floor(0.01)
    assert 0.1 * 0.1 >= floor
    assert 0.01 >= floor
    assert 0.00999 < floor
