import math
import random

import pytest

from evoinf import (EmptyGraph, EvolutionContext, GraphBuilder, InvalidConfig,
                    Snapshot, UnknownNode, activation_prob, apply_all,
                    degree_select, exact_spread, greedy_select, local_region,
                    mia_select, mia_spread, random_select, simulate_spread)
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


def region_path(region, v):
    """Best root -> v path of an out-region, read off its parent pointers."""
    path = [v]
    while region.parent_of(path[-1]) is not None:
        path.append(region.parent_of(path[-1]))
    return tuple(reversed(path))


def test_mip_chain_product():
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.5), (1, 2, 0.4)])
    r = local_region(g, 0, "out", 0.1)
    assert region_path(r, 2) == (0, 1, 2)
    assert math.isclose(r.prob_of(2), 0.2, rel_tol=1e-12)


def test_mip_argmax_and_threshold():
    g = Snapshot.build([0, 1, 2], [(0, 2, 0.3), (0, 1, 0.5), (1, 2, 0.5)])
    r = local_region(g, 0, "out", 0.01)
    assert region_path(r, 2) == (0, 2) and r.prob_of(2) == 0.3
    assert 2 not in local_region(g, 0, "out", 0.35)
    assert 0 not in local_region(g, 2, "out", 0.01)  # no reverse path at all


def test_mip_tie_breaks_to_fewer_hops():
    # 0.2 * 0.5 is exactly 0.1 in floats, tying the direct edge
    g = Snapshot.build([0, 1, 2], [(0, 2, 0.1), (0, 1, 0.2), (1, 2, 0.5)])
    assert region_path(local_region(g, 0, "out", 0.01), 2) == (0, 2)


def test_mip_tie_breaks_lexicographically():
    # two 2-hop routes with identical probability multisets
    g = Snapshot.build([0, 1, 2, 3],
                       [(0, 1, 0.5), (1, 3, 0.2), (0, 2, 0.2), (2, 3, 0.5)])
    assert region_path(local_region(g, 0, "out", 0.01), 3) == (0, 1, 3)


def test_mip_unknown_node():
    g = Snapshot.build([0])
    with pytest.raises(UnknownNode):
        local_region(g, 9, "out", 0.1)


def test_mip_beats_enumerated_paths():
    # the parent pointers spell a real path whose product is the best one
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, 8, 1.6)
        nodes = sorted(g.nodes())
        u, v = rng.sample(nodes, 2)
        paths = {path: p for p, path in enumerate_simple_paths(g, u, v)}
        region = local_region(g, u, "out", 1e-9)
        if not paths:
            assert v not in region
        else:
            path = region_path(region, v)
            assert paths[path] == region.prob_of(v)
            assert math.isclose(region.prob_of(v), max(paths.values()),
                                rel_tol=1e-12)


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
    # a node is a member iff its best enumerated path clears the theta floor
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 10, 1.8)
        root = rng.choice(sorted(g.nodes()))
        theta = rng.choice([0.3, 0.1, 0.05])
        region = local_region(g, root, "out", theta)
        for v in g.nodes():
            best = max((p for p, _ in enumerate_simple_paths(g, root, v)),
                       default=0.0)
            if v in region.members:
                assert region.prob_of(v) == best
            else:
                assert best < theta_floor(theta)


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


def test_theta_boundary_is_inclusive():
    # 0.1 * 0.1 lands on theta = 0.01 exactly (up to rounding): kept
    g = Snapshot.build([0, 1, 2], [(0, 1, 0.1), (1, 2, 0.1)])
    r = local_region(g, 0, "out", 0.01)
    assert 2 in r.members
    floor = theta_floor(0.01)
    assert 0.1 * 0.1 >= floor
    assert 0.01 >= floor
    assert 0.00999 < floor


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.0, 2.0, math.nan])
def test_theta_outside_unit_interval_rejected(theta):
    g = Snapshot.build([0, 1], [(0, 1, 0.5)])
    for call in (lambda: local_region(g, 0, "out", theta),
                 lambda: mia_spread(g, 0, set(), theta)):
        with pytest.raises(InvalidConfig):
            call()


_SELECTORS = [
    lambda g: mia_select(g, 1, 0.1),
    lambda g: degree_select(g, 1),
    lambda g: random_select(g, 1, 1),
    lambda g: greedy_select(g, 1, 10, 1),
]
_EDGE = Snapshot.build([0, 1], [(0, 1, 0.5)])
_EMPTY = Snapshot.build()


@pytest.mark.parametrize("analysis, base", [
    (lambda g: local_region(g, 0, "out", 0.1), _EDGE),
    (lambda g: mia_spread(g, 0, (), 0.1), _EDGE),
    *((select, _EDGE) for select in _SELECTORS),
    (lambda g: simulate_spread(g, {0}, 10, 1), _EDGE),
    (lambda g: exact_spread(g, [0]), _EDGE),
    # checked before any early return on no seeds or an empty stream
    (lambda g: simulate_spread(g, [], 10, 1), _EDGE),
    (lambda g: apply_all(g, []), _EDGE),
    (lambda g: EvolutionContext.from_stream(g, []), _EDGE),
    # and before the node count
    *((select, _EMPTY) for select in _SELECTORS),
], ids=["local_region", "mia_spread", "mia_select", "degree_select",
        "random_select", "greedy_select", "simulate_spread", "exact_spread",
        "simulate_spread_no_seeds", "apply_all", "from_stream",
        "mia_select_empty", "degree_select_empty", "random_select_empty",
        "greedy_select_empty"])
def test_analyses_reject_a_graph_builder(analysis, base):
    b = GraphBuilder(base)
    with pytest.raises(TypeError, match="freeze"):
        analysis(b)
    if base.num_nodes:
        analysis(b.freeze())
    else:
        with pytest.raises(EmptyGraph):
            analysis(b.freeze())
