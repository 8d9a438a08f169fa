"""Property tests of the theta search, the delta table, diff/apply and the
lazy selection loop.

Graphs and streams are drawn with hypothesis: every one of the six change
kinds, tie-heavy probabilities (0.25, 0.5, 1.0, whose products land exactly
on theta), and edges in the sliver [theta_floor(theta), theta) that regions
keep although they sit below theta. Examples are derandomized, so a run is
reproducible.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from evoinf import (AddEdge, AddNode, AddWeight, DecWeight,
                    EvolutionContext, GenConfig, GraphBuilder,
                    PreconditionViolation, RemoveEdge, Snapshot,
                    accumulate_deltas, apply_all, cascade_node_removal, diff,
                    generate_evolving, incinf_select, local_region,
                    mia_select, mia_spread)
from evoinf.localize import theta_floor
from evoinf.select import MiaSelector
from conftest import fold_kernels, mia_full_scan, reference_search

THETAS = (0.25, 0.1, 0.01)
KINDS = ("an", "rn", "ae", "re", "aw", "dw")

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _probs(theta: float):
    sliver = theta * (1 - 1e-13)
    assert theta_floor(theta) <= sliver < theta
    # 2 * sliver through a 0.5 edge, 4 * sliver through 0.25 or two 0.5s
    slivers = [x for x in (sliver, 2 * sliver, 4 * sliver) if x <= 1.0]
    return st.one_of(st.sampled_from((0.25, 0.5, 1.0)),
                     st.sampled_from(slivers),
                     st.floats(0.005, 1.0))


@st.composite
def evolutions(draw):
    """(g_old, stream, theta) with a sequentially valid stream."""
    theta = draw(st.sampled_from(THETAS))
    probs = _probs(theta)
    n = draw(st.integers(2, 10))
    b = GraphBuilder()
    for u in range(n):
        b.apply(AddNode(u))
    for u, v, p in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), probs),
                                 max_size=3 * n)):
        if u != v and not b.has_edge(u, v):
            b.apply(AddEdge(u, v, p))
    g = b.freeze()

    b = GraphBuilder(g)
    gone: list[int] = []
    next_id = n
    stream = []
    for kind, i, j, p in draw(st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 99),
                      st.integers(0, 99), probs),
            min_size=1, max_size=25)):
        nodes = sorted(b.nodes())
        edges = sorted((u, v) for u, v, _ in b.edges())
        if kind == "an":
            # sometimes bring back a removed id
            if gone and i % 2:
                changes = [AddNode(gone.pop(j % len(gone)))]
            else:
                changes = [AddNode(next_id)]
                next_id += 1
        elif kind == "rn" and nodes:
            u = nodes[i % len(nodes)]
            changes = cascade_node_removal(b, u)
            gone.append(u)
        elif kind == "ae" and len(nodes) >= 2:
            changes = [AddEdge(nodes[i % len(nodes)], nodes[j % len(nodes)],
                               p)]
        elif kind in ("re", "aw", "dw") and edges:
            u, v = edges[i % len(edges)]
            w = b.prob(u, v)
            if kind == "re":
                changes = [RemoveEdge(u, v)]
            elif kind == "aw" and p > w:
                changes = [AddWeight(u, v, p - w)]
            elif kind == "dw" and p < w:
                changes = [DecWeight(u, v, w - p)]
            else:
                continue
        else:
            continue
        try:
            apply_all(b.freeze(), changes)
        except PreconditionViolation:
            continue  # a loop, a duplicate edge or a weight above 1
        b.apply_all(changes)
        stream.extend(changes)
    return g, stream, theta


@st.composite
def tie_graphs(draw):
    """(g, theta) with many equal-probability paths: edges from the tie
    values, the trivalency values 0.1, 0.01 and 0.001, and floor slivers."""
    theta = draw(st.sampled_from(THETAS))
    sliver = theta * (1 - 1e-13)
    probs = st.sampled_from(
        (0.25, 0.5, 1.0, 0.1, 0.01, 0.001)
        + tuple(x for x in (sliver, 2 * sliver, 4 * sliver) if x <= 1.0))
    n = draw(st.integers(1, 14))
    b = GraphBuilder()
    for u in range(n):
        b.apply(AddNode(u))
    for u, v, p in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), probs),
                                 min_size=n, max_size=4 * n)):
        if u != v and not b.has_edge(u, v):
            b.apply(AddEdge(u, v, p))
    return b.freeze(), theta


@PROPERTY
@given(tie_graphs())
def test_local_region_matches_the_reference_search(case):
    # every member's (prob, parent, edge_prob), bit for bit, and the
    # settle order (the members dict's insertion order)
    g, theta = case
    for root in sorted(g.nodes()):
        for direction in ("out", "in"):
            got = local_region(g, root, direction, theta).members
            want = reference_search(g, root, theta, direction)
            assert list(got.items()) == list(want.items()), (root, direction)


@PROPERTY
@given(evolutions(), st.integers(0, 2**32 - 1))
def test_rows_iterate_in_search_order(case, master_seed):
    # audit() checks that every row iterates by descending probability,
    # then node id: rows a stream rewrote (weight changes, removals,
    # re-added ids) and rows it shares with g; then every snapshot one
    # generator builder freezes step after step under churn
    g, stream, _ = case
    g.audit()
    apply_all(g, stream).audit()
    snaps, _ = generate_evolving(GenConfig(
        n0=6, steps=5, nodes_per_step=4, m=2, master_seed=master_seed,
        extra_edge_fraction=0.5, remove_edge_fraction=0.1,
        weight_change_fraction=0.3, remove_node_count=1))
    for snap in snaps:
        snap.audit()


@PROPERTY
@given(evolutions())
def test_apply_of_diff_round_trips(case):
    # both directions: the generated stream's pair, whose difference mixes
    # all six change kinds and can remove an id and add it back
    a, stream, _ = case
    b = apply_all(a, stream)
    assert apply_all(a, diff(a, b)) == b
    assert apply_all(b, diff(b, a)) == a
    assert diff(b, b) == []


def _static(ctx, theta):
    nodes = set(ctx.g_old.nodes()) | set(ctx.g_new.nodes())
    out = {}
    for v in nodes:
        new = mia_spread(ctx.g_new, v, (), theta) \
            if ctx.g_new.has_node(v) else 0.0
        old = mia_spread(ctx.g_old, v, (), theta) \
            if ctx.g_old.has_node(v) else 0.0
        out[v] = new - old
    return out


@PROPERTY
@given(evolutions())
def test_accumulate_is_static_differencing_on_every_node(case):
    # exact equality on every node of both graphs: a node left out of the
    # affected set whose spread changed would show here
    g, stream, theta = case
    ctx = EvolutionContext.from_stream(g, stream)
    table = accumulate_deltas(ctx, frozenset(), theta)
    for v, expected in _static(ctx, theta).items():
        assert table.get(v) == expected, (v, table.get(v), expected)


@PROPERTY
@given(evolutions())
def test_folded_kernels_match_static_differencing_and_lifecycle(case):
    # the kernels also keep node lifecycle on their own, change by change
    g, stream, theta = case
    ctx = EvolutionContext.from_stream(g, stream)
    kernel = fold_kernels(ctx, theta)
    for v, expected in _static(ctx, theta).items():
        assert math.isclose(kernel.get(v), expected,
                            rel_tol=1e-6, abs_tol=1e-9), (v, kernel.get(v),
                                                          expected)
    table = accumulate_deltas(ctx, frozenset(), theta)
    assert (table.born, table.removed) == (kernel.born, kernel.removed)
    assert table.born | table.removed <= table.values.keys()


@st.composite
def star_motif_graphs(draw):
    """(g, theta, k): copies of one star motif at scattered ids, so whole
    groups of nodes tie exactly, plus a few random edges that break some of
    the ties; every probability is 0.25, 0.5 or 1.0."""
    theta = draw(st.sampled_from((0.1, 0.01)))
    probs = st.sampled_from((0.25, 0.5, 1.0))
    leaves, copies, p = (draw(st.integers(1, 4)), draw(st.integers(2, 5)),
                         draw(probs))
    size = leaves + 1
    n = copies * size + draw(st.integers(0, 6))
    ids = draw(st.permutations(range(n)))
    edges = {(ids[c * size], ids[c * size + i]): p
             for c in range(copies) for i in range(1, size)}
    for u, v, q in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), probs),
                                 max_size=n)):
        if u != v:
            edges[u, v] = q
    g = Snapshot.build(range(n), [(u, v, q) for (u, v), q in edges.items()])
    return g, theta, draw(st.integers(1, n))


@PROPERTY
@given(star_motif_graphs())
def test_lazy_selection_equals_the_full_scan_on_ties(case):
    # seed for seed and gain for gain, floats compared with ==
    g, theta, k = case
    want = mia_full_scan(g, k, theta)
    got = mia_select(g, k, theta)
    assert (got.seeds, got.marginal_gains) == want
    ctx = EvolutionContext.from_snapshots(Snapshot.build(g.nodes()), g)
    inc = incinf_select(ctx, [], k, theta, prune_enabled=False)
    assert (inc.seeds, inc.marginal_gains) == want


@PROPERTY
@given(st.one_of(star_motif_graphs(),
                 tie_graphs().map(lambda case: (*case, case[0].num_nodes))),
       st.randoms(use_true_random=False))
def test_no_mia_gain_rises_when_a_seed_is_added(case, rng):
    # the premise that makes the lazy loop exact for MIA, in floats
    g, theta, k = case
    sel = MiaSelector(g, theta)
    order = sorted(g.nodes())
    rng.shuffle(order)
    for s in order[:k]:
        before = {v: sel.gain(v) for v in g.nodes()}
        sel.add_seed(s)
        for v, gain in before.items():
            assert sel.gain(v) <= gain, (s, v)
