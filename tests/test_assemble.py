import pytest

from awci.assemble import (
    AwciGraph,
    _maximal_cliques,
    assemble,
    build_graph,
    closed_core,
    extension_masks,
    maximal_closed_sets,
    prune_dominated_vertices,
)
from awci.model import AnchoredInterval, AwciPair, ResourceLimitError, SearchParams
from awci.oracle import brute_force_maximal_closed_sets, is_closed_set
from awci.sweep import enumerate_pairs
from awci.synth import random_instance
from conftest import WITNESS_CLOSED, make_dataset


def demo_graph(demo, params):
    return build_graph(enumerate_pairs(demo, params), demo, params)


def test_build_graph_demo_triangle(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    g = demo_graph(demo, params)
    idx = {str(v): k for k, v in enumerate(g.vertices)}
    a, b, c = idx["S1:1-8"], idx["S2:2-7"], idx["S3:1-8"]
    assert b in g.adj[a] and c in g.adj[a] and c in g.adj[b]


def test_build_graph_drops_quorum_infeasible(demo):
    # S1:4-12 pairs only with S2 and S3 intervals outside the conserved
    # region; at quorum 3 every surviving vertex must span 2 other strings
    params = SearchParams(delta=1, quorum=3, min_size=6)
    g = demo_graph(demo, params)
    for v in range(len(g)):
        assert len({g.string_index[u] for u in g.adj[v]}) >= 2


def test_build_graph_drops_to_fixpoint():
    # quorum 3: d = V:1 pairs with one string only; c = U:1 spans S and V
    # until d goes, and a = S:1 spans T and U until c goes. Neither an
    # ascending nor a descending single pass over the vertex order (c, d, a,
    # ...) drops a; the triangle S:2, T:2, U:2 stays
    ds = make_dataset(*[(sid, [["a"], ["b"]]) for sid in "STUV"])
    a, c, d = (AnchoredInterval(sid, 1, 1) for sid in "SUV")
    s2, t2, u2 = (AnchoredInterval(sid, 2, 2) for sid in "STU")
    pairs = [AwciPair(left=l, right=r, common_size=0, indel_total=0,
                      size_left=1, size_right=1)
             for l, r in ((c, d), (a, c), (a, t2), (s2, t2), (s2, u2), (t2, u2))]
    g = build_graph(pairs, ds, SearchParams(delta=0, quorum=3))
    assert set(g.vertices) == {s2, t2, u2}
    assert all(len(g.adj[v]) == 2 for v in range(len(g)))


def test_build_graph_empty_stream(demo):
    g = build_graph([], demo, SearchParams(delta=0, quorum=2))
    assert len(g) == 0


def prune_fixture():
    """u = S:1-9 strictly contains v = S:1-8; S position 9 repeats a character
    of the neighbor's interval."""
    chars = [f"c{p}" for p in range(1, 9)]
    ds = make_dataset(
        ("S", [[c] for c in chars] + [["c1"]]),
        ("T", [[c] for c in chars]),
    )
    v = AnchoredInterval("S", 1, 8)
    u = AnchoredInterval("S", 1, 9)
    w = AnchoredInterval("T", 1, 8)
    g = AwciGraph(ds, [v, u, w], [(0, 2), (1, 2)])
    return ds, g


def test_prune_discards_dominated_vertex():
    _, g = prune_fixture()
    pruned = prune_dominated_vertices(g)
    assert [str(x) for x in pruned.vertices] == ["S:1-9", "T:1-8"]


def test_prune_keeps_vertex_no_mask_covers():
    # S position 9 = c1 meets w = T:1-8 but not z = U:1-8 ({c2..c9}), so
    # v = S:1-8 may still be closed in {v, z}
    chars = [f"c{p}" for p in range(1, 9)]
    ds = make_dataset(
        ("S", [[c] for c in chars] + [["c1"]]),
        ("T", [[c] for c in chars]),
        ("U", [[f"c{p}"] for p in range(2, 10)]),
    )
    v = AnchoredInterval("S", 1, 8)
    w = AnchoredInterval("T", 1, 8)
    z = AnchoredInterval("U", 1, 8)
    g = AwciGraph(ds, [v, w, z], [(0, 1), (0, 2)])
    assert prune_dominated_vertices(g) is g


def test_prune_runs_to_fixpoint():
    # v = S:1-8 has neighbours z and w; S position 9 = c1 meets w but not z,
    # so v stays until z (U position 9 = c1 meets v) is dropped
    chars = [f"c{p}" for p in range(1, 9)]
    ds = make_dataset(
        ("S", [[c] for c in chars] + [["c1"]]),
        ("T", [[c] for c in chars]),
        ("U", [[f"c{p}"] for p in range(2, 10)] + [["c1"]]),
    )
    z = AnchoredInterval("U", 1, 8)
    w = AnchoredInterval("T", 1, 8)
    v = AnchoredInterval("S", 1, 8)
    g = AwciGraph(ds, [z, w, v], [(2, 0), (2, 1)])
    assert extension_masks(g)[2] == (0b010,)
    assert [str(x) for x in prune_dominated_vertices(g).vertices] == ["T:1-8"]


def test_prune_drops_no_member_of_a_closed_set():
    dropped = 0
    for seed in range(40):
        ds = random_instance(seed, max_n=8, break_prob=0.4)
        for delta in (0, 1, 2):
            for q in (2, 3):
                if q > len(ds):
                    continue
                params = SearchParams(delta=delta, quorum=q, min_size=1)
                pairs = list(enumerate_pairs(ds, params))
                graph = build_graph(pairs, ds, params)
                pruned = set(graph.vertices) - set(
                    prune_dominated_vertices(graph).vertices)
                expected = brute_force_maximal_closed_sets(ds, params)
                assert not pruned & {m for s in expected for m in s.members}
                assert assemble(pairs, ds, params, prune=True) == \
                    assemble(pairs, ds, params, prune=False) == expected
                dropped += len(pruned)
    assert dropped > 0


def test_maximal_closed_sets_demo(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    sets = maximal_closed_sets(demo_graph(demo, params), params)
    assert len(sets) == 1
    assert tuple(str(m) for m in sets[0].members) == ("S1:1-8", "S2:2-7", "S3:1-8")


def test_single_edge_below_quorum(demo):
    ds = make_dataset(("S", [["a"]]), ("T", [["a"]]))
    g = AwciGraph(ds, [AnchoredInterval("S", 1, 1), AnchoredInterval("T", 1, 1)],
                  [(0, 1)])
    assert maximal_closed_sets(g, SearchParams(delta=0, quorum=3)) == []


def test_peel_reports_closed_subclique():
    # 4-string instance where some maximal clique is not closed and the
    # answer comes from a sub-clique; frozen seed, oracle-verified
    ds = random_instance(5)
    assert len(ds) == 4
    params = SearchParams(delta=1, quorum=2, min_size=1)
    pairs = list(enumerate_pairs(ds, params))
    result = assemble(pairs, ds, params)
    expected = brute_force_maximal_closed_sets(ds, params)
    assert result == expected
    g = build_graph(pairs, ds, params)
    cliques = _maximal_cliques(g, 100_000)
    assert any(len(c) >= 2 and not is_closed_set(ds, [g.vertices[v] for v in c])
               for c in cliques)
    assert any(len(s.members) < max(len(c) for c in cliques) for s in result)


def test_peel_past_two_extendable_members():
    # one maximal clique of 6 members: the A members are extendable by their
    # position 3 = {a}, which meets every member's {a, b}; the B members'
    # position 3 = {z} meets nothing, so {B1, B2, B3} is the one closed set
    ds = make_dataset(*[(f"A{k}", [["a"], ["b"], ["a"]]) for k in (1, 2, 3)],
                      *[(f"B{k}", [["a"], ["b"], ["z"]]) for k in (1, 2, 3)])
    members = [AnchoredInterval(s.id, 1, 2) for s in ds.strings]
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    params = SearchParams(delta=0, quorum=3, min_size=2)
    sets = maximal_closed_sets(AwciGraph(ds, members, edges), params)
    assert [tuple(map(str, s.members)) for s in sets] == [("B1:1-2", "B2:1-2", "B3:1-2")]
    assert is_closed_set(ds, sets[0].members)
    pairs = [AwciPair(left=members[u], right=members[v],
                      common_size=2,
                      indel_total=0, size_left=2, size_right=2)
             for u, v in edges]
    for prune in (True, False):
        assert assemble(pairs, ds, params, prune=prune) == sets


def test_clique_guard(demo):
    params = SearchParams(delta=1, quorum=2, min_size=1)
    g = demo_graph(demo, params)
    with pytest.raises(ResourceLimitError):
        maximal_closed_sets(g, params, clique_guard=3)


def test_pipeline_matches_oracle_small():
    for seed in range(30):
        ds = random_instance(seed, max_n=10)
        for delta in (0, 1):
            for q in (2, 3):
                if q > len(ds):
                    continue
                params = SearchParams(delta=delta, quorum=q, min_size=1)
                pairs = list(enumerate_pairs(ds, params))
                assert assemble(pairs, ds, params) == \
                    brute_force_maximal_closed_sets(ds, params)


def test_prune_does_not_change_output():
    for seed in range(30):
        ds = random_instance(seed, max_n=10)
        params = SearchParams(delta=1, quorum=2, min_size=1)
        pairs = list(enumerate_pairs(ds, params))
        assert assemble(pairs, ds, params, prune=True) == \
            assemble(pairs, ds, params, prune=False)


def mask_vs_oracle(ds, params):
    """Compare each maximal clique's closed core with the oracle: the core is
    closed, and the clique is closed iff it is its own core. Returns the
    boundary kinds ("string_end", "contig_break") that some compared member
    touches."""
    g = build_graph(enumerate_pairs(ds, params), ds, params)
    masks = extension_masks(g)
    kinds = set()
    for clique in _maximal_cliques(g, 100_000):
        if len(clique) < params.quorum:
            continue
        core = closed_core(masks, clique)
        members = [g.vertices[v] for v in clique]
        assert is_closed_set(ds, [g.vertices[v] for v in core]), members
        assert (core == clique) == is_closed_set(ds, members), members
        for iv in members:
            s = ds[iv.string_id]
            lo, hi = s.contig_bounds(iv.i)
            if iv.i == 1 or iv.j == len(s):
                kinds.add("string_end")
            if (iv.i == lo > 1) or (iv.j == hi < len(s)):
                kinds.add("contig_break")
    return kinds


def test_extension_masks_match_oracle_closedness():
    kinds = set()
    for seed in range(40):
        params = SearchParams(delta=seed % 3, quorum=2 + seed % 2, min_size=1)
        for break_prob in (0.1, 0.4):
            ds = random_instance(seed, max_n=8, break_prob=break_prob)
            if params.quorum <= len(ds):
                kinds |= mask_vs_oracle(ds, params)
    assert kinds == {"string_end", "contig_break"}


def test_extension_masks_non_hereditary_witness(witness):
    params = SearchParams(delta=1, quorum=2, min_size=1)
    mask_vs_oracle(witness, params)
    g = build_graph(enumerate_pairs(witness, params), witness, params)
    clique = tuple(next(v for v, iv in enumerate(g.vertices) if str(iv) == name)
                   for name in WITNESS_CLOSED)
    masks = extension_masks(g)
    assert closed_core(masks, clique) == clique
    assert closed_core(masks, clique[:2]) == clique[1:2]
    assert WITNESS_CLOSED in {tuple(str(m) for m in s.members)
                              for s in assemble(enumerate_pairs(witness, params),
                                                witness, params)}

