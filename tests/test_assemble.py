import importlib
import random
from itertools import combinations

import pytest

from awci.assemble import (
    AwciGraph,
    _maximal_cliques,
    _uncontained,
    assemble,
    build_graph,
    closed_core,
    maximal_closed_sets,
    miss_lists,
    prune_dominated_vertices,
)
from awci.model import (AnchoredInterval, AwciPair, Dataset, RangeError, ResourceLimitError,
                        SearchParams, UnsupportedError, ValidationError)
from awci.oracle import at, brute_force_maximal_closed_sets, char_set, is_closed_set
from awci.sweep import enumerate_pairs
from awci.synth import PlantedSpec, generate_planted, random_instance
from conftest import WITNESS_CLOSED, make_dataset, perfbench_workloads, two_strings

# the module itself: the package attribute `awci.assemble` is the function
assemble_module = importlib.import_module("awci.assemble")


def graph_of(dataset, vertices, edges):
    """An `AwciGraph` from an edge list."""
    adj = [set() for _ in vertices]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return AwciGraph(dataset, vertices, adj,
                     [dataset.index_of(iv.string_id) for iv in vertices])


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


def unit_pair(left, right):
    return AwciPair(left=left, right=right, common_size=0, indel_total=0,
                    size_left=left.length, size_right=right.length)


def test_build_graph_refuses_unknown_string():
    pair = unit_pair(AnchoredInterval("S", 1, 1), AnchoredInterval("X", 1, 1))
    with pytest.raises(ValidationError, match="'X'"):
        build_graph([pair], two_strings(), SearchParams(delta=0, quorum=2))


@pytest.mark.parametrize("left, right, bad", [
    (AnchoredInterval("S", 1, 5), AnchoredInterval("T", 1, 2), "S:1-5"),  # past S's end
    (AnchoredInterval("S", 1, 2), AnchoredInterval("T", 2, 3), "T:2-3"),  # across T's break
])
def test_build_graph_refuses_interval_out_of_range(left, right, bad):
    with pytest.raises(RangeError, match=bad):
        build_graph([unit_pair(left, right)], two_strings(),
                    SearchParams(delta=0, quorum=2))


@pytest.mark.parametrize("right", [AnchoredInterval("S", 2, 2),
                                   AnchoredInterval("S", 1, 1)])
def test_build_graph_refuses_same_string_pair(right):
    # also the self-loop S:1-1 ~ S:1-1
    pair = unit_pair(AnchoredInterval("S", 1, 1), right)
    with pytest.raises(UnsupportedError):
        build_graph([pair], two_strings(), SearchParams(delta=0, quorum=2))


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
    g = graph_of(ds, [v, u, w], [(0, 2), (1, 2)])
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
    g = graph_of(ds, [v, w, z], [(0, 1), (0, 2)])
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
    g = graph_of(ds, [z, w, v], [(2, 0), (2, 1)])
    assert miss_lists(g)[2] == [[0]]
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
                assert assemble(pairs, ds, params) == \
                    maximal_closed_sets(graph, params) == expected
                dropped += len(pruned)
    assert dropped > 0


def test_maximal_closed_sets_demo(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    sets = maximal_closed_sets(demo_graph(demo, params), params)
    assert len(sets) == 1
    assert tuple(str(m) for m in sets[0].members) == ("S1:1-8", "S2:2-7", "S3:1-8")


def pairwise_uncontained(cores):
    """The containment filter by its definition: drop every core that is a
    proper subset of another."""
    return [c for c in cores if not any(set(c) < set(other) for other in cores)]


@pytest.mark.parametrize("cores", [
    [(0, 1, 2), (0, 1), (1, 2), (3, 4)],      # nested in one core; disjoint
    [(0, 1), (1, 2), (0, 2)],                 # equal size, overlapping
    [(0, 1), (0, 1, 2, 3), (4, 5, 6), (0, 1, 2)],  # a chain of three
    [(5, 6), (0, 1)],                         # disjoint
    [(0, 1, 2)],
])
def test_uncontained_matches_pairwise_rule(cores):
    assert _uncontained(cores) == pairwise_uncontained(cores)


def test_uncontained_matches_pairwise_rule_random():
    rng = random.Random(7)
    for _ in range(300):
        pool = range(rng.randint(2, 8))
        cores = sorted({tuple(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
                        for _ in range(rng.randint(1, 12))})
        rng.shuffle(cores)
        assert _uncontained(cores) == pairwise_uncontained(cores), cores


def test_single_edge_below_quorum(demo):
    ds = make_dataset(("S", [["a"]]), ("T", [["a"]]))
    g = graph_of(ds, [AnchoredInterval("S", 1, 1), AnchoredInterval("T", 1, 1)],
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
    sets = maximal_closed_sets(graph_of(ds, members, edges), params)
    assert [tuple(map(str, s.members)) for s in sets] == [("B1:1-2", "B2:1-2", "B3:1-2")]
    assert is_closed_set(ds, sets[0].members)
    pairs = [AwciPair(left=members[u], right=members[v],
                      common_size=2,
                      indel_total=0, size_left=2, size_right=2)
             for u, v in edges]
    assert assemble(pairs, ds, params) == sets


def test_clique_guard(demo, monkeypatch):
    params = SearchParams(delta=1, quorum=2, min_size=1)
    g = demo_graph(demo, params)
    monkeypatch.setattr(assemble_module, "CLIQUE_GUARD", 3)
    with pytest.raises(ResourceLimitError):
        maximal_closed_sets(g, params)


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
        assert assemble(pairs, ds, params) == \
            maximal_closed_sets(build_graph(pairs, ds, params), params)


def mask_vs_oracle(ds, params):
    """Compare each maximal clique's closed core with the oracle: the core is
    closed, and the clique is closed iff it is its own core. Returns the
    boundary kinds ("string_end", "contig_break") that some compared member
    touches."""
    g = build_graph(enumerate_pairs(ds, params), ds, params)
    missers = miss_lists(g)
    kinds = set()
    for clique in _maximal_cliques(g, 100_000):
        if len(clique) < params.quorum:
            continue
        core = closed_core(missers, clique)
        members = [g.vertices[v] for v in clique]
        assert is_closed_set(ds, [g.vertices[v] for v in core]), members
        assert (core == clique) == is_closed_set(ds, members), members
        for iv in members:
            s = ds[iv.string_id]
            lo, hi = s.contig_of[iv.i]
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
    missers = miss_lists(g)
    assert closed_core(missers, clique) == clique
    assert closed_core(missers, clique[:2]) == clique[1:2]
    assert WITNESS_CLOSED in {tuple(str(m) for m in s.members)
                              for s in assemble(enumerate_pairs(witness, params),
                                                witness, params)}


def literal_extension_masks(graph):
    """Per vertex, one neighbour bitmask for each adjacent in-contig
    position, by its definition on frozensets: bit u is set for every
    neighbour u whose character set meets the position."""
    ds = graph.dataset
    char_sets = [char_set(ds[iv.string_id], iv.i, iv.j) for iv in graph.vertices]
    out = []
    for v, iv in enumerate(graph.vertices):
        s = ds[iv.string_id]
        lo, hi = s.contig_of[iv.i]
        out.append(tuple(sum(1 << u for u in graph.adj[v]
                             if not at(s, p).isdisjoint(char_sets[u]))
                         for p in (iv.i - 1, iv.j + 1) if lo <= p <= hi))
    return out


def literal_miss_lists(graph):
    """`miss_lists` from `literal_extension_masks`, each list sorted: the
    neighbours outside the position's mask."""
    return [[sorted(u for u in graph.adj[v] if not mask >> u & 1) for mask in masks]
            for v, masks in enumerate(literal_extension_masks(graph))]


def sorted_miss_lists(graph):
    return [[sorted(m) for m in lists] for lists in miss_lists(graph)]


def test_extension_masks_match_char_sets():
    params = SearchParams(delta=1, quorum=2, min_size=1)
    for seed in range(20):
        ds = random_instance(seed, break_prob=0.3)
        g = build_graph(enumerate_pairs(ds, params), ds, params)
        assert sorted_miss_lists(g) == literal_miss_lists(g), seed
    # private characters beside the vertices: those positions meet nothing
    ds = make_dataset(("S", [["x"], ["a"], ["b"], ["y"]]), ("T", [["a"], ["b"], ["a"]]))
    g = build_graph(enumerate_pairs(ds, params), ds, params)
    missers = sorted_miss_lists(g)
    assert missers == literal_miss_lists(g)
    s23 = g.vertices.index(AnchoredInterval("S", 2, 3))
    assert missers[s23] == [sorted(g.adj[s23])] * 2


def literal_prune(graph):
    """The intervals `prune_dominated_vertices` keeps, by its rule: over and
    over until nothing changes, drop each vertex one of whose
    `literal_extension_masks` covers all its remaining neighbours."""
    masks = literal_extension_masks(graph)
    alive = set(range(len(graph)))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            live = sum(1 << u for u in graph.adj[v] & alive)
            if any(live & mask == live for mask in masks[v]):
                alive.remove(v)
                changed = True
    return {graph.vertices[v] for v in alive}


def shuffled(graph, rng):
    """`graph` with its vertex list in a random order."""
    order = list(range(len(graph)))
    rng.shuffle(order)
    new_id = {v: k for k, v in enumerate(order)}
    return AwciGraph(graph.dataset, [graph.vertices[v] for v in order],
                     [{new_id[u] for u in graph.adj[v]} for v in order],
                     [graph.string_index[v] for v in order])


def edge_set(graph):
    return {(graph.vertices[u], graph.vertices[v])
            for u in range(len(graph)) for v in graph.adj[u]}


def test_prune_matches_literal_reference():
    # the fixpoint does not depend on the vertex order, so a shuffled vertex
    # list keeps the same intervals; the kept graph is the induced subgraph
    rng = random.Random(0)
    dropped = 0
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.4)
        for delta in (0, 1, 2):
            for q in (2, 3):
                if q > len(ds):
                    continue
                params = SearchParams(delta=delta, quorum=q, min_size=1)
                graph = build_graph(enumerate_pairs(ds, params), ds, params)
                kept = literal_prune(graph)
                for g in (graph, shuffled(graph, rng)):
                    pruned = prune_dominated_vertices(g)
                    assert set(pruned.vertices) == kept, (seed, delta, q)
                    assert edge_set(pruned) == {(a, b) for a, b in edge_set(graph)
                                                if a in kept and b in kept}
                dropped += len(graph) - len(kept)
    assert dropped > 0


def test_assemble_checks_each_vertex_once(monkeypatch):
    # on the first 16 datasets of perfbench's planted-sets workload, every
    # distinct interval of the pair stream is checked exactly once, by
    # `build_graph`; the subgraphs of the drops and the prune check nothing
    check_interval, subgraph = Dataset.check_interval, AwciGraph.subgraph
    checked, subgraphs = [], 0

    def counting_check(self, iv):
        checked.append(iv)
        return check_interval(self, iv)

    def counting_subgraph(self, kept):
        nonlocal subgraphs
        subgraphs += 1
        return subgraph(self, kept)

    monkeypatch.setattr(Dataset, "check_interval", counting_check)
    monkeypatch.setattr(AwciGraph, "subgraph", counting_subgraph)
    spec, params, seed_base = perfbench_workloads()["planted-sets"]
    params = SearchParams(**params)
    for u in range(16):
        ds, _ = generate_planted(PlantedSpec(seed=seed_base + u, **spec))
        pairs = list(enumerate_pairs(ds, params))
        checked.clear()
        assert assemble(pairs, ds, params), u
        assert sorted(checked) == sorted({iv for p in pairs for iv in p[:2]}), u
    assert subgraphs > 0


def test_drop_rules_run_in_linear_work(monkeypatch):
    # the prune's rule runs at most 3 times and the quorum rule at most twice
    # per vertex of the graph they are given: on the first 16 datasets of
    # perfbench's planted-sets workload, and on a quorum cascade that drops
    # in more rounds than a scheme re-checking every vertex each round could
    # afford under that bound
    drop_to_fixpoint = assemble_module._drop_to_fixpoint
    runs = []

    def counting(graph, drop):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return drop(*args)

        out = drop_to_fixpoint(graph, counted)
        runs.append((calls, graph.vertices))
        return out

    monkeypatch.setattr(assemble_module, "_drop_to_fixpoint", counting)
    spec, params, seed_base = perfbench_workloads()["planted-sets"]
    params = SearchParams(**params)
    for u in range(16):
        ds, _ = generate_planted(PlantedSpec(seed=seed_base + u, **spec))
        graph = build_graph(enumerate_pairs(ds, params), ds, params)
        prune_dominated_vertices(graph)
        (build_calls, built), (prune_calls, pruned) = runs[-2:]
        assert build_calls <= 2 * len(built), u
        assert prune_calls <= 3 * len(pruned), u
    assert len(runs) == 32

    # quorum 3. The stable part is the complete tripartite graph on S, T and
    # U at positions 2, 4 and 5. The chain c0..c5 on S:1, T:1, U:1, S:3, T:3,
    # U:3 drops from c5, which spans T only, down to c0: each c_k spans the
    # strings of c_k-1 and c_k+1 (c0: U:2 in place of c_-1), and its stable
    # neighbour lies on the string of c_k-1, so it goes once c_k+1 has gone.
    # Vertex ids follow first appearance, and the chain's (c5, c3, c1, c0, c2,
    # c4) make every pass over all vertices, ascending or descending, drop at
    # most two links; re-checking all 15 vertices in each of those 4 or more
    # rounds would take 48 calls or more, past the bound of 30.
    ds = make_dataset(*[(sid, [["a"]] * 5) for sid in "STU"])
    iv = {f"{sid}{p}": AnchoredInterval(sid, p, p) for sid in "STU" for p in range(1, 6)}
    stable = [f"{sid}{p}" for p in (2, 4, 5) for sid in "STU"]
    chain = ["S1", "T1", "U1", "S3", "T3", "U3"]
    edges = {frozenset((a, b)) for a in stable for b in stable if a[0] != b[0]}
    edges |= {frozenset((a, b)) for a, b in zip(chain, chain[1:])}
    edges |= {frozenset(("S1", "U2"))}
    edges |= {frozenset((c, prev[0] + "2")) for prev, c in zip(chain, chain[1:])}
    order = stable + [chain[k] for k in (5, 3, 1, 0, 2, 4)]
    pairs = [unit_pair(iv[a], iv[b]) for k, b in enumerate(order) for a in order[:k]
             if frozenset((a, b)) in edges]
    graph = build_graph(pairs, ds, SearchParams(delta=0, quorum=3))
    calls, built = runs[-1]
    assert built == [iv[v] for v in order]
    assert graph.vertices == [iv[v] for v in stable]
    assert calls <= 2 * len(built)
