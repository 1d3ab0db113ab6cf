import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from awci.assemble import (
    DESCENT_BUDGET,
    AwciGraph,
    _maximal_cliques,
    assemble,
    build_graph,
    extension_masks,
    is_closed_clique,
    maximal_closed_sets,
    prune_dominated_vertices,
)
from awci.model import AnchoredInterval, ResourceLimitError, SearchParams
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
        assert len({g.string_of(u) for u in g.adj[v]}) >= 2


def test_build_graph_empty_stream(demo):
    g = build_graph([], demo, SearchParams(delta=0, quorum=2))
    assert len(g) == 0


def prune_fixture(extra_shared=0):
    """u = S:1-9 strictly contains v = S:1-8; S positions beyond 8 repeat
    characters of the neighbor's interval (extra_shared controls how many)."""
    chars = [f"c{p}" for p in range(1, 9)]
    tail = [["c1"], ["c2"]][:1 + extra_shared]
    ds = make_dataset(
        ("S", [[c] for c in chars] + tail),
        ("T", [[c] for c in chars]),
    )
    v = AnchoredInterval("S", 1, 8)
    u = AnchoredInterval("S", 1, 8 + len(tail))
    w = AnchoredInterval("T", 1, 8)
    g = AwciGraph(ds, [v, u, w], [(0, 2), (1, 2)])
    return ds, g


def test_prune_discards_dominated_vertex():
    _, g = prune_fixture()
    pruned = prune_dominated_vertices(g)
    assert [str(x) for x in pruned.vertices] == ["S:1-9", "T:1-8"]


def test_prune_keeps_vertex_with_two_sharing_extensions():
    _, g = prune_fixture(extra_shared=1)
    pruned = prune_dominated_vertices(g)
    assert len(pruned) == 3


def test_prune_keeps_vertex_with_private_neighbor():
    chars = [f"c{p}" for p in range(1, 9)]
    ds = make_dataset(
        ("S", [[c] for c in chars] + [["c1"]]),
        ("T", [[c] for c in chars]),
        ("U", [[c] for c in chars]),
    )
    v = AnchoredInterval("S", 1, 8)
    u = AnchoredInterval("S", 1, 9)
    w = AnchoredInterval("T", 1, 8)
    z = AnchoredInterval("U", 1, 8)
    # z is v's private neighbor, not adjacent to the superinterval u
    g = AwciGraph(ds, [v, u, w, z], [(0, 2), (1, 2), (0, 3)])
    assert len(prune_dominated_vertices(g)) == 4


def test_maximal_closed_sets_demo(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    sets = maximal_closed_sets(demo_graph(demo, params), params)
    assert len(sets) == 1
    assert tuple(str(m) for m in sets[0].members) == ("S1:1-8", "S2:2-7", "S3:1-8")
    assert sets[0].closed


def test_single_edge_below_quorum(demo):
    ds = make_dataset(("S", [["a"]]), ("T", [["a"]]))
    g = AwciGraph(ds, [AnchoredInterval("S", 1, 1), AnchoredInterval("T", 1, 1)],
                  [(0, 1)])
    assert maximal_closed_sets(g, SearchParams(delta=0, quorum=3)) == []


def test_descent_reports_closed_subclique():
    # 4-string instance where some maximal clique is not closed and the
    # answer comes from a sub-clique; frozen seed, oracle-verified
    ds = random_instance(5)
    assert len(ds) == 4
    params = SearchParams(delta=1, quorum=2, min_size=1)
    pairs = list(enumerate_pairs(ds, params))
    result = assemble(pairs, ds, params, verify=True)
    expected = brute_force_maximal_closed_sets(ds, params)
    assert result == expected
    g = build_graph(pairs, ds, params)
    cliques = _maximal_cliques(g, 100_000)
    assert any(len(c) >= 2 and not is_closed_set(ds, [g.vertices[v] for v in c], 1)
               for c in cliques)
    assert any(len(s.members) < max(len(c) for c in cliques) for s in result)


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
    """Compare the mask closedness test with the oracle on every maximal
    clique and every sub-clique the descent probes. Returns the boundary
    kinds ("string_end", "contig_break") that some compared member touches."""
    g = build_graph(enumerate_pairs(ds, params), ds, params)
    masks = extension_masks(g)
    kinds = set()
    for clique in _maximal_cliques(g, 100_000):
        if len(clique) < params.quorum:
            continue
        max_drop = min(DESCENT_BUDGET, len(clique) - params.quorum)
        for drop in range(max_drop + 1):
            for sub in combinations(clique, len(clique) - drop):
                members = [g.vertices[v] for v in sub]
                assert is_closed_clique(masks, sub) == \
                    is_closed_set(ds, members, params.delta), members
                for iv in members:
                    s = ds.string_of(iv)
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
    assert is_closed_clique(masks, clique)
    assert not is_closed_clique(masks, clique[:2])
    assert WITNESS_CLOSED in {tuple(str(m) for m in s.members)
                              for s in assemble(enumerate_pairs(witness, params),
                                                witness, params)}


FABRICATED_PAIR = """
from awci import (Alphabet, AnchoredInterval, AwciPair, Dataset, SearchParams,
                  assemble, build_string)
al = Alphabet()
ds = Dataset([build_string(al, "S", [["a"], ["b"]]),
              build_string(al, "T", [["x"], ["y"]])], al)
pair = AwciPair(left=AnchoredInterval("S", 1, 2), right=AnchoredInterval("T", 1, 2),
                common=frozenset(), indel_total=4, size_left=0, size_right=0)
assemble([pair], ds, SearchParams(delta=0, quorum=2), verify=True)
"""


def test_assemble_verify_raises_under_optimize():
    # python -O strips assert statements; the verify checks must still run
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", FABRICATED_PAIR],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "AssertionError: reported set {S:1-2, T:1-2} is not an AWCI set" \
        in proc.stderr, proc.stderr
