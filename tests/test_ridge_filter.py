import pytest

from awci.model import SearchParams
from awci.oracle import at, brute_force_pairs, char_set
from awci.ridge import build_all_ridge_t, filter_position
from awci.sweep import enumerate_pairs, refine_bounds
from awci.synth import random_instance
from awci.tables import build_pos_tables
from bench import width_bound
from conftest import make_dataset


def bits(*positions):
    return sum(1 << p for p in positions)


def test_width_one_for_fully_shared_pair():
    # T is one position sharing 'a' with every position of S: one ridge of
    # one position, reaching all of S
    ds = make_dataset(("S", [["a", "x"], ["a", "y"], ["a"]]), ("T", [["a"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)[0][1]
    assert rt.width == 0  # nothing is built before the sweep asks
    assert rt.reach(1) == bits(1, 2, 3)
    assert rt.width == 1
    assert rt.masks == {1: bits(1, 2, 3)}  # keyed by the ridge's first position


def test_demo_pair_single_ridge(demo):
    t = build_pos_tables(demo)
    # no S3 position is a trivial indel against S1, so S3 has one ridge
    assert all(t.hitmask[2][0][1:])
    rt = build_all_ridge_t(t, 1)[0][2]
    masks = {rt.reach(p) for p in range(1, len(demo[2]) + 1)}
    # one mask, built once, reaching every position of S1 that S3 hits
    # (all but S1:3 = {x} and S1:9 = {v, l})
    assert len(rt.masks) == 1 and rt.width == len(demo[2])
    assert masks == {bits(1, 2, 4, 5, 6, 7, 8, 10, 11, 12)}


def test_vectors_mark_reachable_ridges():
    ds = make_dataset(("S", [["a"], ["q"], ["b"]]),
                      ("T", [["a"], ["z"], ["b"]]))
    t = build_pos_tables(ds)
    # T ridges: the one starting at position 1 and the one at 3, split by {z}
    rt0 = build_all_ridge_t(t, 0)
    assert rt0[0][1].reach(1) == bits(1) and rt0[0][1].reach(3) == bits(3)
    assert filter_position(t, rt0, 0, 1, 1, SearchParams(delta=0)) == 1
    # at delta=1 each ridge's neighbourhood holds both ridges
    rt1 = build_all_ridge_t(t, 1)
    assert rt1[0][1].reach(1) == rt1[0][1].reach(3) == bits(1, 3)
    assert filter_position(t, rt1, 0, 1, 1, SearchParams(delta=1)) == 3


def test_width_within_structural_bound():
    for seed in range(25):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            rt = build_all_ridge_t(t, delta)
            params = SearchParams(delta=delta)
            for x in range(len(ds)):
                for y in range(len(ds)):
                    if x == y:
                        continue
                    for i in range(1, len(ds[x]) + 1):
                        filter_position(t, rt, x, y, i, params)
                    assert rt[x][y].width <= width_bound(ds[y])


def literal_neighbourhood(sx, sy, p, delta):
    """The widest span [k, l] of S_y around p, inside p's contig, with at
    most delta positions on each side of p sharing nothing with S_x; and
    the first position of p's ridge."""
    shared = char_set(sx, 1, len(sx))

    def trivial(q):
        return not at(sy, q) & shared

    lo, hi = sy.contig_bounds(p)
    k, cost = p, 0
    while k > lo and cost + trivial(k - 1) <= delta:
        k -= 1
        cost += trivial(k)
    l, cost = p, 0
    while l < hi and cost + trivial(l + 1) <= delta:
        l += 1
        cost += trivial(l)
    first = p
    while first > lo and not trivial(first - 1):
        first -= 1
    return k, l, first


def literal_reach(sx, sy, k, l):
    """The positions of S_x hit from [k, l]_y."""
    return {i for i in range(1, len(sx) + 1)
            if any(at(sx, i) & at(sy, q) for q in range(k, l + 1))}


def test_reach_masks_match_literal_neighbourhoods():
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            rt = build_all_ridge_t(t, delta)
            for x in range(len(ds)):
                for y in range(len(ds)):
                    if x == y:
                        continue
                    sx, sy = ds[x], ds[y]
                    shared = char_set(sx, 1, len(sx))
                    for p in range(1, len(sy) + 1):
                        if not at(sy, p) & shared:
                            continue
                        k, l, first = literal_neighbourhood(sx, sy, p, delta)
                        want = bits(*literal_reach(sx, sy, k, l))
                        assert rt[x][y].reach(p) == want, (seed, delta, x, y, p)
                        assert rt[x][y].spans[first] == l - k + 1


def test_filter_position_matches_literal_end():
    # the bound's value, not only its soundness: per anchor (a position of
    # S_y hitting S_x[i]), the last position reached from its neighbourhood
    # before the (delta + 1)-th unreached one, from i inside i's contig; the
    # maximum over the anchors, or -1 without one
    checked = 0
    for seed in range(60):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            rt = build_all_ridge_t(t, delta)
            params = SearchParams(delta=delta)
            for x, sx in enumerate(ds):
                for y, sy in enumerate(ds):
                    if x == y:
                        continue
                    for i in range(1, len(sx) + 1):
                        want = -1
                        for p in range(1, len(sy) + 1):
                            if not at(sx, i) & at(sy, p):
                                continue
                            k, l, _ = literal_neighbourhood(sx, sy, p, delta)
                            reach = literal_reach(sx, sy, k, l)
                            misses = 0
                            for q in range(i, sx.contig_bounds(i)[1] + 1):
                                if q in reach:
                                    want = max(want, q)
                                else:
                                    misses += 1
                                    if misses > delta:
                                        break
                        assert filter_position(t, rt, x, y, i, params) == want, \
                            (seed, delta, x, y, i)
                        checked += want >= 0
    assert checked > 1000


def test_bound_covers_every_oracle_pair():
    # soundness of the per-string end: no pair ends past it, on either side
    checked = 0
    for seed in range(120):
        ds = random_instance(seed, break_prob=0.4)
        t = build_pos_tables(ds)
        index = {s.id: n for n, s in enumerate(ds)}
        for delta in (0, 1, 2):
            params = SearchParams(delta=delta, quorum=2, min_size=1)
            rt = build_all_ridge_t(t, delta)
            for pair in brute_force_pairs(ds, params):
                a, b = pair.left, pair.right
                x, y = index[a.string_id], index[b.string_id]
                assert a.j <= filter_position(t, rt, x, y, a.i, params), (seed, pair)
                assert b.j <= filter_position(t, rt, y, x, b.i, params), (seed, pair)
                checked += 1
    assert checked > 1000


def test_bound_stays_inside_contigs():
    # S_x's break caps the end; S_y's break caps the neighbourhood
    params = SearchParams(delta=2)
    ds = make_dataset(("S", [["a"], ["b"], ["c"]], [2]), ("T", [["a"], ["b"], ["c"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 2)
    assert rt[0][1].reach(1) == bits(1, 2, 3)
    assert filter_position(t, rt, 0, 1, 1, params) == 2
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]), ("T", [["a"], ["b"], ["c"]], [2]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 2)
    assert rt[0][1].reach(1) == bits(1, 2) and rt[0][1].width == 2
    assert filter_position(t, rt, 0, 1, 1, params) == 2


def test_reach_cache_keeps_contigs_apart():
    # each contig of T starts with a ridge, and no trivial indel precedes
    # either, so only the contig's first position tells the two ridges apart
    ds = make_dataset(("S", [["a"], ["b"], ["c"], ["d"]]),
                      ("T", [["a"], ["b"], ["c"], ["d"]], [2]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)[0][1]
    assert rt.reach(1) == bits(1, 2)
    assert rt.reach(3) == rt.reach(4) == bits(3, 4)
    assert rt.masks == {1: bits(1, 2), 3: bits(3, 4)}


def test_filter_identical_strings_always_true():
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]), ("T", [["a"], ["b"], ["c"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)
    params = SearchParams(delta=0, quorum=2)
    for i in range(1, 4):
        assert filter_position(t, rt, 0, 1, i, params) == 3


def test_filter_disjoint_trans_string_blocks_quorum():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]),
                      ("U", [["x"], ["y"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=3)
    for i in (1, 2):
        # U hits nothing, so it never joins T among the live strings
        assert filter_position(t, rt, 0, 2, i, params) == -1
        assert filter_position(t, rt, 0, 1, i, params) == 2
        assert refine_bounds(t, rt, 0, i, [1], list(range(i, 3)), params) == []
    assert list(enumerate_pairs(ds, params)) == []


@pytest.mark.parametrize("delta", [0, 1, 2])
def test_filter_kills_string_whose_ridges_are_too_far_apart(delta):
    # every position of S hits T, so S has no trivial indel against T and
    # the min-size lookahead keeps T, but T's hits sit on ridges delta + 1
    # trivial indels apart: the ridge of T:1 reaches S:1 only, so no pair
    # [1, j] with T ends past 1
    gap = [["z"]] * (delta + 1)
    chars = [f"c{k}" for k in range(delta + 2)]
    trans = [[chars[0]]]
    for c in chars[1:]:
        trans += gap + [[c]]
    ds = make_dataset(("S", [[c] for c in chars]), ("T", trans))
    t = build_pos_tables(ds)
    assert t.nohit[0][1] == 0
    rt = build_all_ridge_t(t, delta)
    params = SearchParams(delta=delta, quorum=2, min_size=1)
    assert rt[0][1].reach(1) == bits(1)
    assert filter_position(t, rt, 0, 1, 1, params) == 1
    assert all(p.left.i == p.left.j for p in brute_force_pairs(ds, params))


def test_filter_demo_accepts_conserved_prefix(demo):
    t = build_pos_tables(demo)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=3, min_size=6)
    for y in (1, 2):
        assert filter_position(t, rt, 0, y, 1, params) >= 8

