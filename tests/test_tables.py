from itertools import combinations, product

import pytest

from awci.model import AnchoredInterval, AwciError
from awci.oracle import at, char_set, intervals, judge_pair
from awci.synth import random_instance
from awci.tables import build_pos_tables, window
from conftest import make_dataset


@pytest.fixture(scope="module")
def demo_tables(demo):
    return build_pos_tables(demo)


def test_pos_demo(demo_tables):
    # S1[2] = {b,p} intersects S2 at {f,n,p}, {b,d}, {p}
    assert demo_tables.pos[0][1][2] == [2, 4, 10]
    # S1[3] = {x}; x absent from S3
    assert demo_tables.pos[0][2][3] == []


def test_pos_rows_sorted_and_correct(demo, demo_tables):
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            sx, sy = demo[x], demo[y]
            for i in range(1, len(sx) + 1):
                row = demo_tables.pos[x][y][i]
                assert row == sorted(set(row))
                expect = [k for k in range(1, len(sy) + 1) if at(sx, i) & at(sy, k)]
                assert row == expect


def test_pos_duality():
    # break_prob=0.3 gives multi-character positions, breaks and 1-long strings
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        pos = t.pos  # derived from hitmask on each read
        m = len(ds)
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                sx, sy = ds[x], ds[y]
                assert len(pos[x][y]) == len(t.hitmask[x][y]) == len(sx) + 1
                for i in range(1, len(sx) + 1):
                    expect = [k for k in range(1, len(sy) + 1) if at(sx, i) & at(sy, k)]
                    assert pos[x][y][i] == expect
                    for k in pos[x][y][i]:
                        assert i in pos[y][x][k]
                    assert t.hitmask[x][y][i] == sum(1 << k for k in pos[x][y][i])


def test_strings_at_matches_literal_scan():
    # contig breaks do not cut hits; up to 6 strings give masks of 6 bits
    for seed in range(40):
        ds = random_instance(seed, max_m=6, break_prob=0.4)
        t = build_pos_tables(ds)
        m = len(ds)
        assert len(t.strings_at) == m
        for x in range(m):
            sx = ds[x]
            assert len(t.strings_at[x]) == len(sx) + 1 and t.strings_at[x][0] == 0
            for i in range(1, len(sx) + 1):
                expect = 0
                for y in range(m):
                    if y != x and any(at(sx, i) & at(ds[y], k)
                                      for k in range(1, len(ds[y]) + 1)):
                        expect |= 1 << y
                assert t.strings_at[x][i] == expect
                assert not t.strings_at[x][i] >> x & 1
                assert all((t.strings_at[x][i] >> y & 1) == bool(t.hitmask[x][y][i])
                           for y in range(m) if y != x)


def test_tables_match_literal_scan_with_private_characters():
    # p1..p3 are private to S (p1 and p2 repeated in S, p2 also beside the
    # shared a, p3 beside the shared b); r is repeated within T only and u
    # within U only, so no other string holds them
    ds = make_dataset(
        ("S", [["p1"], ["a", "p2"], ["p2"], ["b", "p3"], ["p2", "p1"]], [3]),
        ("T", [["r"], ["b"], ["r", "q"], ["a", "b"], ["r"]]),
        ("U", [["q"], ["u"], ["a", "u"]]))
    t = build_pos_tables(ds)
    private_only = {0: [1, 3, 5], 1: [1, 5], 2: [2]}
    m = len(ds)
    for x in range(m):
        sx = ds[x]
        for i in range(1, len(sx) + 1):
            strings = 0
            for y in range(m):
                if y == x:
                    continue
                sy = ds[y]
                expect = sum(1 << k for k in range(1, len(sy) + 1) if at(sx, i) & at(sy, k))
                assert t.hitmask[x][y][i] == expect
                whole = char_set(sy, 1, len(sy))
                assert (t.nohit[x][y] >> i & 1) == (not at(sx, i) & whole)
                if expect:
                    strings |= 1 << y
            assert t.strings_at[x][i] == strings
            if i in private_only[x]:
                assert all(t.hitmask[x][y][i] == 0 for y in range(m) if y != x)
                assert t.strings_at[x][i] == 0
    # the mixed positions hit only through their shared characters
    assert t.hitmask[0][1][2] == 1 << 4 and t.hitmask[0][2][2] == 1 << 3
    assert t.hitmask[0][1][4] == (1 << 2) | (1 << 4) and t.hitmask[0][2][4] == 0
    assert t.hitmask[1][2][3] == 1 << 1 and t.strings_at[1][3] == 1 << 2


def test_nohit_demo(demo_tables):
    # S1 positions 3 ({x}) and 9 ({v,l}) share nothing with S3
    assert demo_tables.nohit[0][2] == (1 << 3) | (1 << 9)
    # every S1 set intersects C(S2)
    assert demo_tables.nohit[0][1] == 0


def test_nohit_identical_strings():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]))
    t = build_pos_tables(ds)
    assert t.nohit[0][1] == 0


def test_nohit_matches_literal_scan():
    for seed, break_prob in product(range(40), (0.3, 0.4)):
        ds = random_instance(seed, break_prob=break_prob)
        t = build_pos_tables(ds)
        for x in range(len(ds)):
            sx = ds[x]
            for y in range(len(ds)):
                if x == y:
                    continue
                shared = char_set(ds[y], 1, len(ds[y]))
                nohit = t.nohit[x][y]
                # no bit outside positions 1..n
                assert nohit & ~window(1, len(sx)) == 0
                for p in range(1, len(sx) + 1):
                    assert (nohit >> p & 1) == (not at(sx, p) & shared)


def test_awci_pairs_live_on_one_ridge():
    # trivial indels count against any common set, so an accepted pair can
    # never span more than delta of them on either side
    for seed in range(15):
        ds = random_instance(seed, max_m=3, max_n=8)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for xi, yi in combinations(range(len(ds)), 2):
                sx, sy = ds[xi], ds[yi]
                for (i, j) in intervals(sx):
                    for (k, l) in intervals(sy):
                        v = judge_pair(ds, AnchoredInterval(sx.id, i, j),
                                       AnchoredInterval(sy.id, k, l), delta)
                        if v.is_awci:
                            # why a ridge neighbourhood bounds every pair
                            assert (t.nohit[xi][yi] & window(i, j)).bit_count() <= delta
                            assert (t.nohit[yi][xi] & window(k, l)).bit_count() <= delta


def test_build_requires_two_strings():
    ds = make_dataset(("S", [["a"]]))
    with pytest.raises(AwciError):
        build_pos_tables(ds)


def test_one_character_hit_masks_share_one_int():
    # S positions 1 and 3 hold only a, whose occurrences in T sit at 10 and
    # 12: bit values past 256, which CPython does not cache, so two separately
    # built masks would be two objects
    ds = make_dataset(("S", [["a"], ["b"], ["a"], ["a", "b"]]),
                      ("T", [[f"t{k}"] for k in range(1, 10)] + [["a"], ["b"], ["a"]]))
    masks = build_pos_tables(ds).hitmask[0][1]
    assert masks[1] == masks[3] == (1 << 10) | (1 << 12)
    assert masks[1] is masks[3]
    assert masks[4] == masks[1] | 1 << 11
