from itertools import combinations

import pytest

from awci.model import AnchoredInterval, AwciError
from awci.oracle import judge_pair
from awci.synth import random_instance
from awci.tables import BREAK_COST, build_pos_tables
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
                expect = [k for k in range(1, len(sy) + 1) if sx.at(i) & sy.at(k)]
                assert row == expect


def test_pos_duality():
    # break_prob=0.3 gives multi-character positions, breaks and 1-long strings
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        m = len(ds)
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                sx, sy = ds[x], ds[y]
                assert len(t.pos[x][y]) == len(t.hitmask[x][y]) == len(sx) + 1
                for i in range(1, len(sx) + 1):
                    expect = [k for k in range(1, len(sy) + 1) if sx.at(i) & sy.at(k)]
                    assert t.pos[x][y][i] == expect
                    for k in t.pos[x][y][i]:
                        assert i in t.pos[y][x][k]
                    assert t.hitmask[x][y][i] == sum(1 << k for k in t.pos[x][y][i])


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
                    if y != x and any(sx.at(i) & ds[y].at(k)
                                      for k in range(1, len(ds[y]) + 1)):
                        expect |= 1 << y
                assert t.strings_at[x][i] == expect
                assert not t.strings_at[x][i] >> x & 1
                assert all((t.strings_at[x][i] >> y & 1) == bool(t.hitmask[x][y][i])
                           for y in range(m) if y != x)


def test_ridge_c_demo(demo_tables):
    # S1 positions 3 ({x}) and 9 ({v,l}) share nothing with S3
    assert demo_tables.ridge_c[0][2] == [0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2]
    # every S1 set intersects C(S2)
    assert demo_tables.ridge_c[0][1] == [0] * 13


def test_ridge_c_identical_strings():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]))
    t = build_pos_tables(ds)
    assert t.ridge_c[0][1] == [0, 0, 0]


def test_ridge_c_steps_match_empty_rows():
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        for x in range(len(ds)):
            breaks = ds[x].contig_breaks
            for y in range(len(ds)):
                if x == y:
                    continue
                rc = t.ridge_c[x][y]
                assert len(rc) == len(ds[x]) + 1 and rc[0] == 0
                for p in range(1, len(ds[x]) + 1):
                    step = rc[p] - rc[p - 1]
                    assert step % BREAK_COST in (0, 1)
                    assert (step % BREAK_COST == 1) == (not t.pos[x][y][p])
                    # the break cost sits on the first position after a break
                    assert (step // BREAK_COST == 1) == (p > 1 and (p - 1) in breaks)


def test_awci_pairs_live_on_one_ridge():
    # trivial indels count against any common set, so an accepted pair can
    # never span more than delta of them on either side
    for seed in range(15):
        ds = random_instance(seed, max_m=3, max_n=8)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for xi, yi in combinations(range(len(ds)), 2):
                sx, sy = ds[xi], ds[yi]
                for (i, j) in sx.intervals():
                    for (k, l) in sy.intervals():
                        v = judge_pair(ds, AnchoredInterval(sx.id, i, j),
                                       AnchoredInterval(sy.id, k, l), delta)
                        if v.is_awci:
                            # why a ridge neighbourhood bounds every pair
                            rc_xy, rc_yx = t.ridge_c[xi][yi], t.ridge_c[yi][xi]
                            assert rc_xy[j] - rc_xy[i] <= delta
                            assert rc_yx[l] - rc_yx[k] <= delta


def test_build_requires_two_strings():
    ds = make_dataset(("S", [["a"]]))
    with pytest.raises(AwciError):
        build_pos_tables(ds)
