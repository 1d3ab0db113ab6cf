import pytest

from awci.model import AwciError, SearchParams
from awci.ridge import FilterState, build_all_ridge_t, build_ridge_t, filter_position
from awci.synth import random_instance
from awci.tables import BREAK_COST, build_pos_tables
from conftest import make_dataset


def test_width_one_for_fully_shared_pair():
    ds = make_dataset(("S", [["a", "x"], ["a", "y"], ["a"]]),
                      ("T", [["a"], ["a", "z"]]))
    t = build_pos_tables(ds)
    rt = build_ridge_t(t, 0, 1, 0)
    assert rt.width == 1
    assert rt.vec == [0, 1, 1, 1]


def test_demo_pair_single_ridge(demo):
    t = build_pos_tables(demo)
    # no S3 position is a trivial indel against S1, so S3 has one ridge
    assert all(t.hitmask[2][0][1:])
    rt = build_ridge_t(t, 0, 2, 1)
    assert rt.width == 1


def test_vectors_mark_reachable_ridges():
    ds = make_dataset(("S", [["a"], ["q"], ["b"]]),
                      ("T", [["a"], ["z"], ["b"]]))
    t = build_pos_tables(ds)
    # T ridges: position 1 (level 0) and position 3 (level 1), split by {z}
    rt0 = build_ridge_t(t, 0, 1, 0)
    assert rt0.vec[1] != 0 and rt0.vec[2] == 0 and rt0.vec[3] != 0
    # at delta=1 each hit dilates to both ridges
    rt1 = build_ridge_t(t, 0, 1, 1)
    assert bin(rt1.vec[1]).count("1") == 2
    assert bin(rt1.vec[3]).count("1") == 2


def test_width_within_structural_bound():
    for seed in range(25):
        ds = random_instance(seed)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for x in range(len(ds)):
                for y in range(len(ds)):
                    if x == y:
                        continue
                    rt = build_ridge_t(t, x, y, delta)
                    assert rt.width <= (delta + 1) * ds[y].cardinality


def test_slot_reuse_never_aliases_within_window():
    for seed in range(25):
        ds = random_instance(seed)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for x in range(len(ds)):
                for y in range(len(ds)):
                    if x == y:
                        continue
                    rt = build_ridge_t(t, x, y, delta, track_slots=True)
                    rc = t.ridge_c[x][y]
                    n = len(ds[x])
                    for j1 in range(1, n + 1):
                        for j2 in range(j1, n + 1):
                            if rc[j2] - rc[j1] > delta:
                                break
                            m1, m2 = rt.slot_ridges[j1], rt.slot_ridges[j2]
                            for slot in m1.keys() & m2.keys():
                                assert m1[slot] == m2[slot]


def test_slots_hold_dilated_levels_of_hits():
    # the level of a position k of S_y against S_x is the number of trivial
    # indels of S_y up to k plus BREAK_COST per contig break before k
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        t = build_pos_tables(ds)
        for x in range(len(ds)):
            for y in range(len(ds)):
                if x == y:
                    continue
                sx, sy = ds[x], ds[y]
                shared = sx.char_set()
                hit = [k for k in range(1, len(sy) + 1) if sy.at(k) & shared]
                level = {}
                for k in hit:
                    level[k] = (sum(1 for q in range(1, k + 1) if not sy.at(q) & shared)
                                + BREAK_COST * sum(1 for b in sy.contig_breaks if b < k))
                for delta in (0, 1, 2):
                    rt = build_ridge_t(t, x, y, delta, track_slots=True)
                    assert len(rt.vec) == len(rt.slot_ridges) == len(sx) + 1
                    for j in range(1, len(sx) + 1):
                        reached = {level[k2] for k in hit if sx.at(j) & sy.at(k)
                                   for k2 in hit if abs(level[k2] - level[k]) <= delta}
                        j_map = rt.slot_ridges[j]
                        assert sorted(j_map.values()) == sorted(reached)
                        assert rt.vec[j] == sum(1 << slot for slot in j_map)
                        if not t.pos[x][y][j]:
                            assert rt.vec[j] == 0 and not j_map


def fresh_state(ds, x, delta, i):
    st = FilterState(len(ds), x, delta)
    st.reset(i)
    return st


def test_filter_identical_strings_always_true():
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]), ("T", [["a"], ["b"], ["c"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)
    params = SearchParams(delta=0, quorum=2)
    st = fresh_state(ds, 0, 0, 1)
    for j in range(1, 4):
        assert filter_position(t, rt, 0, 1, j, st, params)


def test_filter_disjoint_trans_string_blocks_quorum():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]),
                      ("U", [["x"], ["y"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=3)
    for i in (1, 2):
        st = fresh_state(ds, 0, 1, i)
        for j in range(i, 3):
            assert not filter_position(t, rt, 0, i, j, st, params)


@pytest.mark.parametrize("delta", [0, 1, 2])
def test_filter_kills_string_whose_ridges_are_too_far_apart(delta):
    # every position of S hits T, so S has no trivial indel against T, but
    # T's hits sit on ridges delta + 1 trivial indels apart: [1, j] pairs
    # with an interval of T for j <= delta + 1 and with none after
    gap = [["z"]] * (delta + 1)
    chars = [f"c{k}" for k in range(delta + 2)]
    trans = [[chars[0]]]
    for c in chars[1:]:
        trans += gap + [[c]]
    ds = make_dataset(("S", [[c] for c in chars]), ("T", trans))
    t = build_pos_tables(ds)
    assert t.ridge_c[0][1][1] == t.ridge_c[0][1][delta + 2]
    rt = build_all_ridge_t(t, delta)
    params = SearchParams(delta=delta, quorum=2)
    st = fresh_state(ds, 0, delta, 1)
    for j in range(1, delta + 2):
        assert filter_position(t, rt, 0, 1, j, st, params)
        assert not st.dead[1]
    assert not filter_position(t, rt, 0, 1, delta + 2, st, params)
    assert st.dead[1]


def test_filter_demo_accepts_conserved_prefix(demo):
    t = build_pos_tables(demo)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=3, min_size=6)
    st = fresh_state(demo, 0, 1, 1)
    for j in range(1, 9):
        assert filter_position(t, rt, 0, 1, j, st, params)


def test_reset_equals_fresh_state():
    ds = random_instance(7)
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=2)
    n = len(ds[0])
    used = FilterState(len(ds), 0, 1)
    used.reset(1)
    for j in range(1, n + 1):
        filter_position(t, rt, 0, 1, j, used, params)
    used.reset(2)
    fresh = fresh_state(ds, 0, 1, 2)
    for j in range(2, n + 1):
        assert filter_position(t, rt, 0, 2, j, used, params) == \
            filter_position(t, rt, 0, 2, j, fresh, params)
        assert used.active == fresh.active
        assert used.deltas == fresh.deltas
        assert used.dead == fresh.dead


def test_reset_idempotent_and_clears_all_bits():
    st = FilterState(3, 0, 2)
    st.reset(1)
    st.active[1] = 0b101
    st.deltas[2][0] = 0b11
    st.dead[2] = True
    st.reset(4)
    before = (list(st.active), [list(d) for d in st.deltas], list(st.dead))
    st.reset(4)
    assert before == (list(st.active), [list(d) for d in st.deltas], list(st.dead))
    assert all(a == 0 for a in st.active)
    assert all(b == 0 for dv in st.deltas for b in dv)
    assert st.dead == [True, False, False]  # only the reference stays dead


def test_filter_contract_violations():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)
    params = SearchParams(delta=0, quorum=2)
    st = FilterState(2, 0, 0)
    st.reset(1)
    with pytest.raises(AwciError):
        filter_position(t, rt, 0, 2, 2, st, params)  # left bound changed, no reset
    st.reset(1)
    filter_position(t, rt, 0, 1, 2, st, params)
    with pytest.raises(AwciError):
        filter_position(t, rt, 0, 1, 2, st, params)  # j not increasing
