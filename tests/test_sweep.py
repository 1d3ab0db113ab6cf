from collections import Counter, defaultdict

import pytest

import awci.sweep
from awci.model import (
    AnchoredInterval,
    AwciError,
    Dataset,
    IndeterminateString,
    SearchParams,
    ValidationError,
)
from awci.oracle import (at, brute_force_grouped_pairs, brute_force_pairs, char_set,
                         intervals, make_pair)
from awci.ridge import build_all_ridge_t, filter_position
from awci.sweep import (
    _trans_walk,
    candidate_right_bounds,
    collect_anchors,
    enumerate_pairs,
    enumerate_trans_intervals,
    refine_bounds,
)
from awci.synth import PlantedSpec, generate_planted, random_instance
from awci.tables import build_pos_tables, set_bits
from conftest import make_dataset, perfbench_workloads


def test_collect_anchors_demo(demo):
    t = build_pos_tables(demo)
    # g occurs only at S3 position 2
    assert collect_anchors(t, 0, 2, 1) == [2]
    # S1:2 = {b, p}: {g,b} at 2, {p,s} at 4, {a,b} at 6
    assert collect_anchors(t, 0, 2, 2) == [2, 4, 6]


def test_collect_anchors_trivial_indel(demo):
    t = build_pos_tables(demo)
    # S1 position 3 = {x} shares nothing with S3
    assert collect_anchors(t, 0, 2, 3) == []


def test_every_pair_holds_an_anchor():
    # endpoint anchoring: the right interval of every pair holds a position
    # hitting the left bound i, so walks started only at those positions
    # miss no pair
    pairs = 0
    for seed in range(30):
        ds = random_instance(seed, break_prob=0.4)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for p in brute_force_pairs(ds, SearchParams(delta=delta, quorum=2,
                                                        min_size=1)):
                for a, b in ((p.left, p.right), (p.right, p.left)):
                    x, y = ds.index_of(a.string_id), ds.index_of(b.string_id)
                    anchors = collect_anchors(t, x, y, a.i)
                    assert any(b.i <= q <= b.j for q in anchors), (seed, delta, a, b)
                pairs += 1
    assert pairs > 1000


def test_right_bounds_pass_through_clamped():
    ds = make_dataset(("S", [["a"]] * 7, [5]), ("T", [["a"]]))
    t = build_pos_tables(ds)
    assert candidate_right_bounds(t, None, 0, 3, SearchParams()) == [3, 4, 5]


def test_right_bounds_demo_filter(demo):
    t = build_pos_tables(demo)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=3, min_size=6)
    J = refine_bounds(t, rt, 0, 1, [1, 2], candidate_right_bounds(t, rt, 0, 1, params),
                      params)
    assert set(J) >= set(range(1, 9))


def test_right_bounds_unsatisfiable_quorum(demo):
    t = build_pos_tables(demo)
    rt = build_all_ridge_t(t, 1)
    params = SearchParams(delta=1, quorum=4)
    J = candidate_right_bounds(t, rt, 0, 1, params)
    assert refine_bounds(t, rt, 0, 1, [1, 2], J, params) == []


def test_trans_intervals_demo(demo):
    t = build_pos_tables(demo)
    params = SearchParams(delta=1, quorum=3, min_size=6)
    # (j, k, l, covered, d) for j in 6..12: S1 position 3 misses S3:1-8;
    # S2 position 6 misses S1:1-8 but hits S1:9, so S2:2-7 has one indel
    # against S1:1-8 and none against S1:1-9
    vs_s3 = enumerate_trans_intervals(t, 0, 1, 6, 12, 2, params)
    assert (8, 1, 8, 7, 0) in vs_s3
    vs_s2 = enumerate_trans_intervals(t, 0, 1, 6, 12, 1, params)
    assert {(8, 2, 7, 8, 1), (9, 2, 7, 9, 0)} <= set(vs_s2)
    # a range call is the per-j calls laid end to end
    assert vs_s2 == [r for j in range(6, 13)
                     for r in enumerate_trans_intervals(t, 0, 1, j, j, 1, params)]


def test_trans_intervals_disjoint_alphabets():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["x"], ["y"]]))
    t = build_pos_tables(ds)
    params = SearchParams(delta=2, quorum=2)
    assert collect_anchors(t, 0, 1, 1) == []
    assert enumerate_trans_intervals(t, 0, 1, 1, 2, 1, params) == []


def test_trans_intervals_past_word_boundary():
    # hit masks of 150 positions: the windows sit above bit 64, in strings with
    # contig breaks inside and around the planted blocks (67-90, 111-134)
    planted, _ = generate_planted(PlantedSpec(
        m=3, n=150, block_count=3, block_length=24, planted_delta=3,
        background_sharing=0.5, alphabet_size=8, seed=5))
    breaks = ((40, 140), (30, 135), (60, 110))
    ds = Dataset([IndeterminateString(s.id, s.positions, b)
                  for s, b in zip(planted, breaks)], planted.alphabet)
    t = build_pos_tables(ds)
    seen = {"pairs": 0, "d > 0": 0, "covered < span": 0, "right bounds": 0}
    for delta in (0, 1, 2):
        params = SearchParams(delta=delta, quorum=2, min_size=1)
        rt = build_all_ridge_t(t, delta)
        for x, i, y in ((0, 77, 1), (0, 125, 2), (2, 120, 0), (1, 120, 2)):
            J = refine_bounds(t, rt, x, i, set_bits(t.strings_at[x][i]),
                              candidate_right_bounds(t, rt, x, i, params), params)
            # one call over the unit's J holds the pairs of every j in J
            got = enumerate_trans_intervals(t, x, i, J[0], J[-1], y, params)
            sy = ds[y]
            expected = []
            for j in J:
                a = AnchoredInterval(ds[x].id, i, j)
                # make_pair needs both ends of [k, l] to meet the common set,
                # which lies in the character set of [i, j]
                chars = char_set(ds[x], i, j)
                for (k, l) in intervals(sy):
                    if at(sy, k).isdisjoint(chars) or at(sy, l).isdisjoint(chars):
                        continue
                    pair = make_pair(ds, a, AnchoredInterval(sy.id, k, l), params)
                    if pair is None:
                        continue
                    size_x, size_y = (pair.size_left, pair.size_right) if x < y \
                        else (pair.size_right, pair.size_left)
                    expected.append((j, k, l, size_x, l - k + 1 - size_y))
            assert got == expected, (delta, x, i, y)
            seen["pairs"] += len(got)
            seen["d > 0"] += sum(1 for *_, d in got if d)
            seen["covered < span"] += sum(1 for j, _, _, c, _ in got if c < j - i + 1)
            seen["right bounds"] += len({j for j, *_ in got}) > 1
    assert min(seen.values()) > 0, seen


def oracle_trans_intervals(ds, params):
    """(x, i, y) -> sorted (j, k, l, covered, d) of every reportable pair of
    an interval [i, j] of S_x with an interval [k, l] of S_y, from
    `brute_force_pairs`; covered and d are the non-indel count of [i, j] and
    the indel count of [k, l]."""
    out = defaultdict(list)
    for p in brute_force_pairs(ds, params):
        for a, b, size_a, size_b in ((p.left, p.right, p.size_left, p.size_right),
                                     (p.right, p.left, p.size_right, p.size_left)):
            out[ds.index_of(a.string_id), a.i, ds.index_of(b.string_id)].append(
                (a.j, b.i, b.j, size_a, b.length - size_b))
    return {key: sorted(v) for key, v in out.items()}


def test_trans_intervals_range_matches_oracle_per_j():
    # small min_size gives many right bounds below jend, where the walk's own
    # indel count does not hold: there the positions of [k, l] hitting
    # nothing in [i, j] are counted afresh
    cases = {"results": 0, "j < jend": 0, "existence checked": 0}
    for seed in range(30):
        ds = random_instance(seed, break_prob=0.4)
        t = build_pos_tables(ds)
        for delta in (0, 1, 2):
            for min_size in (0, 1, 2):
                params = SearchParams(delta=delta, quorum=2, min_size=min_size)
                expected = oracle_trans_intervals(ds, params)
                for x, sx in enumerate(ds):
                    for i in range(1, len(sx) + 1):
                        jmin = max(i, i + min_size - 1)
                        jend = sx.contig_bounds(i)[1]
                        if jmin > jend:
                            continue
                        for y in range(len(ds)):
                            if y == x:
                                continue
                            got = enumerate_trans_intervals(t, x, i, jmin, jend, y,
                                                            params)
                            want = expected.get((x, i, y), [])
                            assert got == want, (seed, params, x, i, y)
                            cases["results"] += len(got)
                            cases["j < jend"] += sum(1 for r in got if r[0] < jend)
                            wanted_ends = {r[0] for r in want}
                            for j in range(jmin, jend + 1):
                                first = next(_trans_walk(t, x, i, j, j, y, params),
                                             None)
                                assert (first is not None) == (j in wanted_ends), \
                                    (seed, params, x, i, j, y)
                                cases["existence checked"] += 1
    assert min(cases.values()) > 100, cases


def test_refine_takes_quorum_th_largest_reach():
    # reference reaches position 9 through T but only 7 through U
    chars = [f"c{p}" for p in range(1, 10)]
    ds = make_dataset(
        ("S", [[c] for c in chars]),
        ("T", [[c] for c in chars]),
        ("U", [[c] for c in chars[:7]]),
    )
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)
    J = list(range(1, 10))
    assert refine_bounds(t, rt, 0, 1, [1, 2], J, SearchParams(delta=0, quorum=3)) == \
        list(range(1, 8))
    assert refine_bounds(t, rt, 0, 1, [1, 2], J, SearchParams(delta=0, quorum=2)) == J


def test_refine_abandons_unreachable_left_bound():
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]), ("T", [["a"], ["z"], ["z"]]))
    t = build_pos_tables(ds)
    rt = build_all_ridge_t(t, 0)
    params = SearchParams(delta=0, quorum=2)
    # S position 3 reaches nothing, so no string is live there
    assert filter_position(t, rt, 0, 1, 3, params) == -1
    assert refine_bounds(t, rt, 0, 3, [], [3], params) == []
    # T's ridge at T:1 reaches S:1 only
    assert refine_bounds(t, rt, 0, 1, [1], [1, 2, 3], params) == [1]


def test_refine_stops_at_first_fatal_string_at_full_quorum(monkeypatch):
    # quorum = m = 4, delta = 0, min_size = 4: for a unit at position 1 every
    # other string is live, and U's ridge (U:1-2, cut by z) reaches only
    # positions 1-2, short of jt = 4. At full quorum one such string ends the
    # unit, so V, after U in `live`, is never bounded.
    ds = make_dataset(("S", [["a"], ["b"], ["c"], ["d"]]),
                      ("T", [["a"], ["b"], ["c"], ["d"]]),
                      ("U", [["a"], ["b"], ["z"], ["c"], ["d"]]),
                      ("V", [["a"], ["b"], ["c"], ["d"]]))
    original = awci.sweep.filter_position
    calls = []

    def counting(tables, ridge_t, x, y, i, params):
        end = original(tables, ridge_t, x, y, i, params)
        calls.append((x, y, i, end))
        return end

    params = SearchParams(delta=0, quorum=4, min_size=4)
    monkeypatch.setattr(awci.sweep, "filter_position", counting)
    got = list(enumerate_pairs(ds, params))
    # units S:1 and T:1 each stop at U; S:2-4 and T:2-4 end before jt, and
    # no unit of U is live past the lookahead (z at U:3)
    assert calls == [(0, 1, 1, 4), (0, 2, 1, 2), (1, 0, 1, 4), (1, 2, 1, 2)]
    assert got == list(enumerate_pairs(ds, params, use_filter=False)) == []
    # with a quorum one lower U may be the string left out, so all are bounded
    calls.clear()
    lower = SearchParams(delta=0, quorum=3, min_size=4)
    assert list(enumerate_pairs(ds, lower)) == \
        list(enumerate_pairs(ds, lower, use_filter=False)) != []
    assert [c[:3] for c in calls[:3]] == [(0, 1, 1), (0, 2, 1), (0, 3, 1)]


def test_enumerate_pairs_full_quorum_filter_matches_unfiltered():
    # the early exit of the ridge bound drops no pair at quorum = m
    nonempty = 0
    for seed in range(40):
        ds = random_instance(seed, break_prob=0.3)
        for delta, min_size in ((0, 2), (1, 3), (1, 4)):
            params = SearchParams(delta=delta, quorum=len(ds), min_size=min_size)
            got = list(enumerate_pairs(ds, params))
            assert got == list(enumerate_pairs(ds, params, use_filter=False))
            nonempty += bool(got)
    assert nonempty > 20


def test_enumerate_pairs_refuses_ridge_t_of_another_delta(demo):
    t = build_pos_tables(demo)
    params = SearchParams(delta=1, quorum=3, min_size=6)
    with pytest.raises(AwciError):
        list(enumerate_pairs(demo, params, tables=t, ridge_t=build_all_ridge_t(t, 0)))
    assert list(enumerate_pairs(demo, params, tables=t, ridge_t=build_all_ridge_t(t, 1)))


def test_enumerate_pairs_refuses_tables_of_another_dataset():
    # these tables gave 29 pairs where the oracle finds 940, without an error
    ds, other = random_instance(3), random_instance(4)
    params = SearchParams(delta=1, quorum=2)
    with pytest.raises(AwciError, match="another dataset"):
        list(enumerate_pairs(ds, params, tables=build_pos_tables(other)))
    with pytest.raises(AwciError, match="another dataset"):
        list(enumerate_pairs(ds, params, use_filter=False,
                             tables=build_pos_tables(other)))


def test_enumerate_pairs_refuses_ridge_t_of_other_tables():
    ds, other = random_instance(3), random_instance(4)
    params = SearchParams(delta=1, quorum=2)
    t = build_pos_tables(ds)
    foreign = build_all_ridge_t(build_pos_tables(other), params.delta)
    with pytest.raises(AwciError, match="other tables"):
        list(enumerate_pairs(ds, params, tables=t, ridge_t=foreign))
    # a second build of the same dataset's tables is another object too
    with pytest.raises(AwciError, match="other tables"):
        list(enumerate_pairs(ds, params, tables=t, ridge_t=build_all_ridge_t(
            build_pos_tables(ds), params.delta)))
    assert (list(enumerate_pairs(ds, params, tables=t,
                                 ridge_t=build_all_ridge_t(t, params.delta)))
            == brute_force_pairs(ds, params))


@pytest.mark.parametrize("threads", [0, 2])
def test_enumerate_pairs_refuses_threads_other_than_one(demo, threads):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    with pytest.raises(ValidationError, match=f"threads={threads}"):
        list(enumerate_pairs(demo, params, threads=threads))
    assert list(enumerate_pairs(demo, params, threads=1))


def test_enumerate_pairs_quorum_unsatisfiable():
    ds = make_dataset(("S", [["a"]]), ("T", [["a"]]))
    assert list(enumerate_pairs(ds, SearchParams(delta=0, quorum=3))) == []


def test_enumerate_pairs_identical_strings_full_length():
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]), ("T", [["a"], ["b"], ["c"]]))
    pairs = list(enumerate_pairs(ds, SearchParams(delta=0, quorum=2, min_size=3)))
    assert [(str(p.left), str(p.right)) for p in pairs] == [("S:1-3", "T:1-3")]


def test_enumerate_pairs_matches_oracle_with_filter():
    for seed in range(40):
        for ds in (random_instance(seed), random_instance(seed, break_prob=0.4)):
            for delta in (0, 1, 2):
                params = SearchParams(delta=delta, quorum=2, min_size=1)
                expected = brute_force_pairs(ds, params)
                assert list(enumerate_pairs(ds, params)) == expected
                assert list(enumerate_pairs(ds, params, use_filter=False)) == expected


def test_enumerate_pairs_grouped_matches_oracle():
    # with grouping, a pair is reported iff its left interval pairs with
    # intervals of at least quorum - 1 distinct strings, on either side
    cases = nonempty = 0
    for seed in range(60):
        ds = random_instance(seed)
        for delta in (0, 1, 2):
            for min_size in (1, 2, 3):
                reference = brute_force_pairs(ds, SearchParams(delta=delta,
                                                               min_size=min_size))
                for quorum in range(2, len(ds) + 1):
                    params = SearchParams(delta=delta, quorum=quorum, min_size=min_size)
                    expected = brute_force_grouped_pairs(ds, params, reference)
                    assert list(enumerate_pairs(ds, params)) == expected, (seed, params)
                    cases += 1
                    nonempty += bool(expected)
    assert (cases, nonempty) == (1071, 916)


def count_existence_walks(monkeypatch):
    """Patch the sweep so that each `_trans_walk` call made outside
    `enumerate_trans_intervals`, an existence test, is listed as (x, i, j)."""
    walk, trans = awci.sweep._trans_walk, awci.sweep.enumerate_trans_intervals
    calls = []
    inside = False

    def counting_walk(tables, x, i, jmin, jend, y, params):
        if not inside:
            calls.append((x, i, jmin))
        return walk(tables, x, i, jmin, jend, y, params)

    def marking_trans(*args):
        nonlocal inside
        inside = True
        try:
            return trans(*args)
        finally:
            inside = False

    monkeypatch.setattr(awci.sweep, "_trans_walk", counting_walk)
    monkeypatch.setattr(awci.sweep, "enumerate_trans_intervals", marking_trans)
    return calls


def test_planted_sets_coverage_needs_no_existence_walk(monkeypatch):
    # on perfbench's planted-sets (quorum = m) every string before x that
    # counts towards the quorum already emitted its pair with [i, j]_x, so the
    # partner bits answer every coverage test and no existence walk runs
    calls = count_existence_walks(monkeypatch)
    spec, params, seed_base = perfbench_workloads()["planted-sets"]
    params = SearchParams(**params)
    pairs = 0
    for u in range(16):
        ds, _ = generate_planted(PlantedSpec(seed=seed_base + u, **spec))
        pairs += len(list(enumerate_pairs(ds, params)))
    assert calls == [] and pairs > 16 * 100


def test_partner_bits_answer_coverage_tests(monkeypatch):
    # A reported left interval [i, j]_x needs quorum - 1 partner strings: the
    # right strings of its reported pairs plus strings before x. When fewer
    # existence walks ran at (x, i, j) than strings before x were needed, the
    # partner bits counted the others. These are the cases of
    # test_enumerate_pairs_grouped_matches_oracle, so it checks the bits.
    calls = count_existence_walks(monkeypatch)
    answered = 0
    for seed in range(60):
        ds = random_instance(seed)
        for delta in (0, 1, 2):
            for min_size in (1, 2, 3):
                for quorum in range(3, len(ds) + 1):
                    params = SearchParams(delta=delta, quorum=quorum, min_size=min_size)
                    calls.clear()
                    got = list(enumerate_pairs(ds, params))
                    later = defaultdict(set)
                    for p in got:
                        later[p.left].add(p.right.string_id)
                    walks = Counter(calls)
                    for left, strings in later.items():
                        x = ds.index_of(left.string_id)
                        answered += walks[x, left.i, left.j] < quorum - 1 - len(strings)
    assert answered > 0


def test_enumerate_pairs_min_size_lookahead_skips_units(monkeypatch):
    # delta=1, min_size=4. S:1 is hit by T and U, but S:2-3 (z, w) hit nothing
    # in either: delta + 1 trivial positions in [1, 4]. S:5-7 are hit, but
    # their contig ends at 7, before i + 3; T:3-5 are as close to T's end.
    # Only S:4 and T:1-2 reach the filter; S:4-7 pairs with T:2-5 and U:2-5.
    ds = make_dataset(("S", [["a"], ["z"], ["w"], ["b"], ["c"], ["d"], ["e"], ["f"]], [7]),
                      ("T", [["a"], ["b"], ["c"], ["d"], ["e"]]),
                      ("U", [["a"], ["b"], ["c"], ["d"], ["e"]]))
    original = awci.sweep.candidate_right_bounds
    for quorum in (2, 3):
        units = []

        def counting(tables, ridge_t, x, i, *args):
            units.append((x, i))
            return original(tables, ridge_t, x, i, *args)

        monkeypatch.setattr(awci.sweep, "candidate_right_bounds", counting)
        params = SearchParams(delta=1, quorum=quorum, min_size=4)
        expected = brute_force_grouped_pairs(ds, params)
        assert list(enumerate_pairs(ds, params)) == expected
        assert units == [(0, 4), (1, 1), (1, 2)]
        assert expected


def test_quorum_2_bounds_only_strings_after_the_reference(monkeypatch):
    # at quorum 2 a string after x is the whole quorum, so no unit (x, i)
    # bounds a string y < x, and the outputs stay those of the oracle
    original = awci.sweep.filter_position
    calls = []

    def counting(tables, ridge_t, x, y, i, params):
        calls.append((x, y))
        return original(tables, ridge_t, x, y, i, params)

    monkeypatch.setattr(awci.sweep, "filter_position", counting)
    nonempty = 0
    for seed in range(25):
        for ds in (random_instance(seed), random_instance(seed, break_prob=0.4)):
            for delta in (0, 1, 2):
                for min_size in (1, 2, 3, 4):
                    params = SearchParams(delta=delta, quorum=2, min_size=min_size)
                    expected = brute_force_grouped_pairs(ds, params)
                    assert list(enumerate_pairs(ds, params)) == expected, (seed, params)
                    nonempty += bool(expected)
    assert calls and all(y > x for x, y in calls)
    assert nonempty > 200


def test_unit_without_live_strings_after_the_reference_is_not_bounded(monkeypatch):
    # quorum 3, delta 0, min_size 3: V hits U:1 (a) but not U:2-3, so the
    # lookahead drops V from unit U:1, leaving S and T, both before U. They
    # meet the quorum but are never reported, so U:1 ends before its bounds.
    # U:2-3 are hit by no string after U and are not listed at all.
    ds = make_dataset(("S", [["a"], ["b"], ["c"]]),
                      ("T", [["a"], ["b"], ["c"]]),
                      ("U", [["a"], ["b"], ["c"]]),
                      ("V", [["a"], ["y"], ["z"]]))
    original = awci.sweep.candidate_right_bounds
    units = []

    def counting(tables, ridge_t, x, i, *args):
        units.append((x, i))
        return original(tables, ridge_t, x, i, *args)

    monkeypatch.setattr(awci.sweep, "candidate_right_bounds", counting)
    params = SearchParams(delta=0, quorum=3, min_size=3)
    expected = brute_force_grouped_pairs(ds, params)
    assert list(enumerate_pairs(ds, params)) == expected != []
    # S:2-3 and T:2-3 end before i + min_size - 1
    assert units == [(0, 1), (1, 1)]


def test_enumerate_pairs_grouped_matches_oracle_with_breaks_and_min_size():
    # contig breaks and min_size >= 3 make the min-size lookahead end units
    # at contig ends and drop strings with too many trivial positions
    cases = nonempty = 0
    for seed in range(120):
        ds = random_instance(seed, break_prob=0.4)
        for delta in (0, 1, 2):
            for min_size in (3, 4, 5):
                for quorum in range(2, len(ds) + 1):
                    params = SearchParams(delta=delta, quorum=quorum, min_size=min_size)
                    expected = brute_force_grouped_pairs(ds, params)
                    assert list(enumerate_pairs(ds, params)) == expected, (seed, params)
                    cases += 1
                    nonempty += bool(expected)
    assert (cases, nonempty) == (2070, 504)


def test_enumerate_pairs_quorum_grouping_subset_of_oracle(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    grouped = list(enumerate_pairs(demo, params))
    every = list(enumerate_pairs(demo, SearchParams(delta=1, quorum=2, min_size=6)))
    assert set(grouped) <= set(every)
    keys = {(str(p.left), str(p.right)) for p in grouped}
    assert {("S1:1-8", "S2:2-7"), ("S1:1-8", "S3:1-8"), ("S2:2-7", "S3:1-8")} <= keys


def test_enumerate_pairs_interns_intervals(demo):
    # equal intervals are one object, on the left and on the right side
    cases = [(demo, SearchParams(delta=1, quorum=2, min_size=1))]
    cases += [(random_instance(seed), SearchParams(delta=1, quorum=2, min_size=1))
              for seed in range(10)]
    both_sides = 0
    for ds, params in cases:
        pairs = list(enumerate_pairs(ds, params))
        first: dict[AnchoredInterval, AnchoredInterval] = {}
        for p in pairs:
            for iv in (p.left, p.right):
                assert first.setdefault(iv, iv) is iv
        both_sides += len({p.left for p in pairs} & {p.right for p in pairs})
    assert both_sides > 10
