from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, strategies as st

from awci.model import (
    Alphabet,
    AnchoredInterval,
    AwciPair,
    Dataset,
    FormatError,
    IndeterminateString,
    RangeError,
    SearchParams,
    ValidationError,
    build_string,
)
from awci.assemble import build_graph
from awci.oracle import at, char_set, intervals, is_closed_set, judge_pair, make_pair
from awci.synth import random_instance
from conftest import labels_of, make_dataset, two_strings


def test_alphabet_intern_dense_and_idempotent():
    al = Alphabet()
    assert al.intern_sets([["g"], ["g", "b"]]) == [frozenset({0}), frozenset({0, 1})]
    assert al.intern_sets([["b"], ["g"]]) == [frozenset({1}), frozenset({0})]
    assert [al.label(0), al.label(1)] == ["g", "b"]


def test_alphabet_rejects_empty_label():
    with pytest.raises(FormatError):
        Alphabet().intern_sets([["a", ""]])


LABELS = st.text(alphabet="abc.", min_size=1, max_size=2)


@given(st.lists(st.lists(st.lists(LABELS, min_size=1, max_size=4), max_size=6),
                min_size=1, max_size=3))
def test_intern_sets_matches_first_seen_reference(calls):
    # repeated labels in a position, multi-label positions, and ids that
    # continue across calls, against the literal first-seen numbering
    al = Alphabet()
    ids: dict[str, int] = {}
    for label_sets in calls:
        want = []
        for labels in label_sets:
            for label in labels:
                ids.setdefault(label, len(ids))
            want.append(frozenset(ids[label] for label in labels))
        assert al.intern_sets(label_sets) == want
        assert al._labels == list(ids)
        assert all(al.label(c) == label for label, c in ids.items())


@given(st.lists(LABELS, max_size=3), st.lists(LABELS, max_size=3))
def test_intern_sets_refuses_empty_label_anywhere(before, after):
    with pytest.raises(FormatError, match="empty character label"):
        Alphabet().intern_sets([["a"], before + [""] + after])


def test_demo_string_counts(demo):
    s1 = demo["S1"]
    assert len(s1) == 12
    assert len(demo["S2"]) == 11
    assert len(demo["S3"]) == 13


def test_single_position_string():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    assert len(s) == 1 and at(s, 1) == frozenset({0})


def test_empty_position_set_rejected():
    al = Alphabet()
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], []])
    with pytest.raises(ValidationError):
        IndeterminateString("S", [frozenset()])


@pytest.mark.parametrize("sid", ["G 1", "H\ta", " G", "G\n"])
def test_string_id_with_whitespace_rejected(sid):
    # the pairs and sets outputs delimit ids with tabs and spaces
    with pytest.raises(ValidationError, match="whitespace"):
        build_string(Alphabet(), sid, [["a"]])


def test_contig_break_out_of_range():
    al = Alphabet()
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], ["b"]], [2])
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], ["b"]], [0])


@pytest.mark.parametrize("brk", [1.7, 1.0, True, "2"])
def test_contig_break_must_be_an_int(brk):
    # int() once stored 1.7 and True as break 1 and "2" as break 2
    positions = [frozenset({1}), frozenset({2}), frozenset({3})]
    with pytest.raises(ValidationError, match="not an int"):
        IndeterminateString("S", positions, [brk])
    with pytest.raises(ValidationError, match="not an int"):
        IndeterminateString("S", positions, [2, brk])
    s = IndeterminateString("S", positions, [2, 1, 2])  # a repeated break counts once
    assert s.contig_breaks == {1, 2} and s.contig_of[1:] == ((1, 1), (2, 2), (3, 3))


def test_char_set_demo(demo):
    assert labels_of(demo, char_set(demo["S1"], 1, 2)) == {"g", "b", "p"}
    assert labels_of(demo, char_set(demo["S3"], 1, 8)) == \
        {"d", "g", "b", "a", "p", "s", "n", "f", "m", "w", "e"}


def test_char_set_singleton():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    assert char_set(s, 1, 1) == al.intern_sets([["a"]])[0]


def test_char_set_range_errors(demo):
    s = demo["S1"]
    with pytest.raises(RangeError):
        char_set(s, 3, 2)
    with pytest.raises(RangeError):
        char_set(s, 1, 13)
    with pytest.raises(RangeError):
        at(s, 0)


def test_char_set_monotone(demo):
    s = demo["S2"]
    for i in range(1, len(s) + 1):
        for j in range(i, len(s) + 1):
            inner = char_set(s, i, j)
            assert inner <= char_set(s, max(1, i - 1), min(len(s), j + 1))


def test_contig_table_and_intervals():
    ds = make_dataset(("S", [["a"], ["b"], ["c"], ["d"], ["e"]], [2]))
    s = ds["S"]
    assert s.contig_of[1] == (1, 2)
    assert s.contig_of[3] == (3, 5)
    assert ds.check_interval(AnchoredInterval("S", 1, 2)) == 0
    with pytest.raises(ValidationError, match="straddles"):
        ds.check_interval(AnchoredInterval("S", 2, 3))
    ivs = list(intervals(s))
    assert (2, 3) not in ivs and (1, 2) in ivs and (3, 5) in ivs
    # 3 intervals in the first contig, 6 in the second
    assert len(ivs) == 3 + 6


def test_contig_table_matches_breaks():
    singles = 0
    for seed in range(100):
        for s in random_instance(seed, break_prob=0.4):
            n = len(s)
            assert len(s.contig_of) == n + 1 and s.contig_of[0] is None
            for p in range(1, n + 1):
                first = 1 + max((b for b in s.contig_breaks if b < p), default=0)
                last = min((b for b in s.contig_breaks if b >= p), default=n)
                assert s.contig_of[p] == (first, last)
                singles += first == last
    assert singles > 100


def test_string_equality_and_hash():
    a = make_dataset(("S", [["a"], ["b"]]))["S"]
    b = make_dataset(("S", [["a"], ["b"]]))["S"]
    assert a == b and hash(a) == hash(b)
    c = make_dataset(("S", [["a"], ["b"]], [1]))["S"]
    assert a != c


def test_anchored_interval():
    iv = AnchoredInterval("S1", 2, 7)
    assert iv.length == 6
    assert str(iv) == "S1:2-7"
    assert AnchoredInterval("S1", 1, 1) < iv
    with pytest.raises(ValidationError):
        AnchoredInterval("S1", 3, 2)
    with pytest.raises(ValidationError):
        AnchoredInterval("S1", 0, 2)


def test_pairs_and_intervals_are_tuples():
    # built, hashed and compared in C; an interval hashes and orders as its
    # field tuple, so vertex dicts and sorted outputs keep their order
    assert issubclass(AwciPair, tuple) and issubclass(AnchoredInterval, tuple)
    ivs = [AnchoredInterval("S2", 1, 3), AnchoredInterval("S1", 2, 2),
           AnchoredInterval("S1", 1, 4), AnchoredInterval("S1", 1, 2)]
    fields = [(iv.string_id, iv.i, iv.j) for iv in ivs]
    assert [hash(iv) for iv in ivs] == [hash(f) for f in fields]
    assert [tuple(iv) for iv in sorted(ivs)] == sorted(fields)


def test_dataset_lookup_and_checks(demo):
    assert demo.index_of("S2") == 1
    assert demo["S2"] is demo[1]
    assert demo.check_interval(AnchoredInterval("S1", 1, 12)) == 0
    with pytest.raises(RangeError):
        demo.check_interval(AnchoredInterval("S1", 1, 13))
    ds = make_dataset(("S", [["a"], ["b"]], [1]), ("T", [["a"]]))
    with pytest.raises(ValidationError):
        ds.check_interval(AnchoredInterval("S", 1, 2))


def check_through_graph(ds, good, bad):
    pair = AwciPair(left=good, right=bad, common_size=0, indel_total=0,
                    size_left=good.length, size_right=bad.length)
    build_graph([pair], ds, SearchParams(delta=0, quorum=2))


@pytest.mark.parametrize("bad, error", [
    (AnchoredInterval("X", 1, 1), ValidationError),  # unknown string
    (AnchoredInterval("S", 1, 3), RangeError),  # past S's end
    (AnchoredInterval("T", 2, 3), RangeError),  # across T's break
], ids=["unknown-string", "past-end", "across-break"])
def test_every_interval_check_is_the_dataset_one(bad, error):
    # the graph build and the oracle raise what `Dataset.check_interval`
    # raises, class and message alike
    ds = two_strings()
    good = AnchoredInterval("T" if bad.string_id == "S" else "S", 1, 1)
    params = SearchParams(delta=2, quorum=2, min_size=1)
    with pytest.raises(ValidationError) as expected:
        ds.check_interval(bad)
    assert type(expected.value) is error
    for call in (lambda: check_through_graph(ds, good, bad),
                 lambda: judge_pair(ds, good, bad, params.delta),
                 lambda: make_pair(ds, good, bad, params),
                 lambda: is_closed_set(ds, [good, bad])):
        with pytest.raises(ValidationError) as got:
            call()
        assert type(got.value) is error
        assert str(got.value) == str(expected.value)


def test_dataset_duplicate_ids():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    with pytest.raises(ValidationError):
        Dataset([s, s], al)


@pytest.mark.parametrize("kwargs", [
    {"delta": -1}, {"quorum": 1}, {"min_size": -1},
    # not ints: quorum=2.5 once ran and reported nothing, and 3.0, 0.5 and
    # 1.5 raised a bare TypeError deep in the search
    {"quorum": 2.5}, {"quorum": 3.0}, {"delta": 0.5}, {"delta": 1.0},
    {"min_size": 1.5}, {"quorum": True}, {"delta": False}, {"min_size": "2"},
])
def test_search_params_validation(kwargs):
    with pytest.raises(ValidationError):
        SearchParams(**kwargs)


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3),
                min_size=1, max_size=8))
def test_build_string_roundtrips_sets(label_sets):
    al = Alphabet()
    s = build_string(al, "S", label_sets)
    assert len(s) == len(label_sets)
    for p, labels in enumerate(label_sets, start=1):
        assert {al.label(c) for c in at(s, p)} == set(labels)


def test_shared_masks_match_frozensets():
    # the common set of two intervals on different strings has the size of
    # the AND of their ORed masks, and a mask is 0 exactly where a position
    # shares nothing with the other strings
    for seed in range(200):
        ds = random_instance(seed)
        masks = ds.shared_masks
        per_string = []
        for x, s in enumerate(ds):
            others = frozenset().union(*(char_set(t, 1, len(t)) for t in ds if t is not s))
            assert len(masks[x]) == len(s) + 1 and masks[x][0] == 0
            for p in range(1, len(s) + 1):
                assert (masks[x][p] == 0) == at(s, p).isdisjoint(others)
            per_string.append([(char_set(s, i, j), reduce(or_, masks[x][i:j + 1]))
                               for i, j in intervals(s)])
        for ivs_x, ivs_y in combinations(per_string, 2):
            assert all((mask_a & mask_b).bit_count() == len(set_a & set_b)
                       for set_a, mask_a in ivs_x for set_b, mask_b in ivs_y), seed


def test_shared_masks_drop_private_characters():
    ds = make_dataset(("S", [["x"], ["a", "y"], ["b"]]), ("T", [["b", "z"], ["a"]]))
    a, b = ds.shared_masks[0][2], ds.shared_masks[0][3]
    assert ds.shared_masks[0] == (0, 0, a, b)
    assert ds.shared_masks[1] == (0, b, a)
    assert a & b == 0 and a.bit_count() == b.bit_count() == 1
