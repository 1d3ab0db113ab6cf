import pytest
from hypothesis import given, strategies as st

from awci.model import (
    Alphabet,
    AnchoredInterval,
    Dataset,
    FormatError,
    IndeterminateString,
    RangeError,
    SearchParams,
    ValidationError,
    build_string,
)
from conftest import labels_of, make_dataset


def test_alphabet_intern_dense_and_idempotent():
    al = Alphabet()
    assert al.intern_sets([["g"], ["g", "b"]]) == [frozenset({0}), frozenset({0, 1})]
    assert al.intern_sets([["b"], ["g"]]) == [frozenset({1}), frozenset({0})]
    assert [al.label(0), al.label(1)] == ["g", "b"]


def test_alphabet_rejects_empty_label():
    with pytest.raises(FormatError):
        Alphabet().intern_sets([["a", ""]])


def test_demo_string_counts(demo):
    s1 = demo["S1"]
    assert len(s1) == 12
    assert len(demo["S2"]) == 11
    assert len(demo["S3"]) == 13


def test_single_position_string():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    assert len(s) == 1 and s.at(1) == frozenset({0})


def test_empty_position_set_rejected():
    al = Alphabet()
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], []])
    with pytest.raises(ValidationError):
        IndeterminateString("S", [frozenset()])


def test_contig_break_out_of_range():
    al = Alphabet()
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], ["b"]], [2])
    with pytest.raises(ValidationError):
        build_string(al, "S", [["a"], ["b"]], [0])


def test_char_set_demo(demo):
    assert labels_of(demo, demo["S1"].char_set(1, 2)) == {"g", "b", "p"}
    assert labels_of(demo, demo["S3"].char_set(1, 8)) == \
        {"d", "g", "b", "a", "p", "s", "n", "f", "m", "w", "e"}


def test_char_set_singleton():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    assert s.char_set(1, 1) == al.intern_sets([["a"]])[0]


def test_char_set_range_errors(demo):
    s = demo["S1"]
    with pytest.raises(RangeError):
        s.char_set(3, 2)
    with pytest.raises(RangeError):
        s.char_set(1, 13)
    with pytest.raises(RangeError):
        s.at(0)


def test_char_set_monotone(demo):
    s = demo["S2"]
    for i in range(1, len(s) + 1):
        for j in range(i, len(s) + 1):
            inner = s.char_set(i, j)
            assert inner <= s.char_set(max(1, i - 1), min(len(s), j + 1))


def test_contig_bounds_and_intervals():
    ds = make_dataset(("S", [["a"], ["b"], ["c"], ["d"], ["e"]], [2]))
    s = ds["S"]
    assert s.contig_bounds(1) == (1, 2)
    assert s.contig_bounds(3) == (3, 5)
    for p in (0, -1, 6):
        with pytest.raises(RangeError):
            s.contig_bounds(p)
    ds.check_interval(AnchoredInterval("S", 1, 2))
    with pytest.raises(ValidationError, match="straddles"):
        ds.check_interval(AnchoredInterval("S", 2, 3))
    ivs = list(s.intervals())
    assert (2, 3) not in ivs and (1, 2) in ivs and (3, 5) in ivs
    # 3 intervals in the first contig, 6 in the second
    assert len(ivs) == 3 + 6


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


def test_dataset_lookup_and_checks(demo):
    assert demo.index_of("S2") == 1
    assert demo["S2"] is demo[1]
    demo.check_interval(AnchoredInterval("S1", 1, 12))
    with pytest.raises(RangeError):
        demo.check_interval(AnchoredInterval("S1", 1, 13))
    ds = make_dataset(("S", [["a"], ["b"]], [1]), ("T", [["a"]]))
    with pytest.raises(ValidationError):
        ds.check_interval(AnchoredInterval("S", 1, 2))


def test_dataset_duplicate_ids():
    al = Alphabet()
    s = build_string(al, "S", [["a"]])
    with pytest.raises(ValidationError):
        Dataset([s, s], al)


@pytest.mark.parametrize("kwargs", [
    {"delta": -1}, {"quorum": 1}, {"min_size": -1},
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
        assert {al.label(c) for c in s.at(p)} == set(labels)
