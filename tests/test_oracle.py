import ast
from itertools import combinations
from pathlib import Path

import pytest

import awci
from awci.model import AnchoredInterval, ResourceLimitError, SearchParams, UnsupportedError
from awci.oracle import (
    brute_force_maximal_closed_sets,
    brute_force_pairs,
    intervals,
    is_closed_set,
    judge_pair,
    make_pair,
)
from awci.synth import random_instance
from conftest import WITNESS_CLOSED, labels_of, make_dataset

GOLDEN = (AnchoredInterval("S1", 1, 8), AnchoredInterval("S2", 2, 7),
          AnchoredInterval("S3", 1, 8))


def test_judge_pair_demo(demo):
    v = judge_pair(demo, AnchoredInterval("S1", 1, 8), AnchoredInterval("S3", 1, 8), 1)
    assert v.is_awci and not v.is_wci
    assert labels_of(demo, v.common) == {"g", "b", "p", "n", "d", "s", "a", "e", "w", "f"}
    assert v.indel_left == (3,)   # S1 position 3 = {x}
    assert v.indel_right == ()
    assert v.indel_total == 1
    v0 = judge_pair(demo, AnchoredInterval("S1", 1, 8), AnchoredInterval("S3", 1, 8), 0)
    assert not v0.is_awci and not v0.is_wci


def test_judge_pair_identical_content():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]))
    v = judge_pair(ds, AnchoredInterval("S", 1, 2), AnchoredInterval("T", 1, 2), 0)
    assert v.is_wci and v.indel_total == 0


def test_judge_pair_same_string_unsupported(demo):
    with pytest.raises(UnsupportedError):
        judge_pair(demo, AnchoredInterval("S1", 1, 2), AnchoredInterval("S1", 3, 4), 0)


def test_judge_pair_symmetry():
    for seed in range(10):
        ds = random_instance(seed, max_m=3, max_n=6)
        strings = list(ds)
        for a, b in combinations(strings, 2):
            for (i, j) in intervals(a):
                for (k, l) in intervals(b):
                    va = judge_pair(ds, AnchoredInterval(a.id, i, j),
                                    AnchoredInterval(b.id, k, l), 1)
                    vb = judge_pair(ds, AnchoredInterval(b.id, k, l),
                                    AnchoredInterval(a.id, i, j), 1)
                    assert va.common == vb.common
                    assert va.indel_total == vb.indel_total


def test_awci_monotone_in_delta(demo):
    a, b = AnchoredInterval("S1", 1, 8), AnchoredInterval("S3", 1, 8)
    for delta in range(4):
        if judge_pair(demo, a, b, delta).is_awci:
            assert judge_pair(demo, a, b, delta + 1).is_awci


def test_is_closed_set_demo(demo):
    assert is_closed_set(demo, GOLDEN)
    # shrinking S1's interval leaves position 8 = {f} extendable
    shrunk = (AnchoredInterval("S1", 1, 7), GOLDEN[1], GOLDEN[2])
    assert not is_closed_set(demo, shrunk)


def test_closedness_not_hereditary(witness):
    params = SearchParams(delta=1, quorum=2, min_size=1)
    reported = {tuple(str(m) for m in s.members)
                for s in brute_force_maximal_closed_sets(witness, params)}
    assert WITNESS_CLOSED in reported and ("S1:1-3", "S2:1-2") in reported
    full = (AnchoredInterval("S1", 1, 2), AnchoredInterval("S2", 1, 2),
            AnchoredInterval("S3", 1, 2))
    assert all(judge_pair(witness, a, b, 1).is_awci for a, b in combinations(full, 2))
    assert is_closed_set(witness, full)
    subset = full[:2]
    assert not is_closed_set(witness, subset)


def test_closed_set_boundary_member():
    # member starting at position 1 can only be disqualified on the right
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"], ["c"]]))
    assert is_closed_set(ds, [AnchoredInterval("S", 1, 2), AnchoredInterval("T", 1, 2)])


def test_make_pair_applies_predicate(demo):
    params = SearchParams(delta=1, quorum=2, min_size=6)
    p = make_pair(demo, AnchoredInterval("S2", 2, 7), AnchoredInterval("S1", 1, 8), params)
    assert p is not None
    assert p.left.string_id == "S1"  # normalized to lower string index
    assert p.indel_total == 1
    assert p.size_left == 8 and p.size_right == 5  # one indel, on the S2 side
    # min_size bounds interval length
    assert make_pair(demo, AnchoredInterval("S1", 1, 4), AnchoredInterval("S3", 1, 4),
                     SearchParams(delta=2, quorum=2, min_size=5)) is None


def test_make_pair_endpoint_anchoring():
    # T position 3 = {z} misses the common set; intervals ending there are dropped
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"], ["z"]]))
    params = SearchParams(delta=1, quorum=2, min_size=1)
    assert make_pair(ds, AnchoredInterval("S", 1, 2), AnchoredInterval("T", 1, 3), params) is None
    assert make_pair(ds, AnchoredInterval("S", 1, 2), AnchoredInterval("T", 1, 2), params) is not None


def test_brute_force_pairs_tiny():
    ds = make_dataset(("S", [["1"], ["2"], ["3"]]), ("T", [["2"], ["3"], ["4"]]))
    pairs = brute_force_pairs(ds, SearchParams(delta=0, quorum=2, min_size=2))
    assert [(str(p.left), str(p.right)) for p in pairs] == [("S:2-3", "T:1-2")]


def test_brute_force_pairs_single_string():
    ds = make_dataset(("S", [["a"], ["b"]]))
    assert brute_force_pairs(ds, SearchParams(delta=1, quorum=2)) == []


def test_brute_force_pairs_demo(demo):
    pairs = brute_force_pairs(demo, SearchParams(delta=1, quorum=2, min_size=6))
    keys = {(str(p.left), str(p.right)) for p in pairs}
    assert {("S1:1-8", "S2:2-7"), ("S1:1-8", "S3:1-8"), ("S2:2-7", "S3:1-8")} <= keys


def test_brute_force_sets_demo(demo):
    sets = brute_force_maximal_closed_sets(demo, SearchParams(delta=1, quorum=3, min_size=6))
    assert len(sets) == 1
    assert tuple(str(m) for m in sets[0].members) == ("S1:1-8", "S2:2-7", "S3:1-8")


def test_brute_force_sets_disjoint_alphabets():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["x"], ["y"]]))
    assert brute_force_maximal_closed_sets(ds, SearchParams(delta=0, quorum=2)) == []


def test_brute_force_sets_two_identical():
    ds = make_dataset(("S", [["a"], ["b"]]), ("T", [["a"], ["b"]]))
    sets = brute_force_maximal_closed_sets(ds, SearchParams(delta=0, quorum=2, min_size=2))
    assert len(sets) == 1
    assert tuple(str(m) for m in sets[0].members) == ("S:1-2", "T:1-2")


def test_brute_force_sets_resource_guard(demo, monkeypatch):
    monkeypatch.setattr(awci.oracle, "CLIQUE_GUARD", 10)
    with pytest.raises(ResourceLimitError, match="exceeded 10 steps"):
        brute_force_maximal_closed_sets(demo, SearchParams(delta=1, quorum=2, min_size=1))


def test_only_cli_calls_the_oracle():
    # the literal definitions are references for tests and `awci verify`;
    # no other module of the package calls a name it takes from `.oracle`
    checked = 0
    for path in sorted(Path(awci.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "oracle.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "oracle" for alias in node.names}
        called = imported & {node.func.id for node in ast.walk(tree)
                             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called, f"{path.name} calls oracle's {sorted(called)}"
        checked += 1
    assert checked >= 7


def test_hot_path_reads_no_character_sets():
    # the index, ridge bound, sweep and assembly read `Dataset.shared_masks`;
    # the frozenset accessors are for the oracle and the tests
    for name in ("tables.py", "ridge.py", "sweep.py", "assemble.py"):
        tree = ast.parse((Path(awci.__file__).parent / name).read_text())
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else
                  getattr(node.func, "id", None)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & {"char_set", "at"}, f"{name} calls {sorted(called & {'char_set', 'at'})}"
