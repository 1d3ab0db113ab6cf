from itertools import combinations

import pytest

from awci.assemble import assemble
from awci.model import SearchParams, ValidationError
from awci.oracle import is_closed_set, judge_pair
from awci.sweep import enumerate_pairs
from awci.synth import PlantedSpec, generate_planted, random_instance


def test_planted_dimensions_and_truth():
    spec = PlantedSpec(m=3, n=80, block_count=2, block_length=10, seed=1)
    ds, truth = generate_planted(spec)
    assert len(ds) == 3
    assert all(len(s) == 80 for s in ds)
    assert len(truth) == 2
    for ts in truth:
        assert len(ts.members) == 3
        assert all(m.length == 10 for m in ts.members)
        assert all(judge_pair(ds, a, b, 0).is_awci for a, b in combinations(ts.members, 2))
        assert is_closed_set(ds, ts.members)


def test_planted_recovery_exact():
    spec = PlantedSpec(m=3, n=60, block_count=2, block_length=8, seed=4)
    ds, truth = generate_planted(spec)
    params = SearchParams(delta=0, quorum=3, min_size=5)
    sets = assemble(enumerate_pairs(ds, params), ds, params)
    assert sets == truth


def test_planted_with_indels_stays_awci():
    spec = PlantedSpec(m=4, n=80, block_count=2, block_length=10,
                       planted_delta=2, seed=9)
    ds, truth = generate_planted(spec)
    for ts in truth:
        assert all(judge_pair(ds, a, b, 2).is_awci for a, b in combinations(ts.members, 2))
        assert is_closed_set(ds, ts.members)


def test_planted_no_blocks_no_pairs():
    spec = PlantedSpec(m=3, n=20, block_count=0, seed=0)
    ds, truth = generate_planted(spec)
    assert truth == []
    assert list(enumerate_pairs(ds, SearchParams(delta=0, quorum=2, min_size=1))) == []


def test_planted_determinism():
    spec = PlantedSpec(m=3, n=60, block_count=2, block_length=8,
                       background_sharing=0.1, seed=7)
    a, _ = generate_planted(spec)
    b, _ = generate_planted(spec)
    for sa, sb in zip(a, b):
        assert sa == sb


@pytest.mark.parametrize("kwargs", [
    {"m": 1}, {"block_count": 3, "block_length": 10, "n": 20},
    {"planted_delta": 1, "block_length": 2}, {"background_sharing": 1.5},
])
def test_planted_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        generate_planted(PlantedSpec(**kwargs))


def test_random_instance_deterministic_and_bounded():
    a = random_instance(42)
    b = random_instance(42)
    for sa, sb in zip(a, b):
        assert sa == sb
    assert 2 <= len(a) <= 4
    assert all(1 <= len(s) <= 12 for s in a)
