"""Shared fixtures: the worked three-string demo dataset and small builders."""
import ast
from pathlib import Path

import pytest

from awci.model import Alphabet, Dataset, build_string

# Three indeterminate strings with one conserved region (the "demo" dataset):
# at delta=1, quorum=3, min_size=6 exactly one closed set exists,
# {S1:1-8, S2:2-7, S3:1-8}, with one indel per member pair.
DEMO_S1 = [["g"], ["b", "p"], ["x"], ["n", "p"], ["d", "o", "s"], ["a", "z"],
           ["e", "w"], ["f"], ["v", "l"], ["h", "u", "z"], ["j", "r"], ["k"]]
DEMO_S2 = [["c", "k"], ["f", "n", "p"], ["w"], ["b", "d"], ["x"], ["c", "l", "m"],
           ["a", "g"], ["r"], ["a", "w", "x"], ["p"], ["f", "z"]]
DEMO_S3 = [["d"], ["g", "b"], ["a"], ["p", "s"], ["n"], ["a", "b"], ["f", "m", "w"],
           ["e", "w"], ["k"], ["j", "u"], ["h"], ["c", "r"], ["z"]]


def make_dataset(*specs):
    """specs: (id, positions[, breaks]) tuples; positions are label lists."""
    alphabet = Alphabet()
    strings = []
    for spec in specs:
        sid, positions = spec[0], spec[1]
        breaks = spec[2] if len(spec) > 2 else ()
        strings.append(build_string(alphabet, sid, positions, breaks))
    return Dataset(strings, alphabet)


@pytest.fixture(scope="session")
def demo():
    return make_dataset(("S1", DEMO_S1), ("S2", DEMO_S2), ("S3", DEMO_S3))


# Closedness is not hereditary (the "witness" dataset): at delta=1, quorum=2,
# min_size=1 the reported closed set {S1:1-2, S2:1-2, S3:1-2} has the
# non-closed subset {S1:1-2, S2:1-2}. S1 position 3 = {c} meets
# C(S2[1,2]) = {a, b, c}, so it extends S1:1-2 against S2 alone, but it misses
# C(S3[1,2]) = {a, b}. The extended pair {S1:1-3, S2:1-2} is reported too.
WITNESS = (("S1", [["a"], ["b"], ["c"]]),
           ("S2", [["a"], ["b", "c"]]),
           ("S3", [["a"], ["b"]]))
WITNESS_CLOSED = ("S1:1-2", "S2:1-2", "S3:1-2")


@pytest.fixture(scope="session")
def witness():
    return make_dataset(*WITNESS)


def labels_of(dataset, char_ids):
    return {dataset.alphabet.label(c) for c in char_ids}


def perfbench_workloads():
    """perfbench's workloads, read from the source of `perfbench/run.py`
    without importing it: name -> (the `generate_planted` spec other than the
    seed, the `SearchParams` keywords, the seed of dataset 0), the arguments
    each `Workload(...)` entry passes."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
                     .read_text())
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            name, spec, params, _, seed_base = node.args
            out[ast.literal_eval(name)] = (
                {kw.arg: ast.literal_eval(kw.value) for kw in spec.keywords},
                {kw.arg: ast.literal_eval(kw.value) for kw in params.keywords},
                ast.literal_eval(seed_base))
    return out
