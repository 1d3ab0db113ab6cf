"""Approximate weak common interval search over indeterminate strings.

Find interval sets conserved across multiple sequences of character sets,
tolerating up to `delta` unmatched positions per interval pair, and report
the maximal closed sets that reach a quorum of strings.
"""
from .assemble import AwciGraph, assemble, build_graph, maximal_closed_sets, prune_dominated_vertices
from .model import (
    Alphabet,
    AnchoredInterval,
    AwciError,
    AwciPair,
    AwciSet,
    Dataset,
    FormatError,
    IndeterminateString,
    RangeError,
    ResourceLimitError,
    SearchParams,
    UnsupportedError,
    ValidationError,
    build_string,
)
from .oracle import (
    PairVerdict,
    brute_force_maximal_closed_sets,
    brute_force_pairs,
    is_closed_set,
    judge_pair,
    make_pair,
)
from .ioformats import parse_ist, parse_sets, write_ist, write_pairs, write_sets
from .ridge import build_all_ridge_t
from .sweep import enumerate_pairs
from .synth import PlantedSpec, generate_planted, random_instance
from .tables import PairTables, build_pos_tables

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AnchoredInterval", "AwciError", "AwciGraph", "AwciPair",
    "AwciSet", "Dataset", "FormatError", "IndeterminateString", "PairTables",
    "PairVerdict", "PlantedSpec", "RangeError", "ResourceLimitError",
    "SearchParams", "UnsupportedError", "ValidationError", "assemble",
    "brute_force_maximal_closed_sets", "brute_force_pairs", "build_all_ridge_t",
    "build_graph", "build_pos_tables", "build_string",
    "enumerate_pairs", "generate_planted", "is_closed_set",
    "judge_pair", "make_pair", "maximal_closed_sets", "parse_ist",
    "parse_sets", "prune_dominated_vertices", "random_instance", "write_ist",
    "write_pairs", "write_sets",
]
