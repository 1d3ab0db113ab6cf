"""Reproduce two measured limits of the pipeline that are not workloads.

    python3 perfbench/limits.py clique-guard
    python3 perfbench/limits.py threads

`clique-guard`: the `sets` path on m=12, n=1000 planted genomes (5 blocks,
delta=1, quorum=3, min_size=15) stops with ResourceLimitError once maximal
clique enumeration passes its 2,000,000-step guard. Prints the time to that
error.

`threads`: the sweep of one `wide-pairs` dataset with threads=1 and
threads=2, three times each. The sweep is pure Python, so the interpreter
lock serialises the worker threads and the second one only adds switching.
"""
from __future__ import annotations

import io
import sys
import time

from run import WORKLOADS, make_input  # also puts the awci sources on sys.path
from awci import (
    PlantedSpec,
    ResourceLimitError,
    SearchParams,
    assemble,
    build_all_ridge_t,
    build_pos_tables,
    enumerate_pairs,
    generate_planted,
    parse_ist,
)


def clique_guard() -> None:
    dataset, _ = generate_planted(PlantedSpec(
        m=12, n=1000, block_count=5, block_length=20, planted_delta=1,
        background_sharing=0.02, seed=0))
    params = SearchParams(delta=1, quorum=3, min_size=15)
    t0 = time.perf_counter()
    try:
        sets = assemble(enumerate_pairs(dataset, params), dataset, params)
    except ResourceLimitError as exc:
        print(f"clique-guard: ResourceLimitError after "
              f"{time.perf_counter() - t0:.1f} s: {exc}")
    else:
        print(f"clique-guard: finished in {time.perf_counter() - t0:.1f} s "
              f"with {len(sets)} sets (guard not reached)")


def threads() -> None:
    w = WORKLOADS["wide-pairs"]
    text, _ = make_input(w, 0)
    dataset = parse_ist(io.StringIO(text))
    tables = build_pos_tables(dataset)
    ridge_t = build_all_ridge_t(tables, w.params.delta)
    for n_threads in (1, 2, 1, 2, 1, 2):
        t0 = time.perf_counter()
        n = sum(1 for _ in enumerate_pairs(dataset, w.params, tables=tables,
                                           ridge_t=ridge_t, threads=n_threads))
        print(f"threads={n_threads}: sweep {time.perf_counter() - t0:.3f} s, "
              f"{n} pairs")


if __name__ == "__main__":
    commands = {"clique-guard": clique_guard, "threads": threads}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python3 perfbench/limits.py {{{','.join(commands)}}}")
    commands[sys.argv[1]]()
