"""Benchmark harness: repeated sampled runs over a parameter grid.

Index construction and sweep time are measured separately; the per-pair
bit-vector widths of the filter tables are recorded and checked against
their structural bound.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields
from typing import IO, Iterable, Sequence

from .model import Dataset, SearchParams
from .ridge import build_all_ridge_t
from .sweep import enumerate_pairs
from .synth import PlantedSpec, generate_planted
from .tables import build_pos_tables


@dataclass(frozen=True)
class BenchReport:
    """One timed run: parameter echo plus measurements."""
    m: int
    n: int
    delta: int
    quorum: int
    min_size: int
    fold: int
    seed: int
    t_build: float
    t_sweep: float
    pair_count: int
    max_width: int
    mean_width: float


def width_bound(dataset: Dataset, delta: int) -> int:
    """Structural bound on any filter vector width: (delta+1) * max cardinality."""
    return (delta + 1) * max(s.cardinality for s in dataset)


def run_single(dataset: Dataset, params: SearchParams, *, fold: int = 0,
               seed: int = 0, threads: int = 1) -> BenchReport:
    """Time one enumeration run on a prepared dataset."""
    t0 = time.perf_counter()
    tables = build_pos_tables(dataset)
    ridge_t = build_all_ridge_t(tables, params.delta)
    t1 = time.perf_counter()
    pair_count = sum(1 for _ in enumerate_pairs(
        dataset, params, tables=tables, ridge_t=ridge_t, threads=threads))
    t2 = time.perf_counter()

    widths = [rt.width for row in ridge_t for rt in row if rt is not None]
    max_width = max(widths)
    bound = width_bound(dataset, params.delta)
    if max_width > bound:
        raise AssertionError(f"filter vector width {max_width} exceeded its "
                             f"structural bound {bound}")
    return BenchReport(
        m=len(dataset), n=max(len(s) for s in dataset),
        delta=params.delta, quorum=params.quorum, min_size=params.min_size,
        fold=fold, seed=seed,
        t_build=t1 - t0, t_sweep=t2 - t1,
        pair_count=pair_count,
        max_width=max_width, mean_width=statistics.fmean(widths),
    )


def run_bench(m_values: Sequence[int], delta_values: Sequence[int],
              quorum_values: Sequence[int] | None, *,
              n: int = 500, folds: int = 10, base_seed: int = 0,
              min_size: int = 10, block_count: int = 3, block_length: int = 20,
              background_sharing: float = 0.02,
              threads: int = 1) -> list[BenchReport]:
    """Sweep the parameter grid with `folds`-fold repeated sampling.

    Quorum defaults to m at each grid point; an explicit quorum list is
    applied where feasible (quorum <= m).
    """
    reports: list[BenchReport] = []
    for m in m_values:
        for delta in delta_values:
            quorums = [q for q in (quorum_values or [m]) if 2 <= q <= m]
            for quorum in quorums:
                for fold in range(folds):
                    seed = base_seed * 10_000 + fold
                    spec = PlantedSpec(
                        m=m, n=n, block_count=block_count,
                        block_length=block_length, planted_delta=0,
                        background_sharing=background_sharing, seed=seed)
                    dataset, _ = generate_planted(spec)
                    params = SearchParams(delta=delta, quorum=quorum,
                                          min_size=min_size)
                    reports.append(run_single(dataset, params, fold=fold,
                                              seed=seed, threads=threads))
    return reports


def median_sweep_time(reports: Iterable[BenchReport], **match: int) -> float:
    """Median sweep time over reports matching the given field values."""
    times = [r.t_sweep for r in reports
             if all(getattr(r, k) == v for k, v in match.items())]
    if not times:
        raise ValueError(f"no reports match {match}")
    return statistics.median(times)


def write_reports(reports: Sequence[BenchReport], fh: IO[str]) -> None:
    names = [f.name for f in fields(BenchReport)]
    fh.write("\t".join(names) + "\n")
    for r in reports:
        row = []
        for name in names:
            v = getattr(r, name)
            row.append(f"{v:.6f}" if isinstance(v, float) else str(v))
        fh.write("\t".join(row) + "\n")
