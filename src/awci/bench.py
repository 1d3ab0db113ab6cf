"""Sweep timing and filter-width checks for acceptance criteria 7 and 8.

`run_single` times the sweep after the index build and checks the widest
filter vector against its structural bound; `median_sweep_time` summarises
the runs. Calibrated, digest-checked timing of the whole pipeline lives in
`perfbench`.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Iterable

from .model import Dataset, SearchParams
from .ridge import build_all_ridge_t
from .sweep import enumerate_pairs
from .tables import build_pos_tables


@dataclass(frozen=True)
class BenchReport:
    """One timed run: parameter echo plus measurements."""
    m: int
    delta: int
    t_sweep: float
    max_width: int


def width_bound(dataset: Dataset, delta: int) -> int:
    """Structural bound on any filter vector width: (delta+1) * max cardinality."""
    return (delta + 1) * max(s.cardinality for s in dataset)


def run_single(dataset: Dataset, params: SearchParams) -> BenchReport:
    """Time the sweep of one run, after its index build; check filter widths."""
    tables = build_pos_tables(dataset)
    ridge_t = build_all_ridge_t(tables, params.delta)
    t0 = time.perf_counter()
    for _ in enumerate_pairs(dataset, params, tables=tables, ridge_t=ridge_t):
        pass
    t_sweep = time.perf_counter() - t0

    max_width = max(rt.width for row in ridge_t for rt in row if rt is not None)
    bound = width_bound(dataset, params.delta)
    if max_width > bound:
        raise AssertionError(f"filter vector width {max_width} exceeded its "
                             f"structural bound {bound}")
    return BenchReport(m=len(dataset), delta=params.delta, t_sweep=t_sweep,
                       max_width=max_width)


def median_sweep_time(reports: Iterable[BenchReport], **match: int) -> float:
    """Median sweep time over reports matching the given field values."""
    times = [r.t_sweep for r in reports
             if all(getattr(r, k) == v for k, v in match.items())]
    if not times:
        raise ValueError(f"no reports match {match}")
    return statistics.median(times)
