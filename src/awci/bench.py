"""Sweep timing and ridge-width checks for acceptance criteria 7 and 8.

`run_single` times the sweep after the index build and checks every ridge
neighbourhood the sweep built a reach mask for against its structural bound;
`median_sweep_time` summarises
the runs. Calibrated, digest-checked timing of the whole pipeline lives in
`perfbench`.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Iterable

from .model import Dataset, IndeterminateString, SearchParams
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


def width_bound(s: IndeterminateString) -> int:
    """Structural bound on the ridge widths of trans string s: its longest
    contig, since a ridge neighbourhood never leaves its contig."""
    ends = [0, *sorted(s.contig_breaks), len(s)]
    return max(b - a for a, b in zip(ends, ends[1:]))


def run_single(dataset: Dataset, params: SearchParams) -> BenchReport:
    """Time the sweep of one run, after its index build; check ridge widths."""
    tables = build_pos_tables(dataset)
    ridge_t = build_all_ridge_t(tables, params.delta)
    t0 = time.perf_counter()
    for _ in enumerate_pairs(dataset, params, tables=tables, ridge_t=ridge_t):
        pass
    t_sweep = time.perf_counter() - t0

    widths = [(rt.width, y) for row in ridge_t for y, rt in enumerate(row) if rt is not None]
    for width, y in widths:
        bound = width_bound(dataset[y])
        if width > bound:
            raise AssertionError(f"ridge width {width} on {dataset[y].id!r} "
                                 f"exceeded its structural bound {bound}")
    max_width = max(width for width, _ in widths)
    return BenchReport(m=len(dataset), delta=params.delta, t_sweep=t_sweep,
                       max_width=max_width)


def median_sweep_time(reports: Iterable[BenchReport], **match: int) -> float:
    """Median sweep time over reports matching the given field values."""
    times = [r.t_sweep for r in reports
             if all(getattr(r, k) == v for k, v in match.items())]
    if not times:
        raise ValueError(f"no reports match {match}")
    return statistics.median(times)
