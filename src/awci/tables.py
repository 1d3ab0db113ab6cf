"""Precomputed per-ordered-pair index tables.

For every ordered string pair (x, y) two structures are built once and shared
read-only afterwards:

  * pos[x][y][i]   -- sorted positions k of S_y whose set intersects S_x[i]
  * ridge_c[x][y]  -- prefix counts of positions of S_x sharing nothing with
                      S_y at all (trivial indels), with a sentinel 0 entry so
                      differences at i = 1 are well defined

Contig breaks of S_x are folded into ridge_c as huge additive steps, so any
difference across a break exceeds every realistic indel budget.
"""
from __future__ import annotations

from heapq import merge

from .model import AwciError, Dataset, RangeError

# Step cost injected at contig breaks; dwarfs any usable delta.
BREAK_COST = 1 << 40


class PairTables:
    """Pos and Ridge^c tables for all ordered string pairs of a dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        m = len(dataset)
        # occurrence lists: for each string, char id -> sorted positions
        occ: list[dict[int, list[int]]] = []
        for s in dataset:
            d: dict[int, list[int]] = {}
            for p, chars in enumerate(s.positions, start=1):
                for c in chars:
                    d.setdefault(c, []).append(p)
            occ.append(d)

        self.pos: list[list[list[list[int]] | None]] = [[None] * m for _ in range(m)]
        self.ridge_c: list[list[list[int] | None]] = [[None] * m for _ in range(m)]
        for x in range(m):
            sx = dataset[x]
            for y in range(m):
                if x == y:
                    continue
                oy = occ[y]
                rows: list[list[int]] = [[]]  # index 0 unused
                for chars in sx.positions:
                    lists = [oy[c] for c in chars if c in oy]
                    if not lists:
                        rows.append([])
                    elif len(lists) == 1:
                        rows.append(lists[0])
                    else:
                        merged: list[int] = []
                        for k in merge(*lists):
                            if not merged or merged[-1] != k:
                                merged.append(k)
                        rows.append(merged)
                self.pos[x][y] = rows

                rc = [0]
                breaks = sx.contig_breaks
                for p in range(1, len(sx) + 1):
                    step = 0 if rows[p] else 1
                    if p > 1 and (p - 1) in breaks:
                        step += BREAK_COST
                    rc.append(rc[-1] + step)
                self.ridge_c[x][y] = rc

    def pos_row(self, x: int, y: int, i: int) -> list[int]:
        return self.pos[x][y][i]  # type: ignore[index]


def build_pos_tables(dataset: Dataset) -> PairTables:
    """Construct all per-ordered-pair tables for `dataset`."""
    if len(dataset) < 2:
        raise AwciError("need at least 2 strings")
    return PairTables(dataset)


def same_ridge(ridge_c: list[int], i: int, j: int, delta: int) -> bool:
    """True iff positions i..j contain at most `delta` trivial indels and no break."""
    if not 1 <= i <= j <= len(ridge_c) - 1:
        raise RangeError(f"invalid ridge query [{i}, {j}]")
    diff = ridge_c[j] - ridge_c[i - 1]
    crossed = diff // BREAK_COST
    if i > 1 and ridge_c[i] - ridge_c[i - 1] >= BREAK_COST:
        # the step at i carries the cost of the boundary *before* i,
        # which [i, j] does not cross
        crossed -= 1
    return crossed == 0 and diff % BREAK_COST <= delta
