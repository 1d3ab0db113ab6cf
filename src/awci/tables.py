"""Precomputed per-ordered-pair index tables.

For every ordered string pair (x, y) three structures are built once and
shared read-only afterwards, plus one per string:

  * pos[x][y][i]     -- sorted positions k of S_y whose set intersects S_x[i]
  * hitmask[x][y][i] -- the same positions as one int, bit k set for each k in
                        pos[x][y][i]; the sweep intersects it with a window of
                        bits to get the hits of S_x[i] inside an interval of S_y
  * ridge_c[x][y]    -- prefix counts of positions of S_x sharing nothing with
                        S_y at all (trivial indels), with a sentinel 0 entry so
                        differences at i = 1 are well defined
  * strings_at[x][i] -- the strings S_x[i] hits, as one int: bit y set iff
                        hitmask[x][y][i] != 0; the sweep reads which strings
                        can anchor an endpoint i from it in one operation

Contig breaks of S_x are folded into ridge_c as huge additive steps, so any
difference across a break exceeds every realistic indel budget.

`pos` has no reader in the search any more; it is kept only because the
benchmark's traced run counts its entries (`tables.pos_entries`).

These tables never change after the build. The per-pair reach-mask caches of
`ridge.RidgeT` are the only structures the sweep fills as it goes; that is
safe under `threads > 1` because a cache key always gets the same value.

The work per ordered pair follows shared occurrences, not positions: every
list starts as its default for a position hitting nothing (one shared empty
row, mask 0, a ridge_c step of 1), made by list multiplication or copied
from one per-string step list, and only the occurrences in S_x of the
characters S_x and S_y share are visited to overwrite it.
"""
from __future__ import annotations

from itertools import accumulate

from .model import AwciError, Dataset

# Step cost injected at contig breaks; dwarfs any usable delta.
BREAK_COST = 1 << 40


class PairTables:
    """Pos, hit-mask and Ridge^c tables for all ordered string pairs of a dataset,
    and the per-position masks of the strings each position hits."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        m = len(dataset)
        # occurrences: for each string, char id -> sorted positions, and
        # char id -> the int with those positions' bits set
        occ: list[dict[int, list[int]]] = []
        occ_bits: list[dict[int, int]] = []
        for s in dataset:
            d: dict[int, list[int]] = {}
            b: dict[int, int] = {}
            for p, chars in enumerate(s.positions, start=1):
                bit = 1 << p
                for c in chars:
                    if c in d:
                        d[c].append(p)
                        b[c] |= bit
                    else:
                        d[c] = [p]
                        b[c] = bit
            occ.append(d)
            occ_bits.append(b)

        # defaults of a position hitting nothing; a step of 1 per position
        # plus BREAK_COST at the first position after each break
        empty: list[int] = []
        self.pos: list[list[list[list[int]] | None]] = [[None] * m for _ in range(m)]
        self.hitmask: list[list[list[int] | None]] = [[None] * m for _ in range(m)]
        self.ridge_c: list[list[list[int] | None]] = [[None] * m for _ in range(m)]
        self.strings_at: list[list[int]] = []
        for x in range(m):
            sx = dataset[x]
            n = len(sx)
            steps_x = [0] + [1] * n
            for b in sx.contig_breaks:
                steps_x[b + 1] += BREAK_COST
            at = [0] * (n + 1)
            for y in range(m):
                if x == y:
                    continue
                y_bit = 1 << y
                oy, by = occ[y], occ_bits[y]
                rows: list[list[int]] = [empty] * (n + 1)  # index 0 unused
                masks = [0] * (n + 1)
                steps = steps_x.copy()
                for c in occ[x].keys() & oy.keys():
                    row, bits = oy[c], by[c]
                    for p in occ[x][c]:
                        if masks[p]:
                            # hit through a second character: sorted union row
                            rows[p] = sorted({*rows[p], *row})
                            masks[p] |= bits
                        else:
                            rows[p] = row
                            masks[p] = bits
                            steps[p] -= 1
                            at[p] |= y_bit
                self.pos[x][y] = rows
                self.hitmask[x][y] = masks
                self.ridge_c[x][y] = list(accumulate(steps))
            self.strings_at.append(at)


def set_bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def window(i: int, j: int) -> int:
    """The int with bits i..j set: the hit-mask window of the interval [i, j]."""
    return ((1 << (j - i + 1)) - 1) << i


def build_pos_tables(dataset: Dataset) -> PairTables:
    """Construct all per-ordered-pair tables for `dataset`."""
    if len(dataset) < 2:
        raise AwciError("need at least 2 strings")
    return PairTables(dataset)

