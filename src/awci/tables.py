"""Precomputed per-ordered-pair index tables.

For every ordered string pair (x, y) two structures are built once and
shared read-only afterwards, plus one per string:

  * hitmask[x][y][i] -- the positions k of S_y whose set intersects S_x[i], as
                        one int with bit k set for each; the sweep intersects
                        it with a window of bits to get the hits of S_x[i]
                        inside an interval of S_y
  * nohit[x][y]      -- the positions of S_x sharing nothing with S_y at all
                        (trivial indels), as one int with bit p set for each;
                        the trivial indels of [i, j]_x are its bits in
                        window(i, j)
  * strings_at[x][i] -- the strings S_x[i] hits, as one int: bit y set iff
                        hitmask[x][y][i] != 0; the sweep reads which strings
                        can anchor an endpoint i from it in one operation

Contig breaks are not in these tables; readers take them from
`IndeterminateString.contig_of`.

Only characters held by two or more strings can make a hit, so only they are
indexed: a position whose `Dataset.shared_masks` entry is 0 holds none of
them and is skipped without a bit (its hit masks stay 0, its `strings_at`
entry 0, and it is a trivial indel against every string).
The work per ordered pair follows shared occurrences, not positions: every
hit mask starts as 0, made by list multiplication, and only the occurrences
in S_x of the characters S_x and S_y share are visited to set its bits.
"""
from __future__ import annotations

from itertools import compress, count

from .model import AwciError, Dataset


class PairTables:
    """Hit-mask and no-hit tables for all ordered string pairs of a dataset,
    and the per-position masks of the strings each position hits."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        m = len(dataset)
        # occurrences at the positions holding a shared character: for each
        # string, char id -> sorted positions, and char id -> the int with
        # those positions' bits set (a private character beside a shared one
        # is kept too; no other string's keys match it)
        occ: list[dict[int, list[int]]] = []
        occ_bits: list[dict[int, int]] = []
        for s, shared in zip(dataset, dataset.shared_masks):
            d: dict[int, list[int]] = {}
            b: dict[int, int] = {}
            # the positions whose mask is not 0, ascending (index 0 reads 0)
            for p in compress(count(), shared):
                bit = 1 << p
                for c in s.positions[p - 1]:
                    if c in d:
                        d[c].append(p)
                        b[c] |= bit
                    else:
                        d[c] = [p]
                        b[c] = bit
            occ.append(d)
            occ_bits.append(b)

        self.hitmask: list[list[list[int] | None]] = [[None] * m for _ in range(m)]
        self.nohit: list[list[int | None]] = [[None] * m for _ in range(m)]
        self.strings_at: list[list[int]] = []
        keys = [frozenset(d) for d in occ]  # one key set per string
        for x, (ox, bx, kx) in enumerate(zip(occ, occ_bits, keys)):
            n = len(dataset[x])
            at = [0] * (n + 1)
            for y, (by, ky) in enumerate(zip(occ_bits, keys)):
                if x == y:
                    continue
                y_bit = 1 << y
                masks = [0] * (n + 1)  # index 0 unused
                hit = 0
                for c in kx & ky:
                    bits = by[c]
                    hit |= bx[c]
                    for p in ox[c]:
                        masks[p] |= bits
                        at[p] |= y_bit
                self.hitmask[x][y] = masks
                self.nohit[x][y] = window(1, n) & ~hit
            self.strings_at.append(at)

    @property
    def pos(self) -> list[list[list[list[int]] | None]]:
        """pos[x][y][i]: the sorted positions of S_y whose set intersects
        S_x[i], read off `hitmask` on every access; the search never reads
        it, only the benchmark's traced run and the tests do."""
        return [[None if masks is None else [set_bits(mask) for mask in masks]
                 for masks in row] for row in self.hitmask]


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
