"""Per-unit ridge bound on the right end of any pair a left bound can start.

For an ordered pair (x, y), positions of S_y that share nothing with S_x are
trivial indels; the maximal runs between them (split at contig breaks) are the
*ridges* of S_y, and `ridge_c[y][x]` gives each ridge its own level. The
*neighbourhood* of a ridge is the widest span around it, inside its contig,
with at most `delta` trivial indels on each side; its *reach mask* is the OR
of the hit masks `hitmask[y][x]` over that span, a set of positions of S_x.

Take a pair ([i, j]_x, [k, l]_y). By endpoint anchoring some position p of
[k, l] hits i, and [k, l] holds at most `delta` trivial indels, so it lies
inside the neighbourhood of p's ridge: every position of [i, j] hit from
[k, l], j included, is in that ridge's reach mask, and at most `delta`
positions of [i, j] are not. Hence j is at most the last reached position
before the (delta + 1)-th unreached one from i, for some ridge hit by S_x[i];
`filter_position` returns the largest such end.

A `RidgeT` holds the reach masks of one ordered pair, keyed by ridge level
and filled on first use, so the bound costs work per ridge the sweep
actually meets. The cache is safe to fill from several threads: a key is
only ever given one value, computed from read-only tables.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

from .model import IndeterminateString, SearchParams
from .tables import PairTables, set_bits, window


class RidgeT:
    """Reach masks on S_x of the ridges of S_y, for one ordered pair (x, y)."""

    __slots__ = ("sy", "rc", "hits", "delta", "masks", "spans")

    def __init__(self, sy: IndeterminateString, rc: list[int], hits: list[int],
                 delta: int) -> None:
        self.sy = sy            # the trans string S_y
        self.rc = rc            # ridge_c[y][x]: ridge levels of S_y
        self.hits = hits        # hitmask[y][x]
        self.delta = delta
        self.masks: dict[int, int] = {}  # ridge level -> reach mask on S_x
        self.spans: dict[int, int] = {}  # ridge level -> neighbourhood length

    @property
    def width(self) -> int:
        """Positions of S_y in the widest neighbourhood whose mask was built."""
        return max(self.spans.values(), default=0)

    def reach(self, p: int) -> int:
        """The reach mask of the ridge holding p, a position of S_y hitting S_x."""
        rc = self.rc
        level = rc[p]
        mask = self.masks.get(level)
        if mask is not None:
            return mask
        delta, hits = self.delta, self.hits
        lo, hi = self.sy.contig_bounds(p)
        # the level just before lo, without the break cost folded into lo's step
        base = rc[lo] - (0 if hits[lo] else 1)
        if level - base <= delta:
            k_star = lo
        else:
            k_star = bisect_left(rc, level - delta, lo, p) + 1
        l_star = bisect_right(rc, level + delta, p, hi + 1) - 1
        mask = 0
        for q in range(k_star, l_star + 1):
            mask |= hits[q]
        self.spans[level] = l_star - k_star + 1
        self.masks[level] = mask
        return mask


def build_all_ridge_t(tables: PairTables, delta: int) -> list[list[RidgeT | None]]:
    """Empty reach-mask caches for every ordered pair, at budget `delta`."""
    m = len(tables.dataset)
    return [[RidgeT(tables.dataset[y], tables.ridge_c[y][x], tables.hitmask[y][x], delta)
             if x != y else None for y in range(m)] for x in range(m)]


def filter_position(tables: PairTables, ridge_t: list[list[RidgeT | None]],
                    x: int, y: int, i: int, params: SearchParams) -> int:
    """The largest j such that some interval of S_y may pair with [i, j]_x.

    Per ridge hit by S_x[i], the last position of its reach mask before the
    (delta + 1)-th position it misses, counting from i inside i's contig;
    the maximum over those ridges; at least i, or -1 when S_y does not hit
    S_x[i].
    """
    rt = ridge_t[x][y]
    w = window(i, tables.dataset[x].contig_bounds(i)[1])
    end = -1
    for p in set_bits(tables.hitmask[x][y][i]):
        reached = rt.reach(p) & w  # type: ignore[union-attr]
        missed = w ^ reached
        for _ in range(params.delta):
            missed &= missed - 1
        if missed:
            # keep the reached positions below the (delta + 1)-th miss
            reached &= (missed & -missed) - 1
        end = max(end, reached.bit_length() - 1)
    return end
