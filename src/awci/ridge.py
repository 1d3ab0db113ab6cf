"""Per-unit ridge bound on the right end of any pair a left bound can start.

For an ordered pair (x, y), positions of S_y that share nothing with S_x are
trivial indels, the set bits of `nohit[y][x]`; the maximal runs between them
(split at contig breaks) are the *ridges* of S_y, each known by its first
position. The *neighbourhood* of a ridge is the widest span around it, inside
its contig, with at most `delta` trivial indels on each side; its *reach mask*
is the OR of the hit masks `hitmask[y][x]` over that span, a set of positions
of S_x.

Take a pair ([i, j]_x, [k, l]_y). By endpoint anchoring some position p of
[k, l] hits i, and [k, l] holds at most `delta` trivial indels, so it lies
inside the neighbourhood of p's ridge: every position of [i, j] hit from
[k, l], j included, is in that ridge's reach mask, and at most `delta`
positions of [i, j] are not. Hence j is at most the last reached position
before the (delta + 1)-th unreached one from i, for some ridge hit by S_x[i];
`filter_position` returns the largest such end.

A `RidgeT` holds the reach masks of one ordered pair, keyed by the ridge's
first position and filled on first use, so the bound costs work per ridge
the sweep actually meets.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from .model import IndeterminateString, SearchParams
from .tables import PairTables, set_bits, window


class RidgeT:
    """Reach masks on S_x of the ridges of S_y, for one ordered pair (x, y)."""

    __slots__ = ("contig_of", "nohit", "hits", "delta", "masks", "spans")

    def __init__(self, sy: IndeterminateString, nohit: int, hits: list[int],
                 delta: int) -> None:
        self.contig_of = sy.contig_of  # of the trans string S_y
        self.nohit = nohit      # nohit[y][x]: trivial indels of S_y
        self.hits = hits        # hitmask[y][x]
        self.delta = delta
        # keyed by the ridge's first position
        self.masks: dict[int, int] = {}  # reach mask on S_x
        self.spans: dict[int, int] = {}  # neighbourhood length

    @property
    def width(self) -> int:
        """Positions of S_y in the widest neighbourhood whose mask was built."""
        return max(self.spans.values(), default=0)

    def reach(self, p: int) -> int:
        """The reach mask of the ridge holding p, a position of S_y hitting S_x,
        built on the ridge's first call; later calls return the cached object."""
        lo, hi = self.contig_of[p]
        # the trivial indels of p's contig before p; the last one sits just
        # before p's ridge
        left = self.nohit & window(lo, p - 1)
        first = left.bit_length() or lo
        mask = self.masks.get(first)
        if mask is not None:
            return mask
        right = self.nohit & window(p + 1, hi)
        # drop the delta trivial indels nearest p on each side; the next ones,
        # if any, lie just outside the neighbourhood
        for _ in range(self.delta):
            left ^= 1 << left.bit_length() >> 1
            right &= right - 1
        k_star = left.bit_length() or lo
        l_star = (right & -right).bit_length() - 2 if right else hi
        mask = reduce(or_, self.hits[k_star:l_star + 1])
        self.spans[first] = l_star - k_star + 1
        self.masks[first] = mask
        return mask


def build_all_ridge_t(tables: PairTables, delta: int) -> list[list[RidgeT | None]]:
    """Empty reach-mask caches for every ordered pair, at budget `delta`."""
    m = len(tables.dataset)
    return [[RidgeT(tables.dataset.strings[y], tables.nohit[y][x], tables.hitmask[y][x], delta)
             if x != y else None for y in range(m)] for x in range(m)]


def filter_position(tables: PairTables, ridge_t: list[list[RidgeT | None]],
                    x: int, y: int, i: int, params: SearchParams) -> int:
    """The largest j such that some interval of S_y may pair with [i, j]_x.

    Per ridge hit by S_x[i], the last position of its reach mask before the
    (delta + 1)-th position it misses, counting from i inside i's contig;
    the maximum over those ridges; at least i, or -1 when S_y does not hit
    S_x[i]. An anchor (a position of S_y hitting i) is skipped when its reach
    mask is the object the previous anchor got: same ridge, same end.
    """
    rt = ridge_t[x][y]
    w = window(i, tables.dataset.strings[x].contig_of[i][1])
    end = -1
    last = None
    for p in set_bits(tables.hitmask[x][y][i]):
        mask = rt.reach(p)  # type: ignore[union-attr]
        if mask is last:  # the previous anchor's ridge, so the same end
            continue
        last = mask
        reached = mask & w
        missed = w ^ reached
        for _ in range(params.delta):
            missed &= missed - 1
        if missed:
            # keep the reached positions below the (delta + 1)-th miss
            reached &= (missed & -missed) - 1
        end = max(end, reached.bit_length() - 1)
    return end
