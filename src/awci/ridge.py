"""Bit-vector filter deciding whether a reference prefix can still reach quorum.

For an ordered pair (x, y), positions of S_y that share nothing with S_x are
trivial indels; the maximal runs between them (split at contig breaks) are the
*ridges* of S_y. Any interval of S_y pairing with a reference interval under
budget `delta` must live inside a window of at most delta+1 consecutive
ridges, so each reference position is tagged with the ridges it can reach:
the ridges its hit positions lie on, dilated to all ridges at most `delta`
trivial indels away. A reference position that reaches no ridge of a window
is necessarily an indel for every candidate interval inside that window,
which is what makes the per-ridge miss counters below a sound lower bound.

Ridges are mapped to bit slots; a slot is recycled once its ridge has not
been observed within `delta` trivial indels of the current reference
position, which keeps the vectors narrow without aliasing inside any window
the sweep can compare.

The construction visits only the reference positions that hit S_y; every
other vector is 0. The recycling a skipped position would have done is
deferred to the next hit position, and that is exact: the Ridge^c level of
the reference never falls, so every slot free at the skipped position is
also free at the next hit, and nothing is observed in between; the free
slots form a min-heap, whose pops depend only on the set of slots pushed
before them, not on when they were pushed.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import compress

from .model import AwciError, SearchParams
from .tables import PairTables


class RidgeT:
    """Per reference position, the bit set of reachable ridges of one trans string."""

    __slots__ = ("vec", "width", "slot_ridges")

    def __init__(self, vec: list[int], width: int,
                 slot_ridges: list[dict[int, int]] | None) -> None:
        self.vec = vec          # index 0 unused; vec[j] for 1 <= j <= |S_x|
        self.width = width      # bits per vector (max slots ever live)
        self.slot_ridges = slot_ridges  # per-j slot -> ridge map when tracking


def build_ridge_t(tables: PairTables, x: int, y: int, delta: int,
                  track_slots: bool = False) -> RidgeT:
    """Left-to-right construction with slot reuse outside the delta window.

    Only positions j of S_x that hit S_y are visited; every other vec[j] is 0.
    The ridge level of a hit position k of S_y is ridge_c[y][x][k], its
    trivial-indel prefix count (contig breaks make the levels unique per
    ridge and contig).
    """
    rc_yx = tables.ridge_c[y][x]
    # levels of the hit positions of S_y, ascending because rc_yx never falls
    existing = list(dict.fromkeys(compress(rc_yx, tables.hitmask[y][x])))
    # dilation: every existing ridge at most delta trivial indels away
    neighbors: dict[int, tuple[int, ...]] = {}
    for lv in existing:
        lo = bisect_left(existing, lv - delta)
        hi = bisect_right(existing, lv + delta)
        neighbors[lv] = tuple(existing[lo:hi])

    pos_xy = tables.pos[x][y]
    rc_xy = tables.ridge_c[x][y]
    n_x = len(pos_xy) - 1

    slot_of: dict[int, int] = {}   # ridge level -> live slot
    last_seen: dict[int, int] = {}  # ridge level -> rc_xy level at last observation
    free: list[int] = []
    width = 0
    vec = [0] * (n_x + 1)
    slot_ridges: list[dict[int, int]] | None = (
        [{} for _ in range(n_x + 1)] if track_slots else None)

    for j in compress(range(n_x + 1), tables.hitmask[x][y]):
        level_j = rc_xy[j]
        # recycle slots whose ridges fell out of the reuse window, including
        # those the skipped positions before j would have freed
        for lv in [lv for lv, seen in last_seen.items() if level_j - seen > delta]:
            heappush(free, slot_of.pop(lv))
            del last_seen[lv]

        reached: set[int] = set()
        for k in pos_xy[j]:
            reached.update(neighbors[rc_yx[k]])

        bits = 0
        for lv in sorted(reached):
            slot = slot_of.get(lv)
            if slot is None:
                slot = heappop(free) if free else width
                if slot == width:
                    width += 1
                slot_of[lv] = slot
            last_seen[lv] = level_j
            bits |= 1 << slot
        vec[j] = bits
        if slot_ridges is not None:
            slot_ridges[j] = {slot_of[lv]: lv for lv in reached}

    return RidgeT(vec, width, slot_ridges)


def build_all_ridge_t(tables: PairTables, delta: int,
                      track_slots: bool = False) -> list[list[RidgeT | None]]:
    m = len(tables.dataset)
    out: list[list[RidgeT | None]] = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            if x != y:
                out[x][y] = build_ridge_t(tables, x, y, delta, track_slots)
    return out


class FilterState:
    """Per-sweep scratch state: Active and Delta vectors for every trans string.

    Strictly private to one (reference, left bound) unit of work. `reset`
    must be called whenever the left bound advances; positions must then be
    fed with strictly increasing j.
    """

    def __init__(self, m: int, x: int, delta: int) -> None:
        self.m = m
        self.x = x
        self.delta = delta
        self.left = 0
        self.j_prev = 0
        self.active = [0] * m
        self.deltas = [[0] * (delta + 1) for _ in range(m)]
        self.dead = [False] * m

    def reset(self, i: int) -> None:
        self.left = i
        self.j_prev = 0
        for y in range(self.m):
            self.active[y] = 0
            self.dead[y] = y == self.x
            dv = self.deltas[y]
            for d in range(len(dv)):
                dv[d] = 0


def filter_position(tables: PairTables, ridge_t: list[list[RidgeT | None]],
                    x: int, i: int, j: int, state: FilterState,
                    params: SearchParams) -> bool:
    """Advance the sweep to position j; True iff quorum is still reachable.

    Every trans string y != x is considered, before or after x. For each
    live string the per-ridge miss counters are updated from the position's
    bit vector; it counts as a candidate when some active ridge has
    accumulated at most `delta` misses. A string that is no candidate once
    j - i >= delta dies: a ridge first seen after j is charged delta + 1
    misses at once, and a counter never falls, so it can never count again.
    Requires params.quorum - 1 candidate strings.
    """
    if state.left != i or j <= state.j_prev:
        raise AwciError("filter state out of sync: reset at each left bound, "
                        "then call with strictly increasing j")
    state.j_prev = j
    delta = params.delta
    charge = min(j - i, delta + 1)
    candidates = 0
    for y in range(state.m):
        if state.dead[y]:
            continue
        rv = ridge_t[x][y].vec[j]  # type: ignore[union-attr]
        active = state.active[y]
        dv = state.deltas[y]
        a_off = active & ~rv
        if a_off:
            # unary saturating increment of every active-but-absent ridge
            for d in range(delta + 1):
                if not a_off:
                    break
                carried = dv[d] & a_off
                dv[d] |= a_off
                a_off = carried
        if charge:
            a_new = rv & ~active
            if a_new:
                # ridges first seen now missed every position since the left bound
                for d in range(min(charge, delta + 1)):
                    dv[d] |= a_new
        active |= rv
        state.active[y] = active
        if active & ~dv[delta]:
            candidates += 1
        elif j - i >= delta:
            state.dead[y] = True
    return candidates >= params.quorum - 1
