"""Interval pair enumeration: per reference string and left bound, determine
candidate right bounds, then sweep the other strings for all pairing
intervals, with an O(1) incremental acceptance test per candidate.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

from .model import AnchoredInterval, Dataset, SearchParams
from .oracle import AwciPair, make_pair
from .ridge import FilterState, RidgeT, build_all_ridge_t, filter_position
from .tables import PairTables, build_pos_tables


def candidate_right_bounds(tables: PairTables, ridge_t, x: int, i: int,
                           params: SearchParams, q_eff: int,
                           state: FilterState | None = None) -> list[int]:
    """Right-bound candidates J for left bound i, grown until the filter fails.

    With no filter state (pass-through), J is the whole contig suffix of i.
    """
    sx = tables.dataset[x]
    hi = sx.contig_bounds(i)[1]
    if state is None:
        return list(range(i, hi + 1))
    state.reset(i)
    J: list[int] = []
    for j in range(i, hi + 1):
        if not filter_position(tables, ridge_t, x, i, j, state, params, q_eff):
            break
        J.append(j)
    return J


def collect_anchors(tables: PairTables, x: int, y: int, i: int, delta: int) -> list[int]:
    """Sorted union of Pos rows for reference positions i..i+delta (contig-clamped)."""
    sx = tables.dataset[x]
    hi = min(i + delta, sx.contig_bounds(i)[1])
    merged: set[int] = set()
    for p in range(i, hi + 1):
        merged.update(tables.pos[x][y][p])
    return sorted(merged)


def incremental_indel_count(tables: PairTables, x: int, i: int, j: int,
                            y: int, k: int, l: int) -> int:
    """The sweep's acceptance quantity for ([i,j]_x, [k,l]_y).

    Counts reference positions of [i, j] hit by no position of [k, l] plus
    positions of [k, l] hitting nothing in [i, j]; equals the definitional
    indel total of the pair.
    """
    pos_yx = tables.pos[y][x]
    hit: set[int] = set()
    d = 0
    for p in range(k, l + 1):
        row = pos_yx[p]
        lo = bisect_left(row, i)
        hi = bisect_right(row, j)
        if lo == hi:
            d += 1
        else:
            hit.update(row[lo:hi])
    return (j - i + 1 - len(hit)) + d


class SweepState:
    """Incremental counters for growing a candidate interval of a trans string.

    Tracks, for the fixed reference interval [i, j], how many positions of the
    candidate hit each reference position (`cover`, with `covered` distinct
    hits) and how many candidate positions hit nothing (`d`). Acceptance is
    then j - i + 1 - covered + d <= delta, evaluated in O(1).
    """

    __slots__ = ("i", "j", "cover", "covered", "d")

    def __init__(self, i: int, j: int) -> None:
        self.i = i
        self.j = j
        self.cover = [0] * (j - i + 1)
        self.covered = 0
        self.d = 0

    def add(self, hits: list[int]) -> None:
        if not hits:
            self.d += 1
            return
        base = self.i
        for i_prime in hits:
            c = self.cover[i_prime - base]
            if c == 0:
                self.covered += 1
            self.cover[i_prime - base] = c + 1

    def copy(self) -> "SweepState":
        dup = SweepState.__new__(SweepState)
        dup.i, dup.j = self.i, self.j
        dup.cover = self.cover.copy()
        dup.covered = self.covered
        dup.d = self.d
        return dup

    def indels(self) -> int:
        return (self.j - self.i + 1 - self.covered) + self.d


def enumerate_trans_intervals(tables: PairTables, x: int, i: int, j: int,
                              y: int, anchors: list[int],
                              params: SearchParams
                              ) -> list[tuple[int, int, int, int]]:
    """All intervals [k, l] of S_y forming a reportable pair with [i, j]_x.

    Walks the anchors left to right; around each anchor p, candidate left
    bounds descend from p (never past the previous anchor) and right bounds
    grow from p, both cut off once the candidate's own indels exceed the
    budget. Endpoint anchoring and min_size are applied inline.

    Each result is (k, l, covered, d) from the accepting sweep state:
    `covered` reference positions of [i, j] are hit from [k, l] and `d`
    positions of [k, l] hit nothing in [i, j]. A position meets the pair's
    common set iff it hits some position of the other interval, so these are
    the non-indel count of the left side and the indel count of the right.
    """
    sy = tables.dataset[y]
    pos_yx = tables.pos[y][x]
    delta = params.delta
    span = j - i + 1

    def hits(p: int) -> list[int]:
        row = pos_yx[p]
        return row[bisect_left(row, i):bisect_right(row, j)]

    out: list[tuple[int, int, int, int]] = []
    p_prev = 0
    for p in anchors:
        if not hits(p):
            # anchor only reaches reference positions outside [i, j]; it cannot
            # anchor an interval here and must not act as a range separator
            continue
        lo, hi = sy.contig_bounds(p)
        k_min = max(p_prev + 1, lo)
        p_prev = p
        # base states over [k, p-1], built while k descends
        base = SweepState(i, j)
        k = p
        while k >= k_min:
            if k < p:
                base.add(hits(k))
                if base.d > delta:
                    break
            cur = base.copy()
            k_hit = hits(k)
            for l in range(p, hi + 1):
                cur.add(hits(l))
                if cur.d > delta:
                    break
                if l - k + 1 < params.min_size:
                    continue
                if cur.indels() > delta:
                    continue
                # endpoint anchoring: all four endpoints must be non-indels
                if not k_hit or not hits(l):
                    continue
                if cur.cover[0] == 0 or cur.cover[span - 1] == 0:
                    continue
                out.append((k, l, cur.covered, cur.d))
            k -= 1
    out.sort()
    return out


def refine_bounds(tables: PairTables, x: int, i: int,
                  anchors: dict[int, list[int]], J: list[int],
                  params: SearchParams, q_eff: int) -> list[int]:
    """Shrink the right-bound candidates using per-anchor reachability.

    For each trans string, the rightmost reference position reachable from any
    anchor neighborhood bounds the right end of any pair with that string;
    the (q_eff - 1)-th largest such bound caps J. Repeated until stable or
    the iteration cap is hit.
    """
    delta = params.delta
    for _ in range(params.refine_iters):
        if not J:
            return []
        j_max = J[-1]
        j_stars: list[int] = []
        for y, p_list in anchors.items():
            sy = tables.dataset[y]
            rc = tables.ridge_c[y][x]
            pos_yx = tables.pos[y][x]
            best = 0
            for p in p_list:
                # widest span around p costing at most delta trivial indels,
                # clamped to p's contig; the prefix base strips the break cost
                # folded into the step at the contig's first position
                lo, hi = sy.contig_bounds(p)
                base = rc[lo] - (0 if pos_yx[lo] else 1)
                if rc[p] - base <= delta:
                    k_star = lo
                else:
                    k_star = bisect_left(rc, rc[p] - delta, lo, p) + 1
                prev = base if p == lo else rc[p - 1]
                l_star = bisect_right(rc, prev + delta, p, hi + 1) - 1
                for k_prime in range(k_star, l_star + 1):
                    row = pos_yx[k_prime]
                    idx = bisect_right(row, j_max) - 1
                    if idx >= 0 and row[idx] >= i and row[idx] > best:
                        best = row[idx]
                if best == j_max:
                    break
            j_stars.append(best)
        if len(j_stars) < q_eff - 1:
            return []
        r = sorted(j_stars, reverse=True)[q_eff - 2]
        if r < i:
            return []
        if r >= j_max:
            return J
        J = J[:r - i + 1]
    return J


def enumerate_pairs(dataset: Dataset, params: SearchParams, *,
                    use_filter: bool = True, refine: bool = True,
                    quorum_grouping: bool = True, threads: int = 1,
                    tables: PairTables | None = None,
                    ridge_t=None, verify: bool = False) -> Iterator[AwciPair]:
    """Stream all reportable interval pairs in deterministic order.

    References are processed in dataset order; for each reference interval the
    trans intervals of every other string are gathered, and the group is
    emitted only when intervals from at least quorum-1 other strings exist
    (unless grouping is disabled). Pairs are reported once, with the left
    interval on the lower-indexed string.

    Each pair is built from the sweep's own counts; only its common set is
    computed, from character-set unions cached per interval. With `verify`,
    every pair is re-derived by `oracle.make_pair` and a disagreement raises
    AssertionError.
    """
    m = len(dataset)
    if m < 2:
        return
    if tables is None:
        tables = build_pos_tables(dataset)
    if use_filter and ridge_t is None:
        ridge_t = build_all_ridge_t(tables, params.delta)
    q_eff = params.quorum if quorum_grouping else 2
    if quorum_grouping and params.quorum > m:
        return

    def run_unit(unit: tuple[int, int]) -> list[AwciPair]:
        x, i = unit
        state = FilterState(m, x, params.delta) if use_filter else None
        J = candidate_right_bounds(tables, ridge_t, x, i, params, q_eff, state)
        if not J:
            return []
        others = [y for y in range(m) if y != x] if quorum_grouping \
            else [y for y in range(m) if y > x]
        anchors = {y: collect_anchors(tables, x, y, i, params.delta) for y in others}
        if refine:
            J = refine_bounds(tables, x, i, anchors, J, params, q_eff)
        found: list[AwciPair] = []
        sx = dataset[x]
        right_sets: dict[tuple[int, int, int], frozenset[int]] = {}
        for j in J:
            if j - i + 1 < params.min_size:
                continue
            ints = {y: enumerate_trans_intervals(tables, x, i, j, y, anchors[y], params)
                    for y in others}
            if quorum_grouping:
                coverage = sum(1 for y in others if ints[y])
                if coverage < params.quorum - 1:
                    continue
            left = AnchoredInterval(sx.id, i, j)
            left_set = sx.char_set(i, j)
            for y in sorted(y for y in others if y > x):
                sy = dataset[y]
                for (k, l, covered, d) in ints[y]:
                    right_set = right_sets.get((y, k, l))
                    if right_set is None:
                        right_set = right_sets[y, k, l] = sy.char_set(k, l)
                    pair = AwciPair(
                        left=left, right=AnchoredInterval(sy.id, k, l),
                        common=left_set & right_set,
                        indel_total=j - i + 1 - covered + d,
                        size_left=covered, size_right=l - k + 1 - d)
                    if verify and make_pair(dataset, left, pair.right, params) != pair:
                        raise AssertionError(f"sweep pair {pair.left} ~ {pair.right} "
                                             "disagrees with oracle.make_pair")
                    found.append(pair)
        return found

    units = [(x, i) for x in range(m - 1) for i in range(1, len(dataset[x]) + 1)]
    if threads <= 1:
        for unit in units:
            yield from run_unit(unit)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch in pool.map(run_unit, units):
                yield from batch
