"""Interval pair enumeration: per reference string and left bound, determine
candidate right bounds, then sweep the other strings for all pairing
intervals.

The sweep works on the per-position hit masks of `tables.PairTables`: with
the reference interval [i, j] as the window W of bits i..j, the hits of a
trans position p are `hitmask[y][x][p] & W`, a candidate interval's state is
the union of its positions' hits plus a count of positions that hit nothing,
and the acceptance and endpoint tests are a few int operations each.

Endpoint anchoring also prunes the work before it is spent: an interval of
S_y pairs with [i, j]_x only if S_y hits both i and j, so a unit, a right
bound or a trans string that too few strings hit at its endpoints is skipped
without running the ridge bound, collecting anchors or walking intervals; so
is a string with more than delta positions hitting nothing in it among the
first min_size positions from i. The right bounds of a unit stop at the
(quorum - 1)-th largest per-string end of `ridge.filter_position`. Strings
that count towards the quorum but are not reported are only tested for one
interval. `enumerate_pairs` lists the steps and why each is exact.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

from .model import AnchoredInterval, AwciError, Dataset, SearchParams
from .oracle import AwciPair, make_pair
from .ridge import build_all_ridge_t, filter_position
from .tables import PairTables, build_pos_tables, set_bits, window


def candidate_right_bounds(tables: PairTables, ridge_t, x: int, i: int,
                           params: SearchParams) -> list[int]:
    """Right-bound candidates J for left bound i: the contig suffix of i."""
    return list(range(i, tables.dataset[x].contig_bounds(i)[1] + 1))


def refine_bounds(tables: PairTables, ridge_t, x: int, i: int, live: list[int],
                  J: list[int], params: SearchParams) -> list[int]:
    """Cap J at the (quorum - 1)-th largest per-string end of the ridge bound.

    A pair ([i, j]_x, [k, l]_y) needs j <= `filter_position(..., x, y, i, ...)`,
    and [i, j] needs intervals of quorum - 1 strings, all among `live`, the
    strings hitting i that may still pair; with fewer of them J is empty.
    """
    if len(live) < params.quorum - 1:
        return []
    ends = sorted((filter_position(tables, ridge_t, x, y, i, params) for y in live),
                  reverse=True)
    return J[:ends[params.quorum - 2] - i + 1]


def collect_anchors(tables: PairTables, x: int, y: int, i: int, delta: int) -> list[int]:
    """Sorted union of Pos rows for reference positions i..i+delta (contig-clamped)."""
    masks = tables.hitmask[x][y]
    hi = min(i + delta, tables.dataset[x].contig_bounds(i)[1])
    union = 0
    for p in range(i, hi + 1):
        union |= masks[p]
    return set_bits(union)


def incremental_indel_count(tables: PairTables, x: int, i: int, j: int,
                            y: int, k: int, l: int) -> int:
    """The sweep's acceptance quantity for ([i,j]_x, [k,l]_y).

    Counts reference positions of [i, j] hit by no position of [k, l] plus
    positions of [k, l] hitting nothing in [i, j]; equals the definitional
    indel total of the pair.
    """
    masks = tables.hitmask[y][x]
    w = window(i, j)
    union = 0
    d = 0
    for p in range(k, l + 1):
        hits = masks[p] & w
        if hits:
            union |= hits
        else:
            d += 1
    return (j - i + 1 - union.bit_count()) + d


def enumerate_trans_intervals(tables: PairTables, x: int, i: int, j: int,
                              y: int, anchors: list[int],
                              params: SearchParams
                              ) -> list[tuple[int, int, int, int]]:
    """All intervals [k, l] of S_y forming a reportable pair with [i, j]_x.

    Walks the anchors left to right; around each anchor p, candidate left
    bounds descend from p (never past the previous anchor) and right bounds
    grow from p, both cut off once the candidate's own indels exceed the
    budget. Endpoint anchoring and min_size are applied inline.

    The hits of a position of S_y inside [i, j] are its hit mask ANDed with
    the window W of bits i..j. A candidate's state is two ints: the union
    `u` of its positions' hits and the count `d` of its positions that hit
    nothing. Each result is (k, l, covered, d) with covered = |u|: `covered`
    reference positions of [i, j] are hit from [k, l] and `d` positions of
    [k, l] hit nothing in [i, j]. A position meets the pair's common set iff
    it hits some position of the other interval, so these are the non-indel
    count of the left side and the indel count of the right.
    """
    return sorted(_trans_walk(tables, x, i, j, y, anchors, params))


def _trans_walk(tables: PairTables, x: int, i: int, j: int, y: int,
                anchors: list[int], params: SearchParams
                ) -> Iterator[tuple[int, int, int, int]]:
    """The results of `enumerate_trans_intervals` in walk order, one at a
    time, so that an existence test can stop at the first."""
    sy = tables.dataset[y]
    masks = tables.hitmask[y][x]
    delta = params.delta
    min_size = params.min_size
    span = j - i + 1
    w = window(i, j)
    ends = (1 << i) | (1 << j)

    p_prev = 0
    for p in anchors:
        if not masks[p] & w:
            # anchor only reaches reference positions outside [i, j]; it cannot
            # anchor an interval here and must not act as a range separator
            continue
        lo, hi = sy.contig_bounds(p)
        k_min = max(p_prev + 1, lo)
        p_prev = p
        # base state over [k, p-1], grown while k descends
        base_u = base_d = 0
        for k in range(p, k_min - 1, -1):
            k_hits = masks[k] & w
            if k < p:
                if k_hits:
                    base_u |= k_hits
                else:
                    base_d += 1
                    if base_d > delta:
                        break
            if not k_hits:
                # endpoint anchoring fails for every [k, l]
                continue
            u, d = base_u, base_d
            for l in range(p, hi + 1):
                hits = masks[l] & w
                if not hits:
                    # an unanchored right endpoint; the candidate still grows
                    d += 1
                    if d > delta:
                        break
                    continue
                u |= hits
                if l - k + 1 < min_size:
                    continue
                covered = u.bit_count()
                # acceptance, then anchoring of the reference endpoints i and j
                if span - covered + d <= delta and (u & ends) == ends:
                    yield k, l, covered, d


def enumerate_pairs(dataset: Dataset, params: SearchParams, *,
                    use_filter: bool = True, threads: int = 1,
                    tables: PairTables | None = None,
                    ridge_t=None, verify: bool = False) -> Iterator[AwciPair]:
    """Stream all reportable interval pairs in deterministic order.

    References are processed in dataset order; for each reference interval the
    trans intervals of every other string are gathered, and the group is
    emitted only when intervals from at least quorum-1 other strings exist.
    Pairs are reported once, with the left interval on the lower-indexed
    string. At quorum 2 every pair of the oracle's `brute_force_pairs` is
    reported.

    Work is spent only where a pair can be anchored. An interval of S_y can
    pair with [i, j]_x only if it hits both endpoints i and j, so a string
    whose hit mask is 0 at i or at j has no interval for [i, j]. A unit (x, i)
    needs quorum - 1 other strings with intervals. Hence, each step dropping
    only work that cannot yield a pair:

      * a unit with fewer than quorum - 1 other strings hitting i is never
        run: `tables.strings_at[x][i]` holds those strings as one int, so the
        unit list keeps only the (x, i) with enough bits set;
      * min-size lookahead: with jt = i + min_size - 1, a unit whose contig
        ends before jt stops at once, and a string S_y hitting i stays live
        only if [i, jt] has at most delta positions hitting nothing in S_y
        (`ridge_c[x][y][jt] - ridge_c[x][y][i]`); the unit stops before the
        ridge bound when fewer than quorum - 1 strings stay live. This is exact:
        a position hitting nothing in S_y is an indel of every pair of [i, j]
        with an interval of S_y, and that count never falls as j grows, so
        no [i, j] with j >= jt pairs with S_y, and every j < jt is below
        `min_size` anyway;
      * the ridge bound (`refine_bounds`): the right bounds J, the contig
        suffix of i, stop at the (quorum - 1)-th largest per-string end of
        `ridge.filter_position` over the live strings, which no j of a pair
        with that string exceeds (the `ridge` module says why); any
        quorum - 1 strings with intervals for [i, j] are among the live
        ones. A unit whose J is then shorter than `min_size` stops before
        anchors are collected;
      * a right bound j is skipped when fewer than quorum - 1 live strings
        also hit j, or when no string after x has an interval for
        [i, j], since only those are reported;
      * the strings before x count towards the quorum but are never
        reported, so each is only tested for an interval (the walk stops at
        the first), and only until the quorum is reached.

    `use_filter=False` skips the ridge bound, so J is the whole contig
    suffix of i; it is the reference path the bound is checked against.

    Each pair is built from the sweep's own counts; only its common set is
    computed, from character-set unions cached per interval. With `verify`,
    every pair is re-derived by `oracle.make_pair` and a disagreement raises
    AssertionError.
    """
    m = len(dataset)
    quorum = params.quorum
    if quorum > m:
        return
    if tables is None:
        tables = build_pos_tables(dataset)
    if use_filter and ridge_t is None:
        ridge_t = build_all_ridge_t(tables, params.delta)
    elif use_filter and ridge_t[0][1].delta != params.delta:
        # narrower neighbourhoods than the budget would drop pairs silently
        raise AwciError(f"ridge_t was built for delta={ridge_t[0][1].delta}, "
                        f"not delta={params.delta}")

    def run_unit(unit: tuple[int, int]) -> list[AwciPair]:
        x, i = unit
        sx = dataset[x]
        jt = i + params.min_size - 1
        if jt > sx.contig_bounds(i)[1]:
            return []
        rc = tables.ridge_c[x]
        strings_at = tables.strings_at[x]
        live = [y for y in set_bits(strings_at[i])
                if rc[y][jt] - rc[y][i] <= params.delta]
        if len(live) < quorum - 1:
            return []
        live_mask = sum(1 << y for y in live)
        J = candidate_right_bounds(tables, ridge_t, x, i, params)
        if use_filter:
            J = refine_bounds(tables, ridge_t, x, i, live, J, params)
        if J[-1] - i + 1 < params.min_size:
            return []
        anchors = {y: collect_anchors(tables, x, y, i, params.delta) for y in live}
        found: list[AwciPair] = []
        right_sets: dict[tuple[int, int, int], frozenset[int]] = {}
        for j in J:
            if j - i + 1 < params.min_size:
                continue
            at_j = strings_at[j] & live_mask
            if at_j.bit_count() < quorum - 1:
                continue
            live_j = set_bits(at_j)
            ints = [(y, found_y) for y in live_j if y > x
                    if (found_y := enumerate_trans_intervals(
                        tables, x, i, j, y, anchors[y], params))]
            if not ints:
                continue
            coverage = len(ints)
            for y in live_j:
                if y > x or coverage >= quorum - 1:
                    break
                if next(_trans_walk(tables, x, i, j, y, anchors[y], params),
                        None) is not None:
                    coverage += 1
            if coverage < quorum - 1:
                continue
            left = AnchoredInterval(sx.id, i, j)
            left_set = sx.char_set(i, j)
            for y, found_y in ints:
                sy = dataset[y]
                for (k, l, covered, d) in found_y:
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

    # index 0 of strings_at is an unused 0, and quorum >= 2 skips it
    units = [(x, i) for x in range(m - 1)
             for i, at in enumerate(tables.strings_at[x]) if at.bit_count() >= quorum - 1]
    if threads <= 1:
        for unit in units:
            yield from run_unit(unit)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for batch in pool.map(run_unit, units):
                yield from batch
