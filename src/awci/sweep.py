"""Interval pair enumeration: per reference string and left bound, determine
candidate right bounds, then sweep the other strings for all pairing
intervals.

The sweep works on the per-position hit masks of `tables.PairTables`: with
the reference interval [i, j] as the window W of bits i..j, the hits of a
trans position p are `hitmask[y][x][p] & W`, a candidate interval's state is
the union of its positions' hits plus a count of positions that hit nothing,
and the acceptance and endpoint tests are a few int operations each. One
walk per (left bound, reported string) covers every right bound of the
unit: it runs over the widest window, starting only at the positions of S_y
hitting i, and reads off, per candidate, the right bounds it pairs with.
Endpoint anchoring, a min-size lookahead and the `ridge` module's bound drop
units and strings before any walk runs; `enumerate_pairs` lists the steps and
why each is exact.
"""
from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Iterator

from .model import AnchoredInterval, AwciError, AwciPair, Dataset, SearchParams, ValidationError
from .oracle import make_pair  # uncalled; perfbench's install_wrappers still wraps it
from .ridge import build_all_ridge_t, filter_position
from .tables import PairTables, build_pos_tables, set_bits, window


def candidate_right_bounds(tables: PairTables, ridge_t, x: int, i: int,
                           params: SearchParams) -> list[int]:
    """Right-bound candidates J for left bound i: the contig suffix of i."""
    return list(range(i, tables.dataset.strings[x].contig_of[i][1] + 1))


def refine_bounds(tables: PairTables, ridge_t, x: int, i: int, live: list[int],
                  J: list[int], params: SearchParams) -> list[int]:
    """Cap J at the (quorum - 1)-th largest per-string end of the ridge bound.

    A pair ([i, j]_x, [k, l]_y) needs j <= `filter_position(..., x, y, i, ...)`,
    and [i, j] needs intervals of quorum - 1 strings, all among `live`, the
    strings hitting i that may still pair (at quorum 2 only those after x);
    with fewer of them J is empty. J is empty too, without bounding the other
    strings, once more than len(live) - (quorum - 1) strings end before
    i + min_size - 1: the cap would then leave no j long enough.
    """
    short_max = len(live) - (params.quorum - 1)
    if short_max < 0:
        return []
    jt = i + params.min_size - 1
    ends = []
    for y in live:
        end = filter_position(tables, ridge_t, x, y, i, params)
        if end < jt:
            short_max -= 1
            if short_max < 0:
                return []
        ends.append(end)
    ends.sort(reverse=True)
    return J[:ends[params.quorum - 2] - i + 1]


def collect_anchors(tables: PairTables, x: int, y: int, i: int) -> list[int]:
    """Positions of S_y hitting reference position i of S_x, ascending."""
    return set_bits(tables.hitmask[x][y][i])


def enumerate_trans_intervals(tables: PairTables, x: int, i: int, jmin: int,
                              jend: int, y: int, params: SearchParams
                              ) -> list[tuple[int, int, int, int, int]]:
    """All intervals [k, l] of S_y forming a reportable pair with [i, j]_x, for
    every right bound j in [jmin, jend], in one walk.

    Walks the anchors, the positions of S_y hitting i, left to right over
    the wide window W of bits i..jend; around each anchor p, candidate left
    bounds descend from p (never past the previous anchor) and right bounds
    grow from p, both cut off once the candidate's own indels exceed the
    budget. Endpoint anchoring and min_size are applied inline. By endpoint
    anchoring every interval pairing with [i, j] holds a position hitting i,
    as in the `ridge` module's bound, and a narrower window only tightens the
    cut-offs, so every candidate of a walk over window(i, j) is visited,
    once, under the first anchor at or after k.

    The hits of a position of S_y inside [i, j] are its hit mask ANDed with
    the window of bits i..j. A candidate's state is two ints: the union `u`
    of its positions' hits in W and the count `d` of its positions that hit
    nothing in W. Each result is (j, k, l, covered, d_j) with covered =
    |u & window(i, j)|: `covered` reference positions of [i, j] are hit from
    [k, l] and `d_j` positions of [k, l] hit nothing in [i, j]. A position
    meets the pair's common set iff it hits some position of the other
    interval, so these are the non-indel count of the left side and the
    indel count of the right.
    """
    return sorted(_trans_walk(tables, x, i, jmin, jend, y, params))


def _trans_walk(tables: PairTables, x: int, i: int, jmin: int, jend: int,
                y: int, params: SearchParams
                ) -> Iterator[tuple[int, int, int, int, int]]:
    """The results of `enumerate_trans_intervals` in walk order, one at a
    time, so that an existence test (jmin = jend) can stop at the first.

    A candidate [k, l] visited over W pairs with [i, j]_x iff j is a bit of
    `u` (anchoring of j; i is anchored by construction, as the candidate
    holds an anchor and every anchor hits i), k and l each hit some reference
    position in [i, j], and the zeros of `u` in [i, j] plus d_j are at most
    delta. d_j is the walk's `d` at jend; below it, d_j counts the positions
    of [k, l] outside H_j, the positions of S_y hitting any of i..j, read off
    the prefix ORs of `hitmask[x][y]` (built at the first need). Since
    d_j >= d and the zeros of `u` only grow with j, the right bounds of a
    candidate stop at the (delta - d + 1)-th zero of `u`.
    """
    contig_of = tables.dataset.strings[y].contig_of
    masks = tables.hitmask[y][x]
    delta = params.delta
    min_size = params.min_size
    w = window(i, jend)
    reach: list[int] | None = None  # reach[j - i] = H_j

    p_prev = 0
    for p in collect_anchors(tables, x, y, i):
        lo, hi = contig_of[p]
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
            # the lowest reference position k hits, so the least j it anchors
            k_low = max(jmin, (k_hits & -k_hits).bit_length() - 1)
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
                j_low = max(k_low, (hits & -hits).bit_length() - 1)
                # the right bounds j >= j_low anchored by u, ascending, with
                # `covered` the bits of u in [i, j]
                covered = (u & ((1 << j_low) - 1)).bit_count()
                rest = u >> j_low << j_low
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j = low.bit_length() - 1
                    covered += 1
                    zeros = j - i + 1 - covered
                    if zeros + d > delta:
                        break
                    if j == jend:
                        d_j = d
                    else:
                        if reach is None:
                            reach = list(accumulate(tables.hitmask[x][y][i:jend + 1],
                                                    or_))
                        d_j = l - k + 1 - (reach[j - i] >> k
                                           & ((1 << (l - k + 1)) - 1)).bit_count()
                    if zeros + d_j <= delta:
                        yield j, k, l, covered, d_j


def enumerate_pairs(dataset: Dataset, params: SearchParams, *,
                    use_filter: bool = True, threads: int = 1,
                    tables: PairTables | None = None,
                    ridge_t=None) -> Iterator[AwciPair]:
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
      * later-string admission: only strings after x are reported, so a unit
        is listed only if one of them hits i, and stops before the ridge
        bound if the lookahead below leaves none of them live;
      * at quorum 2 one string after x is the quorum, so the unit drops the
        strings before x at once: no lookahead, ridge bound or coverage test
        for them, and J stops at the largest end over the later strings;
      * min-size lookahead: with jt = i + min_size - 1, a unit whose contig
        ends before jt stops at once, and a string S_y hitting i stays live
        only if [i, jt] has at most delta positions hitting nothing in S_y
        (the bits of `nohit[x][y]` in `window(i, jt)`); one pass over the
        strings hitting i stops the unit, before the ridge bound, at the
        first string too many that fails (at quorum = m, the first failure).
        This is exact: a position hitting nothing in S_y is an indel of every
        pair of [i, j] with an interval of S_y, and that count never falls as
        j grows, so no [i, j] with j >= jt pairs with S_y, and every j < jt
        is below `min_size` anyway;
      * the ridge bound (`refine_bounds`): the right bounds J, the contig
        suffix of i, stop at the (quorum - 1)-th largest per-string end of
        `ridge.filter_position` over the live strings, which no j of a pair
        with that string exceeds (the `ridge` module says why); any
        quorum - 1 strings with intervals for [i, j] are among the live
        ones. The bound stops early, with J empty, once more than
        len(live) - (quorum - 1) strings end before jt: fewer than quorum - 1
        ends then reach jt, so the cap would leave J shorter than `min_size`
        anyway; at quorum = m that is the first string ending before jt. A
        unit whose J is empty stops before any walk; any other J reaches jt;
      * work per (unit, string), not per right bound: each live string
        after x is walked once, by `enumerate_trans_intervals` over the
        right bounds from max(i, jt) to the end of J, and its results are
        grouped by j. The walk starts only at the positions of S_y hitting
        i, as `ridge.filter_position` does: every interval pairing with
        [i, j] holds one, each candidate is visited under the first of them
        at or after k, and i is anchored by construction. A right bound j at
        which no string after x has an interval is skipped, since only those
        strings are reported;
      * at quorum > 2 the strings before x count towards the quorum but are
        never reported, so at a right bound j that still lacks coverage they
        are tested, and only until the quorum is reached. Each emitted pair
        sets the bit of its left string on its right interval's cache entry,
        so a string y < x whose bit is set on [i, j]_x has a pair with it,
        emitted by the earlier unit (y, k), and counts at once: the pair
        predicate (all four endpoints anchored, the indel total within
        delta, min_size on both sides) is symmetric. Each other live string
        hitting j is only tested for an interval of [i, j] (the walk over j
        alone, stopping at the first). Coverage can come only from live
        strings hitting j, so a j with fewer than quorum - 1 of them fails
        these tests.

    `use_filter=False` skips the ridge bound, so J is the whole contig
    suffix of i; it is the reference path the bound is checked against.

    `tables` and `ridge_t` default to fresh builds. When passed, `tables`
    must come from `build_pos_tables(dataset)` on this very dataset object,
    and `ridge_t` from `build_all_ridge_t(tables, params.delta)` on those
    tables; a mismatch raises AwciError, since index tables of another
    dataset would drop pairs silently or fail far from the cause.

    Each pair is built from the sweep's own counts; only the size of its
    common set is computed, as the popcount of the AND of the two intervals'
    shared-character masks (`Dataset.shared_masks` ORed over the interval;
    the two sides lie on different strings, so this is exact). Each distinct
    interval of the reported pairs gets one `AnchoredInterval` and one such
    mask per search, shared by all units and by both sides of every pair;
    pairs and intervals are tuples, so both are built and hashed in C. Each
    unit builds its pairs in one list, which the search then yields from.

    The search runs in one thread; `threads` accepts only 1 (any other value
    raises ValidationError) and stays only because `perfbench/run.py` passes it.
    """
    if threads != 1:
        raise ValidationError(f"threads={threads}: the search runs in one "
                              "thread, so threads must be 1")
    m = len(dataset)
    quorum = params.quorum
    if quorum > m:
        return
    if tables is None:
        tables = build_pos_tables(dataset)
    elif tables.dataset is not dataset:
        raise AwciError("tables were built for another dataset")
    if use_filter and ridge_t is None:
        ridge_t = build_all_ridge_t(tables, params.delta)
    elif use_filter and ridge_t[0][1].hits is not tables.hitmask[1][0]:
        raise AwciError("ridge_t was built from other tables than `tables`")
    elif use_filter and ridge_t[0][1].delta != params.delta:
        # narrower neighbourhoods than the budget would drop pairs silently
        raise AwciError(f"ridge_t was built for delta={ridge_t[0][1].delta}, "
                        f"not delta={params.delta}")

    # (string, a, b) -> [the interval, the OR of its shared-character masks,
    # above quorum 2 the bits of the strings of the emitted pairs holding it
    # as their right interval]
    intervals: dict[tuple[int, int, int], list] = {}
    shared_masks = dataset.shared_masks
    strings = dataset.strings
    record = quorum > 2

    def add_interval(s: int, a: int, b: int) -> list:
        entry = intervals[s, a, b] = [AnchoredInterval(strings[s].id, a, b),
                                      reduce(or_, shared_masks[s][a:b + 1]), 0]
        return entry

    def run_unit(unit: tuple[int, int]) -> list[AwciPair]:
        x, i = unit
        jt = i + params.min_size - 1
        if jt > strings[x].contig_of[i][1]:
            return []
        nohit = tables.nohit[x]
        strings_at = tables.strings_at[x]
        w = window(i, jt)
        hitting = set_bits(strings_at[i] if record else strings_at[i] & (-1 << x + 1))
        # how many strings hitting i may fail the lookahead, leaving quorum - 1
        spare = len(hitting) - (quorum - 1)
        live = []
        for y in hitting:
            if (nohit[y] & w).bit_count() <= params.delta:
                live.append(y)
            elif (spare := spare - 1) < 0:
                return []
        if live[-1] < x:  # no live string after x, so nothing to report
            return []
        J = candidate_right_bounds(tables, ridge_t, x, i, params)
        if use_filter:
            J = refine_bounds(tables, ridge_t, x, i, live, J, params)
        if not J:
            return []
        live_mask = sum(1 << y for y in live)
        x_bit = 1 << x
        pairs: list[AwciPair] = []
        # (y, walk result) of the reported strings, in string order, by j
        found_at: dict[int, list[tuple[int, tuple[int, int, int, int, int]]]] = {}
        for y in (y for y in live if y > x):
            for found in enumerate_trans_intervals(tables, x, i, max(i, jt), J[-1],
                                                   y, params):
                found_at.setdefault(found[0], []).append((y, found))
        for j in sorted(found_at):
            entries = found_at[j]
            left = intervals.get((x, i, j))
            # at quorum 2 every entry's string, after x, is the whole quorum
            if record and (coverage := len({y for y, _ in entries})) < quorum - 1:
                # strings before x whose pairs with [i, j] were emitted count
                # at once; the pair predicate is symmetric
                known = left[2] if left is not None else 0
                coverage += known.bit_count()
                for y in set_bits(strings_at[j] & live_mask & (x_bit - 1) & ~known):
                    if coverage >= quorum - 1:
                        break
                    if next(_trans_walk(tables, x, i, j, j, y, params), None) is not None:
                        coverage += 1
                if coverage < quorum - 1:
                    continue
            left_iv, left_mask, _ = left or add_interval(x, i, j)
            for y, (_, k, l, covered, d) in entries:
                right = intervals.get((y, k, l)) or add_interval(y, k, l)
                if record:
                    right[2] |= x_bit
                # AwciPair(left, right, common_size, indel_total, size_left,
                # size_right), without the frame of its Python-level __new__
                pairs.append(tuple.__new__(AwciPair, (
                    left_iv, right[0], (left_mask & right[1]).bit_count(),
                    j - i + 1 - covered + d, covered, l - k + 1 - d)))
        return pairs

    # index 0 of strings_at is an unused 0, and quorum >= 2 skips it
    units = [(x, i) for x in range(m - 1) for i, at in enumerate(tables.strings_at[x])
             if at.bit_count() >= quorum - 1 and at >> x + 1]
    for unit in units:
        yield from run_unit(unit)
