"""Direct, unoptimized reference implementations of the interval semantics.

Everything here evaluates the definitions literally and is used as ground
truth for differential testing of the fast enumeration path. Runtime is
exponential in places; the set enumeration is gated by a resource guard.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import (AnchoredInterval, AwciPair, AwciSet, Dataset, IndeterminateString,
                    RangeError, ResourceLimitError, SearchParams, UnsupportedError,
                    ValidationError)


def at(s: IndeterminateString, p: int) -> frozenset[int]:
    """Character set at 1-based position p of s."""
    if not 1 <= p <= len(s):
        raise RangeError(f"string {s.id!r}: position {p} out of range")
    return s.positions[p - 1]


def char_set(s: IndeterminateString, i: int, j: int) -> frozenset[int]:
    """Union of the sets at positions i..j of s."""
    if i > j or i < 1 or j > len(s):
        raise RangeError(f"string {s.id!r}: invalid interval [{i}, {j}]")
    return frozenset().union(*s.positions[i - 1:j])


def intervals(s: IndeterminateString) -> Iterator[tuple[int, int]]:
    """All valid (i, j) intervals of s, contig by contig."""
    for i in range(1, len(s) + 1):
        for j in range(i, s.contig_bounds(i)[1] + 1):
            yield i, j


def check_interval(dataset: Dataset, interval: AnchoredInterval) -> None:
    """Raise unless `interval` lies inside its string and inside one contig."""
    s = dataset[interval.string_id]
    if interval.j > len(s):
        raise RangeError(f"{interval} exceeds |{s.id}| = {len(s)}")
    if s.contig_bounds(interval.i) != s.contig_bounds(interval.j):
        raise ValidationError(f"{interval} straddles a contig break")


@dataclass(frozen=True)
class PairVerdict:
    """Literal evaluation of one interval pair against an indel budget."""
    is_wci: bool
    is_awci: bool
    common: frozenset[int]
    indel_left: tuple[int, ...]
    indel_right: tuple[int, ...]

    @property
    def indel_total(self) -> int:
        return len(self.indel_left) + len(self.indel_right)


def judge_pair(dataset: Dataset, a: AnchoredInterval, b: AnchoredInterval,
               delta: int) -> PairVerdict:
    """Evaluate the approximate weak common interval property for (a, b).

    Computes the common character set C of the two intervals and counts the
    positions on each side whose sets miss C entirely (the indels).
    """
    if a.string_id == b.string_id:
        raise UnsupportedError("cannot compare two intervals of the same string")
    sa = dataset[a.string_id]
    sb = dataset[b.string_id]
    check_interval(dataset, a)
    check_interval(dataset, b)
    common = char_set(sa, a.i, a.j) & char_set(sb, b.i, b.j)
    indel_left = tuple(p for p in range(a.i, a.j + 1) if not (at(sa, p) & common))
    indel_right = tuple(p for p in range(b.i, b.j + 1) if not (at(sb, p) & common))
    total = len(indel_left) + len(indel_right)
    return PairVerdict(
        is_wci=(total == 0),
        is_awci=(total <= delta),
        common=common,
        indel_left=indel_left,
        indel_right=indel_right,
    )


def is_closed_set(dataset: Dataset, intervals: Sequence[AnchoredInterval]) -> bool:
    """Closedness test: no member may be extendable by one adjacent position.

    A member [i, j] on S disqualifies the set if a position p in {i-1, j+1},
    inside S and inside the same contig, has S[p] intersecting the character
    set of every other member's interval.
    """
    for member in intervals:
        s = dataset[member.string_id]
        lo, hi = s.contig_bounds(member.i)
        others = [iv for iv in intervals if iv is not member]
        other_sets = [char_set(dataset[iv.string_id], iv.i, iv.j) for iv in others]
        for p in (member.i - 1, member.j + 1):
            if not lo <= p <= hi:
                continue
            pset = at(s, p)
            if all(pset & cs for cs in other_sets):
                return False
    return True


def make_pair(dataset: Dataset, a: AnchoredInterval, b: AnchoredInterval,
              params: SearchParams) -> AwciPair | None:
    """Apply the full reporting predicate to one interval pair.

    A pair is reported iff it is a delta-AWCI pair, all four endpoints are
    anchored (each endpoint set intersects the pair's common set), and both
    intervals are at least `min_size` positions long.
    """
    if a.length < params.min_size or b.length < params.min_size:
        return None
    v = judge_pair(dataset, a, b, params.delta)
    if not v.is_awci:
        return None
    sa = dataset[a.string_id]
    sb = dataset[b.string_id]
    for s, iv in ((sa, a), (sb, b)):
        if not (at(s, iv.i) & v.common) or not (at(s, iv.j) & v.common):
            return None
    if dataset.index_of(a.string_id) > dataset.index_of(b.string_id):
        a, b = b, a
        v = PairVerdict(v.is_wci, v.is_awci, v.common, v.indel_right, v.indel_left)
    return AwciPair(
        left=a, right=b, common_size=len(v.common), indel_total=v.indel_total,
        size_left=a.length - len(v.indel_left),
        size_right=b.length - len(v.indel_right),
    )


def brute_force_pairs(dataset: Dataset, params: SearchParams) -> list[AwciPair]:
    """Enumerate every reportable interval pair by exhaustive search.

    `params.quorum` is ignored: these are the pairs `enumerate_pairs` reports
    at quorum 2, and `brute_force_maximal_closed_sets` builds its graph from
    all of them whatever the quorum.
    """
    out: list[AwciPair] = []
    m = len(dataset)
    for xi in range(m - 1):
        sx = dataset[xi]
        for yi in range(xi + 1, m):
            sy = dataset[yi]
            for (i, j) in intervals(sx):
                a = AnchoredInterval(sx.id, i, j)
                for (k, l) in intervals(sy):
                    pair = make_pair(dataset, a, AnchoredInterval(sy.id, k, l), params)
                    if pair is not None:
                        out.append(pair)
    out.sort(key=lambda p: dataset.sort_key(p.left) + dataset.sort_key(p.right))
    return out


def brute_force_grouped_pairs(dataset: Dataset, params: SearchParams,
                              pairs: list[AwciPair] | None = None) -> list[AwciPair]:
    """The pairs `enumerate_pairs` reports at `params.quorum`: those of
    `brute_force_pairs` whose left interval pairs with intervals of at least
    quorum - 1 distinct strings, on either side.

    `pairs`, when given, must be `brute_force_pairs(dataset, params)`; it
    saves the exhaustive search when several quorums are checked.
    """
    if pairs is None:
        pairs = brute_force_pairs(dataset, params)
    partners: dict[AnchoredInterval, set[str]] = defaultdict(set)
    for p in pairs:
        partners[p.left].add(p.right.string_id)
        partners[p.right].add(p.left.string_id)
    return [p for p in pairs if len(partners[p.left]) >= params.quorum - 1]


def brute_force_maximal_closed_sets(dataset: Dataset, params: SearchParams,
                                    max_cliques: int = 2_000_000) -> list[AwciSet]:
    """Enumerate closed AWCI sets that are inclusion-maximal among closed sets.

    Builds the pairwise-AWCI graph exhaustively, walks every clique spanning at
    least `quorum` strings, keeps the closed ones, and finally removes any
    closed set contained in a larger closed set. Exponential; gated by
    `max_cliques`.
    """
    pairs = brute_force_pairs(dataset, params)
    vertices = sorted({p.left for p in pairs} | {p.right for p in pairs},
                      key=dataset.sort_key)
    vindex = {v: k for k, v in enumerate(vertices)}
    adj: list[set[int]] = [set() for _ in vertices]
    for p in pairs:
        u, v = vindex[p.left], vindex[p.right]
        adj[u].add(v)
        adj[v].add(u)

    cliques: list[tuple[int, ...]] = []
    counter = 0

    def extend(current: list[int], candidates: list[int]) -> None:
        nonlocal counter
        for idx, v in enumerate(candidates):
            counter += 1
            if counter > max_cliques:
                raise ResourceLimitError(
                    f"clique enumeration exceeded {max_cliques} steps")
            current.append(v)
            if len(current) >= params.quorum:
                cliques.append(tuple(current))
            extend(current, [w for w in candidates[idx + 1:] if w in adj[v]])
            current.pop()

    extend([], list(range(len(vertices))))

    closed = [c for c in cliques
              if is_closed_set(dataset, [vertices[v] for v in c])]
    closed_sets = [frozenset(c) for c in closed]
    results: list[AwciSet] = []
    for c, cset in zip(closed, closed_sets):
        if any(cset < other for other in closed_sets):
            continue
        members = tuple(sorted((vertices[v] for v in c), key=dataset.sort_key))
        results.append(AwciSet(members=members))
    results.sort(key=lambda s: tuple(dataset.sort_key(m) for m in s.members))
    return results
