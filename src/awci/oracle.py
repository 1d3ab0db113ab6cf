"""Direct, unoptimized reference implementations of the interval semantics.

Everything here evaluates the definitions literally and is used as ground
truth for differential testing of the fast enumeration path. Runtime is
exponential in places; the set enumeration is gated by a resource guard.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    AnchoredInterval,
    AwciPair,
    AwciSet,
    Dataset,
    ResourceLimitError,
    SearchParams,
    UnsupportedError,
)


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
    dataset.check_interval(a)
    dataset.check_interval(b)
    common = sa.char_set(a.i, a.j) & sb.char_set(b.i, b.j)
    indel_left = tuple(p for p in range(a.i, a.j + 1) if not (sa.at(p) & common))
    indel_right = tuple(p for p in range(b.i, b.j + 1) if not (sb.at(p) & common))
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
        other_sets = [dataset[iv.string_id].char_set(iv.i, iv.j) for iv in others]
        for p in (member.i - 1, member.j + 1):
            if not lo <= p <= hi:
                continue
            pset = s.at(p)
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
        if not (s.at(iv.i) & v.common) or not (s.at(iv.j) & v.common):
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
    """Enumerate every reportable interval pair by exhaustive search."""
    out: list[AwciPair] = []
    m = len(dataset)
    for xi in range(m - 1):
        sx = dataset[xi]
        for yi in range(xi + 1, m):
            sy = dataset[yi]
            for (i, j) in sx.intervals():
                a = AnchoredInterval(sx.id, i, j)
                for (k, l) in sy.intervals():
                    pair = make_pair(dataset, a, AnchoredInterval(sy.id, k, l), params)
                    if pair is not None:
                        out.append(pair)
    out.sort(key=lambda p: dataset.sort_key(p.left) + dataset.sort_key(p.right))
    return out


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
