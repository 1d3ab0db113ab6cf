"""From enumerated interval pairs to maximal closed interval sets.

Pairs become an undirected graph (vertices are intervals, edges are reported
pairs). Vertices that cannot reach the quorum are dropped, dominated
representatives may be pruned, and maximal cliques are enumerated by one
pivoted Bron-Kerbosch run over the whole graph. Each clique is tested for
closedness with per-vertex extension masks; non-closed cliques are probed
for closed sub-cliques within a bounded descent. Reported sets are those
closed sets not contained in another reported closed set.
"""
from __future__ import annotations

import logging
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .model import AnchoredInterval, Dataset, ResourceLimitError, SearchParams
from .oracle import AwciPair, AwciSet, is_closed_set

log = logging.getLogger(__name__)

# Members a non-closed clique may lose in the search for closed sub-cliques.
DESCENT_BUDGET = 2


class AwciGraph:
    """Deduplicated interval vertices plus pair edges, string-partitioned."""

    def __init__(self, dataset: Dataset, vertices: Sequence[AnchoredInterval],
                 edges: Iterable[tuple[int, int]]) -> None:
        self.dataset = dataset
        self.vertices = list(vertices)
        self.adj: list[set[int]] = [set() for _ in self.vertices]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    @cached_property
    def char_sets(self) -> list[frozenset[int]]:
        """Character-set union of each vertex's interval."""
        return [self.dataset.string_of(iv).char_set(iv.i, iv.j)
                for iv in self.vertices]

    def string_of(self, v: int) -> int:
        return self.dataset.index_of(self.vertices[v].string_id)

    def subgraph(self, keep: set[int]) -> "AwciGraph":
        kept = sorted(keep)
        remap = {v: k for k, v in enumerate(kept)}
        edges = [(remap[u], remap[v]) for u in kept for v in self.adj[u]
                 if v in keep and u < v]
        return AwciGraph(self.dataset, [self.vertices[v] for v in kept], edges)

    def __len__(self) -> int:
        return len(self.vertices)


def build_graph(pairs: Iterable[AwciPair], dataset: Dataset,
                params: SearchParams) -> AwciGraph:
    """Build the pair graph, iteratively dropping quorum-infeasible vertices.

    A vertex whose neighbors span fewer than quorum-1 other strings cannot be
    in any reported set; removal repeats until a fixpoint.
    """
    vertex_ids: dict[AnchoredInterval, int] = {}
    vertices: list[AnchoredInterval] = []
    edges: list[tuple[int, int]] = []
    for p in pairs:
        uv = []
        for iv in (p.left, p.right):
            idx = vertex_ids.get(iv)
            if idx is None:
                idx = len(vertices)
                vertex_ids[iv] = idx
                vertices.append(iv)
            uv.append(idx)
        edges.append((uv[0], uv[1]))

    graph = AwciGraph(dataset, vertices, edges)
    keep = set(range(len(graph)))
    changed = True
    while changed:
        changed = False
        for v in sorted(keep):
            spans = {graph.string_of(u) for u in graph.adj[v] if u in keep}
            if len(spans) < params.quorum - 1:
                keep.discard(v)
                changed = True
    if len(keep) != len(graph):
        graph = graph.subgraph(keep)
    return graph


def prune_dominated_vertices(graph: AwciGraph) -> AwciGraph:
    """Drop vertices dominated by a strict superinterval on the same string.

    A vertex v is discardable when some vertex u on the same string strictly
    contains its interval, u is adjacent to every neighbor of v, at most one
    extension position per side shares characters with all of v's neighbors,
    and a position immediately adjacent to v's interval does so (which makes
    any set containing v non-closed, so dropping v cannot change the output).
    """
    by_string: dict[str, list[int]] = {}
    for v, iv in enumerate(graph.vertices):
        by_string.setdefault(iv.string_id, []).append(v)

    char_sets = graph.char_sets
    discard: set[int] = set()
    for v, iv in enumerate(graph.vertices):
        if not graph.adj[v]:
            continue
        s = graph.dataset.string_of(iv)
        neighbor_sets = [char_sets[u] for u in graph.adj[v]]

        def shares_all(p: int) -> bool:
            pset = s.at(p)
            return all(not pset.isdisjoint(cs) for cs in neighbor_sets)

        for u in by_string[iv.string_id]:
            ju = graph.vertices[u]
            if (ju.i, ju.j) == (iv.i, iv.j) or not (ju.i <= iv.i and iv.j <= ju.j):
                continue
            if not graph.adj[v] <= graph.adj[u]:
                continue
            left_ext = [p for p in range(ju.i, iv.i) if shares_all(p)]
            right_ext = [p for p in range(iv.j + 1, ju.j + 1) if shares_all(p)]
            if len(left_ext) > 1 or len(right_ext) > 1:
                continue
            if (iv.i - 1 in left_ext) or (iv.j + 1 in right_ext):
                discard.add(v)
                break
    if not discard:
        return graph
    return graph.subgraph(set(range(len(graph))) - discard)


def _maximal_cliques(graph: AwciGraph, guard: int) -> list[tuple[int, ...]]:
    """Pivoted Bron-Kerbosch in deterministic vertex order."""
    out: list[tuple[int, ...]] = []
    steps = 0

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        nonlocal steps
        steps += 1
        if steps > guard:
            raise ResourceLimitError(
                f"maximal clique enumeration took {steps} steps, past its guard "
                f"of {guard}, on a graph of {len(graph)} vertices")
        if not p and not x:
            if r:
                out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: (len(graph.adj[v] & p), -v))
        for v in sorted(p - graph.adj[pivot]):
            expand(r + [v], p & graph.adj[v], x & graph.adj[v])
            p.discard(v)
            x.add(v)

    expand([], set(range(len(graph))), set())
    return out


def extension_masks(graph: AwciGraph) -> list[tuple[int, ...]]:
    """Per vertex, one neighbour bitmask for each adjacent in-contig position.

    For v = [i, j] on S and p in {i-1, j+1} inside S and v's contig, bit u is
    set for every neighbour u whose character set meets S[p]. Positions off
    the string or across a contig break get no mask.
    """
    char_sets = graph.char_sets
    out: list[tuple[int, ...]] = []
    for v, iv in enumerate(graph.vertices):
        s = graph.dataset.string_of(iv)
        lo, hi = s.contig_bounds(iv.i)
        masks = []
        for p in (iv.i - 1, iv.j + 1):
            if lo <= p <= hi:
                pset = s.at(p)
                masks.append(sum(1 << u for u in graph.adj[v]
                                 if not pset.isdisjoint(char_sets[u])))
        out.append(tuple(masks))
    return out


def is_closed_clique(masks: list[tuple[int, ...]], clique: Sequence[int]) -> bool:
    """Closedness of a clique of the graph `masks` were built on.

    Agrees with `oracle.is_closed_set` on the clique's intervals: a member v
    is extendable at an adjacent position iff every other member, all of them
    neighbours of v, is in that position's mask.
    """
    members = 0
    for v in clique:
        members |= 1 << v
    for v in clique:
        others = members ^ (1 << v)
        for mask in masks[v]:
            if others & mask == others:
                return False
    return True


def maximal_closed_sets(graph: AwciGraph, params: SearchParams, *,
                        clique_guard: int = 2_000_000) -> list[AwciSet]:
    """Enumerate closed interval sets that are maximal among closed sets.

    Each maximal clique spanning at least `quorum` strings is tested for
    closedness; non-closed cliques are probed for closed sub-cliques missing
    at most `DESCENT_BUDGET` members. Finally any closed set contained in a
    larger collected closed set is dropped. One warning gives the number of
    non-closed cliques whose descent the budget cut short.
    """
    dataset = graph.dataset
    masks = extension_masks(graph)
    candidates: set[tuple[int, ...]] = set()
    over_budget = 0
    for clique in _maximal_cliques(graph, clique_guard):
        if len(clique) < params.quorum:
            continue
        if is_closed_clique(masks, clique):
            candidates.add(clique)
            continue
        if len(clique) - params.quorum > DESCENT_BUDGET:
            over_budget += 1
        max_drop = min(DESCENT_BUDGET, len(clique) - params.quorum)
        for drop in range(1, max_drop + 1):
            for sub in combinations(clique, len(clique) - drop):
                if is_closed_clique(masks, sub):
                    candidates.add(sub)
    if over_budget:
        log.warning(
            "%d non-closed cliques exceed the descent budget of %d; their closed "
            "sub-cliques missing more than %d members were not probed",
            over_budget, DESCENT_BUDGET, DESCENT_BUDGET)

    ordered = sorted(candidates)
    closed_sets = [frozenset(c) for c in ordered]
    results = []
    for c, cset in zip(ordered, closed_sets):
        if any(cset < other for other in closed_sets):
            continue
        members = tuple(sorted((graph.vertices[v] for v in c),
                               key=dataset.sort_key))
        results.append(AwciSet(members=members, closed=True))
    results.sort(key=lambda s: tuple(dataset.sort_key(m) for m in s.members))
    return results


def assemble(pairs: Iterable[AwciPair], dataset: Dataset, params: SearchParams, *,
             prune: bool = True, verify: bool = False) -> list[AwciSet]:
    """Full pipeline from a pair stream to reported maximal closed sets.

    With `verify`, every reported set is re-checked by `oracle.is_awci_set`
    and `oracle.is_closed_set`, and a set failing either raises
    AssertionError naming it.
    """
    graph = build_graph(pairs, dataset, params)
    if prune:
        graph = prune_dominated_vertices(graph)
    sets = maximal_closed_sets(graph, params)
    if verify:
        from .oracle import is_awci_set
        for s in sets:
            names = ", ".join(map(str, s.members))
            if not is_awci_set(dataset, s.members, params.delta):
                raise AssertionError(f"reported set {{{names}}} is not an AWCI set")
            if not is_closed_set(dataset, s.members, params.delta):
                raise AssertionError(f"reported set {{{names}}} is not closed")
    return sets
