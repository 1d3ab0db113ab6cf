"""From enumerated interval pairs to maximal closed interval sets.

Pairs become an undirected graph (vertices are intervals, edges are reported
pairs). Vertices that cannot reach the quorum are dropped, and vertices that
no closed set can hold may be pruned. Maximal cliques are enumerated by one
pivoted Bron-Kerbosch run over the whole graph, and each is peeled to its
closed core with per-vertex extension masks. Both steps are exact because a
member extendable in a set stays extendable in every subset holding it.
Reported sets are the cores not contained in another reported core.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .model import AnchoredInterval, AwciPair, AwciSet, Dataset, ResourceLimitError, SearchParams
from .oracle import is_closed_set  # uncalled; perfbench's install_wrappers still wraps it


class AwciGraph:
    """Deduplicated interval vertices plus pair edges, string-partitioned:
    `string_index[v]` is the dataset index of vertex v's string."""

    def __init__(self, dataset: Dataset, vertices: Sequence[AnchoredInterval],
                 edges: Iterable[tuple[int, int]]) -> None:
        self.dataset = dataset
        self.vertices = list(vertices)
        self.string_index = [dataset.index_of(iv.string_id) for iv in self.vertices]
        self.adj: list[set[int]] = [set() for _ in self.vertices]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

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
    """Build the pair graph, dropping to a fixpoint every vertex whose
    remaining neighbours span fewer than quorum-1 other strings: no reported
    set can hold it, and dropping a vertex only shrinks the others' spans.
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
    string_index = graph.string_index

    def infeasible(v: int, alive: int) -> bool:
        spans = {string_index[u] for u in graph.adj[v] if alive >> u & 1}
        return len(spans) < params.quorum - 1

    return _drop_to_fixpoint(graph, infeasible)


def _drop_to_fixpoint(graph: AwciGraph, drop: Callable[[int, int], bool]) -> AwciGraph:
    """Drop each vertex v with drop(v, alive), alive the bitmask of the vertices
    not dropped yet, until no vertex left qualifies. Each rule passed here
    only gets truer as vertices go, so the fixpoint does not depend on the
    order of the worklist."""
    alive = full = (1 << len(graph)) - 1
    work = list(range(len(graph)))
    while work:
        v = work.pop()
        if alive >> v & 1 and drop(v, alive):
            alive ^= 1 << v
            work.extend(graph.adj[v])
    if alive == full:
        return graph
    return graph.subgraph({v for v in range(len(graph)) if alive >> v & 1})


def prune_dominated_vertices(graph: AwciGraph) -> AwciGraph:
    """Drop, to a fixpoint, every vertex that no closed set can hold.

    A vertex v is dropped when one of its extension masks covers all of its
    remaining neighbours. Every other member of a clique holding v is such a
    neighbour, so v is extendable in that clique and the clique is not
    closed; dropping v changes no output. Dropping a vertex only shrinks its
    neighbours' neighbourhoods, so a droppable vertex stays droppable.
    """
    masks = extension_masks(graph)
    neighbours = [sum(1 << u for u in adj) for adj in graph.adj]

    def dominated(v: int, alive: int) -> bool:
        live = neighbours[v] & alive
        return any(live & mask == live for mask in masks[v])

    return _drop_to_fixpoint(graph, dominated)


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
    char_sets = [graph.dataset[iv.string_id].char_set(iv.i, iv.j)
                 for iv in graph.vertices]
    out: list[tuple[int, ...]] = []
    for v, iv in enumerate(graph.vertices):
        s = graph.dataset[iv.string_id]
        lo, hi = s.contig_bounds(iv.i)
        masks = []
        for p in (iv.i - 1, iv.j + 1):
            if lo <= p <= hi:
                pset = s.at(p)
                masks.append(sum(1 << u for u in graph.adj[v]
                                 if not pset.isdisjoint(char_sets[u])))
        out.append(tuple(masks))
    return out


def closed_core(masks: list[tuple[int, ...]],
                clique: Sequence[int]) -> tuple[int, ...]:
    """The one maximal closed sub-clique of a clique of the graph `masks` were
    built on, in the clique's order; the clique is closed iff it is returned.

    A member v is extendable at an adjacent position iff every other member,
    all of them neighbours of v, is in that position's mask; this agrees with
    `oracle.is_closed_set`. A member extendable in a set stays extendable in
    every subset holding it, so extendable members are removed until none is
    left: no closed sub-clique holds a removed member, and what is left is
    closed.
    """
    core = list(clique)
    while True:
        members = sum(1 << v for v in core)
        kept = []
        for v in core:
            others = members ^ (1 << v)
            if not any(others & mask == others for mask in masks[v]):
                kept.append(v)
        if len(kept) == len(core):
            return tuple(core)
        core = kept


def maximal_closed_sets(graph: AwciGraph, params: SearchParams, *,
                        clique_guard: int = 2_000_000) -> list[AwciSet]:
    """Enumerate closed interval sets that are maximal among closed sets.

    Every closed set is a clique, so it lies in some maximal clique and, by
    `closed_core`, in that clique's closed core. The maximal closed sets are
    therefore exactly the cores spanning at least `quorum` strings that are
    contained in no other such core.
    """
    dataset = graph.dataset
    masks = extension_masks(graph)
    candidates: set[tuple[int, ...]] = set()
    for clique in _maximal_cliques(graph, clique_guard):
        core = closed_core(masks, clique)
        if len(core) >= params.quorum:
            candidates.add(core)

    ordered = sorted(candidates)
    closed_sets = [frozenset(c) for c in ordered]
    results = []
    for c, cset in zip(ordered, closed_sets):
        if any(cset < other for other in closed_sets):
            continue
        members = tuple(sorted((graph.vertices[v] for v in c),
                               key=dataset.sort_key))
        results.append(AwciSet(members=members))
    results.sort(key=lambda s: tuple(dataset.sort_key(m) for m in s.members))
    return results


def assemble(pairs: Iterable[AwciPair], dataset: Dataset, params: SearchParams, *,
             prune: bool = True) -> list[AwciSet]:
    """Full pipeline from a pair stream to reported maximal closed sets."""
    graph = build_graph(pairs, dataset, params)
    if prune:
        graph = prune_dominated_vertices(graph)
    return maximal_closed_sets(graph, params)
