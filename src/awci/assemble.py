"""From enumerated interval pairs to maximal closed interval sets.

Pairs become an undirected graph (vertices are intervals, edges are reported
pairs). Vertices that cannot reach the quorum are dropped, then vertices that
no closed set can hold are pruned; both drops run in rounds, each round
re-checking only the live neighbours of the vertices the round before
dropped. Maximal cliques are enumerated by one pivoted Bron-Kerbosch run
over the whole graph, and each is peeled to its closed core. The prune and
the peel ask one question of one table, `miss_lists`: a vertex is extendable
among a set of its neighbours when, at one of its adjacent positions, none
of them misses the position. Both steps are exact because a member
extendable in a set stays extendable in every subset holding it. Reported
sets are the cores not contained in another reported core, found with one
bitmask per vertex of the cores holding it.
"""
from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Callable, Collection, Iterable, Sequence

from .model import (AnchoredInterval, AwciPair, AwciSet, Dataset, ResourceLimitError,
                    SearchParams, UnsupportedError)
from .oracle import is_closed_set  # uncalled; perfbench's install_wrappers still wraps it

CLIQUE_GUARD = 2_000_000  # Bron-Kerbosch steps before ResourceLimitError


class AwciGraph:
    """Deduplicated interval vertices plus their adjacency sets,
    string-partitioned: `string_index[v]` is the dataset index of vertex v's
    string. A plain container that checks nothing: `build_graph` checks each
    vertex once, with `Dataset.check_interval`."""

    def __init__(self, dataset: Dataset, vertices: list[AnchoredInterval],
                 adj: list[set[int]], string_index: list[int]) -> None:
        self.dataset = dataset
        self.vertices = vertices
        self.adj = adj
        self.string_index = string_index

    def subgraph(self, kept: Sequence[int]) -> "AwciGraph":
        """The subgraph induced by `kept` (ascending), renumbered in its order."""
        remap = {v: k for k, v in enumerate(kept)}
        return AwciGraph(self.dataset, [self.vertices[v] for v in kept],
                         [{remap[u] for u in self.adj[v] if u in remap} for v in kept],
                         [self.string_index[v] for v in kept])

    def __len__(self) -> int:
        return len(self.vertices)


def build_graph(pairs: Iterable[AwciPair], dataset: Dataset,
                params: SearchParams) -> AwciGraph:
    """Build the pair graph, dropping to a fixpoint every vertex whose
    remaining neighbours span fewer than quorum-1 other strings: no reported
    set can hold it, and dropping a vertex only shrinks the others' spans.

    A pair with both intervals on one string raises UnsupportedError; each
    distinct interval is checked once, by `Dataset.check_interval`, when
    first met.
    """
    vertex_ids: dict[AnchoredInterval, int] = {}
    adj: list[set[int]] = []
    string_index: list[int] = []
    check = dataset.check_interval
    for p in pairs:
        left, right = p.left, p.right
        if left.string_id == right.string_id:
            raise UnsupportedError(f"pair {left} ~ {right} lies on one string")
        if (u := vertex_ids.get(left)) is None:
            string_index.append(check(left))
            u = vertex_ids[left] = len(adj)
            adj.append(set())
        if (v := vertex_ids.get(right)) is None:
            string_index.append(check(right))
            v = vertex_ids[right] = len(adj)
            adj.append(set())
        adj[u].add(v)
        adj[v].add(u)

    graph = AwciGraph(dataset, list(vertex_ids), adj, string_index)
    need = params.quorum - 1

    def infeasible(v: int, live: set[int]) -> bool:
        return len({string_index[u] for u in adj[v] if u in live}) < need

    return _drop_to_fixpoint(graph, infeasible)


def _drop_to_fixpoint(graph: AwciGraph,
                      drop: Callable[[int, set[int]], bool]) -> AwciGraph:
    """Drop each vertex v with drop(v, live), `live` holding the vertices not
    dropped yet, until no vertex left qualifies.

    Runs in rounds: the first checks every vertex, each later one only the
    live neighbours of the vertices dropped in the round before. A rule
    passed here reads only v's neighbours, so no other vertex's answer can
    have changed, and it only gets truer as vertices go, so the fixpoint does
    not depend on the order of the checks. Returns `graph` itself if nothing
    was dropped, else one subgraph of the rest.
    """
    adj = graph.adj
    live = set(range(len(graph)))
    check: Collection[int] = range(len(graph))
    while check:
        dropped = []
        for v in check:
            if drop(v, live):
                live.discard(v)
                dropped.append(v)
        check = {u for v in dropped for u in adj[v] if u in live}
    if len(live) == len(graph):
        return graph
    return graph.subgraph(sorted(live))


def miss_lists(graph: AwciGraph) -> list[list[list[int]]]:
    """Per vertex, one list of neighbours for each adjacent in-contig position.

    For v = [i, j] on S and p in {i-1, j+1} inside S and v's contig, the list
    holds every neighbour u whose character set misses S[p]. Positions off
    the string or across a contig break get no list. Neighbours lie on other
    strings, so the test runs on `Dataset.shared_masks`: S[p]'s mask against
    the OR of u's masks; a position with mask 0 misses every neighbour.
    """
    strings, shared_masks = graph.dataset.strings, graph.dataset.shared_masks
    char_masks = [reduce(or_, shared_masks[x][iv.i:iv.j + 1])
                  for x, iv in zip(graph.string_index, graph.vertices)]
    out = []
    for x, (_, i, j), nbrs in zip(graph.string_index, graph.vertices, graph.adj):
        sm = shared_masks[x]
        lo, hi = strings[x].contig_of[i]
        out.append([[u for u in nbrs if not sm[p] & char_masks[u]] if sm[p] else list(nbrs)
                    for p in (i - 1, j + 1) if lo <= p <= hi])
    return out


def _extendable(lists: list[list[int]], present: set[int]) -> bool:
    """Whether a vertex with these `miss_lists` is extendable among the
    neighbours in `present`: at some adjacent position none of them misses
    it, i.e. that position's list is disjoint from `present`."""
    for m in lists:
        if present.isdisjoint(m):
            return True
    return False


def prune_dominated_vertices(graph: AwciGraph) -> AwciGraph:
    """Drop, to a fixpoint, every vertex that no closed set can hold.

    A vertex v is dropped when it is extendable among its remaining
    neighbours (`_extendable` over its `miss_lists`). Every other member of a
    clique holding v is such a neighbour, so v is extendable in that clique
    and the clique is not closed; dropping v changes no output. Dropping a
    vertex only shrinks its neighbours' neighbourhoods, so a droppable vertex
    stays droppable.
    """
    missers = miss_lists(graph)
    return _drop_to_fixpoint(graph, lambda v, live: _extendable(missers[v], live))


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


def closed_core(missers: list[list[list[int]]],
                clique: Sequence[int]) -> tuple[int, ...]:
    """The one maximal closed sub-clique of a clique of the graph `missers`
    (its `miss_lists`) were built on, in the clique's order; the clique is
    closed iff it is returned.

    Every other member of the clique is a neighbour of each member v, so v is
    extendable in it iff `_extendable` over v's lists and the members; this
    agrees with `oracle.is_closed_set`. A member extendable in a set stays
    extendable in every subset holding it, so extendable members are removed
    until none is left: no closed sub-clique holds a removed member, and what
    is left is closed.
    """
    core = list(clique)
    while True:
        members = set(core)
        kept = [v for v in core if not _extendable(missers[v], members)]
        if len(kept) == len(core):
            return tuple(core)
        core = kept


def maximal_closed_sets(graph: AwciGraph, params: SearchParams) -> list[AwciSet]:
    """Enumerate closed interval sets that are maximal among closed sets.

    Every closed set is a clique, so it lies in some maximal clique and, by
    `closed_core`, in that clique's closed core. The maximal closed sets are
    therefore exactly the cores spanning at least `quorum` strings that are
    contained in no other such core.
    """
    dataset = graph.dataset
    missers = miss_lists(graph)
    candidates: set[tuple[int, ...]] = set()
    for clique in _maximal_cliques(graph, CLIQUE_GUARD):
        core = closed_core(missers, clique)
        if len(core) >= params.quorum:
            candidates.add(core)

    results = []
    for c in _uncontained(list(candidates)):
        members = tuple(sorted((graph.vertices[v] for v in c),
                               key=dataset.sort_key))
        results.append(AwciSet(members=members))
    results.sort(key=lambda s: tuple(dataset.sort_key(m) for m in s.members))
    return results


def _uncontained(cores: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The cores, distinct non-empty vertex tuples, that lie in no other core,
    in their order. Bit k of `holders[v]` marks core k holding v; a core lies
    in another iff the AND of its members' masks has a bit besides its own,
    and being distinct, that other core strictly contains it."""
    holders: dict[int, int] = {}
    for k, core in enumerate(cores):
        for v in core:
            holders[v] = holders.get(v, 0) | 1 << k
    return [core for k, core in enumerate(cores)
            if reduce(and_, map(holders.__getitem__, core)) == 1 << k]


def assemble(pairs: Iterable[AwciPair], dataset: Dataset,
             params: SearchParams) -> list[AwciSet]:
    """Full pipeline from a pair stream to reported maximal closed sets."""
    graph = prune_dominated_vertices(build_graph(pairs, dataset, params))
    return maximal_closed_sets(graph, params)
