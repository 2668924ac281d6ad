"""Network topology: graphs, driven sets, reachability, spanning forests,
incidence factorizations, and auxiliary-digraph cycle checks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

UNDIRECTED = "undirected"
DIRECTED = "directed"


@dataclass(frozen=True)
class Edge:
    """One influence link between two distinct vertices (1-based ids).

    An undirected edge couples both endpoints symmetrically; a directed edge
    (u, v) means u's state enters v's dynamics only.
    """

    u: int
    v: int
    kind: str = UNDIRECTED

    def key(self) -> tuple:
        """Canonical identity: unordered pair for undirected edges."""
        return (self.kind, *self.oriented())

    def oriented(self) -> tuple[int, int]:
        """(start, end): undirected edges run from the lower to the higher
        vertex id; directed edges keep their own direction."""
        if self.kind == DIRECTED:
            return self.u, self.v
        return min(self.u, self.v), max(self.u, self.v)


@dataclass(frozen=True)
class NetworkGraph:
    num_vertices: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.num_vertices, int) or self.num_vertices < 1:
            raise ValueError(f"graph needs a positive vertex count, got {self.num_vertices}")
        object.__setattr__(self, "edges", tuple(self.edges))
        seen_keys: set[tuple] = set()
        pair_kinds: dict[tuple[int, int], set[str]] = {}
        for e in self.edges:
            if e.kind not in (UNDIRECTED, DIRECTED):
                raise ValueError(f"unknown edge kind {e.kind!r}")
            for vid in (e.u, e.v):
                if not isinstance(vid, int) or not 1 <= vid <= self.num_vertices:
                    raise ValueError(
                        f"edge ({e.u}, {e.v}) references a vertex outside 1..{self.num_vertices}"
                    )
            if e.u == e.v:
                raise ValueError(f"self-loop at vertex {e.u} is not allowed")
            key = e.key()
            if key in seen_keys:
                raise ValueError(f"duplicate edge between {e.u} and {e.v}")
            pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            kinds = pair_kinds.setdefault(pair, set())
            # one weight per vertex pair: an undirected edge may not share its
            # pair with any other edge; opposite directed edges may coexist
            if kinds and (UNDIRECTED in kinds or e.kind == UNDIRECTED):
                raise ValueError(
                    f"vertices {pair[0]} and {pair[1]} already carry an edge; "
                    "an undirected edge cannot share its pair with another edge"
                )
            kinds.add(e.kind)
            seen_keys.add(key)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_directed_edges(self) -> bool:
        return any(e.kind == DIRECTED for e in self.edges)

    def influence_neighbors(self) -> list[list[int]]:
        """out[i] lists the 0-based vertices directly influenced by vertex i."""
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            u, v = e.u - 1, e.v - 1
            out[u].append(v)
            if e.kind == UNDIRECTED:
                out[v].append(u)
        return out


@dataclass(frozen=True)
class DrivenSet:
    """Vertices receiving an external input (1-based ids)."""

    driven: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        vals = frozenset(int(i) for i in self.driven)
        if any(i < 1 for i in vals):
            raise ValueError("driven vertex ids must be positive")
        object.__setattr__(self, "driven", vals)

    def __len__(self) -> int:
        return len(self.driven)

    def __contains__(self, vid: int) -> bool:
        return vid in self.driven

    def validate_for(self, graph: NetworkGraph) -> None:
        bad = [i for i in self.driven if i > graph.num_vertices]
        if bad:
            raise ValueError(
                f"driven vertices {sorted(bad)} exceed the vertex count {graph.num_vertices}"
            )

    def delta(self, num_vertices: int) -> np.ndarray:
        """Binary diagonal selector with a 1 at every driven vertex."""
        d = np.zeros((num_vertices, num_vertices))
        for i in self.driven:
            d[i - 1, i - 1] = 1.0
        return d


@dataclass(frozen=True)
class SpanningForest:
    """BFS forest rooted at the driven vertices.

    ``order`` lists every reachable vertex with each parent preceding its
    children; ``unreachable`` is empty exactly when the forest spans.
    """

    roots: tuple[int, ...]
    parent: Mapping[int, int]
    order: tuple[int, ...]
    unreachable: frozenset[int]

    @property
    def ok(self) -> bool:
        return not self.unreachable


def spanning_forest(graph: NetworkGraph, driven: DrivenSet) -> SpanningForest:
    """Forest of influence paths from the driven set; partial on failure."""
    driven.validate_for(graph)
    adj = graph.influence_neighbors()
    roots = tuple(sorted(driven.driven))
    parent: dict[int, int] = {}
    order: list[int] = []
    seen = [False] * graph.num_vertices
    queue: deque[int] = deque()
    for vid in roots:
        if not seen[vid - 1]:
            seen[vid - 1] = True
            order.append(vid)
            queue.append(vid - 1)
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                parent[j + 1] = i + 1
                order.append(j + 1)
                queue.append(j)
    unreachable = frozenset(
        i + 1 for i in range(graph.num_vertices) if not seen[i]
    )
    return SpanningForest(
        roots=roots,
        parent=MappingProxyType(parent),
        order=tuple(order),
        unreachable=unreachable,
    )


def input_reachable_set(graph: NetworkGraph, driven: DrivenSet) -> frozenset[int]:
    """Vertices reachable from the driven set along influence directions.

    Undirected edges are traversable both ways; a directed edge only from
    its tail to its head.
    """
    return frozenset(spanning_forest(graph, driven).order)


def is_globally_input_reachable(graph: NetworkGraph, driven: DrivenSet) -> bool:
    return spanning_forest(graph, driven).ok


@dataclass(frozen=True)
class IncidenceRealization:
    """Oriented incidence factorization of a mixed graph.

    ``incidence`` has one row per edge: +1 at the start vertex, -1 at the
    end. ``injection`` has one column per edge: +1 at the end vertex always,
    -1 at the start vertex of undirected edges only, so one-way influence
    stays one-way. For undirected-only graphs, injection == -incidence.T.
    """

    incidence: np.ndarray
    injection: np.ndarray


def incidence_matrices(graph: NetworkGraph) -> IncidenceRealization:
    """Build the incidence/injection pair in the graph's edge order.

    Each edge is oriented by ``Edge.oriented``.
    """
    n = graph.num_vertices
    m = graph.num_edges
    incidence = np.zeros((m, n))
    injection = np.zeros((n, m))
    for idx, e in enumerate(graph.edges):
        start, end = e.oriented()
        incidence[idx, start - 1] = 1.0
        incidence[idx, end - 1] = -1.0
        injection[end - 1, idx] = 1.0
        if e.kind == UNDIRECTED:
            injection[start - 1, idx] = -1.0
    return IncidenceRealization(incidence=incidence, injection=injection)


@dataclass(frozen=True)
class AuxDigraph:
    """Digraph mirror of a (state pattern, input pattern) pair.

    State vertex i -> state vertex j exists iff pattern entry (j, i) is
    nonzero; input vertex i -> state vertex j likewise. Vertices are
    0-based indices into the pattern dimensions.
    """

    num_states: int
    num_inputs: int
    state_edges: tuple[tuple[int, int], ...]
    input_edges: tuple[tuple[int, int], ...]

    def state_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_states)]
        for s, t in self.state_edges:
            adj[s].append(t)
        return adj


def aux_digraph(state_pattern, input_pattern) -> AuxDigraph:
    """Auxiliary digraph of an (H, P) pattern pair; nonzero entry = edge."""
    h = np.asarray(state_pattern)
    p = np.asarray(input_pattern)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"state pattern must be square, got shape {h.shape}")
    if p.ndim != 2 or p.shape[0] != h.shape[0]:
        raise ValueError(
            f"input pattern must have {h.shape[0]} rows, got shape {p.shape}"
        )
    rows, cols = np.nonzero(h)
    state_edges = tuple((int(i), int(j)) for j, i in zip(rows, cols))
    rows, cols = np.nonzero(p)
    input_edges = tuple((int(i), int(j)) for j, i in zip(rows, cols))
    return AuxDigraph(
        num_states=h.shape[0],
        num_inputs=p.shape[1],
        state_edges=state_edges,
        input_edges=input_edges,
    )


def all_cycles_input_reachable(dg: AuxDigraph):
    """True iff no cycle avoids the input-reachable region.

    A cycle containing one reachable vertex is reachable as a whole, so the
    check reduces to: the subgraph induced on states NOT reachable from any
    input must be acyclic. Returns (True, None) or (False, witness cycle)
    where the witness is a tuple of 0-based state vertices.
    """
    adj = dg.state_adjacency()
    reached = [False] * dg.num_states
    queue: deque[int] = deque()
    for _, j in dg.input_edges:
        if not reached[j]:
            reached[j] = True
            queue.append(j)
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not reached[j]:
                reached[j] = True
                queue.append(j)

    hidden = [v for v in range(dg.num_states) if not reached[v]]
    color = dict.fromkeys(hidden, 0)  # 0 unvisited, 1 on stack, 2 done
    for root in hidden:
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        stack = [(root, iter(adj[root]))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue  # reachable neighbor, not part of the hidden subgraph
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if color[nxt] == 1:
                    return False, tuple(path[path.index(nxt):])
            if not advanced:
                color[node] = 2
                stack.pop()
                path.pop()
    return True, None
