"""Network topology: graphs, driven sets, the spanning forest that decides
input-reachability, and the incidence factorization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

UNDIRECTED = "undirected"
DIRECTED = "directed"


class Edge(NamedTuple):
    """One influence link between two distinct vertices (1-based ids).

    An undirected edge couples both endpoints symmetrically; a directed edge
    (u, v) means u's state enters v's dynamics only. A named tuple: it
    compares equal to the plain tuple (u, v, kind).
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


#: vertex counts and ids are held in int64 columns
_MAX_VERTICES = int(np.iinfo(np.int64).max)


def _id_column(ids: tuple, num_vertices: int) -> np.ndarray:
    """int64 column of vertex ids, 0 wherever an id is not an int in
    1..num_vertices (a bool, a numpy integer or a float is not)."""
    if {*map(type, ids)} <= {int}:
        try:
            col = np.array(ids, dtype=np.int64)
        except OverflowError:  # an id beyond int64, out of range anyway
            pass
        else:
            col[(col < 1) | (col > num_vertices)] = 0
            return col
    return np.array(
        [i if type(i) is int and 1 <= i <= num_vertices else 0 for i in ids],
        dtype=np.int64,
    )


def _shared_pair_defects(start: np.ndarray, end: np.ndarray, directed: np.ndarray):
    """Flags the edges that repeat the vertex pair of an earlier edge when
    that is not allowed: every edge after the first on a pair, except a
    directed second edge against a directed first one (an antiparallel
    pair). Exact for an edge all of whose earlier edges are valid."""
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    order = np.lexsort((hi, lo))  # stable: one pair's edges stay in edge order
    lo, hi = lo[order], hi[order]
    shares = np.zeros(order.size, dtype=bool)  # same pair as the edge sorted before
    shares[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    third = np.zeros_like(shares)
    third[1:] = shares[1:] & shares[:-1]
    d, s = directed[order], start[order]
    antiparallel = np.zeros_like(shares)
    antiparallel[1:] = d[1:] & d[:-1] & (s[1:] != s[:-1])
    flags = np.empty_like(shares)
    flags[order] = third | (shares & ~antiparallel)
    return flags


def _edge_error(edges: tuple, i: int, num_vertices: int) -> ValueError:
    """The error for edge i, the first invalid edge, checked in order: kind,
    vertex id (an int in range), self-loop, duplicate, shared pair."""
    e = Edge(*edges[i])  # an entry may be a plain (u, v, kind) tuple
    if e.kind not in (UNDIRECTED, DIRECTED):
        return ValueError(f"unknown edge kind {e.kind!r}")
    for vid in (e.u, e.v):
        if type(vid) is not int or not 1 <= vid <= num_vertices:
            return ValueError(
                f"edge ({e.u!r}, {e.v!r}) references a vertex outside 1..{num_vertices}"
            )
    if e.u == e.v:
        return ValueError(f"self-loop at vertex {e.u} is not allowed")
    if e.key() in {Edge(*f).key() for f in edges[:i]}:
        return ValueError(f"duplicate edge between {e.u} and {e.v}")
    pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    # one weight per vertex pair: an undirected edge may not share its
    # pair with any other edge; opposite directed edges may coexist
    return ValueError(
        f"vertices {pair[0]} and {pair[1]} already carry an edge; "
        "an undirected edge cannot share its pair with another edge"
    )


@dataclass(frozen=True)
class NetworkGraph:
    """Vertices 1..num_vertices and the edges between them.

    Besides the edge tuple it holds the edge list as int64 columns, in edge
    order: ``start`` and ``end``, the 0-based ends from ``Edge.oriented``,
    and the ``directed`` mask. Vertex counts and ids must fit int64.
    """

    num_vertices: int
    edges: tuple[Edge, ...] = ()
    start: np.ndarray = field(init=False, repr=False, compare=False)
    end: np.ndarray = field(init=False, repr=False, compare=False)
    directed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"graph needs a positive vertex count, got {n}")
        if n > _MAX_VERTICES:
            raise ValueError(
                f"graph vertex count {n} exceeds the 64-bit limit {_MAX_VERTICES}"
            )
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        us, vs, kinds = zip(*edges) if edges else ((), (), ())
        # the columns cover the edges before the first unknown kind
        m = len(edges)
        if kinds.count(UNDIRECTED) + kinds.count(DIRECTED) < m:
            m = next(i for i, k in enumerate(kinds) if k not in (UNDIRECTED, DIRECTED))
        u, v = _id_column(us[:m], n), _id_column(vs[:m], n)
        directed = np.fromiter(map(DIRECTED.__eq__, kinds[:m]), dtype=bool, count=m)
        start = np.where(directed, u, np.minimum(u, v))
        end = np.where(directed, v, np.maximum(u, v))
        bad = np.flatnonzero(
            (u == 0) | (v == 0) | (u == v) | _shared_pair_defects(start, end, directed)
        )
        if bad.size or m < len(edges):
            raise _edge_error(edges, int(bad[0]) if bad.size else m, n)
        object.__setattr__(self, "start", start - 1)
        object.__setattr__(self, "end", end - 1)
        object.__setattr__(self, "directed", directed)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_directed_edges(self) -> bool:
        return bool(self.directed.any())

    def influence_neighbors(self) -> list[list[int]]:
        """out[i] lists the 0-based vertices directly influenced by vertex i,
        in edge order."""
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        columns = (self.start.tolist(), self.end.tolist(), self.directed.tolist())
        for a, b, directed in zip(*columns):
            out[a].append(b)
            if not directed:
                out[b].append(a)
        return out


@dataclass(frozen=True)
class DrivenSet:
    """Vertices receiving an external input (1-based ids)."""

    driven: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        vals = frozenset(self.driven)
        if not {*map(type, vals)} <= {int}:  # numpy integers are taken as ints
            bad = [i for i in vals if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
            if bad:
                raise ValueError(f"driven vertex ids must be integers, got {bad[0]!r}")
            vals = frozenset(map(int, vals))
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

    Each edge is oriented by ``Edge.oriented``, read from the graph's
    ``start`` and ``end`` columns.
    """
    n = graph.num_vertices
    m = graph.num_edges
    incidence = np.zeros((m, n))
    injection = np.zeros((n, m))
    edge = np.arange(m)
    incidence[edge, graph.start] = 1.0
    incidence[edge, graph.end] = -1.0
    injection[graph.end, edge] = 1.0
    both = ~graph.directed
    injection[graph.start[both], edge[both]] = -1.0
    return IncidenceRealization(incidence=incidence, injection=injection)
