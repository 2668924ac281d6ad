"""Network topology: graphs with their driven vertices, and the spanning
forest that decides input-reachability.

This module is the one home of the rules of a valid graph: the vertex
count, the edge ids and kinds, the vertex pairs and the driven ids. A
graph checks them once, when it is built, whether its values come from
Python or, unchecked, from a problem file; each fault has one refusal
text. A graph holds its edge list as int64 columns; every pass over the
edges (the forest, assembly, the report writers) reads the columns. The
tuple of ``Edge`` is built only when ``NetworkGraph.edges`` is read."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
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


#: vertex counts and ids are held in int64 columns
_MAX_VERTICES = int(np.iinfo(np.int64).max)


def _vertex_id(vid):
    """Vertex id and count rule of graphs: an int or a numpy integer is the
    int it holds; a bool, float or str is kept, for the caller to refuse."""
    integer = isinstance(vid, (int, np.integer)) and not isinstance(vid, bool)
    return int(vid) if integer else vid


def _as_edge(i: int, entry) -> Edge:
    """Entry i of an edge list, an ``Edge`` or a plain (u, v) or
    (u, v, kind) tuple, as an ``Edge``."""
    if not isinstance(entry, tuple) or len(entry) not in (2, 3):
        raise ValueError(
            f"edge #{i} must be an Edge or a (u, v) or (u, v, kind) tuple, got {entry!r}"
        )
    return Edge(*entry)


def _unzip(edges) -> tuple[tuple, tuple, tuple]:
    """The u, v and kind columns of an edge list given in Python, with its
    ids read by ``_vertex_id``."""
    edges = tuple(edges)
    if not {*map(type, edges)} <= {Edge}:
        edges = tuple(map(_as_edge, range(len(edges)), edges))
    us, vs, kinds = zip(*edges) if edges else ((), (), ())
    if not {*map(type, us), *map(type, vs)} <= {int}:
        us, vs = tuple(map(_vertex_id, us)), tuple(map(_vertex_id, vs))
    return us, vs, kinds


def _id_column(ids, num_vertices: int) -> np.ndarray:
    """int64 column of int vertex ids, 0 wherever an id is outside
    1..num_vertices."""
    try:
        col = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id beyond int64, out of range anyway
        return np.array([i if 1 <= i <= num_vertices else 0 for i in ids], dtype=np.int64)
    col[(col < 1) | (col > num_vertices)] = 0
    return col


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


def _key(u, v, kind) -> tuple:
    """(kind, start, end), the identity of an edge: an undirected edge runs
    from the lower to the higher vertex id, a directed edge keeps its own
    direction."""
    return (kind, u, v) if kind == DIRECTED or u < v else (kind, v, u)


def _edge_error(us, vs, kinds, i: int, num_vertices: int) -> ValueError:
    """The error for edge i, the first invalid edge, checked in order: kind,
    vertex id (an int in range), self-loop, duplicate, shared pair."""
    u, v, kind = us[i], vs[i], kinds[i]
    if kind not in (UNDIRECTED, DIRECTED):
        return ValueError(f"edge ({u!r}, {v!r}) has unknown kind {kind!r}")
    for vid in (u, v):
        if type(vid) is not int or not 1 <= vid <= num_vertices:
            return ValueError(
                f"edge ({u!r}, {v!r}) references a vertex outside 1..{num_vertices}"
            )
    if u == v:
        return ValueError(f"self-loop at vertex {u} is not allowed")
    if _key(u, v, kind) in set(map(_key, us[:i], vs[:i], kinds[:i])):
        return ValueError(f"duplicate edge between {u} and {v}")
    pair = (u, v) if u < v else (v, u)
    # one weight per vertex pair: an undirected edge may not share its
    # pair with any other edge; opposite directed edges may coexist
    return ValueError(
        f"vertices {pair[0]} and {pair[1]} already carry an edge; "
        "an undirected edge cannot share its pair with another edge"
    )


def _checked_columns(num_vertices: int, us, vs, kinds) -> tuple[np.ndarray, ...]:
    """The one check of an edge list, given as its u, v and kind columns:
    the read-only ``u``, ``v``, ``start``, ``end`` and ``directed`` columns
    of a graph, or the ValueError of the first invalid edge. The columns
    may hold any values, as a problem file gives them; valid ids and kinds,
    ints and the two kind names, pass with no Python call per edge."""
    n = num_vertices
    # the int64 columns cover the edges before the first unknown kind or id
    # that is not an int
    m = len(kinds)
    if kinds.count(UNDIRECTED) + kinds.count(DIRECTED) < m:
        m = next(i for i, k in enumerate(kinds) if k not in (UNDIRECTED, DIRECTED))
    if not {*map(type, us), *map(type, vs)} <= {int}:
        m = next((i for i in range(m) if {type(us[i]), type(vs[i])} != {int}), m)
    u, v = _id_column(us[:m], n), _id_column(vs[:m], n)
    directed = np.fromiter(map(DIRECTED.__eq__, kinds[:m]), dtype=bool, count=m)
    start = np.where(directed, u, np.minimum(u, v))
    end = np.where(directed, v, np.maximum(u, v))
    bad = np.flatnonzero(
        (u == 0) | (v == 0) | (u == v) | _shared_pair_defects(start, end, directed)
    )
    if bad.size or m < len(kinds):
        raise _edge_error(us, vs, kinds, int(bad[0]) if bad.size else m, n)
    columns = (u, v, start - 1, end - 1, directed)
    for col in columns:
        col.flags.writeable = False  # a built graph stays checked
    return columns


class DrivenIdError(ValueError):
    """A driven vertex id is not an int in 1..num_vertices."""


def _driven_ids(driven, num_vertices: int) -> tuple[int, ...]:
    """The driven ids, any iterable, as a sorted tuple of distinct ints."""
    ids = tuple(driven)
    if not {*map(type, ids)} <= {int}:
        ids = tuple(map(_vertex_id, ids))
        bad = [i for i in ids if type(i) is not int]
        if bad:
            raise DrivenIdError(f"driven vertex ids must be integers, got {bad[0]!r}")
    ids = tuple(sorted(set(ids)))
    if ids and ids[0] < 1:
        raise DrivenIdError("driven vertex ids must be positive")
    if ids and ids[-1] > num_vertices:
        bad = [i for i in ids if i > num_vertices]
        raise DrivenIdError(f"driven vertices {bad} exceed the vertex count {num_vertices}")
    return ids


def _vertex_count(num_vertices) -> int:
    n = _vertex_id(num_vertices)
    if type(n) is not int or n < 1:
        raise ValueError(f"graph needs a positive vertex count, got {n!r}")
    if n > _MAX_VERTICES:
        raise ValueError(f"graph vertex count {n} exceeds the 64-bit limit {_MAX_VERTICES}")
    return n


_KINDS = (UNDIRECTED, DIRECTED)  # indexed by the directed flag


@dataclass(frozen=True)
class NetworkGraph:
    """Vertices 1..num_vertices, the edges between them and the driven
    vertices, those that receive an external input.

    The edges are held as read-only columns, in edge order: ``u`` and
    ``v``, the int64 ids as given; ``start`` and ``end``, the 0-based ends
    (an undirected edge runs from the lower to the higher id, a directed
    edge keeps its direction); and the ``directed`` mask. ``edges``, the same
    list as a tuple of ``Edge`` with int ids, is built from the columns
    on first read. An edge list given in Python, of ``Edge``s or plain
    (u, v) or (u, v, kind) tuples with int or numpy integer ids, is
    unzipped into columns and checked; the problem-file parser hands its
    columns to the same check and builds no ``Edge``. ``driven``, given
    as any iterable of ids, is held as a sorted tuple of distinct ints; a
    bad id raises ``DrivenIdError``, after every edge check. Vertex counts
    and ids follow one rule: an int or a numpy integer that fits int64,
    never a bool, float or str.
    """

    num_vertices: int
    # no class attribute: an instance without it builds it in __getattr__
    edges: tuple[Edge, ...] = field(default_factory=tuple)
    driven: tuple[int, ...] = ()
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    start: np.ndarray = field(init=False, repr=False, compare=False)
    end: np.ndarray = field(init=False, repr=False, compare=False)
    directed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _vertex_count(self.num_vertices)
        columns = _checked_columns(n, *_unzip(self.edges))
        object.__delattr__(self, "edges")  # built again from the columns
        self._hold(n, columns, self.driven)

    @classmethod
    def _from_columns(cls, num_vertices, u: list, v: list, kinds: list, driven) -> NetworkGraph:
        """The graph whose edge i is (u[i], v[i], kinds[i]), checked as one
        built from its ``Edge``s is, with no ``Edge`` built. The vertex
        count, the columns and the driven ids may hold any values: each
        is refused with the text the constructor gives."""
        graph = object.__new__(cls)
        n = _vertex_count(num_vertices)
        graph._hold(n, _checked_columns(n, u, v, kinds), driven)
        return graph

    def _hold(self, n: int, columns: tuple[np.ndarray, ...], driven) -> None:
        object.__setattr__(self, "num_vertices", n)
        for name, col in zip(("u", "v", "start", "end", "directed"), columns):
            object.__setattr__(self, name, col)
        object.__setattr__(self, "driven", _driven_ids(driven, n))

    def __getattr__(self, name: str):
        if name != "edges" or "directed" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        kinds = map(_KINDS.__getitem__, self.directed.tolist())
        # tuple.__new__ fills the named tuples without Edge's Python __new__
        edges = tuple(
            map(tuple.__new__, repeat(Edge), zip(self.u.tolist(), self.v.tolist(), kinds))
        )
        object.__setattr__(self, "edges", edges)
        return edges

    @property
    def num_edges(self) -> int:
        return len(self.u)

    def has_directed_edges(self) -> bool:
        return bool(self.directed.any())


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


def spanning_forest(graph: NetworkGraph) -> SpanningForest:
    """Forest of influence paths from the driven vertices; partial on failure."""
    # adj[i] lists the 0-based vertices vertex i directly influences, in edge order
    adj: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    columns = (graph.start.tolist(), graph.end.tolist(), graph.directed.tolist())
    for a, b, directed in zip(*columns):
        adj[a].append(b)
        if not directed:
            adj[b].append(a)
    roots = graph.driven  # distinct, so each starts its own tree
    parent: dict[int, int] = {}
    order = list(roots)
    seen = [False] * graph.num_vertices
    for vid in roots:
        seen[vid - 1] = True
    queue = deque(vid - 1 for vid in roots)
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
