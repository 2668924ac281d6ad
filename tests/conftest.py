"""Shared generators for random models, graphs and driven vertices.

Generators take an explicit numpy Generator so every test pins its own
seed; nothing here draws from global state.
"""

from __future__ import annotations

import numpy as np
import pytest

from diffnet.assembly import assemble_lumped
from diffnet.errors import ProblemFileError
from diffnet.numerics import RandomSource, pbh_controllable, pbh_observable
from diffnet.problem_io import _int_field, _matrix, _require_mapping
from diffnet.subsystem import SubsystemModel
from diffnet.topology import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    NetworkGraph,
    incidence_matrices,
)
from diffnet.verdict import Verdict

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Report one pass/fail line per acceptance criterion and assert it."""

    def _report(num: int, name: str, ok: bool, detail: str = ""):
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {name}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def random_graph(
    gen: np.random.Generator,
    num_vertices: int,
    edge_prob: float = 0.5,
    allow_directed: bool = True,
) -> NetworkGraph:
    """Random mixed graph honoring the one-weight-per-vertex-pair policy."""
    edges: list[Edge] = []
    for u in range(1, num_vertices + 1):
        for v in range(u + 1, num_vertices + 1):
            if gen.random() >= edge_prob:
                continue
            if not allow_directed or gen.random() < 0.5:
                edges.append(Edge(u, v, UNDIRECTED))
            elif gen.random() < 0.3:
                # antiparallel pair, the one allowed coexistence
                edges.append(Edge(u, v, DIRECTED))
                edges.append(Edge(v, u, DIRECTED))
            elif gen.random() < 0.5:
                edges.append(Edge(u, v, DIRECTED))
            else:
                edges.append(Edge(v, u, DIRECTED))
    return NetworkGraph(num_vertices, tuple(edges))


def random_connected_graph(
    gen: np.random.Generator, num_vertices: int, extra_prob: float = 0.3
) -> NetworkGraph:
    """Random undirected connected graph: a random tree plus extra edges."""
    labels = list(gen.permutation(np.arange(1, num_vertices + 1)))
    edges: list[Edge] = []
    for i in range(1, num_vertices):
        j = int(gen.integers(0, i))
        edges.append(Edge(int(labels[j]), int(labels[i]), UNDIRECTED))
    present = {e.key() for e in edges}
    for u in range(1, num_vertices + 1):
        for v in range(u + 1, num_vertices + 1):
            key = (UNDIRECTED, u, v)
            if key not in present and gen.random() < extra_prob:
                edges.append(Edge(u, v, UNDIRECTED))
                present.add(key)
    return NetworkGraph(num_vertices, tuple(edges))


def random_driven(
    gen: np.random.Generator,
    num_vertices: int,
    allow_empty: bool = False,
    allow_full: bool = True,
) -> tuple[int, ...]:
    """Random driven vertex ids, for ``NetworkGraph(driven=...)``."""
    low = 0 if allow_empty else 1
    high = num_vertices if allow_full else num_vertices - 1
    high = max(high, low)
    count = int(gen.integers(low, high + 1))
    chosen = gen.choice(np.arange(1, num_vertices + 1), size=count, replace=False)
    return tuple(int(v) for v in chosen)


def incoming_influence_counts(graph: NetworkGraph) -> list[int]:
    """counts[i] = number of edges feeding vertex i+1."""
    counts = [0] * graph.num_vertices
    for e in graph.edges:
        counts[e.v - 1] += 1
        if e.kind == UNDIRECTED:
            counts[e.u - 1] += 1
    return counts


def ensure_incoming_influence(gen: np.random.Generator, graph: NetworkGraph) -> NetworkGraph:
    """Add directed edges so every undriven vertex has incoming influence.

    A vertex with zero incoming influence has no undirected edge and no
    directed edge pointing at it, so a fresh directed edge toward it never
    conflicts with the pair policy.
    """
    counts = incoming_influence_counts(graph)
    edges = list(graph.edges)
    for v in range(1, graph.num_vertices + 1):
        if v in graph.driven or counts[v - 1] > 0:
            continue
        others = [w for w in range(1, graph.num_vertices + 1) if w != v]
        w = int(gen.choice(others))
        edges.append(Edge(w, v, DIRECTED))
    return NetworkGraph(graph.num_vertices, tuple(edges), graph.driven)


def random_model(
    gen: np.random.Generator,
    order: int,
    num_outputs: int,
    num_inputs: int = 1,
    require_ctrb: bool = False,
    require_obsv: bool = False,
) -> SubsystemModel:
    """Dense Gaussian model; optional redraw until controllable/observable."""
    for _ in range(50):
        model = SubsystemModel(
            gen.normal(size=(order, order)),
            gen.normal(size=(order, num_inputs)),
            gen.normal(size=(num_outputs, order)),
        )
        if require_ctrb and not pbh_controllable(model.a, model.b)[0]:
            continue
        if require_obsv and not pbh_observable(model.a, model.c)[0]:
            continue
        return model
    raise AssertionError("could not draw a model with the requested properties")


def uncontrollable_model(
    gen: np.random.Generator, order: int, num_outputs: int
) -> SubsystemModel:
    """(A, b) provably uncontrollable: a decoupled mode the input misses."""
    assert order >= 2
    a11 = gen.normal(size=(order - 1, order - 1))
    a = np.zeros((order, order))
    a[: order - 1, : order - 1] = a11
    a[order - 1, order - 1] = float(gen.normal())
    b = np.zeros((order, 1))
    b[: order - 1, 0] = gen.normal(size=order - 1)
    c = gen.normal(size=(num_outputs, order))
    return SubsystemModel(a, b, c)


def unobservable_model(
    gen: np.random.Generator, order: int, num_outputs: int
) -> SubsystemModel:
    """(A, C) provably unobservable: a decoupled mode no output sees."""
    assert order >= 2
    a11 = gen.normal(size=(order - 1, order - 1))
    a = np.zeros((order, order))
    a[: order - 1, : order - 1] = a11
    a[order - 1, order - 1] = float(gen.normal())
    b = gen.normal(size=(order, 1))
    c = np.zeros((num_outputs, order))
    c[:, : order - 1] = gen.normal(size=(num_outputs, order - 1))
    return SubsystemModel(a, b, c)


def driven_selector(graph: NetworkGraph) -> np.ndarray:
    """Delta: the N x N diagonal with a 1 at every driven vertex."""
    return np.diag([float(v in graph.driven) for v in range(1, graph.num_vertices + 1)])


def dense_edgewise_state_matrix(
    model: SubsystemModel, graph: NetworkGraph, weights: np.ndarray
) -> np.ndarray:
    """Reference edgewise route: I kron A + (K kron B) diag(W_e) (K_I kron C).

    Dense Kronecker products around the block diagonal of the edge weights,
    on the incidence realization; O((nN)^3).
    """
    real = incidence_matrices(graph)
    m, p, r = weights.shape
    blkdiag = np.zeros((m * p, m * r))
    for idx in range(m):
        blkdiag[idx * p : (idx + 1) * p, idx * r : (idx + 1) * r] = weights[idx]
    return np.kron(np.eye(graph.num_vertices), model.a) + np.kron(
        real.injection, model.b
    ) @ blkdiag @ np.kron(real.incidence, model.c)


def factorized_state_matrix(
    model: SubsystemModel, graph: NetworkGraph, weights: np.ndarray
) -> np.ndarray:
    """Reference factorized parameter form of the state matrix:
    I kron A + (I kron B) (K kron T) diag(Lambda) (K_I kron Q) (I kron C),
    with T = I_p kron ones(1, r), Q = ones(p, 1) kron I_r and Lambda the
    row-major entries of every edge block in edge order, so that
    T diag(Lambda_e) Q = W_e.
    """
    real = incidence_matrices(graph)
    eye = np.eye(graph.num_vertices)
    p, r = weights.shape[1:]
    t = np.kron(np.eye(p), np.ones((1, r)))
    q = np.kron(np.ones((p, 1)), np.eye(r))
    lam = np.diag(weights.reshape(-1))
    return np.kron(eye, model.a) + (
        np.kron(eye, model.b)
        @ np.kron(real.injection, t)
        @ lam
        @ np.kron(real.incidence, q)
        @ np.kron(eye, model.c)
    )


def assembled_laplacian(graph: NetworkGraph, weights: np.ndarray) -> np.ndarray:
    """The block Laplacian L_m, read off ``assemble_lumped``.

    Nodes of order n = max(p, r) with A = 0, B = [I_p; 0] and C = [I_r, 0]
    make each n x n block of A_sys = -(I kron B) L_m (I kron C) its p x r
    block of L_m, negated and padded with zeros. Products with these 0/1
    factors are exact, and 0.0 - A_sys turns every zero into 0.0.
    """
    p, r = weights.shape[1:]
    n, nv = max(p, r), graph.num_vertices
    node = SubsystemModel(np.zeros((n, n)), np.eye(n, p), np.eye(r, n))
    a_sys = assemble_lumped(node, graph, weights).a_sys
    blocks = 0.0 - a_sys.reshape(nv, n, nv, n)[:, :p, :, :r]
    return blocks.reshape(nv * p, nv * r)


def loop_matrix_laplacian(graph: NetworkGraph, weights: np.ndarray) -> np.ndarray:
    """Reference block Laplacian, built one edge at a time in edge order."""
    p, r = weights.shape[1:]
    lap = np.zeros((graph.num_vertices * p, graph.num_vertices * r))

    def rows(i):
        return slice(i * p, (i + 1) * p)

    def cols(j):
        return slice(j * r, (j + 1) * r)

    for e, w in zip(graph.edges, weights):
        u, v = e.u - 1, e.v - 1
        lap[rows(v), cols(u)] -= w
        lap[rows(v), cols(v)] += w
        if e.kind == UNDIRECTED:
            lap[rows(u), cols(v)] -= w
            lap[rows(u), cols(u)] += w
    return lap


def dense_direct_state_matrix(
    model: SubsystemModel, graph: NetworkGraph, weights: np.ndarray
) -> np.ndarray:
    """Reference direct route: I kron A - (I kron B) L_m (I kron C).

    Dense Kronecker products around the loop-built block Laplacian; the
    structural zeros of the Kronecker factors make -0.0 wherever a zero
    meets a negative entry.
    """
    eye = np.eye(graph.num_vertices)
    lap = loop_matrix_laplacian(graph, weights)
    return np.kron(eye, model.a) - np.kron(eye, model.b) @ lap @ np.kron(eye, model.c)


def reference_graph_check(num_vertices, edges) -> None:
    """Per-edge reference of NetworkGraph's checks: raises the ValueError of
    the first invalid edge, checking its kind, vertex id (an int in range;
    a numpy integer is taken as its int, a bool is refused), self-loop,
    duplicate key and shared pair in that order."""
    if not isinstance(num_vertices, int) or num_vertices < 1:
        raise ValueError(f"graph needs a positive vertex count, got {num_vertices}")
    seen_keys: set[tuple] = set()
    pair_kinds: dict[tuple, set[str]] = {}
    for e in edges:
        e = Edge(*(int(i) if isinstance(i, np.integer) else i for i in e[:2]), e.kind)
        if e.kind not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"unknown edge kind {e.kind!r}")
        for vid in (e.u, e.v):
            if type(vid) is not int or not 1 <= vid <= num_vertices:
                raise ValueError(
                    f"edge ({e.u!r}, {e.v!r}) references a vertex outside 1..{num_vertices}"
                )
        if e.u == e.v:
            raise ValueError(f"self-loop at vertex {e.u} is not allowed")
        key = e.key()
        if key in seen_keys:
            raise ValueError(f"duplicate edge between {e.u} and {e.v}")
        pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        kinds = pair_kinds.setdefault(pair, set())
        if kinds and (UNDIRECTED in kinds or e.kind == UNDIRECTED):
            raise ValueError(
                f"vertices {pair[0]} and {pair[1]} already carry an edge; "
                "an undirected edge cannot share its pair with another edge"
            )
        kinds.add(e.kind)
        seen_keys.add(key)


def reference_parse_edges(entries: list) -> list[Edge]:
    """Per-entry reference of the "edges" parsing: raises the
    ProblemFileError of the first bad entry."""
    edges = []
    for i, entry in enumerate(entries):
        e = _require_mapping(entry, f"edge #{i}")
        extra = set(e) - {"u", "v", "kind"}
        if extra:
            raise ProblemFileError(f"edge #{i} has unknown members: {sorted(extra)}")
        if "u" not in e or "v" not in e:
            raise ProblemFileError(f'edge #{i} needs both "u" and "v"')
        kind = e.get("kind", UNDIRECTED)
        if kind not in (UNDIRECTED, DIRECTED):
            raise ProblemFileError(
                f'edge #{i} kind must be "{UNDIRECTED}" or "{DIRECTED}", got {kind!r}'
            )
        edges.append(
            Edge(_int_field(e["u"], f'edge #{i} "u"'), _int_field(e["v"], f'edge #{i} "v"'), kind)
        )
    return edges


def reference_parse_weights(entries: list, graph: NetworkGraph, shape) -> np.ndarray:
    """Per-entry reference of the "weights" parsing, resolving each entry
    through Edge.key(): the (M, p, r) array of the blocks in edge order, or
    the ProblemFileError of the first bad entry."""
    p, r = shape
    edges_by_key = {edge.key(): edge for edge in graph.edges}
    by_key: dict[tuple, np.ndarray] = {}
    for i, entry in enumerate(entries):
        e = _require_mapping(entry, f"weight #{i}")
        extra = set(e) - {"u", "v", "W"}
        if extra:
            raise ProblemFileError(f"weight #{i} has unknown members: {sorted(extra)}")
        if "u" not in e or "v" not in e or "W" not in e:
            raise ProblemFileError(f'weight #{i} needs "u", "v" and "W"')
        u = _int_field(e["u"], f'weight #{i} "u"')
        v = _int_field(e["v"], f'weight #{i} "v"')
        edge = edges_by_key.get(Edge(u, v, DIRECTED).key()) or edges_by_key.get(
            Edge(u, v).key()
        )
        if edge is None:
            raise ProblemFileError(f"weight #{i} references no edge between {u} and {v}")
        if edge.key() in by_key:
            raise ProblemFileError(f"duplicate weight for edge between {u} and {v}")
        block = np.atleast_2d(_matrix(e["W"], f'weight #{i} "W"'))
        if block.shape != (p, r):
            raise ProblemFileError(
                f"weight #{i} has shape {block.shape}, expected {(p, r)} "
                "from the subsystem's input and output counts"
            )
        by_key[edge.key()] = block
    missing = [e for e in graph.edges if e.key() not in by_key]
    if missing:
        raise ProblemFileError(
            "weights must cover every edge; missing: "
            + ", ".join(f"({e.u}, {e.v})" for e in missing)
        )
    return np.array([by_key[e.key()] for e in graph.edges]).reshape(-1, p, r)


#: key-sorted JSON of one "edges" entry and one "orientation" entry,
#: indexed by the edge's directed flag; an orientation entry takes end,
#: start (undirected only), start, end, u and v
_EDGE_TEMPLATES = ('{"kind":"undirected","u":%d,"v":%d}', '{"kind":"directed","u":%d,"v":%d}')
_ORIENTATION_TEMPLATES = (
    '{"injection_case":"injection +1 at %d, -1 at %d","kind":"undirected",'
    '"oriented":[%d,%d],"u":%d,"v":%d}',
    '{"injection_case":"injection +1 at %d only","kind":"directed",'
    '"oriented":[%d,%d],"u":%d,"v":%d}',
)


def reference_graph_members(graph: NetworkGraph) -> tuple[str, str]:
    """%-template reference of the graph report's "edges" and
    "orientation" member texts, written from ``graph.edges``."""
    us, vs, _ = zip(*graph.edges) if graph.edges else ((), (), ())
    directed = graph.directed.tolist()
    start, end = graph.start + 1, graph.end + 1
    fields = np.column_stack([end, start, start, end, us, vs]).reshape(-1, 6)
    keep = np.ones(fields.shape, dtype=bool)
    keep[graph.directed, 1] = False
    edges = ",".join(map(_EDGE_TEMPLATES.__getitem__, directed)) % tuple(
        fields[:, 4:].ravel().tolist()
    )
    orientation = ",".join(map(_ORIENTATION_TEMPLATES.__getitem__, directed)) % tuple(
        fields[keep].tolist()
    )
    return f"[{edges}]", f"[{orientation}]"


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test: every call appends to the
    returned list, then runs the original."""
    calls: list = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def outcome(fn, *args):
    """("ok", result) or (exception class, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison covers every exception class
        return type(exc), str(exc)


def edges_with_defects(gen: np.random.Generator, num_vertices: int) -> list:
    """A random mixed edge list with zero to three planted defects or
    allowed extras, each at a random position: ids of 0, N + 1, +-10**23,
    True and 2.0; self-loops; duplicates, reversed undirected duplicates;
    an edge of the other kind on a used pair; an antiparallel directed
    edge (allowed); unknown kinds. About one in five in-range ids is an
    ``np.int64`` (allowed), drawn from a child stream of ``gen`` so that
    the lists are otherwise the ones drawn without them."""
    edges = list(random_graph(gen, num_vertices, edge_prob=0.6).edges)
    # some undirected edges listed high id first
    edges = [
        Edge(e.v, e.u) if e.kind == UNDIRECTED and gen.random() < 0.5 else e
        for e in edges
    ]
    for _ in range(int(gen.integers(0, 4))):
        pos = int(gen.integers(0, len(edges) + 1))
        old = edges[int(gen.integers(0, len(edges)))] if edges else Edge(1, 2)
        bad_id = [0, num_vertices + 1, 10**23, -(10**23), True, 2.0][int(gen.integers(0, 6))]
        new = [
            old._replace(u=bad_id),
            old._replace(v=bad_id),
            Edge(old.u, old.u, old.kind),
            old,
            Edge(old.v, old.u, old.kind),
            old._replace(kind=DIRECTED if old.kind == UNDIRECTED else UNDIRECTED),
            Edge(old.v, old.u, DIRECTED),
            old._replace(kind=["both", None, 3][int(gen.integers(0, 3))]),
        ][int(gen.integers(0, 8))]
        edges.insert(pos, new)
    child = gen.spawn(1)[0]
    return [
        Edge(
            *(
                np.int64(i)
                if type(i) is int and 1 <= i <= num_vertices and child.random() < 0.2
                else i
                for i in e[:2]
            ),
            e.kind,
        )
        for e in edges
    ]


def loop_influence_neighbors(graph: NetworkGraph) -> list[list[int]]:
    """Reference adjacency, one edge at a time in edge order."""
    out: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for e in graph.edges:
        out[e.u - 1].append(e.v - 1)
        if e.kind == UNDIRECTED:
            out[e.v - 1].append(e.u - 1)
    return out


def loop_sample_away_from_zero(gen: np.random.Generator, shape) -> np.ndarray:
    """Reference draw on [-1, -0.1] U [0.1, 1]: uniform magnitudes on
    [0.1, 1], then signs from a second uniform."""
    magnitude = gen.uniform(0.1, 1.0, size=shape)
    sign = np.where(gen.random(size=shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


def loop_sample_weights(
    graph: NetworkGraph, shape: tuple[int, int], rng: RandomSource
) -> list[np.ndarray]:
    """Reference weight draws: one reference draw per edge, in edge order."""
    gen = rng.generator()
    return [loop_sample_away_from_zero(gen, shape) for _ in graph.edges]


def verdict_bool(verdict: Verdict) -> bool:
    assert verdict in (Verdict.CONTROLLABLE, Verdict.NOT_CONTROLLABLE)
    return verdict is Verdict.CONTROLLABLE


def commutation_permutation(m: int, p: int) -> np.ndarray:
    """Column-index map of the (m, p) commutation matrix.

    Row i*p + j of the materialized permutation carries its single 1 in
    column j*m + i; applying it to a column-stacked m x p matrix yields the
    column stacking of the transpose.
    """
    if m < 1 or p < 1:
        raise ValueError(f"commutation matrix needs m, p >= 1, got ({m}, {p})")
    rows = np.arange(m * p)
    i, j = divmod(rows, p)
    return j * m + i


def commutation_matrix(m: int, p: int) -> np.ndarray:
    """Permutation P(m, p) with P(m,p)^T (A kron B) P(n,r) = B kron A.

    Holds for every A of shape (m, n) and B of shape (p, r).
    """
    cols = commutation_permutation(m, p)
    out = np.zeros((m * p, m * p))
    out[np.arange(m * p), cols] = 1.0
    return out
