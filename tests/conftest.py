"""Shared generators for random models, graphs and driven vertices.

Generators take an explicit numpy Generator so every test pins its own
seed; nothing here draws from global state.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from diffnet.assembly import assemble_blocks
from diffnet.cli import main
from diffnet.errors import NumericError, ProblemFileError
from diffnet.numerics import (
    DEFAULT_TOL,
    RandomSource,
    ToleranceConfig,
    uncontrolled_part,
)
from diffnet.problem_io import _int_field, _matrix, _require_mapping, json_parts
from diffnet.subsystem import SubsystemModel
from diffnet.topology import DIRECTED, UNDIRECTED, Edge, NetworkGraph
from diffnet.verdict import AnalysisReport, Verdict
from edgewise import incidence_matrices

ACCEPTANCE_LINES: list[str] = []

#: An analysis to hand ``certify_monte_carlo`` so that it runs every trial
#: in its stacks: a CONTROLLABLE verdict would stop at a controllable
#: trial 0, and an INCONCLUSIVE one is never contradicted.
EVERY_TRIAL = AnalysisReport(Verdict.INCONCLUSIVE, "3", ())


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


def oriented(edge: Edge) -> tuple[int, int]:
    """Reference orientation, (start, end): undirected edges run from the
    lower to the higher vertex id; directed edges keep their own direction."""
    if edge.kind == DIRECTED:
        return edge.u, edge.v
    return min(edge.u, edge.v), max(edge.u, edge.v)


def edge_key(edge: Edge) -> tuple:
    """Reference identity of an edge, (kind, start, end): the unordered
    pair for undirected edges."""
    return (edge.kind, *oriented(edge))


def reference_weights_json(graph: NetworkGraph, weights: np.ndarray) -> dict:
    """Encoder reference of the lump report's "weights" member: the edges'
    weight blocks, an (M, p, r) array in edge order, as plain JSON values."""
    return {
        "edges": [
            {"u": e.u, "v": e.v, "kind": e.kind, "W": w}
            for e, w in zip(graph.edges, weights.tolist())
        ]
    }


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
    present = {edge_key(e) for e in edges}
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
        if require_ctrb and uncontrolled_part(model.a, model.b)[1].size:
            continue
        if require_obsv and uncontrolled_part(model.a.T, model.c.T)[1].size:
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


def integer_node(gen: np.random.Generator, planted: bool) -> SubsystemModel:
    """Random integer node with n = 2-5 states, p = 1-2 inputs and 1-2
    outputs, entries small enough for the exact oracle of ``lemmas``.

    ``planted``: A is upper triangular with its last diagonal entry
    repeated higher up, so that eigenvalue is repeated and, unless the
    entries above it vanish, defective. Half the time B misses the left
    eigenvector e_n, and half the time C the right eigenvector e_1. All of
    it is hidden by a unimodular integer similarity."""
    n, p, r = (int(k) for k in gen.integers((2, 1, 1), (6, 3, 3)))
    b = gen.integers(-2, 3, size=(n, p))
    c = gen.integers(-2, 3, size=(r, n))
    if not planted:
        a = gen.integers(-3, 4, size=(n, n))
    else:
        diagonal = gen.integers(-2, 3, size=n)
        diagonal[-1] = diagonal[gen.integers(0, n - 1)]
        a = np.diag(diagonal) + np.triu(gen.integers(-1, 2, size=(n, n)), 1)
        if gen.random() < 0.5:
            b[-1] = 0
        if gen.random() < 0.5:
            c[:, 0] = 0
    c[~c.any(axis=1), -1] = 1  # no zero output row
    if planted:
        u = np.eye(n, dtype=int) + np.triu(gen.integers(-1, 2, size=(n, n)), 1)
        u_inv = np.round(np.linalg.inv(u)).astype(int)
        a, b, c = u @ a @ u_inv, u @ b, c @ u_inv
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


def dense_pair(model: SubsystemModel, graph: NetworkGraph, weights):
    """The lumped pair (A_sys, B_sys) as dense arrays: the blocks of
    ``assemble_blocks`` scattered by ``BlockMatrix.dense``."""
    a_sys, b_sys = assemble_blocks(model, graph, weights)
    return a_sys.dense(), b_sys.dense()


def dense_wall_shift(
    num_nodes: int, stiffness_over_mass: float, damping_over_mass: float
) -> np.ndarray:
    """Reference wall shift as a whole (2N, 2N) state-matrix term: -k_1/m
    and -mu_1/m in the first node's acceleration row, 0.0 elsewhere."""
    shift = np.zeros((2 * num_nodes, 2 * num_nodes))
    shift[1, 0] = -stiffness_over_mass
    shift[1, 1] = -damping_over_mass
    return shift


def physical_chain(mass: float, springs, dampers, grounded: bool) -> tuple:
    """State and input matrices of a chain of masses written from its
    equations of motion, states (x_i, v_i) per mass:
    m v_i' = sum over neighbours j of k (x_j - x_i) + mu (v_j - v_i), with
    spring k_{i+1} and damper mu_{i+1} between masses i and i + 1, k_1 and
    mu_1 to the wall when ``grounded``, and the external force on mass 1.
    The input matrix has one column per mass, as the lumped B_sys does;
    only mass 1's is driven."""
    n = len(springs)
    a = np.zeros((2 * n, 2 * n))
    a[range(0, 2 * n, 2), range(1, 2 * n, 2)] = 1.0
    for i in range(n - 1):
        k, mu = springs[i + 1] / mass, dampers[i + 1] / mass
        for me, other in ((i, i + 1), (i + 1, i)):
            a[2 * me + 1, 2 * me : 2 * me + 2] -= (k, mu)
            a[2 * me + 1, 2 * other : 2 * other + 2] += (k, mu)
    if grounded:
        a[1, :2] -= (springs[0] / mass, dampers[0] / mass)
    b = np.zeros((2 * n, n))
    b[1, 0] = 1.0 / mass
    return a, b


def dump_json(doc: dict) -> str:
    """The canonical JSON of ``doc`` as one string."""
    return "".join(json_parts(doc))


def assembled_laplacian(graph: NetworkGraph, weights: np.ndarray) -> np.ndarray:
    """The block Laplacian L_m, read off ``assemble_blocks``.

    Nodes of order n = max(p, r) with A = 0, B = [I_p; 0] and C = [I_r, 0]
    make each n x n block of A_sys = -(I kron B) L_m (I kron C) its p x r
    block of L_m, negated and padded with zeros. Products with these 0/1
    factors are exact, and 0.0 - A_sys turns every zero into 0.0.
    """
    p, r = weights.shape[1:]
    n, nv = max(p, r), graph.num_vertices
    node = SubsystemModel(np.zeros((n, n)), np.eye(n, p), np.eye(r, n))
    a_sys, _ = dense_pair(node, graph, weights)
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
    a numpy integer is taken as its int, a bool, float or str is refused),
    self-loop, duplicate key and shared pair in that order."""
    if type(num_vertices) is not int or num_vertices < 1:
        raise ValueError(f"graph needs a positive vertex count, got {num_vertices}")
    seen_keys: set[tuple] = set()
    pair_kinds: dict[tuple, set[str]] = {}
    for e in edges:
        e = Edge(*(int(i) if isinstance(i, np.integer) else i for i in e[:2]), e.kind)
        if e.kind not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"edge ({e.u!r}, {e.v!r}) has unknown kind {e.kind!r}")
        for vid in (e.u, e.v):
            if type(vid) is not int or not 1 <= vid <= num_vertices:
                raise ValueError(
                    f"edge ({e.u!r}, {e.v!r}) references a vertex outside 1..{num_vertices}"
                )
        if e.u == e.v:
            raise ValueError(f"self-loop at vertex {e.u} is not allowed")
        key = edge_key(e)
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
    """Per-entry reference of the "edges" parsing, which checks the entry
    shape only: raises the ProblemFileError of the first entry that is not
    an object with "u" and "v" and no other member but "kind", else returns
    the edges with their values as given, for ``reference_graph_check``."""
    edges = []
    for i, entry in enumerate(entries):
        e = _require_mapping(entry, f"edge #{i}")
        extra = set(e) - {"u", "v", "kind"}
        if extra:
            raise ProblemFileError(f"edge #{i} has unknown members: {sorted(extra)}")
        if "u" not in e or "v" not in e:
            raise ProblemFileError(f'edge #{i} needs both "u" and "v"')
        edges.append(Edge(e["u"], e["v"], e.get("kind", UNDIRECTED)))
    return edges


def reference_parse_weights(entries: list, graph: NetworkGraph, shape) -> np.ndarray:
    """Per-entry reference of the "weights" parsing, resolving each entry
    through ``edge_key``: the (M, p, r) array of the blocks in edge order,
    or the ProblemFileError of the first bad entry."""
    p, r = shape
    edges_by_key = {edge_key(edge): edge for edge in graph.edges}
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
        edge = edges_by_key.get(edge_key(Edge(u, v, DIRECTED))) or edges_by_key.get(
            edge_key(Edge(u, v))
        )
        if edge is None:
            raise ProblemFileError(f"weight #{i} references no edge between {u} and {v}")
        if edge_key(edge) in by_key:
            raise ProblemFileError(f"duplicate weight for edge between {u} and {v}")
        block = np.atleast_2d(_matrix(e["W"], f'weight #{i} "W"'))
        if block.shape != (p, r):
            raise ProblemFileError(
                f"weight #{i} has shape {block.shape}, expected {(p, r)} "
                "from the subsystem's input and output counts"
            )
        by_key[edge_key(edge)] = block
    missing = [e for e in graph.edges if edge_key(e) not in by_key]
    if missing:
        raise ProblemFileError(
            "weights must cover every edge; missing: "
            + ", ".join(f"({e.u}, {e.v})" for e in missing)
        )
    return np.array([by_key[edge_key(e)] for e in graph.edges]).reshape(-1, p, r)


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


def traced_peak(argv) -> int:
    """Bytes that a second ``main(argv)`` call holds at its peak above
    what was held before it, measured with tracemalloc. The first call,
    untraced, makes the imports and caches; each call must exit 0."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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


def loop_spanning_forest(graph: NetworkGraph) -> tuple[dict, tuple, frozenset]:
    """Reference forest from the driven vertices, (parent, order,
    unreachable): a breadth-first search over an adjacency built one edge
    at a time in edge order."""
    adj: list[list[int]] = [[] for _ in range(graph.num_vertices + 1)]
    for e in graph.edges:
        adj[e.u].append(e.v)
        if e.kind == UNDIRECTED:
            adj[e.v].append(e.u)
    parent: dict[int, int] = {}
    order = list(graph.driven)
    for i in order:  # the list grows as the search goes
        for j in adj[i]:
            if j not in parent and j not in graph.driven:
                parent[j] = i
                order.append(j)
    unreachable = frozenset(range(1, graph.num_vertices + 1)) - set(order)
    return parent, tuple(order), unreachable


def loop_sample_away_from_zero(gen: np.random.Generator, shape) -> np.ndarray:
    """Reference draw on [-1, -0.1] U [0.1, 1]: uniform magnitudes on
    [0.1, 1], then signs from a second uniform."""
    magnitude = gen.uniform(0.1, 1.0, size=shape)
    sign = np.where(gen.random(size=shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


def reference_dimension(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """``numerics.controllable_dimension`` as one general step: every step
    counts the singular values, through ``np.linalg.svd``, against the
    pair's one cut rank_rel_tol * max(||A||_F, ||B||_F), with Gram-Schmidt
    on new arrays. Each norm is taken from its matrix scaled by its largest
    entry. The library skips the count on a step that keeps its whole
    block, and scales only a sum of squares that left the float range; its
    dimension, and its errors' text, must be this function's."""
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if bm.ndim == 1:
        bm = bm[:, None]
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"staircase needs one square state matrix, got shape {am.shape}")
    n = am.shape[0]
    if bm.ndim != 2 or bm.shape[0] != n:
        raise ValueError(
            f"input matrix must be one matrix with {n} rows to match the state "
            f"matrix, got shape {bm.shape}"
        )
    for matrix, what in ((bm, "input"), (am, "state")):
        if not np.isfinite(matrix).all():
            raise NumericError(f"staircase met a non-finite {what} matrix ({n} states)")
    cut = tol.rank_rel_tol * max(scaled_frobenius(am), scaled_frobenius(bm))
    basis = np.zeros((n, 0))
    block = bm
    try:
        while True:
            u, sv, _ = np.linalg.svd(block, full_matrices=False)
            width = min(int((sv > cut).sum()), n - basis.shape[1])
            if width == 0:
                break
            fresh = u[:, :width]
            basis = np.hstack([basis, fresh])
            if basis.shape[1] == n:
                break
            block = am @ fresh
            for _ in range(2):
                block = block - basis @ (basis.T @ block)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"staircase SVD failed on a {n}-state pair: {exc}") from exc
    return basis.shape[1]


def scaled_frobenius(m: np.ndarray) -> float:
    """Frobenius norm of one matrix, from the matrix scaled by its largest
    entry, so no square overflows or underflows to zero; 0 for a zero
    matrix."""
    top = float(np.abs(m).max(initial=0.0)) or 1.0
    return top * float(np.linalg.norm(m / top))


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
