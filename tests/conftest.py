"""Shared generators for random models, graphs, and driven sets.

Generators take an explicit numpy Generator so every test pins its own
seed; nothing here draws from global state.
"""

from __future__ import annotations

import numpy as np
import pytest

from diffnet.assembly import MatrixWeights
from diffnet.subsystem import SubsystemModel, check_controllable, check_observable
from diffnet.topology import (
    DIRECTED,
    UNDIRECTED,
    DrivenSet,
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
) -> DrivenSet:
    low = 0 if allow_empty else 1
    high = num_vertices if allow_full else num_vertices - 1
    high = max(high, low)
    count = int(gen.integers(low, high + 1))
    chosen = gen.choice(np.arange(1, num_vertices + 1), size=count, replace=False)
    return DrivenSet(frozenset(int(v) for v in chosen))


def incoming_influence_counts(graph: NetworkGraph) -> list[int]:
    """counts[i] = number of edges feeding vertex i+1."""
    counts = [0] * graph.num_vertices
    for e in graph.edges:
        counts[e.v - 1] += 1
        if e.kind == UNDIRECTED:
            counts[e.u - 1] += 1
    return counts


def ensure_incoming_influence(
    gen: np.random.Generator, graph: NetworkGraph, driven: DrivenSet
) -> NetworkGraph:
    """Add directed edges so every undriven vertex has incoming influence.

    A vertex with zero incoming influence has no undirected edge and no
    directed edge pointing at it, so a fresh directed edge toward it never
    conflicts with the pair policy.
    """
    counts = incoming_influence_counts(graph)
    edges = list(graph.edges)
    for v in range(1, graph.num_vertices + 1):
        if v in driven or counts[v - 1] > 0:
            continue
        others = [w for w in range(1, graph.num_vertices + 1) if w != v]
        w = int(gen.choice(others))
        edges.append(Edge(w, v, DIRECTED))
    return NetworkGraph(graph.num_vertices, tuple(edges))


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
        if require_ctrb and not check_controllable(model)[0]:
            continue
        if require_obsv and not check_observable(model)[0]:
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


def dense_edgewise_state_matrix(
    model: SubsystemModel, graph: NetworkGraph, weights: MatrixWeights
) -> np.ndarray:
    """Reference edgewise route: I kron A + (K kron B) diag(W_e) (K_I kron C).

    Dense Kronecker products around the block diagonal of the edge weights,
    on the incidence realization; O((nN)^3).
    """
    real = incidence_matrices(graph)
    p, r = weights.shape
    m = graph.num_edges
    blkdiag = np.zeros((m * p, m * r))
    for idx, e in enumerate(graph.edges):
        blkdiag[idx * p : (idx + 1) * p, idx * r : (idx + 1) * r] = weights.block(e)
    return np.kron(np.eye(graph.num_vertices), model.a) + np.kron(
        real.injection, model.b
    ) @ blkdiag @ np.kron(real.incidence, model.c)


def loop_matrix_laplacian(graph: NetworkGraph, weights: MatrixWeights) -> np.ndarray:
    """Reference block Laplacian, built one edge at a time in edge order."""
    p, r = weights.shape
    lap = np.zeros((graph.num_vertices * p, graph.num_vertices * r))

    def rows(i):
        return slice(i * p, (i + 1) * p)

    def cols(j):
        return slice(j * r, (j + 1) * r)

    for e in graph.edges:
        w = weights.block(e)
        u, v = e.u - 1, e.v - 1
        lap[rows(v), cols(u)] -= w
        lap[rows(v), cols(v)] += w
        if e.kind == UNDIRECTED:
            lap[rows(u), cols(v)] -= w
            lap[rows(u), cols(u)] += w
    return lap


def dense_direct_state_matrix(
    model: SubsystemModel, graph: NetworkGraph, weights: MatrixWeights
) -> np.ndarray:
    """Reference direct route: I kron A - (I kron B) L_m (I kron C).

    Dense Kronecker products around the loop-built block Laplacian; the
    structural zeros of the Kronecker factors make -0.0 wherever a zero
    meets a negative entry.
    """
    eye = np.eye(graph.num_vertices)
    lap = loop_matrix_laplacian(graph, weights)
    return np.kron(eye, model.a) - np.kron(eye, model.b) @ lap @ np.kron(eye, model.c)


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
