"""The proof's lemmas, restated on the decision pipeline.

Acceptance criteria 05-08 check auxiliary results of the paper: pattern
digraphs, the generic rank condition, single-leader consensus and the
scalar-weight constraint. The library needs none of them to decide or
certify a verdict, so each is written here once, from what the pipeline
computes: incidence matrices, sampled weights, the lumped assembly, the
certificate and ``analyze``. Criterion 04's references live in conftest.
Criterion 06's generic rank is the one SVD rank test left, here as
``numerical_rank``: the library decides every rank by the staircase.
Criterion 09 also checks the library's fixed modes, the staircase's
Kalman split, against a second method written here: randomized output
feedback.

The exact oracle at the end decides controllability of integer pairs by
the rank of the block Krylov matrix over GF(2^61 - 1), with Python ints:
at the node, and on networks assembled by the library from integer edge
weights.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import dense_pair, driven_selector
from diffnet.assembly import sample_weights
from diffnet.errors import NumericError
from diffnet.numerics import (
    DEFAULT_TOL,
    RandomSource,
    ToleranceConfig,
    dedupe_eigenvalues,
    eigenvalues,
)
from diffnet.subsystem import SubsystemModel
from diffnet.topology import NetworkGraph
from diffnet.verdict import analyze, certify_monte_carlo
from edgewise import incidence_matrices


def cycles_input_reachable(state_pattern, input_pattern) -> bool:
    """True iff no cycle of the pattern digraph avoids the states the
    inputs reach. State i -> state j iff entry (j, i) of the state pattern
    is nonzero, input k -> state j iff entry (j, k) of the input pattern
    is. A cycle through one reached state is reached whole, so the states
    left out must span an acyclic subgraph (a self-loop is a cycle)."""
    import networkx as nx

    digraph = nx.from_numpy_array(
        (np.asarray(state_pattern).T != 0).astype(int), create_using=nx.DiGraph
    )
    targets = np.flatnonzero(np.asarray(input_pattern).any(axis=1)).tolist()
    reached = set(targets).union(*(nx.descendants(digraph, t) for t in targets))
    return nx.is_directed_acyclic_graph(digraph.subgraph(set(digraph) - reached))


def pattern_pairs(graph: NetworkGraph, channels: int):
    """The (state, input) patterns of the two auxiliary digraphs of a
    network of single-input nodes with ``channels`` coupling channels,
    every block repeated over all channel pairs: on edge states, K_I K and
    K_I Delta; on vertex states, the unit-weight Laplacian -K K_I and
    Delta. K_I and K are the incidence and injection matrices, Delta the
    N x N selector of the driven vertices."""
    real = incidence_matrices(graph)
    delta = driven_selector(graph)
    square, column = np.ones((channels, channels)), np.ones((channels, 1))
    return (
        (
            np.kron(square, real.incidence @ real.injection),
            np.kron(column, real.incidence @ delta),
        ),
        (np.kron(square, -real.injection @ real.incidence), np.kron(column, delta)),
    )


def numerical_rank(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Singular values above rank_rel_tol * (largest singular value).

    The zero matrix has rank 0 under the strict cutoff without any special
    casing.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"rank needs a nonempty 2-D matrix, got shape {m.shape}")
    try:
        sv = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD failed on a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol.rank_rel_tol * sv[0]))


def generic_ranks(model, graph, rng, trials=3, tol=DEFAULT_TOL) -> list[int]:
    """Largest numerical rank of [lambda I - A_sys, B_sys] over ``trials``
    weight draws, at each distinct eigenvalue lambda of the node's A. Draw t
    is ``sample_weights`` on ``rng.derive(t)``, as in the certificate; full
    rank is the state count N n."""
    distinct = dedupe_eigenvalues(eigenvalues(model.a), tol)
    eye = np.eye(graph.num_vertices * model.order)
    shape = (model.num_inputs, model.num_outputs)
    best = [0] * len(distinct)
    for t in range(trials):
        weights = sample_weights(graph, shape, rng.derive(t))
        a_sys, b_sys = dense_pair(model, graph, weights)
        for i, lam in enumerate(distinct):
            pencil = np.hstack([lam * eye - a_sys, b_sys])
            best[i] = max(best[i], numerical_rank(pencil, tol))
    return best


def leader_controls_consensus(graph: NetworkGraph, leader: int, trials, rng) -> bool:
    """Whether every certificate trial of -L driven at one leader vertex is
    controllable: scalar integrator nodes (A = 0, B = C = 1) make the
    lumped pair (-L, e_leader)."""
    integrator = SubsystemModel([[0.0]], [[1.0]], [[1.0]])
    cert = certify_monte_carlo(
        integrator, replace(graph, driven=(leader,)), trials=trials, rng=rng
    )
    return all(t.controllable for t in cert.per_trial)


def summed_row(model: SubsystemModel) -> np.ndarray:
    """The coupling row seen through one scalar weight per edge: with every
    channel weighted alike, the coupling acts through c_1 + ... + c_r."""
    return model.c.sum(axis=0, keepdims=True)


def summed_row_model(model: SubsystemModel) -> SubsystemModel:
    """The node with its summed row as its one output; a model, so the row
    must not cancel."""
    return SubsystemModel(model.a, model.b, summed_row(model))


def scalar_weight_analysis(model, graph: NetworkGraph):
    """``analyze`` on the network whose edges carry one scalar weight each.
    When the summed row cancels no coupling survives: the network is its
    nodes without edges."""
    if not summed_row(model).any():
        return analyze(model, NetworkGraph(graph.num_vertices, driven=graph.driven))
    return analyze(summed_row_model(model), graph)


def matched_eigenvalues(candidates, pool, tol=DEFAULT_TOL) -> list[complex]:
    """Candidates, sorted, that find a partner in the pool.

    Greedy nearest matching: each candidate in turn takes the nearest pool
    value not yet taken, if it lies within eig_match_tol.
    """
    remaining = list(np.atleast_1d(np.asarray(pool, dtype=complex)))
    matched: list[complex] = []
    for lam in sorted(
        np.atleast_1d(np.asarray(candidates, dtype=complex)),
        key=lambda z: (z.real, z.imag),
    ):
        if not remaining:
            break
        dists = [abs(lam - mu) for mu in remaining]
        j = int(np.argmin(dists))
        if dists[j] <= tol.eig_match_tol:
            remaining.pop(j)
            matched.append(complex(lam))
    return matched


def spectra_match(left, right, tol=DEFAULT_TOL) -> bool:
    """Multiset equality of two spectra under greedy nearest matching."""
    xs = np.atleast_1d(np.asarray(left, dtype=complex))
    ys = np.atleast_1d(np.asarray(right, dtype=complex))
    return len(xs) == len(ys) and len(matched_eigenvalues(xs, ys, tol)) == len(xs)


def randomized_fixed_modes(
    model: SubsystemModel, rng: RandomSource, tol=DEFAULT_TOL, draws: int = 4
) -> list[complex]:
    """Fixed modes under static output feedback found without a rank test:
    the eigenvalues of A, sorted, that persist in the spectrum of
    A + B F C for each of ``draws`` feedback matrices F with entries
    uniform on [-1, 1], drawn from ``rng``. Generic, not exact: a draw can
    land a moving eigenvalue near a mode by chance."""
    gen = rng.generator()
    persistent = list(eigenvalues(model.a))
    for _ in range(draws):
        f = gen.uniform(-1.0, 1.0, size=(model.num_inputs, model.num_outputs))
        perturbed = eigenvalues(model.a + model.b @ f @ model.c)
        persistent = matched_eigenvalues(persistent, perturbed, tol)
    return persistent


#: the Mersenne prime 2^61 - 1: the exact ranks are taken modulo it
PRIME = (1 << 61) - 1

#: integer edge weights are drawn with magnitudes in [1, WEIGHT_BOUND)
WEIGHT_BOUND = 1 << 20


def reachable_dimension(a, b) -> int:
    """Rank over GF(PRIME) of the block Krylov matrix [B, AB, A^2 B, ...]
    of an integer pair: the span grows one vector at a time, each new
    vector reduced against the basis and, if it survives, its image under
    A queued. The entries must be integers below 2^52 in magnitude, so
    that their doubles are exact.

    A full rank mod PRIME proves full rank over the rationals. A deficit
    proves a deficit too when every minor of the Krylov matrix is below
    PRIME in magnitude, as for the small nodes of the tests."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for m in (a, b):
        assert np.array_equal(m, np.round(m)), "the exact rank needs integer entries"
        assert np.abs(m).max(initial=0.0) < 2.0**52, "entries must be below 2^52"
    rows = [[int(x) % PRIME for x in row] for row in a.tolist()]
    queue = [[int(x) % PRIME for x in col] for col in b.T.tolist()]
    basis: list[tuple[int, list[int]]] = []  # (pivot, vector with 1 there)
    while queue:
        v = queue.pop()
        for pivot, w in basis:  # w is 0 at the pivots of earlier vectors
            if v[pivot]:
                f = v[pivot]
                v = [(x - f * y) % PRIME for x, y in zip(v, w)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        inverse = pow(v[pivot], -1, PRIME)
        v = [x * inverse % PRIME for x in v]
        basis.append((pivot, v))
        queue.append([sum(x * y for x, y in zip(row, v)) % PRIME for row in rows])
    return len(basis)


def node_ranks(model: SubsystemModel) -> tuple[int, int]:
    """Exact Kalman ranks of (A, B) and of (A, C), the latter as the rank
    of its dual pair (A^T, C^T), for a node with integer entries."""
    return reachable_dimension(model.a, model.b), reachable_dimension(model.a.T, model.c.T)


def network_reachable_dimension(model, graph, gen: np.random.Generator) -> int:
    """Exact reachable dimension of the lumped pair at one draw of integer
    edge weights with magnitudes in [1, WEIGHT_BOUND) and random signs,
    assembled by ``assemble_blocks``. A full rank proves the network
    controllable; a deficit is evidence, wrong with probability at most
    deg / (2 WEIGHT_BOUND) for the degree deg of the Krylov determinant in
    the weights."""
    shape = (graph.num_edges, model.num_inputs, model.num_outputs)
    weights = gen.integers(1, WEIGHT_BOUND, size=shape) * gen.choice([-1, 1], size=shape)
    return reachable_dimension(*dense_pair(model, graph, weights.astype(float)))
