"""The edgewise route: a second, independent assembly of the lumped state
matrix, from the incidence realization of the graph, against which the
tests check the library's one block route.

I kron A + sum_e (K[:, e] K_I[e, :]) kron (B W_e C), with K and K_I the
injection and incidence matrices, places one n x n block per edge at the
at most four block positions its incidence entries select, at O(M n^3)
cost. For undirected graphs K = -K_I^T, recovering the familiar
incidence-quadratic form. ``cross_check`` compares it, for one draw of
weights, with ``assemble_blocks`` at the blocks either route writes: both
are exactly 0.0 everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffnet.assembly import assemble_blocks
from diffnet.subsystem import SubsystemModel
from diffnet.topology import NetworkGraph

#: The two assembly routes must agree to this relative tolerance.
ASSEMBLY_CROSS_CHECK_RTOL = 1e-10


class ConsistencyError(AssertionError):
    """The two assembly routes disagree beyond tolerance."""


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

    Each edge runs from the graph's ``start`` to its ``end`` column.
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


def _require_close(name: str, first: np.ndarray, second: np.ndarray, rtol: float):
    scale = max(1.0, float(np.max(np.abs(first))) if first.size else 0.0)
    dev = float(np.max(np.abs(first - second))) if first.size else 0.0
    if not dev <= rtol * scale:  # a NaN deviation must fail too
        raise ConsistencyError(
            f"{name}: redundant assembly routes disagree "
            f"(max deviation {dev:.3e}, allowed {rtol * scale:.3e})"
        )


def _edgewise_state_blocks(
    model: SubsystemModel, graph: NetworkGraph, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I kron A + sum_e (K[:, e] K_I[e, :]) kron (B W_e C), K and K_I the
    injection and incidence matrices of the graph's incidence realization,
    for the (M, p, r) edge blocks W, as n x n block terms: the 0-based
    block rows, the block columns and the (terms, n, n) blocks. The matrix
    is the sum of its terms, each at its block, and 0.0 at every block no
    term names.

    A lands at every diagonal block, then each edge's block B W_e C at
    block (i, j) scaled by K[i, e] K_I[e, j], for every nonzero K[i, e]
    and K_I[e, j].
    """
    real = incidence_matrices(graph)
    n_vertices = graph.num_vertices
    diag = np.arange(n_vertices)
    on_diag = np.broadcast_to(model.a, (n_vertices, *model.a.shape))
    if not graph.num_edges:
        return diag, diag, on_diag
    coupling = model.b @ blocks @ model.c
    # every pair (nonzero K[i, e], nonzero K_I[e, j]) of one edge: np.nonzero
    # lists both by edge, so edge e's K_I entries are first[e] onwards
    inj_edge, inj_row = np.nonzero(real.injection.T)
    inc_edge, inc_col = np.nonzero(real.incidence)
    count = np.bincount(inc_edge, minlength=graph.num_edges)
    first = np.cumsum(count) - count
    reps = count[inj_edge]
    pair_inj = np.repeat(np.arange(inj_edge.size), reps)
    rank = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    pair_inc = first[inj_edge[pair_inj]] + rank
    edge, i, j = inj_edge[pair_inj], inj_row[pair_inj], inc_col[pair_inc]
    coef = real.injection[i, edge] * real.incidence[edge, j]
    return (
        np.concatenate([diag, i]),
        np.concatenate([diag, j]),
        np.concatenate([on_diag, coef[:, None, None] * coupling[edge]]),
    )


def cross_check(model: SubsystemModel, graph: NetworkGraph, weights) -> None:
    """Compare ``assemble_blocks``'s state matrix with the edgewise route
    for the (M, p, r) weights of one network; raises ConsistencyError where
    the routes differ by more than ASSEMBLY_CROSS_CHECK_RTOL relative to
    the largest entry. Both routes are summed, and compared, at the blocks
    either one writes only, O((N + M) n^2). A state matrix that overflows
    is refused by ``assemble_blocks`` before any comparison.
    """
    a_sys, _ = assemble_blocks(model, graph, weights)
    edge_rows, edge_cols, terms = _edgewise_state_blocks(
        model, graph, np.asarray(weights, dtype=float)
    )
    n_vertices, n, count = graph.num_vertices, model.order, a_sys.rows.size
    at, slot = np.unique(
        np.concatenate([a_sys.rows, edge_rows]) * n_vertices
        + np.concatenate([a_sys.cols, edge_cols]),
        return_inverse=True,
    )
    a_direct = np.zeros((at.size, n, n))
    a_direct[slot[:count]] = a_sys.blocks
    a_edge = np.zeros_like(a_direct)
    np.add.at(a_edge, slot[count:], terms)
    _require_close("lumped state matrix", a_direct, a_edge, ASSEMBLY_CROSS_CHECK_RTOL)
