"""Edge weights and lumped network assembly.

Each edge of the network carries a p x r weight block, where p and r are
the node's input and output counts. The weights of a network are one
float64 array of shape (M, p, r), block e belonging to the graph's edge e;
the vector weights of single-input nodes are the p = 1 case, a 1 x r row
per edge, one scalar weight per coupling channel. The assembled network
state matrix couples N copies of the node dynamics through the block
Laplacian; the assembler computes it along two independent routes and
insists they agree. The direct route, I kron A - (I kron B) L_m (I kron C),
is the emitted matrix. L_m has the sparsity of the graph: N diagonal
blocks and one off-diagonal block per edge and direction, at most N + 2M
blocks for M edges. The route starts from A on the diagonal blocks and
subtracts (B L_ij) C at those blocks only, in two BLAS products over all
of them side by side, at O((N + M) n r (n + p) + (nN)^2) cost for nodes of
order n; the dense Kronecker products cost O((nN)^3). Every other block is
exactly 0.0. The edgewise route, I kron A + sum_e (K[:, e] K_I[e, :])
kron (B W_e C), reads the incidence realization and places one n x n block
per edge at the at most four block positions its incidence entries
select, at O(M n^3 + (nN)^2) cost. ``assemble_lumped`` also takes a
(T, M, p, r) stack of T weight draws: the index work, which depends on the
graph alone, runs once, the products run over all draws' blocks side by
side, and the routes are compared draw by draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .numerics import RandomSource, sample_away_from_zero
from .subsystem import SubsystemModel, require_valid
from .topology import (
    UNDIRECTED,
    DrivenSet,
    Edge,
    NetworkGraph,
    incidence_matrices,
)

#: The two assembly routes must agree to this relative tolerance.
ASSEMBLY_CROSS_CHECK_RTOL = 1e-10


def _laplacian_terms(graph: NetworkGraph):
    """Block position, sign and edge index of every term of the block
    Laplacian, in edge order: an edge oriented from a to b (its ``start``
    and ``end`` columns) adds -W at (b, a) and +W at (b, b), and an
    undirected one also -W at (a, b) and +W at (a, a). Positions are
    0-based vertex indices."""
    start, end, both = graph.start, graph.end, ~graph.directed
    keep = np.column_stack([np.ones_like(both), np.ones_like(both), both, both])
    row = np.column_stack([end, end, start, start])[keep]
    col = np.column_stack([start, end, end, start])[keep]
    sign = np.broadcast_to([-1.0, 1.0, -1.0, 1.0], keep.shape)[keep]
    edge = np.broadcast_to(np.arange(graph.num_edges)[:, None], keep.shape)[keep]
    return row, col, sign, edge


def _laplacian_blocks(
    graph: NetworkGraph, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block Laplacian of each member of a (T, M, p, r) stack of edge
    blocks at its possibly nonzero blocks only: every diagonal block, then
    the off-diagonal blocks the edges name, each -W. Returns the 0-based
    block rows, the block columns and the (T, blocks, p, r) values; the
    terms are added in edge order, one indexed scatter for all members.
    """
    row, col, sign, edge = _laplacian_terms(graph)
    n_vertices = graph.num_vertices
    off = sign < 0  # an off-diagonal position takes exactly one term
    slot = np.where(off, n_vertices + np.cumsum(off) - 1, row)
    diag = np.arange(n_vertices)
    count = n_vertices + np.count_nonzero(off)
    values = np.zeros((blocks.shape[0], count) + blocks.shape[2:])
    np.add.at(values, (slice(None), slot), sign[:, None, None] * blocks[:, edge])
    return np.concatenate([diag, row[off]]), np.concatenate([diag, col[off]]), values


@dataclass(frozen=True)
class LumpedSystem:
    """Assembled network pair (A_sys, B_sys).

    From a stack of weight draws, ``a_sys`` holds one state matrix per
    draw along a leading axis and ``b_sys``, the same for every draw, is
    stored once.
    """

    a_sys: np.ndarray
    b_sys: np.ndarray


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
    for each member of a (T, M, p, r) stack of edge blocks W, as n x n
    block terms: the 0-based block rows, the block columns and the
    (T, terms, n, n) blocks. A member's matrix is the sum of its terms, each
    at its block, and 0.0 at every block no term names.

    A lands at every diagonal block, then each edge's block B W_e C at
    block (i, j) scaled by K[i, e] K_I[e, j], for every nonzero K[i, e]
    and K_I[e, j].
    """
    real = incidence_matrices(graph)
    n_vertices = graph.num_vertices
    diag = np.arange(n_vertices)
    on_diag = np.broadcast_to(model.a, (blocks.shape[0], n_vertices, *model.a.shape))
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
        np.concatenate([on_diag, coef[:, None, None] * coupling[:, edge]], axis=1),
    )


def _gemm(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right through BLAS gemm, the kernel of the dense Kronecker
    form. numpy sends a product with a single row or column to gemv, which
    rounds otherwise, so such a factor runs doubled and the copy is dropped.
    """
    rows, cols = left.shape[0], right.shape[1]
    if rows == 1:
        left = np.vstack([left, left])
    if cols == 1:
        right = np.hstack([right, right])
    return (left @ right)[:rows, :cols]


def _direct_state_matrices(
    model: SubsystemModel, n_vertices: int, rows, cols, lap: np.ndarray, out=None
) -> np.ndarray:
    """I kron A - (I kron B) L_m (I kron C) for each member of a stack,
    formed at the nonzero blocks of L_m only: ``lap`` holds each member's
    blocks at the block ``rows`` and ``cols``, every diagonal block among
    them. Every other block stays exactly 0.0. Returns (T, nN, nN), written
    into ``out`` when given.
    """
    n = model.order
    members, _, p, r = lap.shape
    diag = np.arange(n_vertices)
    shape = (members, n_vertices, n, n_vertices, n)
    if out is None:
        out = np.zeros(shape)
    else:
        out = out.reshape(shape)  # a view: the caller checked the layout
        out.fill(0.0)
    out[:, diag, :, diag, :] = model.a
    # (B L_ij) C for every nonzero block L_ij of every member: two products
    # over all blocks side by side, associated as in the dense form
    coupled = _gemm(model.b, lap.transpose(2, 0, 1, 3).reshape(p, -1))
    stacked = coupled.reshape(n, -1, r).transpose(1, 0, 2).reshape(-1, r)
    product = _gemm(stacked, model.c).reshape(members, -1, n, n)
    out[:, rows, :, cols, :] -= product.transpose(1, 0, 2, 3)
    return out.reshape(members, n_vertices * n, n_vertices * n)


def assemble_lumped(
    model: SubsystemModel,
    graph: NetworkGraph,
    weights,
    driven: DrivenSet,
    *,
    out: np.ndarray | None = None,
) -> LumpedSystem:
    """Lumped pair of the network: N copies of (A, B, C) coupled by the weights.

    ``weights`` is the (M, p, r) array of the edges' weight blocks in edge
    order, or a (T, M, p, r) stack of T such draws; ``a_sys`` then has
    shape (nN, nN) or (T, nN, nN). ``b_sys``, Delta kron B written as B at
    the driven diagonal blocks, is the same for every draw and stored once.
    ``out``, a C-contiguous float64 array of ``a_sys``'s shape, receives
    the state matrices in place of a new array, for a caller that
    assembles into part of a larger stack.

    Direct route I kron A - (I kron B) L_m (I kron C), formed block by
    block: A on the diagonal blocks, minus (B L_ij) C at each nonzero block
    L_ij of the Laplacian, the products associated as in the dense form.
    It costs O((N + M) n r (n + p) + (nN)^2) for M edges and N vertices of
    order n, where the dense Kronecker form costs O((nN)^3). Structural
    zeros come out as 0.0: the dense form writes -0.0 wherever a zero of a
    Kronecker factor meets a negative entry of A or B. The route is
    cross-checked, draw by draw, against the edgewise form
    I kron A + sum_e (K[:, e] K_I[e, :]) kron (B W_e C) built on the
    incidence realization (for undirected graphs K = -K_I^T, recovering the
    familiar incidence-quadratic form); the two must agree to
    ASSEMBLY_CROSS_CHECK_RTOL. The edgewise route costs O(M n^3); it is
    summed, and the two compared, at the blocks either route writes only,
    O((N + M) n^2). The index work depends on the graph only and runs once
    for the whole stack; the products run over every draw's blocks side by
    side.
    """
    require_valid(model)
    blocks = np.asarray(weights, dtype=float)
    want = (graph.num_edges, model.num_inputs, model.num_outputs)
    if blocks.ndim not in (3, 4) or blocks.shape[-3:] != want:
        raise ValueError(
            f"edge weights must have shape {want}, one block per edge in edge "
            f"order, or be a (draws, *{want}) stack of weight blocks; "
            f"got shape {blocks.shape}"
        )
    driven.validate_for(graph)
    n_vertices, n = graph.num_vertices, model.order
    if out is not None:
        shape = blocks.shape[:-3] + (n_vertices * n, n_vertices * n)
        if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {shape}"
            )
    stack = blocks if blocks.ndim == 4 else blocks[None]

    # finite weights can still overflow; the result is checked just below
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, lap = _laplacian_blocks(graph, stack)
        a_direct = _direct_state_matrices(model, n_vertices, rows, cols, lap, out)
        edge_rows, edge_cols, terms = _edgewise_state_blocks(model, graph, stack)
        # both routes are exactly 0.0 outside the blocks they write, so they
        # are compared at the union of those blocks only
        at, slot = np.unique(
            np.concatenate([rows, edge_rows]) * n_vertices
            + np.concatenate([cols, edge_cols]),
            return_inverse=True,
        )
        a_edge = np.zeros((stack.shape[0], at.size, n, n))
        np.add.at(a_edge, (slice(None), slot[rows.size :]), terms)
    direct_blocks = a_direct.reshape(-1, n_vertices, n, n_vertices, n)[
        :, at // n_vertices, :, at % n_vertices, :
    ]
    # the blocks at ``at`` hold every entry the direct route writes; the
    # rest of the matrix is 0.0, so only they can have overflowed
    if not np.all(np.isfinite(direct_blocks)):
        raise ValueError(
            "lumped state matrix overflows the float range: "
            "the edge weights or subsystem entries are too large"
        )
    for member, edgewise in enumerate(a_edge):
        _require_close(
            "lumped state matrix",
            direct_blocks[:, member],
            edgewise,
            ASSEMBLY_CROSS_CHECK_RTOL,
        )

    p = model.num_inputs
    b_sys = np.zeros((n_vertices, n, n_vertices, p))
    driven_idx = np.array(sorted(driven.driven), dtype=np.intp) - 1
    b_sys[driven_idx, :, driven_idx, :] = model.b
    a_sys = a_direct.reshape(blocks.shape[:-3] + a_direct.shape[1:])
    return LumpedSystem(a_sys, b_sys.reshape(n_vertices * n, n_vertices * p))


def sample_weights(
    graph: NetworkGraph, shape: tuple[int, int], rng: RandomSource
) -> np.ndarray:
    """Independent generic weights: an (M, p, r) array, one p x r draw per
    edge in edge order.

    Entries are uniform on [-1, -0.1] U [0.1, 1]; a fixed source yields
    identical weights. All edges draw in one call, from the stream that
    one ``sample_away_from_zero`` call per edge would read.
    """
    p, r = shape
    if p < 1 or r < 1:
        raise ValueError(f"weight shape must be positive, got {shape}")
    return sample_away_from_zero(rng.generator(), (p, r), count=graph.num_edges)


@dataclass(frozen=True)
class MassSpringChain:
    """Chain of identical masses coupled by springs and dampers.

    Each mass contributes states (position, velocity) with double-integrator
    node dynamics; edge {i, i+1} carries the 1 x 2 weight row
    [k_{i+1}/mass, mu_{i+1}/mass], so ``weights`` has shape (N - 1, 1, 2).
    The first spring/damper pair couples mass 1 to the wall and is exposed
    as the grounding coefficients rather than as an edge. External force enters each driven mass scaled by
    ``input_gain`` = 1/mass, a positive column scaling that cannot change
    any rank verdict.
    """

    model: SubsystemModel
    graph: NetworkGraph
    weights: np.ndarray
    driven_template: DrivenSet
    input_gain: float
    wall_stiffness_over_mass: float
    wall_damping_over_mass: float


def mass_spring_chain(
    num_masses: int,
    mass: float,
    springs,
    dampers,
) -> MassSpringChain:
    """Physical chain instance: N masses, springs k_1..k_N, dampers mu_1..mu_N."""
    if not isinstance(num_masses, int) or num_masses < 1:
        raise ValueError(f"need at least one mass, got {num_masses}")
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    springs = [float(k) for k in springs]
    dampers = [float(mu) for mu in dampers]
    if not all(map(math.isfinite, springs + dampers)):
        raise ValueError(
            f"spring and damper constants must be finite, got {springs} and {dampers}"
        )
    if len(springs) != num_masses or len(dampers) != num_masses:
        raise ValueError(
            f"need {num_masses} spring and damper constants, got "
            f"{len(springs)} and {len(dampers)}"
        )

    model = SubsystemModel(
        a=np.array([[0.0, 1.0], [0.0, 0.0]]),
        b=np.array([[0.0], [1.0]]),
        c=np.eye(2),
    )
    graph = NetworkGraph(
        num_masses,
        tuple(Edge(i, i + 1, UNDIRECTED) for i in range(1, num_masses)),
    )
    weights = np.stack([springs[1:], dampers[1:]], axis=-1)[:, None, :] / mass
    return MassSpringChain(
        model=model,
        graph=graph,
        weights=weights,
        driven_template=DrivenSet(frozenset({1})),
        input_gain=1.0 / mass,
        wall_stiffness_over_mass=springs[0] / mass,
        wall_damping_over_mass=dampers[0] / mass,
    )


def grounding_shift(
    num_nodes: int, stiffness_over_mass: float, damping_over_mass: float
) -> np.ndarray:
    """State-matrix shift grounding the first two-state node to a wall.

    Adds -k_1/m and -mu_1/m to the first node's acceleration row (position
    and velocity columns). Apply by adding to an assembled state matrix of
    a network whose nodes carry (position, velocity) states.
    """
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    n_states = 2 * num_nodes
    shift = np.zeros((n_states, n_states))
    shift[1, 0] = -stiffness_over_mass
    shift[1, 1] = -damping_over_mass
    return shift
