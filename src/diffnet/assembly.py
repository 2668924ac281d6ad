"""Edge weights and lumped network assembly.

Each edge of the network carries a p x r weight block, where p and r are
the node's input and output counts. The weights of a network are one
float64 array of shape (M, p, r), block e belonging to the graph's edge e;
the vector weights of single-input nodes are the p = 1 case, a 1 x r row
per edge, one scalar weight per coupling channel.

The lumped pair is assembled along one route, in blocks. The state
matrix, I kron A - (I kron B) L_m (I kron C), couples N copies of the node
dynamics through the block Laplacian L_m, which has the sparsity of the
graph: N diagonal blocks and one off-diagonal block per edge and
direction, at most N + 2M blocks for M edges. ``assemble_blocks`` forms
the state matrix at those block positions only: A minus (B L_ij) C on the
diagonal and 0.0 minus it off it, in two BLAS products over all blocks
side by side, at O((N + M) n r (n + p)) cost for nodes of order n; every
other block is exactly 0.0. The input matrix, Delta kron B, is B at the
diagonal blocks of the graph's driven vertices, ``NetworkGraph.driven``.
One call assembles one draw of weights. ``BlockMatrix.dense`` scatters
the blocks into the dense matrix, as the certificate does; a ``lump``
report is written from the blocks themselves. ``ground_first_vertex``
grounds a state matrix at a wall: it adds the (n, n) shift to vertex 1's
diagonal block.
For the mass-spring chain that ``problem_io.mass_spring_chain`` builds,
the shift is ``grounding_shift`` of its wall constants per unit mass: it
enters the state matrix directly, not through B.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import RandomSource, sample_away_from_zero
from .subsystem import SubsystemModel
from .topology import NetworkGraph


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
    """The block Laplacian of the (M, p, r) edge blocks at its possibly
    nonzero blocks only: every diagonal block, then the off-diagonal blocks
    the edges name, each -W. Returns the 0-based block rows, the block
    columns and the (blocks, p, r) values; the terms are added in edge
    order, by one indexed scatter.
    """
    row, col, sign, edge = _laplacian_terms(graph)
    n_vertices = graph.num_vertices
    off = sign < 0  # an off-diagonal position takes exactly one term
    slot = np.where(off, n_vertices + np.cumsum(off) - 1, row)
    diag = np.arange(n_vertices)
    count = n_vertices + np.count_nonzero(off)
    values = np.zeros((count,) + blocks.shape[1:])
    np.add.at(values, slot, sign[:, None, None] * blocks[edge])
    return np.concatenate([diag, row[off]]), np.concatenate([diag, col[off]]), values


@dataclass(frozen=True)
class BlockMatrix:
    """A matrix of ``shape`` held as its possibly nonzero h x w blocks:
    ``blocks[k]`` at block row ``rows[k]`` and block column ``cols[k]``,
    no position twice, and 0.0 everywhere else."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray

    def dense(self) -> np.ndarray:
        """The matrix as a dense float64 array."""
        h, w = self.blocks.shape[1:]
        full = np.zeros((self.shape[0] // h, h, self.shape[1] // w, w))
        full[self.rows, :, self.cols, :] = self.blocks
        return full.reshape(self.shape)


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


def assemble_blocks(
    model: SubsystemModel, graph: NetworkGraph, weights
) -> tuple[BlockMatrix, BlockMatrix]:
    """The lumped pair of the network as ``BlockMatrix``es: N copies of
    (A, B, C) coupled by the weights.

    ``weights`` is the (M, p, r) array of the edges' weight blocks in edge
    order. The state matrix I kron A - (I kron B) L_m (I kron C) is held
    at the N diagonal blocks, A - (B L_ii) C, and then at the off-diagonal
    blocks the edges name, 0.0 - (B L_ij) C, the products associated as in
    the dense form. Its blocks are as the dense Kronecker form writes them,
    except that a structural zero is 0.0 where the dense form writes -0.0
    (a zero of a Kronecker factor met by a negative entry of A or B). The
    input matrix Delta kron B, which no weight enters, is B at the
    diagonal blocks of ``graph.driven``. A state matrix that leaves the
    float range, which finite weights can do, is refused with a
    ValueError.
    """
    weights = np.asarray(weights, dtype=float)
    want = (graph.num_edges, model.num_inputs, model.num_outputs)
    if weights.shape != want:
        raise ValueError(
            f"edge weights must have shape {want}, one block per edge in edge "
            f"order; got shape {weights.shape}"
        )
    _, p, r = want
    n_vertices, n = graph.num_vertices, model.order
    # finite weights can still overflow; the blocks are checked just below
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, lap = _laplacian_blocks(graph, weights)
        # (B L_ij) C for every nonzero block L_ij: two products over all
        # blocks side by side
        coupled = _gemm(model.b, lap.transpose(1, 0, 2).reshape(p, -1))
        stacked = coupled.reshape(n, -1, r).transpose(1, 0, 2).reshape(-1, r)
        values = _gemm(stacked, model.c).reshape(lap.shape[0], n, n)
        # then A - (B L_ii) C on the diagonal blocks, 0.0 - (B L_ij) C off it
        np.subtract(model.a, values[:n_vertices], out=values[:n_vertices])
        np.subtract(0.0, values[n_vertices:], out=values[n_vertices:])
    if not np.all(np.isfinite(values)):
        raise ValueError(
            "lumped state matrix overflows the float range: "
            "the edge weights or subsystem entries are too large"
        )
    n_states = n_vertices * n
    driven = np.array(graph.driven, dtype=np.intp) - 1
    return (
        BlockMatrix((n_states, n_states), rows, cols, values),
        BlockMatrix(
            (n_states, n_vertices * p),
            driven,
            driven,
            np.broadcast_to(model.b, (driven.size, n, p)),
        ),
    )


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


def grounding_shift(stiffness_over_mass: float, damping_over_mass: float) -> np.ndarray:
    """The 2 x 2 shift of a two-state node's diagonal block that grounds
    it to a wall: -k_1/m and -mu_1/m in its acceleration row (position and
    velocity columns). ``ground_first_vertex`` adds it to vertex 1's block
    of a state matrix whose nodes carry (position, velocity) states."""
    return np.array(
        [[0.0, 0.0], [-stiffness_over_mass, -damping_over_mass]], dtype=float
    )


def ground_first_vertex(state: BlockMatrix, shift) -> BlockMatrix:
    """``state`` with the (n, n) ``shift`` added to vertex 1's diagonal
    block, block 0, and 0.0 to every other block entry. Its dense matrix
    is bit for bit the dense ``state`` plus the shift placed at vertex 1's
    block and 0.0 elsewhere: both turn each -0.0 entry into 0.0 and leave
    every structural zero 0.0."""
    add = np.zeros(state.blocks.shape)
    add[0] = shift
    return replace(state, blocks=state.blocks + add)
