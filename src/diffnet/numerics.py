"""Dense matrix utilities shared by every engine in the package.

Eigenvalues and their deduplication; the one rank engine, block Arnoldi
on the controllable subspace (the controllability staircase's Krylov
form), whose one-column steps take the column's norm (while the pair's
scale and cut lie inside 2^+-400) and whose other steps call LAPACK's
SVD kernel directly, all under one errstate: ``controllable_dimension``
for one pair, cut once at rank_rel_tol times the larger Frobenius norm
of its state and input matrices, and ``uncontrolled_part``, which
decides a node pair on its matrices normalised one by one and returns
the controllable basis with the spectrum left outside it; and the
seeded random streams behind every sampled draw. Everything operates on
plain numpy arrays and treats them as immutable values."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericError

DEFAULT_RANK_REL_TOL = 1e-9
DEFAULT_EIG_MATCH_TOL = 1e-7

#: Sampled weight magnitudes lie in [0.1, 1], so draws stay clear of zero
#: without biasing sign.
SAMPLE_GAP_FRACTION = 0.1

#: Sums of n^2 squares at least this large have lost under n^2 2^-175 of
#: their value to squares that underflowed (each loses at most 2^-1075).
_SQUARES_MIN = 2.0**-900

#: A staircase whose cut is at least 1 / _NORM_RANGE and whose scale is
#: at most _NORM_RANGE takes a one-column step's singular value as a plain
#: norm: no block it meets has a square above 2^800, and a column that
#: decides against the cut has a sum of squares of at least 2^-800, of
#: which squares that underflowed lost under n 2^-274.
_NORM_RANGE = 2.0**400
_SMALLEST_NORMAL = 2.0**-1022

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_STREAM_MIX = 0x9E3779B97F4A7C15
_STREAM_FINALIZE = 0xBF58476D1CE4E5B9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds for rank and eigenvalue decisions.

    ``rank_rel_tol`` cuts the staircase's singular values relative to a
    scale of the pair, so rank verdicts are invariant under uniform
    scaling: for a node pair, A and B (or A^T and C^T) are each normalised
    by their own Frobenius norm, so the scale is 1; for the certificate's
    lumped pairs it is the larger of ||A||_F and ||B||_F of the pair.
    ``eig_match_tol`` is the absolute radius used when deduplicating
    eigenvalues.
    """

    rank_rel_tol: float = DEFAULT_RANK_REL_TOL
    eig_match_tol: float = DEFAULT_EIG_MATCH_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_rel_tol < 1.0:
            raise ValueError(
                f"rank_rel_tol must lie strictly in (0, 1), got {self.rank_rel_tol}"
            )
        if not 0.0 < self.eig_match_tol < math.inf:
            raise ValueError(
                f"eig_match_tol must be positive and finite, got {self.eig_match_tol}"
            )


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class RandomSource:
    """Deterministic random stream.

    Identical (seed, stream_id) pairs produce identical draw sequences;
    distinct stream ids are statistically independent, so parallel trials
    can each take their own derived source.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        root = np.random.SeedSequence(
            self.seed & _UINT64_MASK, spawn_key=(self.stream_id & _UINT64_MASK,)
        )
        return np.random.default_rng(root)

    def derive(self, index: int) -> "RandomSource":
        """Child source whose stream is disjoint from other indices."""
        mixed = (self.stream_id ^ ((index + 1) * _STREAM_MIX)) & _UINT64_MASK
        mixed = (mixed * _STREAM_FINALIZE + 1) & _UINT64_MASK
        return RandomSource(self.seed, mixed)


def sample_away_from_zero(
    gen: np.random.Generator, shape, count: int | None = None
) -> np.ndarray:
    """Uniform draw on [-1, -0.1] U [0.1, 1]: one uniform per entry for its
    magnitude, then one per entry for its sign.

    With ``count``, ``count`` such draws stacked along a new first axis,
    taken in one call from the stream that ``count`` calls without it read.
    """
    lead = () if count is None else (count,)
    raw = gen.random(lead + (2,) + np.broadcast_shapes(shape))
    uniform, flip = np.moveaxis(raw, len(lead), 0)
    magnitude = SAMPLE_GAP_FRACTION + (1.0 - SAMPLE_GAP_FRACTION) * uniform
    return np.where(flip < 0.5, -magnitude, magnitude)


def eigenvalues(matrix) -> np.ndarray:
    """Spectrum with multiplicity, as a complex vector."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {m.shape}")
    try:
        return np.asarray(np.linalg.eigvals(m), dtype=complex)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigenvalue iteration failed on a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc


def dedupe_eigenvalues(values, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """One representative per cluster of eigenvalues within eig_match_tol."""
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    reps: list[complex] = []
    # a value joins any representative within the radius, not only the
    # last: its conjugate can sort between two members of one cluster
    for lam in sorted(vals, key=lambda z: (z.real, z.imag)):
        if all(abs(lam - rep) > tol.eig_match_tol for rep in reps):
            reps.append(complex(lam))
    return np.array(reps, dtype=complex)


def controllable_dimension(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the controllable subspace of one pair (A, B), by block
    Arnoldi.

    The basis of the Krylov subspace span [B, AB, A^2 B, ...] grows one
    block per step: the next block is A times the last one, orthogonalized
    against the whole basis by two passes of classical Gram-Schmidt, and
    its SVD keeps the left singular vectors whose singular values exceed
    the pair's one cut, rank_rel_tol * max(||A||_F, ||B||_F). A block of
    one column, as every step of a single-input pair has, is its own SVD:
    its norm against the cut (``_block_svd``), unless the pair's scale or
    cut lies outside 2^+-400, where every step takes LAPACK. It stops
    when no singular value passes, or as soon as the basis covers every
    state: a further step could only keep nothing. This is the
    controllability staircase (Paige 1981; Van Dooren) in exact
    arithmetic: the singular values cut at each step are those of the
    staircase's input block. No eigenvalues are computed, and the cut
    scales with (A, B), so the result is invariant under uniform scaling.

    ``a`` is (n, n) and ``b`` (n, m), or a vector of n entries for one
    input; anything else is refused with a ValueError. The cut is taken
    once, before the first step, from one sum of squares of each matrix
    (``_frobenius``). The Frobenius norm bounds the 2-norm from above, at
    most sqrt(rank) times it, so no SVD of A or B is taken. NaN or inf
    entries raise ``NumericError``. The iteration is ``_staircase``, which
    ``uncontrolled_part`` runs too.
    """
    am, bm = _operands(a, b)
    scale = max(_frobenius(am, "state"), _frobenius(bm, "input"))
    return _staircase(am, bm, scale, tol)[0]


def uncontrolled_part(a, b, tol: ToleranceConfig = DEFAULT_TOL):
    """(Q, spectrum) of one pair (A, B): an orthonormal basis Q (n, k) of
    its controllable subspace, and the eigenvalues of its uncontrolled
    part Q_perp^T A Q_perp, where Q_perp completes Q to an orthonormal
    basis, with multiplicity. The spectrum is empty exactly when the pair
    is controllable, and names the modes the input cannot move.

    Q is the basis that ``_staircase`` fills for (A / ||A||_F, B / ||B||_F),
    each matrix scaled by its own Frobenius norm and a zero matrix left as
    it is: the scaling leaves the Krylov span unchanged, so the cut is
    rank_rel_tol against each matrix normalised alone, however far apart
    the scales of A and B lie. No eigenvalue of A enters the decision.
    """
    am, bm = _operands(a, b)
    norms = _frobenius(am, "state"), _frobenius(bm, "input")
    unit = [m / norm if norm else m for m, norm in zip((am, bm), norms)]
    # the larger norm of the pair is 1 (a zero B keeps nothing at any cut)
    done, basis = _staircase(*unit, 1.0, tol)
    q = basis[:, :done]
    if done == am.shape[0]:
        return q, np.empty(0, dtype=complex)
    rest = np.linalg.qr(q, mode="complete").Q[:, done:]
    return q, eigenvalues(rest.T @ am @ rest)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) as float arrays, a 1-D B as a column, checked to be one
    square (n, n) matrix and one (n, m) matrix."""
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if bm.ndim == 1:
        bm = bm[:, None]
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(
            f"staircase needs one square state matrix, got shape {am.shape}"
        )
    n = am.shape[0]
    if bm.ndim != 2 or bm.shape[0] != n:
        raise ValueError(
            f"input matrix must be one matrix with {n} rows to match the state "
            f"matrix, got shape {bm.shape}"
        )
    return am, bm


def _staircase(
    am: np.ndarray, bm: np.ndarray, scale: float, tol: ToleranceConfig
) -> tuple[int, np.ndarray]:
    """Block Arnoldi on one pair (n, n), (n, m): (kept count, basis), as
    ``controllable_dimension`` describes the iteration, cut at
    rank_rel_tol * scale. A one-column step takes its norm while the cut
    and the scale lie inside ``_NORM_RANGE``.

    The basis is (n, n), the kept columns first and zeros after. It is
    stored row-major, row j its j-th vector, so each Gram-Schmidt pass
    reads one contiguous k x n block; the transposed view is returned.

    Most steps keep their whole block. One comparison finds such a step:
    the smallest singular value exceeds the cut, and the block fits in the
    states left; such a step takes no count. Each step's SVD is
    ``_block_svd``; one errstate around the whole iteration turns the
    LAPACK kernel's non-convergence flag into the same ``NumericError``
    that ``np.linalg.svd``'s error gave. The new block's Gram-Schmidt
    passes subtract in place.
    """
    n = am.shape[0]
    cut = tol.rank_rel_tol * scale
    by_norm = cut >= 1.0 / _NORM_RANGE and scale <= _NORM_RANGE
    done = 0
    rows = np.zeros((n, n))
    block = bm
    try:
        with np.errstate(
            call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
        ):
            while True:
                u, sv = _block_svd(block, by_norm)
                width = sv.shape[0]
                # a step that keeps its whole block needs no count
                if not (0 < width <= n - done and sv[-1] > cut):
                    width = min(int(np.count_nonzero(sv > cut)), n - done)
                    if width == 0:
                        break
                fresh = u[:, :width]
                rows[done : done + width] = fresh.T
                done += width
                if done == n:
                    break
                q = rows[:done]
                block = am @ fresh
                for _ in range(2):
                    block -= q.T @ (q @ block)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"staircase SVD failed on a {n}-state pair: {exc}"
        ) from exc
    return done, rows.T


def _frobenius(m: np.ndarray, what: str) -> float:
    """Frobenius norm of one matrix, from one sum of squares.

    A sum that overflows, is not finite, or is small enough to have lost
    squares to underflow is taken again from the matrix scaled by its
    largest entry, so an exactly zero matrix has norm 0 and a tiny one
    does not. NaN or inf entries raise ``NumericError``, naming the
    ``what`` matrix.
    """
    squares = float(np.einsum("ij,ij->", m, m))
    if _SQUARES_MIN <= squares < math.inf:
        return math.sqrt(squares)
    if not np.isfinite(m).all():
        raise NumericError(
            f"staircase met a non-finite {what} matrix ({m.shape[0]} states)"
        )
    top = float(np.abs(m).max(initial=0.0)) or 1.0
    scaled = m / top
    return top * math.sqrt(float(np.einsum("ij,ij->", scaled, scaled)))


def _svd_failed(err: str, flag: int) -> None:
    """errstate callback: LAPACK's SVD kernel flags non-convergence as an
    invalid operation; the words are ``np.linalg.svd``'s."""
    raise np.linalg.LinAlgError("SVD did not converge")


def _block_svd(block: np.ndarray, by_norm: bool) -> tuple[np.ndarray, np.ndarray]:
    """Thin SVD (u, singular values) of one float64 block (n, w).

    With ``by_norm``, a block of one column is its own SVD: its singular
    value is its norm, the square root of one sum of squares, and u is the
    column divided by it; a zero column stays zero, with no 0/0. The sum
    is taken in np.longdouble, so that where that type is wider than
    float64 the norm is rounded once, within 2 ulp of gesdd's, where a
    float64 sum drifts 3 ulp from it by 21 rows. Both that bound and the
    step's speed were measured only with the 80-bit x87 long double of
    x86-64 Linux; where the type is float64 the 3-ulp drift returns, and
    where it is a software quad (aarch64 Linux) the cost is unmeasured.
    The caller sets ``by_norm`` only where no sum of squares can overflow
    or lose a square that matters against the cut (``_NORM_RANGE``).

    Every other block takes the LAPACK kernel that
    ``np.linalg.svd(block, full_matrices=False)`` calls, with the same
    bits, without that wrapper's type checks, copies and errstate: the
    caller's errstate must turn the invalid flag it raises on
    non-convergence into an error (``_svd_failed``).
    """
    if by_norm and block.shape[1] == 1:
        wide = block.astype(np.longdouble)
        sv = np.sqrt(np.vecdot(wide, wide, axis=0)).astype(np.float64)
        # the smallest normal float divides a zero column into zeros
        return block / np.maximum(sv, _SMALLEST_NORMAL), sv
    u, sv, _ = _umath_linalg.svd_s(block, signature="d->ddd")
    return u, sv
