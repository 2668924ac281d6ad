"""Dense matrix utilities shared by every engine in the package.

Kronecker products, tolerance-based numerical rank, eigenvalues and their
greedy matching, the controllable dimension by block Arnoldi (the
controllability staircase's Krylov form) for one pair or a stack of pairs,
PBH controllability/observability tests, and the seeded random streams
behind every sampled draw. Everything operates on plain numpy arrays and
treats them as immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

DEFAULT_RANK_REL_TOL = 1e-9
DEFAULT_EIG_MATCH_TOL = 1e-7

#: Sampled weight magnitudes lie in [0.1, 1], so draws stay clear of zero
#: without biasing sign.
SAMPLE_GAP_FRACTION = 0.1

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_STREAM_MIX = 0x9E3779B97F4A7C15
_STREAM_FINALIZE = 0xBF58476D1CE4E5B9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds for rank and eigenvalue decisions.

    ``rank_rel_tol`` cuts singular values relative to the largest one, so
    rank verdicts are invariant under uniform scaling. ``eig_match_tol`` is
    the absolute radius used when matching or deduplicating eigenvalues.
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


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    return np.kron(np.asarray(a), np.asarray(b))


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
    for lam in sorted(vals, key=lambda z: (z.real, z.imag)):
        if not reps or abs(lam - reps[-1]) > tol.eig_match_tol:
            reps.append(complex(lam))
    return np.array(reps, dtype=complex)


def matched_eigenvalues(
    candidates, pool, tol: ToleranceConfig = DEFAULT_TOL
) -> list[complex]:
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


def spectra_match(left, right, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Multiset equality of two spectra under greedy nearest matching."""
    xs = np.atleast_1d(np.asarray(left, dtype=complex))
    ys = np.atleast_1d(np.asarray(right, dtype=complex))
    return len(xs) == len(ys) and len(matched_eigenvalues(xs, ys, tol)) == len(xs)


@dataclass(frozen=True)
class PbhCheck:
    """One PBH rank evaluation at a single eigenvalue (multiplicity kept)."""

    eigenvalue: complex
    rank: int
    full: bool


def pbh_eigen_checks(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> list[PbhCheck]:
    """Rank of [lambda*I - A, B] at every eigenvalue of A.

    Complex arithmetic throughout; one check per eigenvalue as returned by
    the spectrum routine, so repeated eigenvalues yield repeated checks.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if bm.ndim == 1:
        bm = bm[:, None]
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"PBH needs a square state matrix, got shape {am.shape}")
    n = am.shape[0]
    if bm.ndim != 2 or bm.shape[0] != n:
        raise ValueError(
            f"input matrix must have {n} rows to match the state matrix, "
            f"got shape {bm.shape}"
        )
    eye = np.eye(n, dtype=complex)
    checks = []
    for lam in eigenvalues(am):
        pencil = np.hstack([lam * eye - am, bm])
        r = numerical_rank(pencil, tol)
        checks.append(PbhCheck(complex(lam), r, r == n))
    return checks


def controllable_dimension(a, b, tol: ToleranceConfig = DEFAULT_TOL):
    """Dimension of the controllable subspace of (A, B), by block Arnoldi.

    The basis of the Krylov subspace span [B, AB, A^2 B, ...] grows one
    block per step: the next block is A times the last one, orthogonalized
    against the whole basis by two passes of classical Gram-Schmidt, and
    its SVD keeps the left singular vectors whose singular values exceed
    rank_rel_tol * max(||A||_2, ||B||_2). It stops when no singular value
    passes or every state is covered. This is the controllability
    staircase (Paige 1981; Van Dooren) in exact arithmetic: the singular
    values cut at each step are those of the staircase's input block. No
    eigenvalues are computed, and the cutoff scales with (A, B), so the
    result is invariant under uniform scaling.

    Leading axes of ``a`` (..., n, n) and ``b`` (..., n, m) are a stack of
    pairs, broadcast against each other; every member gets its own cutoff,
    all step together, and a member whose rank falls below the step's
    width carries zero columns. One pair gives an int, a stack an int
    array of the leading shape.
    """
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if bm.ndim == 1:
        bm = bm[:, None]
    if am.ndim < 2 or am.shape[-1] != am.shape[-2]:
        raise ValueError(f"staircase needs a square state matrix, got shape {am.shape}")
    n = am.shape[-1]
    if bm.ndim < 2 or bm.shape[-2] != n:
        raise ValueError(
            f"input matrix must have {n} rows to match the state matrix, "
            f"got shape {bm.shape}"
        )
    lead = np.broadcast_shapes(am.shape[:-2], bm.shape[:-2])
    done = np.zeros(lead, dtype=np.intp)
    try:
        scale = np.maximum(_spectral_norm(am), _spectral_norm(bm))
        cutoff = (tol.rank_rel_tol * scale)[..., None]
        basis = np.zeros(lead + (n, n))
        members = basis.reshape(-1, n, n)
        # an input matrix shared by the stack is decomposed once
        block = bm
        while True:
            u, sv, _ = np.linalg.svd(block, full_matrices=False)
            rho = np.minimum(np.count_nonzero(sv > cutoff, axis=-1), n - done)
            width = int(rho.max(initial=0))
            if width == 0:
                break
            kept = np.arange(width) < rho[..., None]
            fresh = u[..., :width] * kept[..., None, :]
            member, column = np.nonzero(kept.reshape(-1, width))
            members[member, :, done.reshape(-1)[member] + column] = fresh.reshape(
                -1, n, width
            )[member, :, column]
            done = done + rho
            q = basis[..., : int(done.max())]
            block = am @ fresh
            for _ in range(2):
                block = block - q @ (np.swapaxes(q, -1, -2) @ block)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"staircase SVD failed on a {n}-state pair: {exc}"
        ) from exc
    return int(done) if not lead else done


def _spectral_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack; 0 for an empty one."""
    if m.shape[-1] == 0 or m.shape[-2] == 0:
        return np.zeros(m.shape[:-2])
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def pbh_controllable(a, b, tol: ToleranceConfig = DEFAULT_TOL):
    """(controllable, deficient eigenvalues deduplicated within tolerance)."""
    checks = pbh_eigen_checks(a, b, tol)
    deficient = [c.eigenvalue for c in checks if not c.full]
    if not deficient:
        return True, ()
    return False, tuple(dedupe_eigenvalues(deficient, tol))


def pbh_observable(a, c, tol: ToleranceConfig = DEFAULT_TOL):
    """Dual PBH test: rank of [lambda*I - A; C] via transposes."""
    am = np.asarray(a)
    cm = np.asarray(c)
    if cm.ndim == 1:
        cm = cm[None, :]
    return pbh_controllable(am.T, cm.T, tol)
