"""Dense matrix utilities shared by every engine in the package.

Kronecker products, tolerance-based numerical rank, eigenvalues and their
greedy matching, the controllable dimension by orthogonal staircase, PBH
controllability/observability tests, and the seeded random streams behind
every sampled draw. Everything operates on plain numpy arrays and treats
them as immutable values.
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


def controllable_dimension(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the controllable subspace of (A, B), by orthogonal staircase.

    Each step takes an SVD of the current input block, keeps the rho singular
    values above rank_rel_tol * max(||A||_2, ||B||_2), and rotates the states
    not yet covered by its left singular vectors U, so that the next input
    block is A[done+rho:, done:done+rho]. It stops when rho = 0 or every
    state is covered (Paige 1981; Van Dooren). No eigenvalues are computed, and the
    cutoff scales with (A, B), so the result is invariant under uniform
    scaling.
    """
    am = np.array(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if bm.ndim == 1:
        bm = bm[:, None]
    if am.ndim != 2 or am.shape[0] != am.shape[1]:
        raise ValueError(f"staircase needs a square state matrix, got shape {am.shape}")
    n = am.shape[0]
    if bm.ndim != 2 or bm.shape[0] != n:
        raise ValueError(
            f"input matrix must have {n} rows to match the state matrix, "
            f"got shape {bm.shape}"
        )
    try:
        scale = max((np.linalg.norm(m, 2) for m in (am, bm) if m.size), default=0.0)
        cutoff = tol.rank_rel_tol * scale
        done = 0
        block = bm
        while done < n:
            u, sv, _ = np.linalg.svd(block)
            rho = int(np.count_nonzero(sv > cutoff))
            if rho == 0:
                break
            am[done:, done:] = u.T @ am[done:, done:] @ u
            block = am[done + rho :, done : done + rho]
            done += rho
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"staircase SVD failed on a {n}-state pair: {exc}"
        ) from exc
    return done


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
