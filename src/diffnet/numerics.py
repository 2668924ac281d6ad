"""Dense matrix utilities shared by every engine in the package.

Tolerance-based numerical rank, eigenvalues and their deduplication,
the controllable dimension by block Arnoldi (the controllability
staircase's Krylov form) for one pair or a stack of pairs, whose cutoff's
||A||_2 is bracketed by sums of squares and taken by SVD only for a member
whose step the bracket cannot decide, and whose steps call LAPACK's SVD
kernel directly under one errstate, PBH controllability/observability
tests, and the seeded random streams behind every sampled draw. Everything
operates on plain numpy arrays and treats them as immutable values.
"""

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

#: Relative widening of the bracket on ||A||_2: far above the rounding of
#: the sums of squares and of LAPACK's largest singular value.
_BRACKET_SLACK = 1e-6
#: Sums of n^2 squares at least this large have lost under n^2 2^-175 of
#: their value to squares that underflowed (each loses at most 2^-1075).
_SQUARES_MIN = 2.0**-900

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
    passes, or as soon as every member covers every state: a further step
    could only keep nothing. This is the controllability
    staircase (Paige 1981; Van Dooren) in exact arithmetic: the singular
    values cut at each step are those of the staircase's input block. No
    eigenvalues are computed, and the cutoff scales with (A, B), so the
    result is invariant under uniform scaling.

    ||B||_2 is taken by SVD. ||A||_2 is first only bracketed, from the
    sums of squares of its columns and rows (``_norm_bracket``); a step
    whose count of kept singular values is the same at both ends of the
    bracket has the count the exact cutoff gives. Only a member with a
    singular value inside its bracket, or whose sums of squares cannot be
    trusted and which is not exactly zero, has ||A||_2 taken by SVD, and
    from then on uses the exact cutoff. NaN or inf entries raise
    ``NumericError``.

    Leading axes of ``a`` (..., n, n) and ``b`` (..., n, m) are a stack of
    pairs, broadcast against each other; every member gets its own cutoff,
    all step together, and a member whose rank falls below the step's
    width carries zero columns. One pair gives an int, a stack an int
    array of the leading shape.

    Most steps keep every member's whole block. One comparison finds such
    a step: every member's smallest singular value exceeds the top of its
    bracket, and the block fits in the states left. It then takes no
    count at either end of the bracket and resolves no cutoff, and while
    every member has kept as many columns as the rest, the number kept is
    one int. Each step's SVD is the LAPACK kernel behind ``np.linalg.svd``
    (``_block_svd``), with the same bits; one errstate around the whole
    iteration turns the kernel's non-convergence flag into the same
    ``NumericError`` that ``np.linalg.svd``'s error gave. The new block's
    Gram-Schmidt passes subtract in place.
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
    # a stack runs flat: operands (T, n, .) and bookkeeping (T,)
    if am.ndim > 2:
        am = np.broadcast_to(am, lead + am.shape[-2:]).reshape(-1, n, n)
    if bm.ndim > 2:
        bm = np.broadcast_to(bm, lead + bm.shape[-2:]).reshape(-1, n, bm.shape[-1])
    count = math.prod(lead)
    # while every member has kept as many columns as the rest, that count;
    # from the first step that splits them, each member's count
    done = 0
    aligned = True
    try:
        if not np.isfinite(bm).all():
            raise NumericError(f"staircase met a non-finite input matrix ({n} states)")
        norm_b = np.broadcast_to(_spectral_norm(bm), (count,))
        low, high = _norm_bracket(am)
        # each member's cutoff at the top and at the bottom of its bracket
        cuts = np.empty((2, count, 1))
        cuts[0, :, 0] = np.maximum(high, norm_b)
        cuts[1, :, 0] = np.maximum(low, norm_b)
        cuts *= tol.rank_rel_tol
        _resolve_cutoffs(am, norm_b, cuts, ~np.isfinite(cuts[0, :, 0]), tol)
        basis = np.zeros(((count,) if lead else ()) + (n, n))
        members = basis.reshape(-1, n, n)
        # an input matrix shared by the stack is decomposed once
        block = bm
        with np.errstate(
            call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
        ):
            while True:
                u, sv, _ = _block_svd(block)
                width = sv.shape[-1]
                # a step where every member keeps its whole block at the top
                # of its bracket needs no count and no cutoff resolved
                if not (
                    aligned
                    and 0 < width <= n - done
                    and (sv[..., -1:] > cuts[0]).all()
                ):
                    room = n - done
                    strict, loose = (sv > cuts).sum(axis=-1)
                    rho = np.minimum(strict, room)
                    unsure = (loose > strict) & (strict < room)
                    if unsure.any():
                        _resolve_cutoffs(am, norm_b, cuts, unsure, tol)
                        rho = np.minimum((sv > cuts[0]).sum(axis=-1), room)
                    width = int(rho.max(initial=0))
                    if width == 0:
                        break
                    if aligned and int(rho.min()) < width:
                        done, aligned = np.full(count, done, dtype=np.intp), False
                if aligned:
                    fresh = u[..., :width]
                    basis[..., done : done + width] = fresh
                    done += width
                    if done == n:
                        break
                    q = basis[..., :done]
                else:
                    kept = np.arange(width) < rho[:, None]
                    fresh = u[..., :width] * kept[..., None, :]
                    member, column = np.nonzero(kept)
                    members[member, :, done[member] + column] = fresh[member, :, column]
                    done = done + rho
                    if int(done.min()) == n:
                        break
                    q = basis[..., : int(done.max())]
                qt = np.swapaxes(q, -1, -2)
                block = am @ fresh
                for _ in range(2):
                    block -= q @ (qt @ block)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"staircase SVD failed on a {n}-state pair: {exc}"
        ) from exc
    if aligned:
        # one pair is always aligned, so it gives an int
        return np.full(lead, done, dtype=np.intp) if lead else done
    return done.reshape(lead)


def _svd_failed(err: str, flag: int) -> None:
    """errstate callback: LAPACK's SVD kernel flags non-convergence as an
    invalid operation; the words are ``np.linalg.svd``'s."""
    raise np.linalg.LinAlgError("SVD did not converge")


def _block_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, singular values, vh) of each matrix of a float64 stack.

    The LAPACK kernel that ``np.linalg.svd(block, full_matrices=False)``
    calls, with the same bits, without that wrapper's type checks, copies
    and errstate: the caller's errstate must turn the invalid flag it
    raises on non-convergence into an error (``_svd_failed``).
    """
    return _umath_linalg.svd_s(block, signature="d->ddd")


def _resolve_cutoffs(
    am: np.ndarray,
    norm_b: np.ndarray,
    cuts: np.ndarray,
    pick: np.ndarray,
    tol: ToleranceConfig,
) -> None:
    """Sets both cutoffs of the picked members to the exact one,
    rank_rel_tol * max(||A||_2, ||B||_2), by SVD of their state matrices."""
    if not pick.any():
        return
    picked = am[pick] if am.ndim > 2 else am
    if not np.isfinite(picked).all():
        raise NumericError(
            f"staircase met a non-finite state matrix ({am.shape[-1]} states)"
        )
    scale = np.maximum(_spectral_norm(picked), norm_b[pick])
    cuts[:, pick, 0] = tol.rank_rel_tol * scale


def _norm_bracket(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds low <= ||M||_2 <= high for each matrix of a stack.

    low is the largest column or row 2-norm, high the Frobenius norm, both
    from sums of squares taken without an (..., n, n) temporary and
    widened by ``_BRACKET_SLACK``. Where the sums overflow, are not
    finite, or are small enough to have lost squares to underflow, the
    bracket is (0, inf): it says nothing. A matrix that is exactly zero,
    whose squares are 0 without any loss, has the exact bracket (0, 0).
    """
    cols = np.einsum("...ij,...ij->...j", m, m)
    rows = np.einsum("...ij,...ij->...i", m, m)
    low2 = np.maximum(cols.max(axis=-1, initial=0.0), rows.max(axis=-1, initial=0.0))
    high2 = cols.sum(axis=-1)
    trusted = (low2 >= _SQUARES_MIN) & (high2 < math.inf)
    # squares of tiny entries underflow to 0, so only the entries themselves
    # show a matrix to be zero; they are read for the untrusted members only
    zero = np.zeros_like(trusted)
    if not trusted.all():
        zero[~trusted] = ~m[~trusted].any(axis=(-2, -1))
    low = np.where(trusted, np.sqrt(low2) * (1.0 - _BRACKET_SLACK), 0.0)
    high = np.where(
        trusted,
        np.sqrt(high2) * (1.0 + _BRACKET_SLACK),
        np.where(zero, 0.0, math.inf),
    )
    return low, high


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
