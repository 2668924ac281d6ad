"""Node-level dynamics: the checked node model and its fixed modes.

A ``SubsystemModel`` is checked once, when it is built, and holds read-only
float64 copies of its matrices, so every model in hand is valid. Its
fixed modes are the Kalman split of two staircase calls
(``numerics.uncontrolled_part``): the uncontrolled part of (A, B), then
the unobserved part of its controllable part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError
from .numerics import DEFAULT_TOL, ToleranceConfig, uncontrolled_part


def _read_only(value, fallback_orientation: str | None = None) -> np.ndarray:
    """A read-only float64 copy of ``value``; a 1-D value becomes a
    "column" or a "row" when ``fallback_orientation`` names one."""
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False  # and so is a view of it
    if arr.ndim == 1 and fallback_orientation:
        arr = arr[:, None] if fallback_orientation == "column" else arr[None, :]
    return arr


def _violations(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[str]:
    """Structural violations of the triple; empty means it is usable."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return [f"state matrix must be square, got shape {a.shape}"]
    violations: list[str] = []
    n = a.shape[0]
    if n < 1:
        violations.append("state dimension must be at least 1")
    if b.ndim != 2 or b.shape[0] != n:
        violations.append(f"input matrix must have {n} rows, got shape {b.shape}")
    if c.ndim != 2 or c.shape[1] != n:
        violations.append(f"output matrix must have {n} columns, got shape {c.shape}")
    for name, mat in (("state", a), ("input", b), ("output", c)):
        if mat.size and not np.all(np.isfinite(mat)):
            violations.append(f"{name} matrix contains non-finite entries")
    if c.ndim == 2 and c.shape[1] == n:
        for k in range(c.shape[0]):
            if not np.any(c[k]):
                violations.append(f"output row {k + 1} is identically zero")
    return violations


@dataclass(frozen=True)
class SubsystemModel:
    """Identical node dynamics (A, B, C).

    A is the n x n state matrix, B the n x p input matrix (p = 1 for the
    single-input case), and C the r x n output-coupling matrix whose rows
    are the coupling channels. 1-D inputs are accepted as a column (B) or a
    row (C). An invalid triple (A not square or empty, B or C of the wrong
    size, a non-finite entry, a zero row of C) raises
    ``ModelValidationError`` with one text per violation. The matrices are
    held as read-only float64 copies.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a, b, c = _read_only(self.a), _read_only(self.b, "column"), _read_only(self.c, "row")
        violations = _violations(a, b, c)
        if violations:
            raise ModelValidationError(violations)
        for name, value in (("a", a), ("b", b), ("c", c)):
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.c.shape[0]


def fixed_modes(
    model: SubsystemModel, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[complex, ...]:
    """Fixed modes of (A, B, C) under unconstrained static output feedback.

    With a full feedback matrix the fixed modes are exactly the modes that
    are uncontrollable or unobservable (the Kalman split): the spectrum of
    the uncontrolled part of (A, B), then that of the unobserved part of
    the controllable part (Q^T A Q, C Q), Q its basis, multiplicity kept,
    so a mode both uncontrollable and unobservable is counted once. Empty
    exactly when (A, B) is controllable and (A, C) observable.
    """
    q, uncontrolled = uncontrolled_part(model.a, model.b, tol)
    _, unobserved = uncontrolled_part(q.T @ model.a.T @ q, (model.c @ q).T, tol)
    return tuple(complex(z) for z in (*uncontrolled, *unobserved))
