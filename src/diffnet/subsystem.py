"""Node-level dynamics: model validation and the classical controllability,
observability, and fixed-mode tests used by the network criteria. The
fixed modes are decided by PBH ranks alone."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError
from .numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    eigenvalues,
    numerical_rank,
    pbh_controllable,
    pbh_observable,
)


def _as_2d(value, fallback_orientation: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None] if fallback_orientation == "column" else arr[None, :]
    return arr


@dataclass(frozen=True)
class SubsystemModel:
    """Identical node dynamics (A, B, C).

    A is the n x n state matrix, B the n x p input matrix (p = 1 for the
    single-input case), and C the r x n output-coupling matrix whose rows
    are the coupling channels. 1-D inputs are accepted as a column (B) or a
    row (C).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", _as_2d(self.b, "column"))
        object.__setattr__(self, "c", _as_2d(self.c, "row"))

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.c.shape[0]


def validate_model(model: SubsystemModel) -> tuple[str, ...]:
    """Structural violations as values; empty means the model is usable."""
    violations: list[str] = []
    a, b, c = model.a, model.b, model.c
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        violations.append(f"state matrix must be square, got shape {a.shape}")
        return tuple(violations)
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
    return tuple(violations)


def require_valid(model: SubsystemModel) -> None:
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations)


def check_controllable(model: SubsystemModel, tol: ToleranceConfig = DEFAULT_TOL):
    """(controllable, deficient eigenvalues) for the pair (A, B)."""
    return pbh_controllable(model.a, model.b, tol)


def check_observable(model: SubsystemModel, tol: ToleranceConfig = DEFAULT_TOL):
    """(observable, deficient eigenvalues) for the pair (A, C)."""
    return pbh_observable(model.a, model.c, tol)


def fixed_modes(
    model: SubsystemModel, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[complex, ...]:
    """Fixed modes of (A, B, C) under unconstrained static output feedback.

    With a full feedback matrix the fixed modes are exactly the modes that
    are uncontrollable or unobservable: the eigenvalues of A at which the
    pair (A, B) or (A, C) loses PBH rank, multiplicity preserved. Empty
    exactly when (A, B) is controllable and (A, C) observable.
    """
    require_valid(model)
    a, b, c = model.a, model.b, model.c
    n = model.order
    eye = np.eye(n, dtype=complex)
    modes: list[complex] = []
    for lam in eigenvalues(a):
        ctrb_rank = numerical_rank(np.hstack([lam * eye - a, b.astype(complex)]), tol)
        obsv_rank = numerical_rank(np.vstack([lam * eye - a, c.astype(complex)]), tol)
        if ctrb_rank < n or obsv_rank < n:
            modes.append(complex(lam))
    return tuple(modes)
