"""Node model validation and classical controllability / fixed-mode tests."""

import numpy as np
import pytest

from conftest import random_model, uncontrollable_model, unobservable_model
from diffnet.errors import ModelValidationError
from diffnet.numerics import RandomSource
from diffnet.subsystem import (
    SubsystemModel,
    check_controllable,
    check_observable,
    fixed_modes,
    require_valid,
    validate_model,
)
from lemmas import randomized_fixed_modes, spectra_match


def double_integrator() -> SubsystemModel:
    return SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], np.eye(2))


class TestModelCoercion:
    def test_one_dimensional_inputs_get_oriented(self):
        m = double_integrator()
        assert m.a.shape == (2, 2)
        assert m.b.shape == (2, 1)  # 1-D b becomes a column
        assert m.c.shape == (2, 2)
        assert m.order == 2 and m.num_inputs == 1 and m.num_outputs == 2

    def test_one_dimensional_c_becomes_row(self):
        m = SubsystemModel(np.eye(3), np.ones(3), [1.0, 0.0, 2.0])
        assert m.c.shape == (1, 3)
        assert np.array_equal(m.c, [[1.0, 0.0, 2.0]])


class TestValidation:
    def test_clean_model_passes(self):
        assert validate_model(double_integrator()) == ()
        require_valid(double_integrator())

    def test_non_square_state_matrix(self):
        bad = SubsystemModel(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)))
        violations = validate_model(bad)
        assert len(violations) == 1
        assert "square" in violations[0]

    def test_input_row_count_mismatch(self):
        bad = SubsystemModel(np.eye(2), np.ones(3), np.eye(2))
        assert any("input matrix" in v for v in validate_model(bad))

    def test_output_column_count_mismatch(self):
        bad = SubsystemModel(np.eye(2), np.ones(2), np.ones((1, 3)))
        assert any("output matrix" in v for v in validate_model(bad))

    def test_zero_output_row_flagged(self):
        bad = SubsystemModel(np.eye(2), np.ones(2), [[1.0, 0.0], [0.0, 0.0]])
        assert any("row 2" in v for v in validate_model(bad))

    def test_non_finite_entries_flagged(self):
        bad = SubsystemModel([[0.0, np.nan], [0.0, 0.0]], np.ones(2), np.eye(2))
        assert any("non-finite" in v for v in validate_model(bad))

    def test_require_valid_raises_with_violations(self):
        bad = SubsystemModel(np.eye(2), np.ones(3), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ModelValidationError) as exc:
            require_valid(bad)
        assert len(exc.value.violations) == 2


class TestClassicalChecks:
    def test_double_integrator_controllable_observable(self):
        m = double_integrator()
        assert check_controllable(m) == (True, ())
        assert check_observable(m) == (True, ())

    def test_decoupled_mode_breaks_controllability(self):
        gen = np.random.default_rng(5)
        for order in (2, 3, 4):
            m = uncontrollable_model(gen, order, 1)
            ok, deficient = check_controllable(m)
            assert not ok and len(deficient) >= 1

    def test_decoupled_mode_breaks_observability(self):
        gen = np.random.default_rng(6)
        for order in (2, 3, 4):
            m = unobservable_model(gen, order, 2)
            ok, deficient = check_observable(m)
            assert not ok and len(deficient) >= 1


class TestFixedModes:
    """The PBH fixed modes, each checked against randomized output
    feedback (``lemmas.randomized_fixed_modes``)."""

    def test_controllable_observable_model_has_none(self):
        model = double_integrator()
        assert fixed_modes(model) == ()
        assert randomized_fixed_modes(model, RandomSource(0)) == []

    def test_uncontrollable_mode_is_fixed(self):
        m = SubsystemModel(np.diag([1.0, 2.0]), [1.0, 0.0], [[1.0, 0.0]])
        modes = fixed_modes(m)
        assert len(modes) == 1
        assert abs(modes[0] - 2.0) < 1e-9
        assert spectra_match(modes, randomized_fixed_modes(m, RandomSource(0)))

    def test_zero_input_fixes_whole_spectrum(self):
        m = SubsystemModel(np.diag([1.0, -3.0]), np.zeros((2, 1)), np.eye(2))
        modes = fixed_modes(m)
        assert spectra_match(modes, np.array([1.0, -3.0], dtype=complex))
        assert spectra_match(modes, randomized_fixed_modes(m, RandomSource(0)))

    def test_empty_iff_controllable_and_observable(self):
        gen = np.random.default_rng(33)
        rng = RandomSource(90)
        agreements = 0
        for i in range(40):
            order = int(gen.integers(1, 6))
            kind = i % 3
            if kind == 0 or order == 1:
                m = random_model(gen, order, int(gen.integers(1, 3)))
            elif kind == 1:
                m = uncontrollable_model(gen, order, int(gen.integers(1, 3)))
            else:
                m = unobservable_model(gen, order, int(gen.integers(1, 3)))
            modes = fixed_modes(m)
            both = check_controllable(m)[0] and check_observable(m)[0]
            assert (not modes) == both
            agreements += spectra_match(modes, randomized_fixed_modes(m, rng.derive(i)))
        # the randomized cross-check is generic, not exact; expect near-total agreement
        assert agreements >= 38

    def test_input_scaling_leaves_fixed_modes_unchanged(self):
        gen = np.random.default_rng(12)
        m = uncontrollable_model(gen, 3, 2)
        scaled = SubsystemModel(m.a, 7.5 * m.b, m.c)
        assert spectra_match(fixed_modes(m), fixed_modes(scaled))

    def test_rejects_invalid_model(self):
        bad = SubsystemModel(np.eye(2), np.ones(3), np.eye(2))
        with pytest.raises(ModelValidationError):
            fixed_modes(bad)
