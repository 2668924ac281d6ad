"""Node model validation and classical controllability / fixed-mode tests."""

import dataclasses

import numpy as np
import pytest

from conftest import random_model, uncontrollable_model, unobservable_model
from diffnet.cli import main
from diffnet.errors import ModelValidationError
from diffnet.numerics import RandomSource, pbh_controllable, pbh_observable
from diffnet.subsystem import SubsystemModel, fixed_modes
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


#: invalid triples and the violation texts they are refused with
INVALID_TRIPLES = {
    "non-square A": (
        (np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2))),
        ("state matrix must be square, got shape (2, 3)",),
    ),
    "B row count": (
        (np.eye(2), np.ones(3), np.eye(2)),
        ("input matrix must have 2 rows, got shape (3, 1)",),
    ),
    "C column count": (
        (np.eye(2), np.ones(2), np.ones((1, 3))),
        ("output matrix must have 2 columns, got shape (1, 3)",),
    ),
    "non-finite entry": (
        ([[0.0, np.nan], [0.0, 0.0]], np.ones(2), np.eye(2)),
        ("state matrix contains non-finite entries",),
    ),
    "zero C row": (
        (np.eye(2), np.ones(2), [[1.0, 0.0], [0.0, 0.0]]),
        ("output row 2 is identically zero",),
    ),
    "zero only C row": (
        (np.eye(2), np.ones(2), [[0.0, 0.0]]),
        ("output row 1 is identically zero",),
    ),
    "several at once": (
        ([[0.0, np.inf], [0.0, 0.0]], np.ones((3, 1)), [[0.0, 0.0], [np.nan, 1.0]]),
        (
            "input matrix must have 2 rows, got shape (3, 1)",
            "state matrix contains non-finite entries",
            "output matrix contains non-finite entries",
            "output row 1 is identically zero",
        ),
    ),
}


class TestValidation:
    def test_clean_model_passes(self):
        m = double_integrator()
        again = dataclasses.replace(m)  # a valid model rebuilds
        for mine, its in ((m.a, again.a), (m.b, again.b), (m.c, again.c)):
            assert np.array_equal(mine, its)

    def test_non_square_state_matrix(self):
        with pytest.raises(ModelValidationError) as exc:
            SubsystemModel(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2)))
        assert len(exc.value.violations) == 1
        assert "square" in exc.value.violations[0]

    def test_input_row_count_mismatch(self):
        with pytest.raises(ModelValidationError, match="input matrix"):
            SubsystemModel(np.eye(2), np.ones(3), np.eye(2))

    def test_output_column_count_mismatch(self):
        with pytest.raises(ModelValidationError, match="output matrix"):
            SubsystemModel(np.eye(2), np.ones(2), np.ones((1, 3)))

    def test_zero_output_row_flagged(self):
        with pytest.raises(ModelValidationError, match="row 2"):
            SubsystemModel(np.eye(2), np.ones(2), [[1.0, 0.0], [0.0, 0.0]])

    def test_non_finite_entries_flagged(self):
        with pytest.raises(ModelValidationError, match="non-finite"):
            SubsystemModel([[0.0, np.nan], [0.0, 0.0]], np.ones(2), np.eye(2))

    def test_every_violation_is_raised_together(self):
        with pytest.raises(ModelValidationError) as exc:
            SubsystemModel(np.eye(2), np.ones(3), [[1.0, 0.0], [0.0, 0.0]])
        assert len(exc.value.violations) == 2

    @pytest.mark.parametrize("case", list(INVALID_TRIPLES))
    def test_invalid_triple_is_refused_when_built(self, case):
        triple, violations = INVALID_TRIPLES[case]
        with pytest.raises(ModelValidationError) as exc:
            SubsystemModel(*triple)
        assert exc.value.violations == violations
        assert str(exc.value) == "invalid subsystem model: " + "; ".join(violations)

    def test_replace_is_checked_too(self):
        with pytest.raises(ModelValidationError) as exc:
            dataclasses.replace(double_integrator(), c=[[0.0, 0.0]])
        assert exc.value.violations == ("output row 1 is identically zero",)

    def test_matrices_are_read_only_copies(self):
        c = np.eye(2)
        m = SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], c)
        c[1, 1] = 0.0  # the model holds its own copy
        assert np.array_equal(m.c, np.eye(2))
        for mat in (m.a, m.b, m.c):
            assert mat.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = np.nan
        with pytest.raises(ValueError):
            m.b.flags.writeable = True  # a view of a read-only copy

    def test_cli_refuses_a_zero_output_row(self, tmp_path, capsys):
        path = tmp_path / "zero_row.json"
        path.write_text(
            '{"$schema":"diffnet-problem/v1","driven":[1],'
            '"graph":{"N":2,"edges":[{"kind":"undirected","u":1,"v":2}]},'
            '"subsystem":{"A":[[0.0,1.0],[0.0,0.0]],"B":[[0.0],[1.0]],'
            '"C":[[1.0,0.0],[0.0,0.0]]}}'
        )
        assert main(["analyze", str(path)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "diffnet: error: invalid subsystem: output row 2 is identically zero\n"


class TestClassicalChecks:
    def test_double_integrator_controllable_observable(self):
        m = double_integrator()
        assert pbh_controllable(m.a, m.b) == (True, ())
        assert pbh_observable(m.a, m.c) == (True, ())

    def test_decoupled_mode_breaks_controllability(self):
        gen = np.random.default_rng(5)
        for order in (2, 3, 4):
            m = uncontrollable_model(gen, order, 1)
            ok, deficient = pbh_controllable(m.a, m.b)
            assert not ok and len(deficient) >= 1

    def test_decoupled_mode_breaks_observability(self):
        gen = np.random.default_rng(6)
        for order in (2, 3, 4):
            m = unobservable_model(gen, order, 2)
            ok, deficient = pbh_observable(m.a, m.c)
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
            both = pbh_controllable(m.a, m.b)[0] and pbh_observable(m.a, m.c)[0]
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
        with pytest.raises(ModelValidationError):
            fixed_modes(SubsystemModel(np.eye(2), np.ones(3), np.eye(2)))
