"""Dense linear-algebra utilities: commutation, rank, PBH."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    commutation_matrix,
    commutation_permutation,
    loop_sample_away_from_zero,
)
from lemmas import matched_eigenvalues, spectra_match
from diffnet import numerics
from diffnet.assembly import mass_spring_chain
from diffnet.errors import NumericError
from diffnet.numerics import (
    DEFAULT_TOL,
    PbhCheck,
    RandomSource,
    ToleranceConfig,
    controllable_dimension,
    dedupe_eigenvalues,
    eigenvalues,
    numerical_rank,
    pbh_controllable,
    pbh_eigen_checks,
    pbh_observable,
    sample_away_from_zero,
)
from diffnet.verdict import certify_monte_carlo


class TestCommutation:
    def test_trivial_shapes_are_identity(self):
        assert np.array_equal(commutation_matrix(1, 4), np.eye(4))
        assert np.array_equal(commutation_matrix(3, 1), np.eye(3))

    def test_is_a_permutation(self):
        for m, p in [(2, 3), (4, 5), (1, 1)]:
            perm = commutation_permutation(m, p)
            assert sorted(perm) == list(range(m * p))
            dense = commutation_matrix(m, p)
            assert np.array_equal(dense @ dense.T, np.eye(m * p))

    def test_swap_identity_on_fixed_shapes(self):
        gen = RandomSource(7).generator()
        a = gen.normal(size=(2, 2))
        b = gen.normal(size=(3, 3))
        left = commutation_matrix(2, 3).T @ np.kron(a, b) @ commutation_matrix(2, 3)
        assert np.max(np.abs(left - np.kron(b, a))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 4),
        p=st.integers(1, 4),
        r=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_swap_identity_rectangular(self, m, n, p, r, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(m, n))
        b = gen.normal(size=(p, r))
        left = commutation_matrix(m, p).T @ np.kron(a, b) @ commutation_matrix(n, r)
        assert np.max(np.abs(left - np.kron(b, a))) < 1e-12


class TestNumericalRank:
    def test_known_ranks(self):
        assert numerical_rank(np.eye(3)) == 3
        assert numerical_rank(np.zeros((2, 5))) == 0
        assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_relative_tolerance_scales_with_matrix(self):
        # a uniformly tiny matrix is still full rank under a relative cutoff
        assert numerical_rank(1e-12 * np.eye(3)) == 3

    def test_rejects_empty_and_bad_shapes(self):
        with pytest.raises(ValueError):
            numerical_rank(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            numerical_rank(np.zeros(4))

    def test_decomposition_failure_is_numeric_error(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError):
            numerical_rank(bad)


class TestEigenvalues:
    def test_known_spectra(self):
        assert np.allclose(sorted(eigenvalues(np.eye(2)).real), [1.0, 1.0])
        assert np.allclose(eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])), 0.0)
        got = sorted(eigenvalues(np.diag([3.0, -1.0, 2.0])).real)
        assert np.allclose(got, [-1.0, 2.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_transpose_has_same_spectrum(self):
        gen = RandomSource(5).generator()
        for _ in range(10):
            a = gen.normal(size=(4, 4))
            assert spectra_match(eigenvalues(a), eigenvalues(a.T))

    def test_dedupe_clusters_within_tolerance(self):
        vals = np.array([1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-3])
        deduped = dedupe_eigenvalues(vals, ToleranceConfig(eig_match_tol=1e-7))
        assert len(deduped) == 3

    def test_spectra_match_detects_mismatch(self):
        assert spectra_match(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert not spectra_match(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
        assert not spectra_match(np.array([1.0]), np.array([1.0, 1.0]))

    def test_matched_eigenvalues_takes_each_partner_once(self):
        pool = np.array([2.0, 1.0 + 1e-9, 5.0])
        got = matched_eigenvalues(np.array([3.0, 1.0, 2.0, 1.0]), pool)
        # sorted candidates; the second 1.0 finds no partner left
        assert got == [1.0, 2.0]
        assert matched_eigenvalues(np.array([1.0]), np.array([])) == []


def kalman_controllable(a, b, tol=DEFAULT_TOL):
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return numerical_rank(np.hstack(blocks), tol) == n


class TestPbh:
    def test_double_integrator_controllable(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        ok, deficient = pbh_controllable(a, b)
        assert ok and deficient == ()

    def test_decoupled_repeated_mode(self):
        ok, deficient = pbh_controllable(np.eye(2), np.array([[1.0], [0.0]]))
        assert not ok
        assert len(deficient) == 1
        assert abs(deficient[0] - 1.0) < 1e-9

    def test_distinct_diagonal_with_ones_vector(self):
        ok, deficient = pbh_controllable(np.diag([1.0, 2.0]), np.ones((2, 1)))
        assert ok and deficient == ()

    def test_observable_examples(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert pbh_observable(a, np.eye(2))[0]
        ok, deficient = pbh_observable(a, np.array([[0.0, 1.0]]))
        assert not ok
        assert abs(deficient[0]) < 1e-9
        gen = RandomSource(1).generator()
        any_a = gen.normal(size=(3, 3))
        assert pbh_observable(any_a, np.eye(3))[0]

    def test_checks_keep_multiplicity(self):
        checks = pbh_eigen_checks(np.eye(2), np.array([[1.0], [0.0]]))
        assert len(checks) == 2
        assert all(isinstance(c, PbhCheck) and not c.full for c in checks)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pbh_controllable(np.eye(2), np.ones((3, 1)))

    def test_agrees_with_controllability_matrix(self):
        gen = RandomSource(33).generator()
        for trial in range(40):
            n = int(gen.integers(1, 7))
            a = gen.normal(size=(n, n))
            b = gen.normal(size=(n, 1))
            if trial % 3 == 0 and n >= 2:
                # force an uncontrollable decoupled mode
                a = np.zeros((n, n))
                a[: n - 1, : n - 1] = gen.normal(size=(n - 1, n - 1))
                a[n - 1, n - 1] = gen.normal()
                b[n - 1, 0] = 0.0
            assert pbh_controllable(a, b)[0] == kalman_controllable(a, b)

    def test_duality(self):
        gen = RandomSource(13).generator()
        for _ in range(20):
            n = int(gen.integers(1, 6))
            a = gen.normal(size=(n, n))
            b = gen.normal(size=(n, 1))
            assert pbh_controllable(a, b)[0] == pbh_observable(a.T, b.T)[0]


def planted_kalman_form(gen, n, nc, inputs=2):
    """Random pair whose controllable subspace has dimension exactly nc.

    Built in Kalman form (A[nc:, :nc] = 0, B[nc:] = 0) with a generic
    controllable block, then hidden by a random orthogonal similarity.
    """
    a = gen.normal(size=(n, n))
    a[nc:, :nc] = 0.0
    b = np.zeros((n, inputs))
    b[:nc] = gen.normal(size=(nc, inputs))
    q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    return q @ a @ q.T, q @ b


def exact_norm_dimension(a, b):
    """The dimension with every member's ||A||_2 taken by SVD: the bracket
    forced to (0, inf) says nothing, so each member resolves at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            numerics,
            "_norm_bracket",
            lambda m: (np.zeros(m.shape[:-2]), np.full(m.shape[:-2], np.inf)),
        )
        return controllable_dimension(a, b)


def svd_shapes(monkeypatch):
    """Shapes of the matrices later passed to np.linalg.svd, with whether
    singular vectors were asked for."""
    svd, shapes = np.linalg.svd, []

    def recording(m, *args, **kwargs):
        shapes.append((np.shape(m), kwargs.get("compute_uv", True)))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


class TestControllableDimension:
    @pytest.mark.parametrize("n, nc", [(30, 20), (60, 45), (100, 99)])
    def test_planted_kalman_form(self, n, nc):
        gen = RandomSource(n * 1000 + nc).generator()
        a, b = planted_kalman_form(gen, n, nc)
        assert controllable_dimension(a, b) == nc

    def test_zero_input_and_vector_input(self):
        a = np.array([[0.0, 1.0], [-2.0, -0.5]])
        assert controllable_dimension(a, np.zeros((2, 1))) == 0
        assert controllable_dimension(np.zeros((2, 2)), np.zeros((2, 1))) == 0
        assert controllable_dimension(a, np.array([0.0, 1.0])) == 2
        assert controllable_dimension(np.eye(2), np.array([1.0, 0.0])) == 1

    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    def test_uniform_scaling_keeps_the_dimension(self, factor):
        gen = RandomSource(5).generator()
        a, b = planted_kalman_form(gen, 40, 25)
        assert controllable_dimension(factor * a, factor * b) == 25
        assert controllable_dimension(factor * a, b) == 25
        assert controllable_dimension(a, factor * b) == 25

    def test_agrees_with_pbh_on_small_pairs(self):
        gen = RandomSource(77).generator()
        seen = {True: 0, False: 0}
        for trial in range(60):
            n = int(gen.integers(1, 7))
            if trial % 2 and n >= 2:
                a, b = planted_kalman_form(gen, n, int(gen.integers(0, n)), inputs=1)
            else:
                a, b = gen.normal(size=(n, n)), gen.normal(size=(n, 1))
            full = controllable_dimension(a, b) == n
            assert full == pbh_controllable(a, b)[0], f"trial {trial}"
            seen[full] += 1
        assert seen[True] and seen[False]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            controllable_dimension(np.eye(2), np.ones((3, 1)))
        with pytest.raises(ValueError):
            controllable_dimension(np.ones((2, 3)), np.ones((2, 1)))

    def test_svd_failure_is_a_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericError, match="staircase"):
            controllable_dimension(np.eye(2), np.ones((2, 1)))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        inputs=st.integers(1, 3),
        members=st.integers(1, 6),
    )
    def test_stack_equals_one_call_per_member(self, seed, n, inputs, members):
        """Members of one stack with different planted dimensions, so they
        stop at different steps and carry zero columns past their rank."""
        gen = np.random.default_rng(seed)
        pairs = [
            planted_kalman_form(gen, n, int(gen.integers(0, n + 1)), inputs)
            for _ in range(members)
        ]
        a = np.stack([pair[0] for pair in pairs])
        b = np.stack([pair[1] for pair in pairs])
        alone = [controllable_dimension(*pair) for pair in pairs]
        assert all(type(dim) is int for dim in alone)
        stacked = controllable_dimension(a, b)
        assert stacked.shape == (members,)
        assert stacked.tolist() == alone
        # one input matrix broadcast against a stack of state matrices
        shared = [controllable_dimension(pair[0], b[0]) for pair in pairs]
        assert controllable_dimension(a, b[0]).tolist() == shared

    def test_leading_axes_are_kept(self):
        gen = RandomSource(8).generator()
        pairs = [planted_kalman_form(gen, 6, nc) for nc in range(6)]
        a = np.stack([pair[0] for pair in pairs]).reshape(2, 3, 6, 6)
        b = np.stack([pair[1] for pair in pairs]).reshape(2, 3, 6, 2)
        assert controllable_dimension(a, b).tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_stops_once_every_state_is_covered(self, n, monkeypatch):
        """A controllable single-input pair covers one state per step: n
        SVDs of Krylov blocks, one of B for ||B||_2, and no empty step
        after the last."""
        shapes = svd_shapes(monkeypatch)
        a = np.diag(np.ones(n - 1), 1) + 0.5 * np.eye(n)
        b = np.eye(n)[:, -1:]
        assert controllable_dimension(a, b) == n
        assert len(shapes) == n + 1
        shapes.clear()
        stacked = controllable_dimension(np.stack([a, 2.0 * a]), b)
        assert stacked.tolist() == [n, n]
        assert len(shapes) == n + 1

    def test_one_pair_stays_two_dimensional(self, monkeypatch):
        shapes = svd_shapes(monkeypatch)
        a, b = planted_kalman_form(RandomSource(3).generator(), 8, 5)
        assert controllable_dimension(a, b) == 5
        assert shapes and all(len(shape) == 2 for shape, _ in shapes)


class TestNormBracket:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        inputs=st.integers(1, 3),
        members=st.integers(1, 6),
        a_exp=st.integers(-150, 150),
        b_exp=st.integers(-150, 150),
    )
    def test_dimension_equals_the_exact_norm_rule(
        self, seed, n, inputs, members, a_exp, b_exp
    ):
        gen = np.random.default_rng(seed)
        pairs = [
            planted_kalman_form(gen, n, int(gen.integers(0, n + 1)), inputs)
            for _ in range(members)
        ]
        a = np.stack([pair[0] for pair in pairs]) * 10.0**a_exp
        b = np.stack([pair[1] for pair in pairs]) * 10.0**b_exp
        assert controllable_dimension(a, b).tolist() == exact_norm_dimension(a, b).tolist()
        assert controllable_dimension(a, b[0]).tolist() == exact_norm_dimension(a, b[0]).tolist()
        assert controllable_dimension(a[0], b[0]) == exact_norm_dimension(a[0], b[0])

    def test_bracket_holds_the_norm_or_says_nothing(self):
        """Within the range where squares neither overflow nor underflow the
        bracket holds ||M||_2; outside it, it is (0, inf)."""
        gen = RandomSource(30).generator()
        m = gen.normal(size=(4, 9, 9))
        for exp in range(-300, 301, 10):
            low, high = numerics._norm_bracket(m * 10.0**exp)
            if abs(exp) <= 130:
                norm = np.linalg.norm(m * 10.0**exp, 2, axis=(-2, -1))
                assert (0.0 < low).all() and (low <= norm).all() and (norm <= high).all()
            elif abs(exp) >= 160:
                assert (low == 0.0).all() and (high == np.inf).all()

    @pytest.mark.parametrize("a_exp, b_exp", [(-200, -205), (-170, -172), (200, 195)])
    def test_squares_out_of_range_resolve_exactly(self, a_exp, b_exp):
        """Entries whose squares underflow or overflow give no bracket; the
        planted dimension still comes out, by the exact norm."""
        gen = RandomSource(31).generator()
        planted = [4, 7, 9]
        pairs = [planted_kalman_form(gen, 10, nc) for nc in planted]
        a = np.stack([pair[0] for pair in pairs]) * 10.0**a_exp
        b = np.stack([pair[1] for pair in pairs]) * 10.0**b_exp
        assert controllable_dimension(a, b).tolist() == planted
        assert exact_norm_dimension(a, b).tolist() == planted

    def test_singular_value_inside_the_bracket_is_resolved_exactly(self, monkeypatch):
        """Step 1's singular value delta lies above tol * ||A||_2 (about
        1 + delta / 2) but below tol * ||A||_F (about sqrt(3)): the column is
        kept, after one SVD of A for its exact norm."""
        delta = 1.5e-9
        a = np.eye(3)
        a[1, 0] = delta
        b = np.array([[1.0], [0.0], [0.0]])
        tol = DEFAULT_TOL.rank_rel_tol
        assert tol * np.linalg.norm(a, 2) < delta <= tol * np.linalg.norm(a)
        shapes = svd_shapes(monkeypatch)
        assert controllable_dimension(a, b) == 2
        assert [shape for shape, uv in shapes if not uv].count((3, 3)) == 1
        assert exact_norm_dimension(a, b) == 2

    def test_zero_state_matrix_takes_no_svd_of_its_own(self, monkeypatch):
        """An exactly zero A has the exact bracket (0, 0): with b = [[1]]
        the call takes the SVD of b for ||B||_2 and one of its Krylov
        block, as for any other 1 x 1 A, and none of A."""
        shapes = svd_shapes(monkeypatch)
        for a in (0.0, 0.5):
            shapes.clear()
            assert controllable_dimension([[a]], [[1.0]]) == 1
            assert len(shapes) == 2

    def test_squares_that_underflow_do_not_make_a_matrix_zero(self):
        """Entries of 1e-300 or 1e-200 square to 0.0, yet the matrix is not
        zero: its bracket says nothing and the dimension is the exact
        norm's. With ||A||_2 far above ||B||_2 that dimension is 0, where
        a zero A would keep B's columns."""
        gen = RandomSource(32).generator()
        a0, b0 = planted_kalman_form(gen, 4, 3)
        a = np.stack([np.zeros((4, 4)), 1e-300 * a0, 1e-200 * a0])
        b = np.stack([b0, 1e-300 * b0, 1e-215 * b0])
        low, high = numerics._norm_bracket(a)
        assert low.tolist() == [0.0] * 3 and high.tolist() == [0.0, np.inf, np.inf]
        dims = controllable_dimension(a, b)
        assert dims.tolist() == exact_norm_dimension(a, b).tolist() == [2, 3, 0]
        assert controllable_dimension(np.zeros((4, 4)), b[2]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_members_raise(self, bad):
        gen = RandomSource(12).generator()
        pairs = [planted_kalman_form(gen, 5, 4) for _ in range(3)]
        a = np.stack([pair[0] for pair in pairs])
        b = np.stack([pair[1] for pair in pairs])
        a[1, 2, 3] = bad
        # a zero input matrix decides nothing at step 0 at either end of
        # the bracket, so only the check before the first step can raise
        for args in ((a, b), (a, b[0]), (a[1], b[1]), (a[1], np.zeros((5, 1)))):
            with pytest.raises(NumericError, match="staircase"):
                controllable_dimension(*args)
        b[0, 4, 0] = bad
        with pytest.raises(NumericError, match="staircase"):
            controllable_dimension(a[0], b[0])

    def test_chain_certificate_takes_no_svd_of_a_state_matrix(self, monkeypatch):
        chain = mass_spring_chain(
            50, 1.0, springs=np.linspace(1.0, 2.0, 50), dampers=np.linspace(0.1, 0.5, 50)
        )
        shapes = svd_shapes(monkeypatch)
        cert = certify_monte_carlo(
            chain.model, chain.graph, trials=5, rng=RandomSource(1)
        )
        assert all(trial.controllable for trial in cert.per_trial)
        assert shapes and all(shape[-2:] != (100, 100) for shape, _ in shapes)


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(99).generator().normal(size=8)
        b = RandomSource(99).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        base = RandomSource(4)
        x = base.derive(0).generator().normal(size=8)
        y = base.derive(1).generator().normal(size=8)
        assert not np.array_equal(x, y)

    def test_derive_is_stable(self):
        assert RandomSource(4).derive(2).stream_id == RandomSource(4).derive(2).stream_id

    def test_sample_away_from_zero_matches_the_reference_bit_for_bit(self):
        gen = np.random.default_rng(5)
        for case in range(100):
            shape = [5, (3,), (2, 3), (1, 4)][case % 4]
            count = int(gen.integers(0, 6))
            seed = int(gen.integers(0, 2**31))
            got = sample_away_from_zero(np.random.default_rng(seed), shape)
            ref = np.random.default_rng(seed)
            want = loop_sample_away_from_zero(ref, shape)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            batch = sample_away_from_zero(np.random.default_rng(seed), shape, count=count)
            ref = np.random.default_rng(seed)
            want = [loop_sample_away_from_zero(ref, shape) for _ in range(count)]
            assert batch.shape == (count, *np.broadcast_shapes(shape))
            for block, w in zip(batch, want):
                assert block.view(np.uint64).tolist() == w.view(np.uint64).tolist()

    def test_sample_away_from_zero_bounds(self):
        gen = RandomSource(0).generator()
        draws = sample_away_from_zero(gen, (1000,))
        mags = np.abs(draws)
        assert np.all(mags >= 0.1 - 1e-12)
        assert np.all(mags <= 1.0 + 1e-12)
        assert (draws < 0).any() and (draws > 0).any()


class TestToleranceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rel_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rel_tol=1.5)
        with pytest.raises(ValueError):
            ToleranceConfig(eig_match_tol=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eig_match_tol"):
                ToleranceConfig(eig_match_tol=bad)
        cfg = ToleranceConfig()
        assert 0 < cfg.rank_rel_tol < 1 and cfg.eig_match_tol > 0
