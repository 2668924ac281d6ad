"""Dense linear-algebra utilities: commutation, rank, the staircase."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EVERY_TRIAL,
    commutation_matrix,
    commutation_permutation,
    dense_pair,
    loop_sample_away_from_zero,
    outcome,
    random_graph,
    random_model,
    reference_dimension,
)
from lemmas import matched_eigenvalues, numerical_rank, reachable_dimension, spectra_match
from diffnet import numerics, verdict
from diffnet.assembly import grounding_shift, sample_weights
from diffnet.cli import main
from diffnet.errors import NumericError
from diffnet.numerics import (
    DEFAULT_TOL,
    RandomSource,
    ToleranceConfig,
    controllable_dimension,
    dedupe_eigenvalues,
    eigenvalues,
    sample_away_from_zero,
    uncontrolled_part,
)
from diffnet.problem_io import mass_spring_chain
from diffnet.subsystem import SubsystemModel
from diffnet.topology import Edge, NetworkGraph
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

    def test_dedupe_keeps_a_cluster_split_by_its_conjugate(self):
        """The conjugate sorts between two members of one cluster, which
        still give one representative."""
        vals = np.array([0.5 + 0.5j, 0.50000002 - 0.5j, 0.50000003 + 0.5j])
        deduped = dedupe_eigenvalues(vals, ToleranceConfig(eig_match_tol=1e-7))
        assert deduped.tolist() == [0.5 + 0.5j, 0.50000002 - 0.5j]

    def test_dedupe_merges_a_perturbed_double_complex_pair(self):
        """A double pair a +- bi, each copy moved by under the radius: the
        four values interleave when sorted and give two representatives."""
        vals = np.array(
            [-0.3 + 2j, -0.3 + 1e-8 - 2j, -0.3 + 3e-8 + 2.00000003j, -0.3 + 4e-8 - 1.99999996j]
        )
        deduped = dedupe_eigenvalues(vals, ToleranceConfig(eig_match_tol=1e-7))
        assert len(deduped) == 2
        assert sorted(np.sign(deduped.imag).tolist()) == [-1.0, 1.0]

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


class TestPbh:
    """The cases of the PBH rank test, which decided node pairs at each
    computed eigenvalue, kept on the staircase that replaced it: the
    spectrum ``uncontrolled_part`` returns is the PBH test's deficient
    eigenvalues, with multiplicity, and empty exactly when the pair is
    controllable."""

    def test_double_integrator_controllable(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        q, deficient = uncontrolled_part(a, b)
        assert deficient.size == 0
        assert np.allclose(q.T @ q, np.eye(2))

    def test_decoupled_repeated_mode(self):
        _, deficient = uncontrolled_part(np.eye(2), np.array([[1.0], [0.0]]))
        assert len(deficient) == 1
        assert abs(deficient[0] - 1.0) < 1e-9

    def test_distinct_diagonal_with_ones_vector(self):
        assert uncontrolled_part(np.diag([1.0, 2.0]), np.ones((2, 1)))[1].size == 0

    def test_observable_examples(self):
        # (A, C) is observable exactly when the dual pair (A^T, C^T) is controllable
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert uncontrolled_part(a.T, np.eye(2))[1].size == 0
        deficient = uncontrolled_part(a.T, np.array([[0.0], [1.0]]))[1]
        assert len(deficient) == 1
        assert abs(deficient[0]) < 1e-9
        gen = RandomSource(1).generator()
        any_a = gen.normal(size=(3, 3))
        assert uncontrolled_part(any_a.T, np.eye(3))[1].size == 0

    def test_checks_keep_multiplicity(self):
        q, deficient = uncontrolled_part(np.eye(3), np.array([[1.0], [0.0], [0.0]]))
        assert q.shape == (3, 1)
        assert len(deficient) == 2
        assert np.allclose(deficient, 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            uncontrolled_part(np.eye(2), np.ones((3, 1)))

    def test_agrees_with_controllability_matrix(self):
        # integer pairs, against the exact Kalman rank of lemmas
        gen = RandomSource(33).generator()
        for trial in range(40):
            n = int(gen.integers(1, 7))
            a = gen.integers(-3, 4, size=(n, n)).astype(float)
            b = gen.integers(-3, 4, size=(n, 1)).astype(float)
            if trial % 3 == 0 and n >= 2:
                # force an uncontrollable decoupled mode
                a[n - 1, : n - 1] = 0.0
                a[: n - 1, n - 1] = 0.0
                b[n - 1, 0] = 0.0
            q, deficient = uncontrolled_part(a, b)
            exact = reachable_dimension(a, b)
            assert q.shape == (n, exact), f"trial {trial}"
            assert len(deficient) == n - exact, f"trial {trial}"

    def test_duality(self):
        # analyze reads observability of (A, C) from the same split as
        # controllability of (A^T, C^T)
        gen = RandomSource(13).generator()
        graph = NetworkGraph(2, (Edge(1, 2),), (1,))
        for _ in range(20):
            n = int(gen.integers(1, 6))
            a = gen.normal(size=(n, n))
            b = gen.normal(size=(n, 1))
            if n >= 2 and gen.random() < 0.5:
                a[0, 1:], b[0] = 0.0, 0.0  # the input misses e_1^T, a left eigenvector
            ctrb = verdict.analyze(SubsystemModel(a, b, np.ones(n)), graph)
            obsv = verdict.analyze(SubsystemModel(a.T, np.ones(n), b.T), graph)
            left = ctrb.condition("subsystem_controllable")
            right = obsv.condition("subsystem_observable")
            assert (left.holds, left.witness) == (right.holds, right.witness)


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


def svd_shapes(monkeypatch):
    """Shapes of the matrices later passed to np.linalg.svd, with whether
    singular vectors were asked for, and to the staircase's step SVD
    ``numerics._block_svd``, which always computes them."""
    svd, block_svd, shapes = np.linalg.svd, numerics._block_svd, []

    def recording(m, *args, **kwargs):
        shapes.append((np.shape(m), kwargs.get("compute_uv", True)))
        return svd(m, *args, **kwargs)

    def recording_block(m, by_norm):
        shapes.append((np.shape(m), True))
        return block_svd(m, by_norm)

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(numerics, "_block_svd", recording_block)
    return shapes


def dimension_or_error(fn, *args):
    """fn's dimensions with their type and dtype, or its error and text."""
    kind, got = outcome(fn, *args)
    if kind != "ok":
        return kind, got
    return kind, type(got), np.asarray(got).dtype, np.asarray(got).tolist()


def non_converging(block, by_norm):
    """The staircase's step SVD as it fails: LAPACK's kernel on a block of
    NaN sets the invalid flag, which is how it reports non-convergence."""
    u, sv, _ = numerics._umath_linalg.svd_s(np.full_like(block, np.nan), signature="d->ddd")
    return u, sv


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

    def test_agrees_with_the_exact_rank_on_small_pairs(self):
        gen = RandomSource(77).generator()
        seen = {True: 0, False: 0}
        for trial in range(60):
            n = int(gen.integers(1, 7))
            a = gen.integers(-3, 4, size=(n, n)).astype(float)
            b = gen.integers(-3, 4, size=(n, 1)).astype(float)
            if trial % 2 and n >= 2:
                # integer Kalman form, its controllable block of size nc
                nc = int(gen.integers(0, n))
                a[nc:, :nc], b[nc:] = 0.0, 0.0
                order = gen.permutation(n)
                a, b = a[order][:, order], b[order]
            dim = controllable_dimension(a, b)
            assert dim == reachable_dimension(a, b), f"trial {trial}"
            seen[dim == n] += 1
        assert seen[True] and seen[False]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            controllable_dimension(np.eye(2), np.ones((3, 1)))
        with pytest.raises(ValueError):
            controllable_dimension(np.ones((2, 3)), np.ones((2, 1)))

    def test_svd_failure_is_a_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # the cut takes no SVD, so only the step kernel can fail
        monkeypatch.setattr(np.linalg, "svd", fail)
        assert controllable_dimension(np.eye(2), np.ones((2, 1))) == 1
        monkeypatch.setattr(numerics, "_block_svd", fail)
        with pytest.raises(NumericError, match="staircase"):
            controllable_dimension(np.eye(2), np.ones((2, 1)))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        inputs=st.integers(1, 3),
        members=st.integers(1, 6),
        a_exp=st.integers(-200, 200),
        b_exp=st.integers(-200, 200),
    )
    def test_equals_the_reference_loop(self, seed, n, inputs, members, a_exp, b_exp):
        """Pairs that are full, deficient, zero-A or zero-B, and pairs whose
        uncontrollable part is coupled at about rank_rel_tol, so a step's
        singular value falls near its cut, each with its own B and with the
        first pair's B; scales up to 10^+-200. The whole-block step gives
        the reference loop's dimension, or the same NumericError."""
        gen = np.random.default_rng(seed)
        pairs = []
        for kind in gen.integers(0, 5, size=members):
            nc = n if kind == 0 else int(gen.integers(0, n + 1))
            a, b = planted_kalman_form(gen, n, nc, inputs)
            if kind == 4:
                a = a + 10.0 ** gen.uniform(-10.5, -7.5) * gen.normal(size=(n, n))
            a = (0.0 * a if kind == 2 else a) * 10.0**a_exp
            b = (0.0 * b if kind == 3 else b) * 10.0**b_exp
            pairs.append((a, b))
        shared = pairs[0][1]
        for args in (*pairs, *((a, shared) for a, _ in pairs)):
            assert dimension_or_error(controllable_dimension, *args) == dimension_or_error(
                reference_dimension, *args
            )

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [
            ((3, 3), (3, 0)),
            ((1, 1), (1, 0)),
            ((5, 5), (5, 0)),
            ((0, 0), (0, 1)),
            ((0, 0), (0, 0)),
            ((0, 0), (0, 3)),
            ((0, 0), (0,)),
        ],
    )
    def test_empty_operands_have_dimension_zero(self, a_shape, b_shape):
        """No input column or no state: the dimension is the int 0, as the
        reference loop gives it, with no reshape error on the way."""
        a, b = np.ones(a_shape), np.zeros(b_shape)
        got = dimension_or_error(controllable_dimension, a, b)
        assert got == dimension_or_error(reference_dimension, a, b)
        assert got == ("ok", int, np.dtype(int), 0)

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((2, 3, 3), (2, 3, 1)), ((2, 3, 3), (3, 1)), ((3, 3), (2, 3, 1)), ((1, 2, 2), (2,))],
    )
    def test_a_stack_of_pairs_is_refused(self, a_shape, b_shape):
        """One pair per call: a leading axis on either operand is a
        ValueError, before any step."""
        with pytest.raises(ValueError, match="one"):
            controllable_dimension(np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_stops_once_every_state_is_covered(self, n, monkeypatch):
        """A controllable single-input pair covers one state per step: n
        SVDs of Krylov blocks, none of B for its norm, and no empty step
        after the last."""
        shapes = svd_shapes(monkeypatch)
        a = np.diag(np.ones(n - 1), 1) + 0.5 * np.eye(n)
        b = np.eye(n)[:, -1:]
        for scaled in (a, 2.0 * a):
            shapes.clear()
            assert controllable_dimension(scaled, b) == n
            assert len(shapes) == n

    def test_one_pair_stays_two_dimensional(self, monkeypatch):
        shapes = svd_shapes(monkeypatch)
        a, b = planted_kalman_form(RandomSource(3).generator(), 8, 5)
        assert controllable_dimension(a, b) == 5
        assert shapes and all(len(shape) == 2 for shape, _ in shapes)


def svd_s_calls(monkeypatch):
    """Shapes of the blocks later passed to LAPACK's SVD kernel
    ``numerics._umath_linalg.svd_s``, by the staircase or by
    ``np.linalg.svd``."""
    kernel, shapes = numerics._umath_linalg.svd_s, []

    def recording(block, *args, **kwargs):
        shapes.append(np.shape(block))
        return kernel(block, *args, **kwargs)

    monkeypatch.setattr(numerics._umath_linalg, "svd_s", recording)
    return shapes


class TestBlockSvd:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        width=st.integers(1, 4),
        exp=st.integers(-150, 150),
        zero=st.sampled_from(["none", "one", "all"]),
        by_norm=st.booleans(),
    )
    def test_equals_np_linalg_svd_bit_for_bit(self, seed, n, width, exp, zero, by_norm):
        """Every block the staircase does not take by its norm, those of
        two or more columns and a single column where the pair's range
        rules the norm out, is decomposed by np.linalg.svd's kernel: the
        same u and singular values, bit for bit, with a zero column or a
        zero block and scales 2^+-150."""
        assume(width > 1 or not by_norm)
        gen = np.random.default_rng(seed)
        block = gen.normal(size=(n, width)) * 2.0**exp
        if zero == "all":
            block[...] = 0.0
        elif zero == "one":
            block[:, int(gen.integers(0, width))] = 0.0
        u, sv = numerics._block_svd(block, by_norm)
        want_u, want_sv, _ = np.linalg.svd(block, full_matrices=False)
        for got, want in ((u, want_u), (sv, want_sv)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        exp=st.integers(-300, 300),
        zero=st.booleans(),
    )
    def test_one_column_is_its_norm(self, seed, n, exp, zero):
        """A one-column block taken by its norm: the singular value within
        2 ulp of np.linalg.svd's and u its u up to sign, with no LAPACK
        call; a zero column keeps a zero u and raises no floating-point
        flag."""
        gen = np.random.default_rng(seed)
        block = gen.normal(size=(n, 1)) * 2.0**exp
        if zero:
            block[...] = 0.0
        want_u, want_sv, _ = np.linalg.svd(block, full_matrices=False)
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
            calls = svd_s_calls(mp)
            u, sv = numerics._block_svd(block, True)
        assert calls == []
        assert u.shape == want_u.shape and sv.shape == want_sv.shape
        sign = 0.0 if zero else np.sign(float(u[:, 0] @ want_u[:, 0]))
        assert (u == 0.0).all() if zero else sign != 0.0
        assert np.abs(u - sign * want_u).max() <= 4 * np.finfo(float).eps
        # the 2-ulp bound holds for a sum of squares taken wider than float64
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("np.longdouble is float64 here: the norm may drift 3 ulp")
        assert (np.abs(sv - want_sv) <= 2 * np.spacing(want_sv)).all()

    @pytest.mark.parametrize(
        "exp, lapack", [(-450, True), (-300, False), (0, False), (300, False), (450, True)]
    )
    def test_pairs_outside_the_norm_range_take_lapack(self, exp, lapack, monkeypatch):
        """Single-input pairs scaled by 2^exp: inside 2^+-400 every step
        is a norm and no LAPACK call is made; outside it every step takes
        the kernel, and the dimensions are still the reference loop's."""
        gen = RandomSource(41).generator()
        pairs = [planted_kalman_form(gen, 8, nc, inputs=1) for nc in (3, 6, 8)]
        pairs = [(a * 2.0**exp, b * 2.0**exp) for a, b in pairs]
        want = [reference_dimension(*pair) for pair in pairs]
        calls = svd_s_calls(monkeypatch)
        got = [controllable_dimension(*pair) for pair in pairs]
        assert got == want == [3, 6, 8]
        assert bool(calls) is lapack
        assert all(shape[-1] == 1 for shape in calls)

    def test_a_cut_below_the_norm_range_takes_lapack(self, monkeypatch):
        """A node pair's cut is rank_rel_tol itself: below 2^-400 its
        one-column steps take the kernel, with the same basis span."""
        a = np.diag(np.ones(3), 1) + 0.5 * np.eye(4)
        b = np.eye(4)[:, -1:]
        calls = svd_s_calls(monkeypatch)
        q, spectrum = uncontrolled_part(a, b)
        assert calls == [] and q.shape == (4, 4) and spectrum.size == 0
        q, spectrum = uncontrolled_part(a, b, ToleranceConfig(rank_rel_tol=2.0**-420))
        assert len(calls) == 4 and q.shape == (4, 4) and spectrum.size == 0

    def test_non_convergence_is_a_numeric_error(self, monkeypatch, capfd):
        monkeypatch.setattr(numerics, "_block_svd", non_converging)
        with pytest.raises(NumericError, match="staircase") as raised:
            controllable_dimension(np.eye(2), np.ones((2, 1)))
        assert str(raised.value) == "staircase SVD failed on a 2-state pair: SVD did not converge"
        assert capfd.readouterr().err == ""

    def test_non_convergence_is_recorded_on_its_own_trial(self, monkeypatch, capfd):
        """Only the third trial's rank test fails: its error is recorded on
        that trial, and the other trials run and pass."""
        chain = mass_spring_chain(
            6, 1.0, springs=np.linspace(1.0, 2.0, 6), dampers=np.linspace(0.1, 0.5, 6)
        )
        calls = []

        def third_fails(a, b, tol):
            calls.append(np.ndim(a))
            with pytest.MonkeyPatch.context() as mp:
                if len(calls) == 3:
                    mp.setattr(numerics, "_block_svd", non_converging)
                return controllable_dimension(a, b, tol)

        monkeypatch.setattr(verdict, "controllable_dimension", third_fails)
        cert = certify_monte_carlo(
            chain.model, chain.graph, trials=5, rng=RandomSource(1), analysis=EVERY_TRIAL
        )
        assert calls == [2] * 5
        errors = [trial.error for trial in cert.per_trial]
        assert errors[2] == "staircase SVD failed on a 12-state pair: SVD did not converge"
        assert errors[:2] + errors[3:] == [None] * 4
        assert all(trial.controllable for i, trial in enumerate(cert.per_trial) if i != 2)
        assert capfd.readouterr().err == ""


class TestNormBracket:
    """||M||_2 lies in a bracket whose top is ||M||_F. Each pair is cut
    once, at that top: rank_rel_tol * max(||A||_F, ||B||_F), from one sum
    of squares per matrix."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        inputs=st.integers(1, 3),
        members=st.integers(1, 6),
        a_exp=st.integers(-150, 150),
        b_exp=st.integers(-150, 150),
    )
    def test_dimension_equals_the_reference_staircase(
        self, seed, n, inputs, members, a_exp, b_exp
    ):
        gen = np.random.default_rng(seed)
        pairs = [
            planted_kalman_form(gen, n, int(gen.integers(0, n + 1)), inputs)
            for _ in range(members)
        ]
        shared = pairs[0][1] * 10.0**b_exp
        for a, b in pairs:
            a, b = a * 10.0**a_exp, b * 10.0**b_exp
            assert controllable_dimension(a, b) == reference_dimension(a, b)
            assert controllable_dimension(a, shared) == reference_dimension(a, shared)

    @pytest.mark.parametrize(
        "a_exp, b_exp", [(-200, -205), (-170, -172), (170, 168), (200, 195)]
    )
    def test_squares_out_of_range_resolve_exactly(self, a_exp, b_exp):
        """Entries whose squares underflow or overflow leave the sum of
        squares out of range; it is taken again, scaled by the largest
        entry, and the planted dimension still comes out."""
        gen = RandomSource(31).generator()
        for nc in (4, 7, 9):
            a, b = planted_kalman_form(gen, 10, nc)
            a, b = a * 10.0**a_exp, b * 10.0**b_exp
            assert np.einsum("ij,ij->", a, a) in (0.0, np.inf)
            assert controllable_dimension(a, b) == reference_dimension(a, b) == nc

    def test_singular_value_inside_the_bracket_is_dropped(self, monkeypatch):
        """Step 1's singular value delta lies above tol * ||A||_2 (about
        1 + delta / 2) but not above the cut tol * ||A||_F (about sqrt(3)):
        the column is dropped, and no SVD of A is taken."""
        delta = 1.5e-9
        a = np.eye(3)
        a[1, 0] = delta
        b = np.array([[1.0], [0.0], [0.0]])
        tol = DEFAULT_TOL.rank_rel_tol
        assert tol * np.linalg.norm(a, 2) < delta <= tol * np.linalg.norm(a)
        shapes = svd_shapes(monkeypatch)
        assert controllable_dimension(a, b) == 1
        assert shapes == [((3, 1), True)] * 2
        assert reference_dimension(a, b) == 1

    def test_singular_value_below_the_exact_cutoff_is_dropped(self, monkeypatch):
        """A ones block has rank one, so ||A||_F = ||A||_2 = 9, three times
        its largest column norm: step 1's singular value delta lies above
        tol times any column norm (3e-9) but below the cut (9e-9), so the
        step cannot keep its whole block, and drops the column."""
        delta = 6e-9
        a = np.zeros((10, 10))
        a[1:, 1:] = 1.0
        a[1, 0] = delta
        b = np.eye(10)[:, :1]
        tol = DEFAULT_TOL.rank_rel_tol
        assert tol * np.linalg.norm(a, axis=0).max() < delta < tol * np.linalg.norm(a)
        shapes = svd_shapes(monkeypatch)
        assert controllable_dimension(a, b) == 1
        assert shapes == [((10, 1), True)] * 2
        assert reference_dimension(a, b) == 1

    def test_zero_state_matrix_takes_no_svd_of_its_own(self, monkeypatch):
        """An exactly zero A has norm 0 with no SVD: with b = [[1]] the call
        takes one SVD, of its Krylov block, as for any other 1 x 1 A."""
        shapes = svd_shapes(monkeypatch)
        for a in (0.0, 0.5):
            shapes.clear()
            assert controllable_dimension([[a]], [[1.0]]) == 1
            assert len(shapes) == 1

    @pytest.mark.parametrize("exp", [-300, 0, 300])
    def test_zero_state_matrix_keeps_the_columns_of_b(self, exp):
        """With A exactly zero the cut is B's own, at any scale of B: the
        dimension is the rank of B, and a zero B gives 0."""
        gen = RandomSource(33).generator()
        b = gen.normal(size=(3, 5, 2)) * 10.0**exp
        b[1, :, 1] = 0.0
        b[2] = 0.0
        zero = np.zeros((5, 5))
        assert [controllable_dimension(zero, member) for member in b] == [2, 1, 0]
        assert [reference_dimension(zero, member) for member in b] == [2, 1, 0]

    def test_squares_that_underflow_do_not_make_a_matrix_zero(self):
        """Entries of 1e-300 or 1e-200 square to 0.0, yet the matrix is not
        zero: its norm is taken again, scaled. With ||A||_F far above
        ||B||_F the dimension is 0, where a zero A would keep B's
        columns."""
        gen = RandomSource(32).generator()
        a0, b0 = planted_kalman_form(gen, 4, 3)
        pairs = [(np.zeros((4, 4)), b0), (1e-300 * a0, 1e-300 * b0), (1e-200 * a0, 1e-215 * b0)]
        assert [np.einsum("ij,ij->", a, a) for a, _ in pairs] == [0.0] * 3
        dims = [controllable_dimension(*pair) for pair in pairs]
        assert dims == [reference_dimension(*pair) for pair in pairs] == [2, 3, 0]
        assert controllable_dimension(np.zeros((4, 4)), pairs[2][1]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_members_raise(self, bad):
        gen = RandomSource(12).generator()
        (a, b), (a_bad, b_good) = (planted_kalman_form(gen, 5, 4) for _ in range(2))
        a_bad[2, 3] = bad
        # a zero input matrix keeps nothing at step 0, so only the check
        # before the first step can raise
        for args in ((a_bad, b_good), (a_bad, b), (a_bad, np.zeros((5, 1)))):
            with pytest.raises(NumericError, match="non-finite state"):
                controllable_dimension(*args)
        b[4, 0] = bad
        with pytest.raises(NumericError, match="non-finite input"):
            controllable_dimension(a, b)

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


def random_network(
    gen, num_vertices: int, num_inputs: int, driven
) -> tuple[SubsystemModel, NetworkGraph]:
    """A random node on a random graph with the given driven vertices:
    undirected for several inputs, mixed for one, and not always
    connected."""
    graph = random_graph(gen, num_vertices, edge_prob=0.4, allow_directed=num_inputs == 1)
    model = random_model(gen, int(gen.integers(2, 4)), 2, num_inputs)
    return model, NetworkGraph(num_vertices, graph.edges, driven)


class TestDrivenColumns:
    """The certificate's input matrix holds the driven vertices' |D| p
    columns of Delta kron B only, and a one-column step costs a norm."""

    @pytest.mark.parametrize("flags", [[], ["--ground-first-mass"]])
    def test_chain_certificate_makes_no_lapack_call(self, flags, tmp_path, monkeypatch):
        """The 50-mass chain is single-input: every step of its certificate
        is one column. The one LAPACK call left is analyze's observability
        check of the node, whose (A^T, C^T) has two output columns."""
        problem, report = tmp_path / "chain.json", tmp_path / "report.json"
        assert main(["example", "--N", "50", "--out", str(problem)]) == 0
        calls = svd_s_calls(monkeypatch)
        assert main(["certify", str(problem), *flags, "--out", str(report)]) == 0
        assert calls == [(2, 2)]

    def test_multi_input_certificate_still_calls_lapack(self, monkeypatch):
        gen = RandomSource(24).generator()
        model, graph = random_network(gen, 24, 2, (3, 24))
        calls = svd_s_calls(monkeypatch)
        cert = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(2), analysis=EVERY_TRIAL
        )
        assert len(cert.per_trial) == 3
        assert any(shape[-2] == 24 * model.order for shape in calls)

    @pytest.mark.parametrize("inputs, driven", [(1, (4,)), (2, (2, 5)), (2, (1, 3, 6))])
    def test_staircase_takes_the_driven_columns(self, inputs, driven, monkeypatch):
        """The staircase receives the driven vertices' columns of the
        dense Delta kron B, bit for bit, in the driven set's order."""
        gen = RandomSource(len(driven)).generator()
        model, graph = random_network(gen, max(driven), inputs, driven)
        n_states = graph.num_vertices * model.order
        received = []
        staircase = numerics._staircase

        def recording(am, bm, *args):
            if am.shape[-1] == n_states:
                received.append(bm)
            return staircase(am, bm, *args)

        monkeypatch.setattr(numerics, "_staircase", recording)
        cert = certify_monte_carlo(model, graph, trials=4, rng=RandomSource(3))
        shape = (model.num_inputs, model.num_outputs)
        _, dense_b = dense_pair(model, graph, sample_weights(graph, shape, RandomSource(3)))
        columns = [(v - 1) * inputs + j for v in driven for j in range(inputs)]
        want = dense_b[:, columns]
        assert len(received) == cert.trials
        for bm in received:
            assert bm.shape == (n_states, len(driven) * inputs)
            assert bm.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shift", [None, grounding_shift(1.0, 0.1)])
    def test_each_chain_pair_enters_the_staircase_once(self, shift, monkeypatch):
        """The 50-mass chain's 5 trials, plain and, driven at the far end,
        grounded: each pair enters the staircase once, alone, and keeps one
        column per step until it covers all 100 states."""
        chain = mass_spring_chain(
            50, 1.0, springs=np.linspace(1.0, 2.0, 50), dampers=np.linspace(0.1, 0.5, 50)
        )
        graph = NetworkGraph(50, chain.graph.edges, driven=(50,))
        staircase, entered = numerics._staircase, []

        def counting(am, bm, *args):
            entered.append((am.shape, bm.shape))
            return staircase(am, bm, *args)

        monkeypatch.setattr(numerics, "_staircase", counting)
        cert = certify_monte_carlo(
            chain.model, graph, trials=5, rng=RandomSource(1), a_shift=shift,
            analysis=EVERY_TRIAL,
        )
        assert entered == [((100, 100), (100, 1))] * (5 if shift is None else 10)
        assert all(trial.controllable for trial in cert.per_trial)

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_equal_the_dense_input_reference(self, seed):
        """Per-trial deficient counts equal the reference loop's on the
        same draws with the dense (nN, Np) input matrix: random networks
        with 1-3 driven vertices, vertex N driven in every other one, and
        single-input mixed graphs."""
        gen = RandomSource(100 + seed).generator()
        inputs = 1 if seed % 4 == 3 else 2
        num_vertices = int(gen.integers(3, 8))
        driven = gen.choice(num_vertices - 1, size=int(gen.integers(1, 3)), replace=False) + 1
        driven = (*driven.tolist(), num_vertices) if seed % 2 else (*driven.tolist(),)
        model, graph = random_network(gen, num_vertices, inputs, driven)
        rng, trials = RandomSource(seed), 5
        cert = certify_monte_carlo(
            model, graph, trials=trials, rng=rng, analysis=EVERY_TRIAL
        )
        shape = (model.num_inputs, model.num_outputs)
        want = []
        for t in range(trials):
            a_sys, b_sys = dense_pair(model, graph, sample_weights(graph, shape, rng.derive(t)))
            assert b_sys.shape[-1] == num_vertices * inputs
            want.append(a_sys.shape[0] - reference_dimension(a_sys, b_sys))
        assert [trial.deficient_count for trial in cert.per_trial] == want


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
