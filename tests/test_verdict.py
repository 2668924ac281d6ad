"""Verdict engines, Monte Carlo certification, and the restated lemmas."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import diffnet.verdict

from conftest import (
    EVERY_TRIAL,
    count_calls,
    dense_pair,
    dense_wall_shift,
    ensure_incoming_influence,
    integer_node,
    random_driven,
    random_graph,
    random_model,
    verdict_bool,
)
from diffnet.assembly import grounding_shift, sample_weights
from diffnet.cli import main
from diffnet.numerics import RandomSource, controllable_dimension
from diffnet.problem_io import load_problem, mass_spring_chain
from diffnet.subsystem import SubsystemModel, fixed_modes
from diffnet.topology import DIRECTED, Edge, NetworkGraph, spanning_forest
from diffnet.verdict import (
    AnalysisReport,
    TrialResult,
    Verdict,
    analyze,
    certify_monte_carlo,
)
from lemmas import (
    cycles_input_reachable,
    generic_ranks,
    leader_controls_consensus,
    pattern_pairs,
    randomized_fixed_modes,
    reachable_dimension,
    scalar_weight_analysis,
    spectra_match,
    summed_row,
    summed_row_model,
)


def double_integrator(c=None) -> SubsystemModel:
    return SubsystemModel(
        [[0.0, 1.0], [0.0, 0.0]],
        [0.0, 1.0],
        np.eye(2) if c is None else c,
    )


def chain_graph(n: int, driven=(1,)) -> NetworkGraph:
    return NetworkGraph(n, tuple(Edge(i, i + 1) for i in range(1, n)), driven)


class TestSingleInputAnalysis:
    def test_chain_is_structurally_controllable(self):
        report = analyze(double_integrator(), chain_graph(4))
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "1"
        assert all(rec.holds for rec in report.conditions)
        assert {rec.name for rec in report.conditions} == {
            "subsystem_controllable",
            "subsystem_observable",
            "globally_input_reachable",
        }

    def test_velocity_only_coupling_fails_observability(self):
        model = double_integrator(c=[[0.0, 1.0]])
        report = analyze(model, chain_graph(3))
        assert report.verdict is Verdict.NOT_CONTROLLABLE
        rec = report.condition("subsystem_observable")
        assert not rec.holds
        (lam,) = rec.witness["deficient_eigenvalues"]
        assert abs(lam) < 1e-7

    def test_reversed_directed_chain_unreachable(self):
        g = NetworkGraph(3, (Edge(2, 1, DIRECTED), Edge(3, 2, DIRECTED)), driven=(1,))
        report = analyze(double_integrator(), g)
        assert report.verdict is Verdict.NOT_CONTROLLABLE
        assert report.theorem_used == "2"
        rec = report.condition("globally_input_reachable")
        assert rec.witness == {"unreachable_vertices": (2, 3)}
        assert any("directed" in note for note in report.notes)

    def test_nobody_driven_is_never_controllable(self):
        report = analyze(double_integrator(), chain_graph(2, driven=()))
        assert report.verdict is Verdict.NOT_CONTROLLABLE
        rec = report.condition("globally_input_reachable")
        assert rec.witness == {"unreachable_vertices": (1, 2)}

    def test_everyone_driven_reduces_to_the_node_test(self):
        report = analyze(
            double_integrator(), chain_graph(3, driven=(1, 2, 3))
        )
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "trivial-case"
        assert len(report.conditions) == 1

        broken = SubsystemModel(np.eye(2), [1.0, 0.0], np.eye(2))
        report = analyze(broken, chain_graph(2, driven=(1, 2)))
        assert report.verdict is Verdict.NOT_CONTROLLABLE

    def test_condition_lookup_raises_on_unknown_name(self):
        report = analyze(double_integrator(), chain_graph(2))
        with pytest.raises(KeyError):
            report.condition("no_such_condition")


class TestMatrixWeightAnalysis:
    def test_no_fixed_mode_and_reachable_is_controllable(self):
        model = SubsystemModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        report = analyze(model, chain_graph(3))
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "3"
        assert report.condition("no_fixed_mode").holds

    def test_unreachable_topology_is_decisive(self):
        model = SubsystemModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        g = NetworkGraph(3, (Edge(1, 2),), driven=(1,))
        report = analyze(model, g)
        assert report.verdict is Verdict.NOT_CONTROLLABLE
        assert report.condition("globally_input_reachable").witness == {
            "unreachable_vertices": (3,)
        }

    def test_fixed_mode_on_reachable_topology_is_inconclusive(self):
        # second state decoupled from both input and output: a fixed mode at 2
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0, 0.5], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [1.0, 0.0]])
        model = SubsystemModel(a, b, c)
        report = analyze(model, chain_graph(2))
        assert report.verdict is Verdict.INCONCLUSIVE
        rec = report.condition("no_fixed_mode")
        assert not rec.holds
        assert any(abs(z - 2.0) < 1e-7 for z in rec.witness["fixed_modes"])
        assert report.notes

    def test_everyone_driven_reduces_to_the_node_test(self):
        model = SubsystemModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        report = analyze(model, chain_graph(2, driven=(1, 2)))
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "trivial-case"

    def test_rejects_directed_edges_with_guidance(self):
        model = SubsystemModel(np.eye(2), np.eye(2), np.eye(2))
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED),), driven=(1,))
        with pytest.raises(ValueError, match="single-input"):
            analyze(model, g)

    def test_dispatcher_picks_engine_by_input_count(self):
        simo = analyze(double_integrator(), chain_graph(2))
        assert simo.theorem_used == "1"
        mimo_model = SubsystemModel([[0.0, 1.0], [-1.0, 0.0]], np.eye(2), np.eye(2))
        mimo = analyze(mimo_model, chain_graph(2))
        assert mimo.theorem_used == "3"


#: nodes with a zero state or input matrix, single- and multi-input
ZERO_NODES = {
    "A = 0": SubsystemModel(np.zeros((2, 2)), [1.0, 0.0], [[1.0, 1.0]]),
    "B = 0": SubsystemModel([[0.0, 1.0], [-2.0, -3.0]], np.zeros(2), [[1.0, 0.0]]),
    "A = 0, B = 0, p = 2": SubsystemModel(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)),
    "B = 0, p = 2": SubsystemModel([[0.0, 1.0], [-2.0, -3.0]], np.zeros((2, 2)), np.eye(2)),
}


class TestZeroNodeMatrices:
    """The node check normalises each matrix by its Frobenius norm, and a
    zero matrix is left as it is rather than divided by its norm."""

    @pytest.mark.parametrize("driven", [(1,), (1, 2)], ids=["one driven", "all driven"])
    @pytest.mark.parametrize("name", ZERO_NODES)
    def test_witnesses_are_finite_without_a_warning(self, name, driven):
        model = ZERO_NODES[name]
        with np.errstate(all="raise"):
            report = analyze(model, chain_graph(2, driven))
            modes = fixed_modes(model)
        assert report.verdict is not Verdict.CONTROLLABLE
        witnesses = [rec.witness for rec in report.conditions if not rec.holds]
        assert witnesses
        for witness in witnesses:
            (values,) = witness.values()
            assert values and np.isfinite(values).all()
        assert modes
        assert spectra_match(modes, randomized_fixed_modes(model, RandomSource(0)))


class TestCertification:
    def test_controllable_chain_every_trial_passes(self):
        """Against its CONTROLLABLE verdict the chain's certificate stops
        at trial 0, which is controllable; run in full, all 5 are."""
        model, g = double_integrator(), chain_graph(3)
        analysis = analyze(model, g)
        cert = certify_monte_carlo(model, g, trials=5, rng=RandomSource(42))
        assert cert.trials == 1 and len(cert.per_trial) == 1
        assert cert.any_controllable
        assert cert.compared_verdict == analysis.verdict.value
        assert cert.agree_with_verdict
        full = certify_monte_carlo(
            model, g, trials=5, rng=RandomSource(42), analysis=EVERY_TRIAL
        )
        assert full.trials == 5 and len(full.per_trial) == 5
        assert full.per_trial[:1] == cert.per_trial
        assert all(t.controllable for t in full.per_trial)
        assert all(t.deficient_count == 0 for t in full.per_trial)

    def test_not_verdict_agrees_when_no_trial_is_controllable(self):
        model = double_integrator(c=[[0.0, 1.0]])
        cert = certify_monte_carlo(
            model, chain_graph(3), trials=5, rng=RandomSource(1)
        )
        assert not cert.any_controllable
        assert cert.agree_with_verdict
        assert cert.compared_verdict == Verdict.NOT_CONTROLLABLE.value

    def test_broken_topology_deficiency_scales_with_cut_off_states(self):
        # vertex 3 cut off: its whole node block stays input-free every draw
        g = NetworkGraph(3, (Edge(1, 2),), driven=(1,))
        cert = certify_monte_carlo(
            double_integrator(), g, trials=4, rng=RandomSource(9)
        )
        for t in cert.per_trial:
            assert t.controllable is False
            assert t.deficient_count >= 2

    def test_single_vertex_network(self):
        g = NetworkGraph(1, driven=(1,))
        cert = certify_monte_carlo(
            double_integrator(), g, trials=2, rng=RandomSource(3)
        )
        assert cert.any_controllable and cert.agree_with_verdict

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            certify_monte_carlo(
                double_integrator(), chain_graph(2), trials=0
            )

    def test_trials_are_checked_before_the_analysis(self):
        # analyze would refuse this multi-input model on a directed graph
        model = SubsystemModel(np.eye(2), np.eye(2), np.eye(2))
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED),), driven=(1,))
        with pytest.raises(ValueError, match="single-input"):
            analyze(model, g)
        with pytest.raises(ValueError, match="at least one trial, got 0"):
            certify_monte_carlo(model, g, trials=0)

    def test_doctored_analysis_is_reported_as_disagreement(self):
        model = double_integrator(c=[[0.0, 1.0]])
        fake = AnalysisReport(Verdict.CONTROLLABLE, "1", ())
        cert = certify_monte_carlo(
            model, chain_graph(3), trials=3, analysis=fake
        )
        assert not cert.any_controllable
        assert not cert.agree_with_verdict

    def test_inconclusive_verdict_cannot_be_contradicted(self):
        fake = AnalysisReport(Verdict.INCONCLUSIVE, "3", ())
        cert = certify_monte_carlo(
            double_integrator(), chain_graph(2), trials=2, analysis=fake
        )
        assert cert.agree_with_verdict

    def test_state_shift_certifies_grounded_variant(self):
        """The shifted trials are reported in ``grounded``, beside the
        plain ones, and compared with the same verdict."""
        chain = mass_spring_chain(3, 1.0, springs=(1.0, 2.0, 3.0), dampers=(0.1, 0.2, 0.3))
        cert = certify_monte_carlo(
            chain.model,
            chain.graph,
            trials=3,
            rng=RandomSource(5),
            a_shift=grounding_shift(**chain.options["wall"]),
            analysis=EVERY_TRIAL,
        )
        grounded = cert.grounded
        assert grounded is not None and grounded.grounded is None
        assert grounded.trials == 3 and len(grounded.per_trial) == 3
        assert grounded.any_controllable and grounded.agree_with_verdict
        assert grounded.compared_verdict == cert.compared_verdict
        assert [t.stream_id for t in grounded.per_trial] == [
            t.stream_id for t in cert.per_trial
        ]

    def test_unshifted_call_has_no_grounded_part(self):
        cert = certify_monte_carlo(
            double_integrator(), chain_graph(2), trials=2
        )
        assert cert.grounded is None

    def test_state_shift_shape_is_checked(self, monkeypatch):
        """A shift that is not one (n, n) block, the whole (nN, nN) state
        matrix's among them, is refused before anything is drawn or
        assembled."""
        calls = []

        def count(*args, **kwargs):
            calls.append(args)
            raise AssertionError("assembled before the shift was checked")

        monkeypatch.setattr(diffnet.verdict, "assemble_blocks", count)
        for shape in ((4, 4), (2,), (1, 2, 2)):
            with pytest.raises(ValueError, match="shift"):
                certify_monte_carlo(
                    double_integrator(),
                    chain_graph(2),
                    trials=1,
                    a_shift=np.zeros(shape),
                )
        assert calls == []

    def test_report_attachment(self):
        model, g = double_integrator(), chain_graph(2)
        report = analyze(model, g)
        cert = certify_monte_carlo(model, g, trials=2, analysis=report)
        assert report.certification is None
        merged = report.with_certification(cert)
        assert merged.certification is cert
        assert merged.verdict is report.verdict


def mixed_instance(seed: int):
    """A random single- or multi-input triple on a random mixed graph."""
    gen = np.random.default_rng(seed)
    inputs = int(gen.integers(1, 3))
    graph = random_graph(gen, 5, edge_prob=0.6, allow_directed=inputs == 1)
    model = random_model(gen, 3, 2, num_inputs=inputs)
    driven = random_driven(gen, 5, allow_full=False)
    return model, dataclasses.replace(graph, driven=driven)


def random_shift(model: SubsystemModel, seed: int):
    """A random shift of vertex 1's diagonal block, coupling every pair of
    its states."""
    n = model.order
    return np.random.default_rng(seed).standard_normal((n, n))


def placed(shift: np.ndarray, graph: NetworkGraph) -> np.ndarray:
    """An (n, n) shift as a whole state-matrix term: at vertex 1's
    diagonal block, 0.0 elsewhere."""
    n_states = graph.num_vertices * shift.shape[0]
    whole = np.zeros((n_states, n_states))
    whole[: shift.shape[0], : shift.shape[0]] = shift
    return whole


def chain_with_wall(num_masses: int):
    chain = mass_spring_chain(
        num_masses,
        1.0,
        springs=tuple(1.0 + i for i in range(num_masses)),
        dampers=tuple(0.1 * (1 + i) for i in range(num_masses)),
    )
    shift = grounding_shift(**chain.options["wall"])
    return chain.model, chain.graph, shift


class TestStackedTrials:
    """Each certificate here is handed ``EVERY_TRIAL``, so all its trials
    run, in stacks, whatever the verdict."""

    def test_trials_match_one_draw_and_assembly_per_trial(self, monkeypatch):
        """Each trial's blocks are the bits ``sample_weights`` draws from
        rng.derive(t); all trials are assembled in one stack, and each
        result is the one its own assembled pair gives."""
        stacks = []
        real = diffnet.verdict.assemble_blocks

        def capture(model, graph, blocks):
            stacks.append(blocks)
            return real(model, graph, blocks)

        monkeypatch.setattr(diffnet.verdict, "assemble_blocks", capture)
        for seed in range(12):
            model, graph = mixed_instance(seed)
            rng = RandomSource(seed)
            stacks.clear()
            cert = certify_monte_carlo(
                model, graph, trials=4, rng=rng, analysis=EVERY_TRIAL
            )
            (blocks,) = stacks
            shape = (model.num_inputs, model.num_outputs)
            for t, trial in enumerate(cert.per_trial):
                weights = sample_weights(graph, shape, rng.derive(t))
                assert np.array_equal(blocks[t], weights)
                a_sys, b_sys = dense_pair(model, graph, weights)
                dim = controllable_dimension(a_sys, b_sys)
                n_states = a_sys.shape[0]
                assert trial.stream_id == rng.derive(t).stream_id
                assert trial.deficient_count == n_states - dim
                assert trial.controllable is (dim == n_states)

    def test_linalg_error_on_one_member_marks_only_its_trial(self, monkeypatch):
        """A NaN planted in member 2's assembled state matrix, after the
        cross-check, fails the stacked rank test; the rerun marks trial 2,
        in the grounded half too, which is built from the poisoned one."""
        model, graph = double_integrator(), chain_graph(4)
        shifts = (None, grounding_shift(1.0, 0.5))
        rng = RandomSource(21)
        cleans = [
            certify_monte_carlo(
                model, graph, trials=4, rng=rng, a_shift=shift, analysis=EVERY_TRIAL
            )
            for shift in shifts
        ]
        real = diffnet.verdict.assemble_blocks

        def poison_member_2(model, graph, blocks):
            state, inputs = real(model, graph, blocks)
            state.blocks[2, 0, 0, 0] = np.nan  # entry (0, 0) of member 2
            return state, inputs

        monkeypatch.setattr(diffnet.verdict, "assemble_blocks", poison_member_2)
        for shift, clean in zip(shifts, cleans):
            cert = certify_monte_carlo(
                model, graph, trials=4, rng=rng, a_shift=shift, analysis=EVERY_TRIAL
            )
            reports = [(cert, clean)]
            if shift is None:
                assert cert.grounded is None
            else:
                reports.append((cert.grounded, clean.grounded))
            for got_report, want_report in reports:
                pairs = zip(got_report.per_trial, want_report.per_trial)
                for t, (got, want) in enumerate(pairs):
                    if t == 2:
                        assert got.controllable is None and got.deficient_count is None
                        assert "staircase" in got.error
                        assert got.stream_id == want.stream_id
                    else:
                        assert got == want

    def test_trials_split_into_stacks_of_bounded_size(self, monkeypatch):
        # driven at the far end: the wall is no input feedback, both halves run
        model, graph = double_integrator(), chain_graph(3, driven=(3,))
        shifts = (None, grounding_shift(1.0, 0.5))
        wholes = [
            certify_monte_carlo(
                model, graph, trials=5, rng=RandomSource(4), a_shift=shift,
                analysis=EVERY_TRIAL,
            )
            for shift in shifts
        ]
        sizes = []
        real = diffnet.verdict.assemble_blocks

        def count(model, graph, blocks):
            sizes.append(len(blocks))
            return real(model, graph, blocks)

        monkeypatch.setattr(diffnet.verdict, "assemble_blocks", count)
        for halves, shift, whole in zip((1, 2), shifts, wholes):
            # room for the state matrices of two 6-state trials per stack,
            # each tested plain and, with a shift, shifted too
            budget = halves * 2 * 8 * 6 * 6
            monkeypatch.setattr(diffnet.verdict, "_TRIAL_STACK_BYTES", budget)
            sizes.clear()
            split = certify_monte_carlo(
                model, graph, trials=5, rng=RandomSource(4), a_shift=shift,
                analysis=EVERY_TRIAL,
            )
            assert sizes == [2, 2, 1]
            assert split == whole
            assert (split.grounded is None) is (shift is None)

    @pytest.mark.parametrize("case", [*range(12), "chain"])
    def test_shifted_call_draws_and_assembles_each_trial_once(self, case, monkeypatch):
        """With a state-matrix shift all trials are still drawn and assembled
        in one stack; each plain trial is the one its pair (A_t, B) gives and
        each grounded trial the one (A_t + S, B) gives, S the shift placed
        at vertex 1's diagonal block."""
        stacks = []
        real = diffnet.verdict.assemble_blocks

        def capture(model, graph, blocks):
            stacks.append(blocks)
            return real(model, graph, blocks)

        monkeypatch.setattr(diffnet.verdict, "assemble_blocks", capture)
        if case == "chain":
            model, graph, shift = chain_with_wall(6)
            seed = 31
        else:
            model, graph = mixed_instance(case)
            shift = random_shift(model, case)
            seed = case
        rng = RandomSource(seed)
        cert = certify_monte_carlo(
            model, graph, trials=4, rng=rng, a_shift=shift, analysis=EVERY_TRIAL
        )
        (blocks,) = stacks
        assert len(blocks) == 4
        shape = (model.num_inputs, model.num_outputs)
        halves = zip(cert.per_trial, cert.grounded.per_trial)
        for t, (plain, grounded) in enumerate(halves):
            weights = sample_weights(graph, shape, rng.derive(t))
            a_sys, b_sys = dense_pair(model, graph, weights)
            n_states = a_sys.shape[0]
            for trial, a_t in ((plain, a_sys), (grounded, a_sys + placed(shift, graph))):
                dim = controllable_dimension(a_t, b_sys)
                assert trial.stream_id == rng.derive(t).stream_id
                assert trial.deficient_count == n_states - dim
                assert trial.controllable is (dim == n_states)
                assert trial.error is None

    @pytest.mark.parametrize("num_masses", [2, 5, 17, 50])
    def test_grounded_half_is_the_dense_sum_with_the_wall_bit_for_bit(
        self, num_masses, monkeypatch
    ):
        """The grounded half of a certificate's stack of 5 draws is, bit
        for bit, its plain half plus the whole (2N, 2N) wall shift, on a
        node whose -0.0 entries of A that sum turns into 0.0. The chain is
        driven at its far end, so the wall is no input feedback and the
        grounded half is built."""
        stacks = []
        real = diffnet.verdict.controllable_dimension

        def capture(a_sys, b_sys, tol):
            stacks.append(a_sys.copy())
            return real(a_sys, b_sys, tol)

        monkeypatch.setattr(diffnet.verdict, "controllable_dimension", capture)
        model = SubsystemModel([[-0.0, 1.0], [0.0, -0.0]], [[0.0], [1.0]], np.eye(2))
        k, mu = 1.5, 0.25
        certify_monte_carlo(
            model,
            chain_graph(num_masses, driven=(num_masses,)),
            trials=5,
            rng=RandomSource(num_masses),
            a_shift=grounding_shift(k, mu),
            analysis=EVERY_TRIAL,
        )
        (a_sys,) = stacks
        plain, grounded = a_sys[:5], a_sys[5:]
        assert np.any((plain == 0.0) & np.signbit(plain))
        want = plain + dense_wall_shift(num_masses, k, mu)
        assert np.array_equal(grounded.view(np.uint64), want.view(np.uint64))

    def test_shift_changes_only_the_grounded_half(self):
        model, graph, shift = chain_with_wall(5)
        plain = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(8)
        )
        both = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(8), a_shift=shift
        )
        assert dataclasses.replace(both, grounded=None) == plain


class TestInputFeedbackShift:
    def test_shift_in_the_driven_input_row_keeps_the_exact_dimension(self):
        """Feedback invariance on exact integers: a node whose B has one
        nonzero row r, an integer shift in row r of vertex 1's block, and a
        random graph with vertex 1 driven. The shift is B F, so the lumped
        pair keeps its reachable dimension over GF(PRIME), and the
        certificate's predicate says so."""
        gen = np.random.default_rng(2029)
        full = Counter()
        for i in range(60):
            node = integer_node(gen, planted=i % 2 == 1)
            n, p = node.b.shape
            r = int(gen.integers(0, n))
            b = np.zeros((n, p))
            b[r] = gen.integers(1, 3, size=p) * gen.choice([-1, 1], size=p)
            model = SubsystemModel(node.a, b, node.c)
            n_vertices = int(gen.integers(2, 6))
            graph = random_graph(gen, n_vertices, edge_prob=0.6)
            driven = {1, *random_driven(gen, n_vertices)}
            graph = dataclasses.replace(graph, driven=tuple(driven))
            shift = np.zeros((n, n))
            shift[r] = gen.integers(-4, 5, size=n)
            assert diffnet.verdict._is_input_feedback(model, graph, shift)
            shape = (graph.num_edges, p, model.num_outputs)
            weights = gen.integers(1, 4, size=shape) * gen.choice([-1, 1], size=shape)
            a_sys, b_sys = dense_pair(model, graph, weights.astype(float))
            dim = reachable_dimension(a_sys, b_sys)
            assert reachable_dimension(a_sys + placed(shift, graph), b_sys) == dim
            full[dim == a_sys.shape[0]] += 1
        assert full[True] and full[False]

    def test_shift_outside_the_input_row_is_tested_on_its_own_half(self, monkeypatch):
        """Negative control: for the double integrator on one edge, driven
        at vertex 1, a shift in the position row (B's zero row) is no
        feedback. The stack holds both halves, and the wall-free pair is
        controllable while the shifted one loses a state."""
        stacks = []
        real = diffnet.verdict.controllable_dimension

        def capture(a_sys, b_sys, tol):
            stacks.append(a_sys.shape)
            return real(a_sys, b_sys, tol)

        monkeypatch.setattr(diffnet.verdict, "controllable_dimension", capture)
        graph = NetworkGraph(2, (Edge(1, 2),), driven=(1,))
        shift = np.array([[0.0, -1.0], [0.0, 0.0]])
        model = double_integrator()
        assert not diffnet.verdict._is_input_feedback(model, graph, shift)
        cert = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(5), a_shift=shift,
            analysis=EVERY_TRIAL,
        )
        assert stacks == [(6, 4, 4)]
        assert [t.deficient_count for t in cert.per_trial] == [0, 0, 0]
        assert [t.deficient_count for t in cert.grounded.per_trial] == [1, 1, 1]

    @pytest.mark.parametrize(
        "case",
        ["vertex 1 undriven", "B in two rows", "B zero", "shift off B's row", "NaN shift"],
    )
    def test_predicate_refuses_what_is_not_input_feedback(self, case):
        """The chain's wall at a driven mass 1 is input feedback; each
        change below breaks one part of the rule."""
        model, graph = double_integrator(), chain_graph(3)
        shift = grounding_shift(1.0, 0.5)
        assert diffnet.verdict._is_input_feedback(model, graph, shift)
        if case == "vertex 1 undriven":
            graph = chain_graph(3, driven=(2, 3))
        elif case == "B in two rows":
            model = SubsystemModel(model.a, [1.0, 1.0], model.c)
        elif case == "B zero":
            model = SubsystemModel(model.a, [0.0, 0.0], model.c)
        elif case == "shift off B's row":
            shift[0, 1] = 1.0
        else:
            shift[1, 0] = np.nan
        assert not diffnet.verdict._is_input_feedback(model, graph, shift)


GOLDEN = Path(__file__).parent / "golden"

#: the exit code of ``certify`` for each verdict its certificate agrees with
VERDICT_EXIT = {Verdict.CONTROLLABLE: 0, Verdict.NOT_CONTROLLABLE: 1, Verdict.INCONCLUSIVE: 2}


def chain_case(num_masses: int, driven: int, grounded: bool):
    chain = mass_spring_chain(
        num_masses,
        1.0,
        springs=np.linspace(1.0, 2.0, num_masses),
        dampers=np.linspace(0.1, 0.5, num_masses),
    )
    graph = NetworkGraph(num_masses, chain.graph.edges, driven=(driven,))
    wall = chain.options["wall"] if grounded else None
    return chain.model, graph, wall


def multi_input_case(seed: int):
    """A node with two inputs on a random undirected graph, not always
    connected."""
    gen = np.random.default_rng(seed)
    graph = random_graph(gen, 6, edge_prob=0.4, allow_directed=False)
    model = random_model(gen, 3, 2, num_inputs=2)
    return model, dataclasses.replace(graph, driven=random_driven(gen, 6, allow_full=False))


def certificate_cases():
    """(name, model, graph, wall) for every problem of the sweep; a wall
    is run with ``--ground-first-mass``."""
    for seed in range(10):
        yield (f"mixed {seed}", *mixed_instance(seed), None)
    for seed in range(8):
        yield (f"multi-input {seed}", *multi_input_case(seed), None)
    for num_masses in (5, 12):
        for driven in (1, num_masses):
            for grounded in (False, True):
                name = f"chain {num_masses} at {driven}" + " grounded" * grounded
                yield (name, *chain_case(num_masses, driven, grounded))
    # velocity-only output: unobservable, so NOT_CONTROLLABLE in both halves
    model, graph, wall = chain_case(5, 5, True)
    velocity = SubsystemModel(model.a, model.b, [[0.0, 1.0]])
    yield ("chain 5 at 5 grounded, velocity output", velocity, graph, wall)
    for name in ("directed_cutoff", "fixed_mode"):
        problem, _ = load_problem(GOLDEN / f"{name}.json")
        yield (name, problem.model, problem.graph, None)


def problem_document(model: SubsystemModel, graph: NetworkGraph, seed: int, wall) -> dict:
    options = {"seed": seed} if wall is None else {"seed": seed, "wall": wall}
    return {
        "subsystem": {"A": model.a.tolist(), "B": model.b.tolist(), "C": model.c.tolist()},
        "graph": {
            "N": graph.num_vertices,
            "edges": [{"kind": e.kind, "u": e.u, "v": e.v} for e in graph.edges],
        },
        "driven": list(graph.driven),
        "options": options,
    }


def reference_trials(model, graph, trials: int, rng: RandomSource, shift=None):
    """Every trial, one pair at a time: the plain trials and, for a shift,
    the shifted ones."""
    shape = (model.num_inputs, model.num_outputs)
    halves = ([], []) if shift is not None else ([],)
    for t in range(trials):
        weights = sample_weights(graph, shape, rng.derive(t))
        a_sys, b_sys = dense_pair(model, graph, weights)
        n_states = a_sys.shape[0]
        pairs = (a_sys, a_sys + placed(shift, graph)) if shift is not None else (a_sys,)
        for half, a_t in zip(halves, pairs):
            dim = controllable_dimension(a_t, b_sys)
            stream = rng.derive(t).stream_id
            half.append(TrialResult(stream, bool(dim == n_states), int(n_states - dim)))
    return halves


def reference_agree(verdict: Verdict, trials) -> bool:
    any_ok = any(t.controllable for t in trials)
    return {Verdict.CONTROLLABLE: any_ok, Verdict.NOT_CONTROLLABLE: not any_ok}.get(
        verdict, True
    )


class TestFirstControllableDraw:
    """A CONTROLLABLE verdict's certificate runs trial 0 alone, plain and
    grounded, and stops there when trial 0 is controllable in every half;
    every other certificate runs all its trials. Either way its summary is
    the one of all T trials run one by one."""

    TRIALS = 4

    def check(self, model, graph, seed, shift=None, analysis=None):
        """Compare the certificate with the full reference; return the
        verdict, the number of trials run and the reference's halves."""
        rng = RandomSource(seed)
        analysis = analysis or analyze(model, graph)
        cert = certify_monte_carlo(
            model, graph, trials=self.TRIALS, rng=rng, a_shift=shift, analysis=analysis
        )
        halves = reference_trials(model, graph, self.TRIALS, rng, shift)
        stops = analysis.verdict is Verdict.CONTROLLABLE and all(
            half[0].controllable for half in halves
        )
        ran = 1 if stops else self.TRIALS
        reports = (cert,) if shift is None else (cert, cert.grounded)
        assert len(reports) == len(halves)
        for report, want in zip(reports, halves):
            assert report.trials == ran
            assert report.per_trial == tuple(want[:ran])
            assert report.any_controllable == any(t.controllable for t in want)
            assert report.agree_with_verdict == reference_agree(analysis.verdict, want)
            assert report.compared_verdict == analysis.verdict.value
        return analysis.verdict, ran, halves

    def test_sweep_matches_every_trial_one_by_one(self, tmp_path):
        """The library call and ``diffnet certify`` on the problem written
        to a file: trials run, summary and exit code against the reference
        of all T trials."""
        seen = Counter()
        for seed, (name, model, graph, wall) in enumerate(certificate_cases()):
            shift = None if wall is None else grounding_shift(**wall)
            verdict, ran, halves = self.check(model, graph, seed, shift)
            seen[verdict, ran] += 1
            path, out = tmp_path / f"{seed}.json", tmp_path / f"{seed}-report.json"
            path.write_text(json.dumps(problem_document(model, graph, seed, wall)))
            flags = ["--ground-first-mass"] if wall else []
            argv = ["certify", str(path), "--trials", str(self.TRIALS), *flags]
            argv += ["--out", str(out)]
            want = VERDICT_EXIT[verdict] if reference_agree(verdict, halves[0]) else 3
            assert main(argv) == want, name
            doc = json.loads(out.read_text())
            assert doc["options"]["trials"] == self.TRIALS, name
            blocks = [doc["analysis"]["certification"]]
            blocks += [doc["grounded_certification"]] if wall else []
            for block, want_trials in zip(blocks, halves, strict=True):
                want_json = [dataclasses.asdict(t) for t in want_trials[:ran]]
                assert block["per_trial"] == want_json, name
        assert seen[Verdict.CONTROLLABLE, 1] >= 20
        assert seen[Verdict.NOT_CONTROLLABLE, self.TRIALS] >= 5
        assert seen[Verdict.INCONCLUSIVE, self.TRIALS] >= 1
        assert set(seen) == {
            (Verdict.CONTROLLABLE, 1),
            (Verdict.NOT_CONTROLLABLE, self.TRIALS),
            (Verdict.INCONCLUSIVE, self.TRIALS),
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_random_shift_matches_every_trial_one_by_one(self, seed):
        model, graph = mixed_instance(seed)
        self.check(model, graph, seed, random_shift(model, seed))

    def test_uncontrollable_trial_0_runs_every_trial(self):
        """Under a CONTROLLABLE verdict a trial 0 that is not controllable
        in some half proves nothing, and all T trials run: the grounded
        half of a shift in the position row, and a doctored verdict."""
        graph = NetworkGraph(2, (Edge(1, 2),), driven=(1,))
        shift = np.array([[0.0, -1.0], [0.0, 0.0]])
        verdict, ran, _ = self.check(double_integrator(), graph, 5, shift)
        assert (verdict, ran) == (Verdict.CONTROLLABLE, self.TRIALS)
        fake = AnalysisReport(Verdict.CONTROLLABLE, "1", ())
        model = double_integrator(c=[[0.0, 1.0]])
        verdict, ran, _ = self.check(model, chain_graph(3), 5, analysis=fake)
        assert (verdict, ran) == (Verdict.CONTROLLABLE, self.TRIALS)

    def test_controllable_chain_draws_and_ranks_once(self, monkeypatch):
        draws = count_calls(monkeypatch, diffnet.verdict, "sample_weights")
        ranks = count_calls(monkeypatch, diffnet.verdict, "controllable_dimension")
        cert = certify_monte_carlo(*chain_case(12, 12, False)[:2], trials=5)
        assert cert.trials == 1 and cert.agree_with_verdict
        assert len(draws) == 1 and len(ranks) == 1

    def test_streams_are_derived_per_stack(self, monkeypatch):
        """A billion trials asked for a CONTROLLABLE chain derive one
        stream. The spy stops a run that derives them up front."""
        derived = []
        derive = RandomSource.derive

        def spy(self, index):
            derived.append(index)
            if len(derived) > 1000:
                raise AssertionError("streams derived ahead of their stack")
            return derive(self, index)

        monkeypatch.setattr(RandomSource, "derive", spy)
        cert = certify_monte_carlo(double_integrator(), chain_graph(3), trials=10**9)
        assert cert.trials == 1 and cert.any_controllable
        assert derived == [0]


class TestVerdictAgainstOracle:
    def test_random_instances_agree_with_certification(self):
        gen = np.random.default_rng(1234)
        checked = 0
        controllable_seen = 0
        for i in range(100):
            n_vertices = int(gen.integers(2, 6))
            graph = random_graph(gen, n_vertices, edge_prob=0.6)
            graph = dataclasses.replace(
                graph, driven=random_driven(gen, n_vertices, allow_full=False)
            )
            model = random_model(
                gen, int(gen.integers(1, 4)), int(gen.integers(1, 3))
            )
            report = analyze(model, graph)
            cert = certify_monte_carlo(
                model, graph, trials=3, rng=RandomSource(1000 + i),
                analysis=report,
            )
            assert cert.agree_with_verdict, (
                f"instance {i}: verdict {report.verdict} but "
                f"{sum(bool(t.controllable) for t in cert.per_trial)}/3 "
                "trials controllable"
            )
            checked += 1
            controllable_seen += report.verdict is Verdict.CONTROLLABLE
        assert checked == 100
        # the generator must exercise both verdicts
        assert 10 <= controllable_seen <= 90

    def test_certification_stable_across_sources(self):
        gen = np.random.default_rng(77)
        for i in range(20):
            n_vertices = int(gen.integers(2, 5))
            graph = random_graph(gen, n_vertices, edge_prob=0.7)
            graph = dataclasses.replace(graph, driven=random_driven(gen, n_vertices))
            model = random_model(gen, int(gen.integers(1, 3)), int(gen.integers(1, 3)))
            report = analyze(model, graph)
            for seed in (1, 2, 3):
                cert = certify_monte_carlo(
                    model, graph, trials=2, rng=RandomSource(seed),
                    analysis=report,
                )
                assert cert.agree_with_verdict, f"instance {i}, source seed {seed}"


class TestScalarConstraint:
    def test_reduction_sums_channels(self):
        model = double_integrator(c=[[1.0, 0.0], [0.5, 2.0]])
        reduced = summed_row_model(model)
        assert np.allclose(reduced.c, [[1.5, 2.0]])
        assert np.array_equal(reduced.a, model.a)

    def test_cancelling_channels_lose_controllability(self):
        model = double_integrator(c=[[1.0, 0.0], [-1.0, 0.0]])
        vector_report = analyze(model, chain_graph(3))
        assert vector_report.verdict is Verdict.CONTROLLABLE

        assert np.array_equal(summed_row(model), [[0.0, 0.0]])
        scalar_report = scalar_weight_analysis(model, chain_graph(3))
        assert scalar_report.verdict is Verdict.NOT_CONTROLLABLE
        rec = scalar_report.condition("globally_input_reachable")
        assert rec.witness == {"unreachable_vertices": (2, 3)}

    def test_cancelling_channels_with_everyone_driven(self):
        model = double_integrator(c=[[1.0, 0.0], [-1.0, 0.0]])
        report = scalar_weight_analysis(
            model, chain_graph(2, driven=(1, 2))
        )
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "trivial-case"

    def test_surviving_sum_delegates_to_exact_criteria(self):
        model = double_integrator()
        report = scalar_weight_analysis(model, chain_graph(3))
        assert report.verdict is Verdict.CONTROLLABLE
        assert report.theorem_used == "1"

    def test_equal_channel_weights_realize_the_reduced_network(self):
        model = double_integrator(c=[[1.0, 0.5], [0.2, 2.0]])
        g = chain_graph(3)
        scalars = [1.7, 0.6]
        full = np.array([[[s, s]] for s in scalars])
        reduced = summed_row_model(model)
        collapsed = np.array([[[s]] for s in scalars])
        lhs, _ = dense_pair(model, g, full)
        rhs, _ = dense_pair(reduced, g, collapsed)
        assert np.allclose(lhs, rhs)

    def test_scalar_controllable_implies_vector_controllable(self):
        gen = np.random.default_rng(321)
        seen = 0
        for _ in range(30):
            n_vertices = int(gen.integers(2, 5))
            graph = random_graph(gen, n_vertices, edge_prob=0.6)
            graph = dataclasses.replace(graph, driven=random_driven(gen, n_vertices))
            model = random_model(gen, int(gen.integers(1, 4)), int(gen.integers(1, 3)))
            scalar_report = scalar_weight_analysis(model, graph)
            if scalar_report.verdict is not Verdict.CONTROLLABLE:
                continue
            seen += 1
            assert verdict_bool(analyze(model, graph).verdict)
        assert seen >= 5


class TestLeaderControllability:
    def test_path_star_cycle_leaders(self):
        path = chain_graph(4)
        star = NetworkGraph(4, (Edge(1, 2), Edge(1, 3), Edge(1, 4)))
        cycle = NetworkGraph(
            4, (Edge(1, 2), Edge(2, 3), Edge(3, 4), Edge(1, 4))
        )
        for g in (path, star, cycle):
            for leader in range(1, 5):
                assert leader_controls_consensus(
                    g, leader, trials=3, rng=RandomSource(11 * leader)
                )

    def test_disconnected_graph_rejected(self):
        g = NetworkGraph(3, (Edge(1, 2),))
        assert not leader_controls_consensus(g, 1, trials=3, rng=RandomSource(0))

    def test_leader_out_of_range(self):
        with pytest.raises(ValueError):
            leader_controls_consensus(chain_graph(2), 0, 1, RandomSource(0))
        with pytest.raises(ValueError):
            leader_controls_consensus(chain_graph(2), 3, 1, RandomSource(0))

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            leader_controls_consensus(chain_graph(2), 1, trials=0, rng=RandomSource(0))


def auxiliary_condition(graph):
    """(edge-pattern, vertex-pattern) outcome of the cycle condition for
    double-integrator nodes, coupled on two channels."""
    pairs = pattern_pairs(graph, 2)
    return tuple(cycles_input_reachable(*pair) for pair in pairs)


class TestAuxiliaryCondition:
    @pytest.fixture(autouse=True)
    def _networkx(self):
        pytest.importorskip("networkx")

    def test_chain_passes_and_matches_reachability(self):
        g = chain_graph(3)
        assert auxiliary_condition(g) == (True, True)
        assert not spanning_forest(g).unreachable
        (edge_states, _), (vertex_states, _) = pattern_pairs(g, 2)
        assert edge_states.shape == (2 * 2, 2 * 2)  # channels x edges
        assert vertex_states.shape == (2 * 3, 2 * 3)  # channels x vertices

    def test_hidden_cycle_fails_both_patterns(self):
        g = NetworkGraph(3, (Edge(2, 3),), driven=(1,))
        assert auxiliary_condition(g) == (False, False)
        assert spanning_forest(g).unreachable

    def test_isolated_vertex_sits_outside_the_premise(self):
        # an unreachable vertex with no incoming influence forms no cycle, so
        # the cycle condition holds while reachability fails; the equivalence
        # only binds when every undriven vertex has incoming influence
        g = NetworkGraph(3, (Edge(1, 2),), driven=(1,))
        assert auxiliary_condition(g) == (True, True)
        assert spanning_forest(g).unreachable == {3}

    def test_agreement_with_reachability_under_premise(self):
        gen = np.random.default_rng(99)
        for _ in range(20):
            n_vertices = int(gen.integers(2, 6))
            graph = random_graph(gen, n_vertices, edge_prob=0.5)
            graph = dataclasses.replace(graph, driven=random_driven(gen, n_vertices))
            graph = ensure_incoming_influence(gen, graph)
            reachable = not spanning_forest(graph).unreachable
            assert auxiliary_condition(graph) == (reachable, reachable)


class TestRankCondition:
    def test_controllable_chain_reaches_full_rank(self):
        ranks = generic_ranks(
            double_integrator(), chain_graph(3), RandomSource(2)
        )
        # the node matrix has one distinct eigenvalue (a double zero)
        assert ranks == [6]

    def test_unobservable_coupling_drops_rank(self):
        model = double_integrator(c=[[0.0, 1.0]])
        ranks = generic_ranks(model, chain_graph(4), RandomSource(4))
        assert min(ranks) < 8

    def test_single_vertex_reduces_to_the_node_pair(self):
        ranks = generic_ranks(
            double_integrator(), NetworkGraph(1, driven=(1,)), RandomSource(0)
        )
        assert ranks == [2]
