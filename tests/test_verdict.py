"""Verdict engines, Monte Carlo certification, and the restated lemmas."""

import dataclasses

import numpy as np
import pytest

import diffnet.verdict

from conftest import (
    ensure_incoming_influence,
    random_driven,
    random_graph,
    random_model,
    verdict_bool,
)
from diffnet.assembly import (
    assemble_lumped,
    grounding_shift,
    mass_spring_chain,
    sample_weights,
)
from diffnet.numerics import RandomSource, controllable_dimension
from diffnet.subsystem import SubsystemModel
from diffnet.topology import DIRECTED, Edge, NetworkGraph, spanning_forest
from diffnet.verdict import AnalysisReport, Verdict, analyze, certify_monte_carlo
from lemmas import (
    cycles_input_reachable,
    generic_ranks,
    leader_controls_consensus,
    pattern_pairs,
    scalar_weight_analysis,
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


class TestCertification:
    def test_controllable_chain_every_trial_passes(self):
        model, g = double_integrator(), chain_graph(3)
        analysis = analyze(model, g)
        cert = certify_monte_carlo(model, g, trials=5, rng=RandomSource(42))
        assert cert.trials == 5 and len(cert.per_trial) == 5
        assert all(t.controllable for t in cert.per_trial)
        assert all(t.deficient_count == 0 for t in cert.per_trial)
        assert cert.any_controllable
        assert cert.compared_verdict == analysis.verdict.value
        assert cert.agree_with_verdict

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
            a_shift=grounding_shift(
                3, chain.wall_stiffness_over_mass, chain.wall_damping_over_mass
            ),
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
        """A shift of the wrong shape is refused before anything is drawn
        or assembled."""
        calls = []

        def count(*args, **kwargs):
            calls.append(args)
            raise AssertionError("assembled before the shift was checked")

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", count)
        with pytest.raises(ValueError, match="shift"):
            certify_monte_carlo(
                double_integrator(),
                chain_graph(2),
                trials=1,
                a_shift=np.zeros((2, 2)),
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


def dense_shift(model: SubsystemModel, graph: NetworkGraph, seed: int):
    """A random state-matrix shift coupling every pair of states, so that
    shifted pairs are controllable where cut-off plain ones are not."""
    n = graph.num_vertices * model.order
    return np.random.default_rng(seed).standard_normal((n, n))


def chain_with_wall(num_masses: int):
    chain = mass_spring_chain(
        num_masses,
        1.0,
        springs=tuple(1.0 + i for i in range(num_masses)),
        dampers=tuple(0.1 * (1 + i) for i in range(num_masses)),
    )
    shift = grounding_shift(
        num_masses, chain.wall_stiffness_over_mass, chain.wall_damping_over_mass
    )
    return chain.model, chain.graph, shift


class TestStackedTrials:
    def test_trials_match_one_draw_and_assembly_per_trial(self, monkeypatch):
        """Each trial's blocks are the bits ``sample_weights`` draws from
        rng.derive(t); all trials are assembled in one stack, and each
        result is the one its own assembled pair gives."""
        stacks = []
        real = diffnet.verdict.assemble_lumped

        def capture(model, graph, blocks, **kwargs):
            stacks.append(blocks)
            return real(model, graph, blocks, **kwargs)

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", capture)
        for seed in range(12):
            model, graph = mixed_instance(seed)
            rng = RandomSource(seed)
            stacks.clear()
            cert = certify_monte_carlo(model, graph, trials=4, rng=rng)
            (blocks,) = stacks
            shape = (model.num_inputs, model.num_outputs)
            for t, trial in enumerate(cert.per_trial):
                weights = sample_weights(graph, shape, rng.derive(t))
                assert np.array_equal(blocks[t], weights)
                lumped = assemble_lumped(model, graph, weights)
                dim = controllable_dimension(lumped.a_sys, lumped.b_sys)
                n_states = lumped.a_sys.shape[0]
                assert trial.stream_id == rng.derive(t).stream_id
                assert trial.deficient_count == n_states - dim
                assert trial.controllable is (dim == n_states)

    def test_linalg_error_on_one_member_marks_only_its_trial(self, monkeypatch):
        """A NaN planted in member 2's assembled state matrix, after the
        cross-check, fails the stacked rank test; the rerun marks trial 2,
        in the grounded half too, which is built from the poisoned one."""
        model, graph = double_integrator(), chain_graph(4)
        shifts = (None, grounding_shift(4, 1.0, 0.5))
        rng = RandomSource(21)
        cleans = [
            certify_monte_carlo(model, graph, trials=4, rng=rng, a_shift=shift)
            for shift in shifts
        ]
        real = diffnet.verdict.assemble_lumped

        def poison_member_2(model, graph, blocks, **kwargs):
            lumped = real(model, graph, blocks, **kwargs)
            lumped.a_sys[2, 0, 0] = np.nan
            return lumped

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", poison_member_2)
        for shift, clean in zip(shifts, cleans):
            cert = certify_monte_carlo(
                model, graph, trials=4, rng=rng, a_shift=shift
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
        model, graph = double_integrator(), chain_graph(3)
        shifts = (None, grounding_shift(3, 1.0, 0.5))
        wholes = [
            certify_monte_carlo(
                model, graph, trials=5, rng=RandomSource(4), a_shift=shift
            )
            for shift in shifts
        ]
        sizes = []
        real = diffnet.verdict.assemble_lumped

        def count(model, graph, blocks, **kwargs):
            sizes.append(len(blocks))
            return real(model, graph, blocks, **kwargs)

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", count)
        for halves, shift, whole in zip((1, 2), shifts, wholes):
            # room for the state matrices of two 6-state trials per stack,
            # each tested plain and, with a shift, shifted too
            budget = halves * 2 * 8 * 6 * 6
            monkeypatch.setattr(diffnet.verdict, "_TRIAL_STACK_BYTES", budget)
            sizes.clear()
            split = certify_monte_carlo(
                model, graph, trials=5, rng=RandomSource(4), a_shift=shift
            )
            assert sizes == [2, 2, 1]
            assert split == whole
            assert (split.grounded is None) is (shift is None)

    @pytest.mark.parametrize("case", [*range(12), "chain"])
    def test_shifted_call_draws_and_assembles_each_trial_once(self, case, monkeypatch):
        """With a state-matrix shift all trials are still drawn and assembled
        in one stack; each plain trial is the one its pair (A_t, B) gives and
        each grounded trial the one (A_t + S, B) gives."""
        stacks = []
        real = diffnet.verdict.assemble_lumped

        def capture(model, graph, blocks, **kwargs):
            stacks.append(blocks)
            return real(model, graph, blocks, **kwargs)

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", capture)
        if case == "chain":
            model, graph, shift = chain_with_wall(6)
            seed = 31
        else:
            model, graph = mixed_instance(case)
            shift = dense_shift(model, graph, case)
            seed = case
        rng = RandomSource(seed)
        cert = certify_monte_carlo(
            model, graph, trials=4, rng=rng, a_shift=shift
        )
        (blocks,) = stacks
        assert len(blocks) == 4
        shape = (model.num_inputs, model.num_outputs)
        halves = zip(cert.per_trial, cert.grounded.per_trial)
        for t, (plain, grounded) in enumerate(halves):
            weights = sample_weights(graph, shape, rng.derive(t))
            lumped = assemble_lumped(model, graph, weights)
            n_states = lumped.a_sys.shape[0]
            for trial, a_sys in ((plain, lumped.a_sys), (grounded, lumped.a_sys + shift)):
                dim = controllable_dimension(a_sys, lumped.b_sys)
                assert trial.stream_id == rng.derive(t).stream_id
                assert trial.deficient_count == n_states - dim
                assert trial.controllable is (dim == n_states)
                assert trial.error is None

    def test_shift_changes_only_the_grounded_half(self):
        model, graph, shift = chain_with_wall(5)
        plain = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(8)
        )
        both = certify_monte_carlo(
            model, graph, trials=3, rng=RandomSource(8), a_shift=shift
        )
        assert dataclasses.replace(both, grounded=None) == plain


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
        lhs = assemble_lumped(model, g, full)
        rhs = assemble_lumped(reduced, g, collapsed)
        assert np.allclose(lhs.a_sys, rhs.a_sys)

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
