"""Acceptance suite: one test per published claim, one pass/fail line each."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assembled_laplacian,
    commutation_matrix,
    ensure_incoming_influence,
    factorized_state_matrix,
    random_connected_graph,
    random_driven,
    random_graph,
    random_model,
)
from diffnet.assembly import assemble_lumped, mass_spring_chain, sample_weights
from diffnet.numerics import RandomSource
from diffnet.subsystem import SubsystemModel, fixed_modes
from diffnet.topology import Edge, NetworkGraph, spanning_forest
from diffnet.verdict import Verdict, analyze, certify_monte_carlo
from lemmas import (
    cycles_input_reachable,
    generic_ranks,
    leader_controls_consensus,
    pattern_pairs,
    randomized_fixed_modes,
    scalar_weight_analysis,
    spectra_match,
)


def chain_edges(n):
    return tuple(Edge(i, i + 1) for i in range(1, n))


def distinct_constants(gen, count):
    values = gen.uniform(0.5, 2.0, size=count)
    assert len(set(values.tolist())) == count
    return [float(v) for v in values]


def test_criterion_01_any_single_driver_controls_a_chain(acceptance):
    start = time.perf_counter()
    gen = np.random.default_rng(42)
    ok = True
    runs = 0
    for n in range(2, 7):
        chain = mass_spring_chain(
            n, 1.0, distinct_constants(gen, n), distinct_constants(gen, n)
        )
        for driver in range(1, n + 1):
            graph = replace(chain.graph, driven=(driver,))
            report = analyze(chain.model, graph)
            ok = ok and report.verdict is Verdict.CONTROLLABLE
            cert = certify_monte_carlo(
                chain.model,
                graph,
                trials=5,
                rng=RandomSource(42),
                analysis=report,
            )
            ok = ok and all(
                t.controllable and t.deficient_count == 0 for t in cert.per_trial
            )
            runs += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    acceptance(
        1,
        "every single driver controls the mass-spring chain",
        ok,
        f"{runs} chain/driver pairs, 5 trials each, {elapsed:.2f}s",
    )


def test_criterion_02_broken_chain_reachability_witness(acceptance):
    # drop the middle edge {3, 4} of the 5-chain
    graph = NetworkGraph(5, (Edge(1, 2), Edge(2, 3), Edge(4, 5)), driven=(1,))
    gen = np.random.default_rng(7)
    chain = mass_spring_chain(5, 1.0, distinct_constants(gen, 5), distinct_constants(gen, 5))
    report = analyze(chain.model, graph)
    ok = report.verdict is Verdict.NOT_CONTROLLABLE
    witness = report.condition("globally_input_reachable").witness
    ok = ok and witness == {"unreachable_vertices": (4, 5)}

    cert = certify_monte_carlo(
        chain.model, graph, trials=5, rng=RandomSource(42), analysis=report
    )
    floor = chain.model.order * 2  # n states per cut-off vertex, two vertices
    ok = ok and all(
        t.controllable is False and t.deficient_count >= floor
        for t in cert.per_trial
    )
    ok = ok and cert.agree_with_verdict
    acceptance(
        2,
        "cut chain is refused with the unreachable witness",
        ok,
        f"witness {witness.get('unreachable_vertices')}, "
        f"min deficiency {min(t.deficient_count for t in cert.per_trial)}",
    )


def test_criterion_03_velocity_only_coupling_is_refused(acceptance):
    model = SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [[0.0, 1.0]])
    graph = NetworkGraph(4, chain_edges(4), driven=(1,))
    report = analyze(model, graph)
    ok = report.verdict is Verdict.NOT_CONTROLLABLE
    ok = ok and not report.condition("subsystem_observable").holds

    cert = certify_monte_carlo(
        model, graph, trials=20, rng=RandomSource(42), analysis=report
    )
    bad = sum(1 for t in cert.per_trial if t.controllable is False)
    ok = ok and bad == 20 and cert.agree_with_verdict
    acceptance(
        3,
        "velocity-only coupling is refused as unobservable",
        ok,
        f"{bad}/20 trials uncontrollable",
    )


def test_criterion_04_factorized_assembly_matches_direct(acceptance):
    gen = np.random.default_rng(4)
    worst_residual = 0.0
    worst_row_sum = 0.0
    worst_asym = 0.0
    for i in range(100):
        n_vertices = int(gen.integers(2, 7))
        graph = random_graph(gen, n_vertices, edge_prob=0.6)
        graph = replace(graph, driven=random_driven(gen, n_vertices, allow_empty=True))
        r = int(gen.integers(1, 4))
        if i % 5 < 3:
            model = random_model(gen, int(gen.integers(1, 4)), r)
            weights = sample_weights(graph, (1, r), RandomSource(40_000 + i))
        else:
            p = int(gen.integers(2, 4))
            model = random_model(gen, int(gen.integers(1, 4)), r, num_inputs=p)
            weights = sample_weights(graph, (p, r), RandomSource(40_000 + i))
        a_sys = assemble_lumped(model, graph, weights).a_sys
        reference = factorized_state_matrix(model, graph, weights)
        residual = np.max(np.abs(a_sys - reference)) / max(1.0, np.max(np.abs(a_sys)))
        worst_residual = max(worst_residual, float(residual))
        if i % 5 < 3 and graph.num_edges:
            stacked = assembled_laplacian(graph, weights)
            for lap in (stacked[:, k::r] for k in range(r)):
                worst_row_sum = max(
                    worst_row_sum, float(np.max(np.abs(lap.sum(axis=1))))
                )
                if not graph.has_directed_edges():
                    worst_asym = max(worst_asym, float(np.max(np.abs(lap - lap.T))))
    ok = worst_residual < 1e-10 and worst_row_sum < 1e-12 and worst_asym < 1e-12
    acceptance(
        4,
        "factorized assembly matches direct assembly on 100 instances",
        ok,
        f"max relative residual {worst_residual:.2e}, "
        f"max row sum {worst_row_sum:.2e}",
    )


def test_criterion_05_pattern_checks_agree_with_reachability(acceptance):
    pytest.importorskip("networkx")
    gen = np.random.default_rng(5)
    agreements = 0
    for _ in range(100):
        n_vertices = int(gen.integers(2, 6))
        graph = random_graph(gen, n_vertices, edge_prob=0.5)
        graph = replace(graph, driven=random_driven(gen, n_vertices))
        graph = ensure_incoming_influence(gen, graph)
        r = int(gen.integers(1, 3))
        # the premise: (A, b) controllable; the patterns depend on r alone
        model = random_model(gen, int(gen.integers(1, 4)), r, require_ctrb=True)
        edge_ok, vertex_ok = (
            cycles_input_reachable(*pair)
            for pair in pattern_pairs(graph, model.num_outputs)
        )
        reachable = not spanning_forest(graph).unreachable
        agreements += edge_ok == vertex_ok == reachable
    acceptance(
        5,
        "both pattern digraphs match input-reachability on 100 instances",
        agreements == 100,
        f"{agreements}/100 agree",
    )


def test_criterion_06_controllable_verdicts_pass_the_rank_condition(acceptance):
    gen = np.random.default_rng(6)
    controllable_seen = 0
    rank_passes = 0
    for i in range(60):
        n_vertices = int(gen.integers(2, 6))
        graph = random_graph(gen, n_vertices, edge_prob=0.6)
        graph = replace(graph, driven=random_driven(gen, n_vertices))
        model = random_model(gen, int(gen.integers(1, 4)), int(gen.integers(1, 3)))
        report = analyze(model, graph)
        if report.verdict is not Verdict.CONTROLLABLE:
            continue
        controllable_seen += 1
        ranks = generic_ranks(model, graph, RandomSource(60_000 + i))
        full = n_vertices * model.order
        rank_passes += all(rank == full for rank in ranks)
        assert min(ranks) == full, f"instance {i}: ranks {ranks} below {full}"
    ok = controllable_seen >= 10 and rank_passes == controllable_seen
    acceptance(
        6,
        "every controllable verdict passes the generic rank condition",
        ok,
        f"{rank_passes}/{controllable_seen} controllable instances at full rank",
    )


def test_criterion_07_single_leader_laplacian_consensus(acceptance):
    runs = 0
    ok = True
    for n in range(3, 7):
        path = NetworkGraph(n, chain_edges(n))
        star = NetworkGraph(n, tuple(Edge(1, k) for k in range(2, n + 1)))
        cycle = NetworkGraph(n, chain_edges(n) + (Edge(1, n),))
        for graph in (path, star, cycle):
            for leader in range(1, n + 1):
                for seed in (1, 2, 3):
                    ok = ok and leader_controls_consensus(
                        graph, leader, trials=1, rng=RandomSource(seed)
                    )
                    runs += 1
    acceptance(
        7,
        "one leader controls weighted consensus on paths, stars, cycles",
        ok,
        f"{runs} graph/leader/seed runs",
    )


def test_criterion_08_scalar_constraint_implies_but_is_not_implied(acceptance):
    gen = np.random.default_rng(8)
    implication_held = True
    scalar_controllable_seen = 0
    for _ in range(50):
        n_vertices = int(gen.integers(2, 6))
        graph = random_graph(gen, n_vertices, edge_prob=0.6)
        graph = replace(graph, driven=random_driven(gen, n_vertices))
        model = random_model(gen, int(gen.integers(1, 4)), int(gen.integers(1, 4)))
        scalar_report = scalar_weight_analysis(model, graph)
        if scalar_report.verdict is not Verdict.CONTROLLABLE:
            continue
        scalar_controllable_seen += 1
        vector_report = analyze(model, graph)
        implication_held = (
            implication_held and vector_report.verdict is Verdict.CONTROLLABLE
        )

    cancel = SubsystemModel(
        [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]]
    )
    graph = NetworkGraph(3, chain_edges(3), driven=(1,))
    vector_ok = analyze(cancel, graph).verdict is Verdict.CONTROLLABLE
    scalar_bad = (
        scalar_weight_analysis(cancel, graph).verdict
        is Verdict.NOT_CONTROLLABLE
    )
    ok = (
        implication_held
        and scalar_controllable_seen >= 5
        and vector_ok
        and scalar_bad
    )
    acceptance(
        8,
        "scalar-weight controllability implies the vector verdict, not conversely",
        ok,
        f"{scalar_controllable_seen} scalar-controllable instances, "
        f"cancellation example separates the two",
    )


def test_criterion_09_matrix_weight_verdicts_match_the_oracle(acceptance):
    gen = np.random.default_rng(9)
    matches = 0
    methods_agree = True
    built = 0
    while built < 50:
        order = int(gen.integers(1, 5))
        p = int(gen.integers(1, 3))
        r = int(gen.integers(1, 3))
        model = random_model(gen, order, r, num_inputs=p)
        modes = fixed_modes(model)
        if modes:
            continue
        randomized = randomized_fixed_modes(model, RandomSource(90_000 + built))
        methods_agree = methods_agree and spectra_match(modes, randomized)
        n_vertices = int(gen.integers(2, 5))
        graph = random_connected_graph(gen, n_vertices)
        graph = replace(graph, driven=random_driven(gen, n_vertices))
        report = analyze(model, graph)
        cert = certify_monte_carlo(
            model,
            graph,
            trials=3,
            rng=RandomSource(92_000 + built),
            analysis=report,
        )
        if cert.agree_with_verdict:
            matches += 1
        built += 1
    ok = matches == 50 and methods_agree
    acceptance(
        9,
        "matrix-weight verdicts match Monte Carlo on 50 fixed-mode-free triples",
        ok,
        f"{matches}/50 agree, both fixed-mode methods concur",
    )


def test_criterion_10_commutation_identity_is_exact(acceptance):
    gen = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        m, n, p, q = (int(v) for v in gen.integers(1, 6, size=4))
        a = gen.normal(size=(m, n))
        b = gen.normal(size=(p, q))
        lhs = commutation_matrix(m, p).T @ np.kron(a, b) @ commutation_matrix(n, q)
        worst = max(worst, float(np.max(np.abs(lhs - np.kron(b, a)))))
    ok = worst < 1e-12
    acceptance(
        10,
        "commutation matrices swap Kronecker factors exactly",
        ok,
        f"max deviation {worst:.2e} over 50 shape draws",
    )
