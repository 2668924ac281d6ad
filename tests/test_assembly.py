"""Weighted Laplacians, the lumped assembly route checked against the
test-side edgewise and factorized forms, and the physical chain builder."""

import contextlib
import io
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import diffnet.assembly
import edgewise
from conftest import (
    assembled_laplacian,
    count_calls,
    dense_direct_state_matrix,
    dense_edgewise_state_matrix,
    dense_pair,
    dense_wall_shift,
    driven_selector,
    edge_key,
    factorized_state_matrix,
    loop_matrix_laplacian,
    loop_sample_weights,
    physical_chain,
    random_connected_graph,
    random_driven,
    random_graph,
    random_model,
)
from diffnet.assembly import (
    _laplacian_blocks,
    assemble_blocks,
    ground_first_vertex,
    grounding_shift,
    sample_weights,
)
from diffnet.cli import main
from diffnet.errors import ModelValidationError
from diffnet.numerics import RandomSource
from diffnet.problem_io import Problem, mass_spring_chain, parse_problem
from diffnet.subsystem import SubsystemModel
from diffnet.topology import DIRECTED, UNDIRECTED, Edge, NetworkGraph
from edgewise import (
    ConsistencyError,
    IncidenceRealization,
    _edgewise_state_blocks,
    _require_close,
    cross_check,
    incidence_matrices,
)


def chain_graph(n: int, driven=()) -> NetworkGraph:
    return NetworkGraph(n, tuple(Edge(i, i + 1) for i in range(1, n)), driven)


def double_integrator() -> SubsystemModel:
    return SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], np.eye(2))


def rows(graph: NetworkGraph, values, channels: int | None = None) -> np.ndarray:
    """Single-input weights: one 1 x r row per edge, in edge order."""
    values = np.asarray(values, dtype=float)
    r = channels if channels is not None else values.shape[-1]
    return values.reshape(graph.num_edges, 1, r)


def channel_laplacians(graph: NetworkGraph, weights: np.ndarray):
    """Per-channel N x N Laplacians read off a 1 x r block Laplacian."""
    lap = assembled_laplacian(graph, weights)
    r = weights.shape[2]
    return tuple(lap[:, k::r] for k in range(r))


class TestWeightContainers:
    """Edge weights are one (M, p, r) array, block e for edge e."""

    def test_vector_weights_length_enforced(self):
        g = chain_graph(2)
        with pytest.raises(ValueError, match=r"shape \(1, 1, 2\)"):
            assemble_blocks(double_integrator(), g, rows(g, [[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            sample_weights(g, (1, 0), RandomSource(0))

    def test_empty_edge_list_needs_explicit_channels(self):
        """Edgeless graphs carry (0, p, r) arrays from every source; a bare
        empty array, which names no channels, is refused."""
        model, g = double_integrator(), NetworkGraph(1, driven=(1,))
        chain = mass_spring_chain(1, 1.0, springs=(2.0,), dampers=(0.5,))
        doc = {
            "subsystem": {"A": model.a.tolist(), "B": model.b.tolist(), "C": model.c.tolist()},
            "graph": {"N": 1, "edges": []},
            "driven": [1],
            "weights": {"edges": []},
        }
        for weights in (
            sample_weights(g, (1, 2), RandomSource(0)),
            chain.weights,
            parse_problem(json.dumps(doc)).weights,
        ):
            assert weights.shape == (0, 1, 2) and weights.dtype == np.float64
            a_sys, _ = dense_pair(model, g, weights)
            assert np.array_equal(a_sys, model.a)
        with pytest.raises(ValueError, match=r"shape \(0, 1, 2\)"):
            assemble_blocks(model, g, np.array([]))

    def test_matrix_weights_shape_enforced(self):
        model = SubsystemModel(np.zeros((2, 2)), np.eye(2), np.eye(2))
        g = chain_graph(2)
        with pytest.raises(ValueError, match=r"shape \(1, 2, 2\)"):
            assemble_blocks(model, g, np.ones((1, 1, 2)))
        with pytest.raises(ValueError, match=r"shape \(1, 2, 2\)"):
            assemble_blocks(model, g, np.ones((1, 2, 3)))
        with pytest.raises(ValueError):
            sample_weights(g, (0, 1), RandomSource(0))

    def test_weight_array_must_cover_every_edge_exactly(self):
        g = chain_graph(3)
        model = SubsystemModel([[0.0]], [[1.0]], [[1.0]])
        assemble_blocks(model, g, rows(g, [[1.0], [2.0]]))
        for count in (1, 3):
            with pytest.raises(ValueError, match=r"shape \(2, 1, 1\)"):
                assemble_blocks(model, g, np.ones((count, 1, 1)))


class TestLaplacians:
    def test_single_edge_per_channel(self):
        g = chain_graph(2)
        l1, l2 = channel_laplacians(g, rows(g, [[3.0, 5.0]]))
        assert np.array_equal(l1, [[3.0, -3.0], [-3.0, 3.0]])
        assert np.array_equal(l2, [[5.0, -5.0], [-5.0, 5.0]])

    def test_chain_hand_values(self):
        g = chain_graph(3)
        l1, l2 = channel_laplacians(g, rows(g, [[1.0, 0.0], [2.0, 0.0]]))
        assert np.array_equal(
            l1, [[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]]
        )
        assert np.array_equal(l2, np.zeros((3, 3)))

    def test_directed_edge_hits_head_row_only(self):
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED),))
        lap = assembled_laplacian(g, rows(g, [[4.0]]))
        assert np.array_equal(lap, [[0.0, 0.0], [-4.0, 4.0]])

    def test_no_edges_gives_zeros(self):
        g = NetworkGraph(3)
        laps = channel_laplacians(g, rows(g, [], channels=2))
        assert len(laps) == 2
        assert not laps[0].any() and not laps[1].any()

    def test_stacked_interleaves_channels(self):
        gen = np.random.default_rng(14)
        for _ in range(10):
            g = random_connected_graph(gen, int(gen.integers(2, 7)))
            r = int(gen.integers(1, 4))
            values = gen.normal(size=(g.num_edges, r))
            l_g = assembled_laplacian(g, rows(g, values[:, None, :], channels=r))
            assert l_g.shape == (g.num_vertices, g.num_vertices * r)
            for k in range(r):
                single = rows(g, values[:, None, k : k + 1], channels=1)
                assert np.array_equal(l_g[:, k::r], assembled_laplacian(g, single))

    def test_matrix_laplacian_blocks(self):
        g = chain_graph(2)
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        lap = assembled_laplacian(g, np.array([block]))
        assert np.array_equal(lap, np.block([[block, -block], [-block, block]]))

    def test_matrix_laplacian_directed(self):
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED),))
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        lap = assembled_laplacian(g, np.array([block]))
        zero = np.zeros((2, 2))
        assert np.array_equal(lap, np.block([[zero, zero], [-block, block]]))


class TestSingleInputAssembly:
    def test_single_vertex_is_the_node_itself(self):
        model = double_integrator()
        g = NetworkGraph(1, driven=(1,))
        w = rows(g, [], channels=2)
        a_sys, b_sys = dense_pair(model, g, w)
        assert np.array_equal(a_sys, model.a)
        assert np.array_equal(b_sys, model.b)

    def test_zero_weights_and_nobody_driven(self):
        model = double_integrator()
        g = chain_graph(2)
        w = rows(g, [[0.0, 0.0]])
        a_sys, b_sys = dense_pair(model, g, w)
        assert np.array_equal(a_sys, np.kron(np.eye(2), model.a))
        assert not b_sys.any()

    def test_two_mass_hand_matrix(self):
        k, d = 3.0, 0.5
        a_sys, b_sys = dense_pair(
            double_integrator(),
            chain_graph(2, driven=(1,)),
            rows(chain_graph(2), [[k, d]]),
        )
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-k, -d, k, d],
                [0.0, 0.0, 0.0, 1.0],
                [k, d, -k, -d],
            ]
        )
        assert np.allclose(a_sys, expected)
        # one column per vertex; undriven columns stay zero
        expected_b = np.zeros((4, 2))
        expected_b[1, 0] = 1.0
        assert np.array_equal(b_sys, expected_b)

    def test_input_blocks_follow_driven_set(self):
        model = double_integrator()
        g = chain_graph(3, driven=(2, 3))
        w = rows(g, [[1.0, 1.0], [1.0, 1.0]])
        a_sys, b_sys = dense_pair(model, g, w)
        assert not b_sys[0:2].any()
        assert not b_sys[:, 0].any()
        assert np.array_equal(b_sys[2:4, 1], [0.0, 1.0])
        assert np.array_equal(b_sys[4:6, 2], [0.0, 1.0])

    def test_rejects_multi_input_model(self):
        model = SubsystemModel(np.eye(2), np.eye(2), np.eye(2))
        g = chain_graph(2)
        w = rows(g, [[1.0, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            assemble_blocks(model, g, w)

    def test_rejects_wrong_container_and_channel_count(self):
        model = double_integrator()
        g = chain_graph(2)
        with pytest.raises(ValueError, match="shape"):
            assemble_blocks(model, g, rows(g, [[1.0]]))

    def test_rejects_invalid_model(self):
        g = chain_graph(2)
        with pytest.raises(ModelValidationError):  # refused when built
            assemble_blocks(
                SubsystemModel(np.eye(2), np.ones(2), [[0.0, 0.0]]),
                g,
                rows(g, [[1.0]]),
            )


class TestMatrixWeightAssembly:
    def test_identity_node_reduces_to_block_laplacian(self):
        model = SubsystemModel(np.zeros((2, 2)), np.eye(2), np.eye(2))
        g = chain_graph(2, driven=(1, 2))
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        a_sys, b_sys = dense_pair(model, g, np.array([block]))
        assert np.allclose(a_sys, -np.block([[block, -block], [-block, block]]))
        assert np.array_equal(b_sys, np.eye(4))

    def test_matches_single_input_assembly_when_shapes_allow(self):
        gen = np.random.default_rng(9)
        for _ in range(10):
            n = int(gen.integers(2, 6))
            g = random_connected_graph(gen, n)
            r = int(gen.integers(1, 3))
            model = random_model(gen, int(gen.integers(1, 4)), r)
            vec = sample_weights(g, (1, r), RandomSource(int(gen.integers(1 << 30))))
            g = replace(g, driven=random_driven(gen, n))
            a_sys, b_sys = dense_pair(model, g, vec)
            # single-input form: I kron A minus the channel sum of L_k kron (b c_k)
            channel_sum = np.kron(np.eye(n), model.a)
            for k, lap in enumerate(channel_laplacians(g, vec)):
                channel_sum = channel_sum - np.kron(lap, model.b @ model.c[k : k + 1])
            assert np.allclose(a_sys, channel_sum, rtol=1e-10, atol=1e-10)
            delta = driven_selector(g)
            assert np.array_equal(b_sys, np.kron(delta, model.b))

    def test_rejects_shape_mismatch_with_model(self):
        model = SubsystemModel(np.eye(2), np.eye(2), np.eye(2))
        g = chain_graph(2)
        with pytest.raises(ValueError, match="shape"):
            assemble_blocks(model, g, np.ones((1, 1, 2)))

    def test_rejects_overflowing_weights(self, monkeypatch):
        judged = count_calls(monkeypatch, edgewise, "_require_close")
        for hub in (1, 2, 3):
            g = NetworkGraph(3, tuple(Edge(hub, v) for v in (1, 2, 3) if v != hub))
            huge = rows(g, [[1e308, 1e308], [1e308, 1e308]])
            # both edges meet at the hub: only its diagonal block, their
            # sum, leaves the float range
            with np.errstate(over="ignore"):
                finite = np.isfinite(loop_matrix_laplacian(g, huge))
            expected = np.ones((3, 6), dtype=bool)
            expected[hub - 1, 2 * hub - 2 : 2 * hub] = False
            assert np.array_equal(finite, expected)
            with pytest.raises(ValueError, match="overflows the float range"):
                assemble_blocks(double_integrator(), g, huge)
            with pytest.raises(ValueError, match="overflows the float range"):
                cross_check(double_integrator(), g, huge)
        assert judged == []  # refused before the routes are compared

    def test_cross_check_rejects_nan_deviation(self):
        with pytest.raises(ConsistencyError, match="disagree"):
            _require_close("x", np.array([[np.nan]]), np.array([[1.0]]), 1e-9)


def mixed_graphs(gen):
    """One vertex alone, an edgeless graph and random mixed graphs."""
    yield NetworkGraph(1)
    yield NetworkGraph(int(gen.integers(2, 5)))
    for _ in range(3):
        yield random_graph(gen, int(gen.integers(6, 9)), edge_prob=0.7)


def quarters(gen, shape) -> np.ndarray:
    """Entries in {-2, -1.75, ..., 2}: every sum of products of a few of
    them is exact in floating point, whatever order BLAS sums in."""
    return gen.integers(-8, 9, size=shape) / 4.0


def max_degree(graph: NetworkGraph) -> int:
    degree = np.zeros(graph.num_vertices + 1, dtype=int)
    for e in graph.edges:
        degree[[e.u, e.v]] += 1
    return int(degree.max())


class TestDirectRoute:
    def check_pair(self, a_sys, b_sys, model, graph):
        """Structural zeros are 0.0: no -0.0 outside the diagonal blocks of
        A_sys or anywhere in B_sys, which is Delta kron B."""
        n, nv = model.order, graph.num_vertices
        off_diagonal = ~np.kron(np.eye(nv, dtype=bool), np.ones((n, n), dtype=bool))
        assert not np.any(np.signbit(a_sys) & (a_sys == 0) & off_diagonal)
        assert np.array_equal(b_sys, np.kron(driven_selector(graph), model.b))
        assert not np.any(np.signbit(b_sys) & (b_sys == 0))

    def test_matches_dense_kronecker_reference_bit_for_bit(self):
        gen = np.random.default_rng(77)
        kinds, antiparallel, degree = set(), 0, 0
        for (p, r), g in itertools.product(
            itertools.product((1, 2, 3), repeat=2), list(mixed_graphs(gen))
        ):
            kinds.update(e.kind for e in g.edges)
            directed = {(e.u, e.v) for e in g.edges if e.kind == DIRECTED}
            antiparallel += sum((v, u) in directed for u, v in directed)
            degree = max(degree, max_degree(g))
            n = int(gen.integers(1, 4))
            c = quarters(gen, (r, n))
            c[~c.any(axis=1), 0] = 1.0  # no zero output row
            model = SubsystemModel(quarters(gen, (n, n)), quarters(gen, (n, p)), c)
            weights = quarters(gen, (g.num_edges, p, r))
            g = replace(g, driven=random_driven(gen, g.num_vertices))
            a_sys, b_sys = dense_pair(model, g, weights)
            reference = dense_direct_state_matrix(model, g, weights)
            # equal floats that are nonzero have equal bits
            assert np.array_equal(a_sys, reference)
            self.check_pair(a_sys, b_sys, model, g)
        assert kinds == {UNDIRECTED, DIRECTED} and antiparallel > 0 and degree >= 5

    def test_matches_dense_reference_within_rounding(self):
        """On general floats the two routes may sum an entry's few products
        in another order; each stays within the classic bound of
        2 (p + r + 1) eps on the sum of the terms' magnitudes."""
        gen = np.random.default_rng(78)
        for (p, r), g in itertools.product(
            itertools.product((1, 2, 3), repeat=2), list(mixed_graphs(gen))
        ):
            model = random_model(gen, int(gen.integers(1, 4)), r, num_inputs=p)
            weights = sample_weights(g, (p, r), RandomSource(int(gen.integers(1 << 30))))
            g = replace(g, driven=random_driven(gen, g.num_vertices))
            a_sys, b_sys = dense_pair(model, g, weights)
            reference = dense_direct_state_matrix(model, g, weights)
            eye = np.eye(g.num_vertices)
            lap = np.abs(loop_matrix_laplacian(g, weights))
            magnitude = np.kron(eye, np.abs(model.a)) + (
                np.kron(eye, np.abs(model.b)) @ lap @ np.kron(eye, np.abs(model.c))
            )
            bound = 2 * (p + r + 1) * np.finfo(float).eps * magnitude
            assert np.all(np.abs(a_sys - reference) <= bound)
            self.check_pair(a_sys, b_sys, model, g)

    def test_laplacian_matches_edge_loop_bit_for_bit(self):
        gen = np.random.default_rng(78)
        for (p, r), g in itertools.product(
            itertools.product((1, 2, 3), repeat=2), list(mixed_graphs(gen))
        ):
            blocks = gen.normal(size=(g.num_edges, p, r))
            blocks[gen.random(blocks.shape) < 0.2] = 0.0
            blocks[gen.random(blocks.shape) < 0.2] = -0.0
            got = assembled_laplacian(g, blocks)
            reference = loop_matrix_laplacian(g, blocks)
            assert got.shape == reference.shape
            assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))

    def test_flipped_laplacian_block_is_caught(self, monkeypatch):
        def flipped(graph, blocks):
            rows, cols, values = _laplacian_blocks(graph, blocks)
            values[(rows == 1) & (cols == 0)] *= -1.0  # block (2, 1): edge 1 -> 2
            return rows, cols, values

        monkeypatch.setattr(diffnet.assembly, "_laplacian_blocks", flipped)
        with pytest.raises(ConsistencyError, match="disagree"):
            check_routes_agree(examples=40)


@st.composite
def lumped_cases(draw):
    """A model, a graph with its driven vertices, and one draw of its
    weights: every vertex pair unlinked, undirected, directed either way or
    antiparallel, so edgeless graphs come first."""
    p, r, n = (draw(st.integers(1, 3)) for _ in range(3))
    n_vertices = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n_vertices + 1) for v in range(u + 1, n_vertices + 1)]
    kinds = [None, UNDIRECTED, "forward", "backward", "antiparallel"]
    drawn = draw(st.lists(st.sampled_from(kinds), min_size=len(pairs), max_size=len(pairs)))
    edges = []
    for (u, v), kind in zip(pairs, drawn):
        if kind in (UNDIRECTED, "forward"):
            edges.append(Edge(u, v, DIRECTED if kind == "forward" else kind))
        if kind in ("backward", "antiparallel"):
            edges.append(Edge(v, u, DIRECTED))
        if kind == "antiparallel":
            edges.append(Edge(u, v, DIRECTED))
    driven = draw(st.sets(st.integers(1, n_vertices)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = NetworkGraph(n_vertices, tuple(edges), driven)
    model = random_model(gen, n, r, num_inputs=p)
    return model, graph, gen.uniform(-1.0, 1.0, size=(len(edges), p, r))


def check_routes_agree(examples: int) -> set:
    """The one assembly route against the test-side edgewise route (to
    ASSEMBLY_CROSS_CHECK_RTOL) and against the dense factorized form, on
    ``lumped_cases``. Returns the kinds of case met."""
    met = set()

    @seed(21)
    @settings(max_examples=examples, deadline=None, database=None)
    @given(lumped_cases())
    def case(network):
        model, graph, weights = network
        met.update(e.kind for e in graph.edges)
        if not graph.num_edges:
            met.add("edgeless")
        cross_check(model, graph, weights)
        a_sys, _ = dense_pair(model, graph, weights)
        reference = factorized_state_matrix(model, graph, weights)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(a_sys - reference)) <= 1e-10 * scale

    case()
    return met


def test_one_route_matches_the_edgewise_and_factorized_forms():
    met = check_routes_agree(examples=150)
    assert met == {"edgeless", UNDIRECTED, DIRECTED}


def edgewise_matrix(model, graph, blocks) -> np.ndarray:
    """The whole state matrix of the edgewise route's block terms
    ``blocks`` = (rows, cols, terms), summed in term order."""
    rows, cols, terms = blocks
    n_vertices, n = graph.num_vertices, model.order
    out = np.zeros((n_vertices, n, n_vertices, n))
    np.add.at(out, (rows, slice(None), cols), terms)
    return out.reshape(n_vertices * n, n_vertices * n)


class TestEdgewiseRoute:
    def test_matches_dense_kronecker_reference(self):
        gen = np.random.default_rng(2024)
        kinds, antiparallel = set(), 0
        for (p, r), case in itertools.product(
            itertools.product((1, 2, 3), repeat=2), range(6)
        ):
            if case == 0:
                g = NetworkGraph(1)
            elif case == 1:
                g = NetworkGraph(int(gen.integers(2, 5)))
            else:
                g = random_graph(gen, int(gen.integers(2, 7)), edge_prob=0.7)
            kinds.update(e.kind for e in g.edges)
            directed = {(e.u, e.v) for e in g.edges if e.kind == DIRECTED}
            antiparallel += sum((v, u) in directed for u, v in directed)
            model = random_model(gen, int(gen.integers(1, 4)), r, num_inputs=p)
            weights = sample_weights(g, (p, r), RandomSource(int(gen.integers(1 << 30))))
            edge_route = edgewise_matrix(model, g, _edgewise_state_blocks(model, g, weights))
            reference = dense_edgewise_state_matrix(model, g, weights)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(edge_route - reference)) <= 1e-12 * scale
        assert kinds == {UNDIRECTED, DIRECTED} and antiparallel > 0

    def test_flipped_injection_sign_is_caught(self, monkeypatch):
        def flipped(graph):
            real = incidence_matrices(graph)
            injection = real.injection.copy()
            idx = next(k for k, e in enumerate(graph.edges) if e.kind == UNDIRECTED)
            injection[:, idx] *= -1.0
            return IncidenceRealization(real.incidence, injection)

        monkeypatch.setattr(edgewise, "incidence_matrices", flipped)
        g = NetworkGraph(3, (Edge(1, 2, DIRECTED), Edge(2, 3)))
        with pytest.raises(ConsistencyError, match="disagree"):
            cross_check(
                double_integrator(),
                g,
                rows(g, [[1.0, 0.5], [2.0, 0.3]]),
            )


class TestStackedAssembly:
    """Several draws of one network are assembled, cross-checked and
    refused one draw at a time; ``assemble_blocks`` takes no stack."""

    def test_deviation_in_one_member_fails_the_cross_check(self, monkeypatch):
        judged, calls = [], []

        def planted(model, graph, blocks):
            rows, cols, terms = _edgewise_state_blocks(model, graph, blocks)
            calls.append(None)
            if len(calls) == 2:  # the second draw's edgewise route
                terms = terms.copy()
                terms[-1] += 1e-3
            return rows, cols, terms

        def capture(name, first, second, rtol):
            judged.append(first.shape)
            _require_close(name, first, second, rtol)

        g = NetworkGraph(3, (Edge(1, 2, DIRECTED), Edge(2, 3)))
        blocks = rows(g, [[1.0, 0.5], [2.0, 0.3]])
        draws = [blocks, 2.0 * blocks, 3.0 * blocks]
        monkeypatch.setattr(edgewise, "_require_close", capture)
        for draw in draws:
            cross_check(double_integrator(), g, draw)
        assert len(judged) == 3  # one judgement per draw
        monkeypatch.setattr(edgewise, "_edgewise_state_blocks", planted)
        judged.clear()
        cross_check(double_integrator(), g, draws[0])
        with pytest.raises(ConsistencyError, match="disagree"):
            cross_check(double_integrator(), g, draws[1])
        assert len(judged) == 2  # draw 0 passes, draw 1 fails

    def test_one_overflowing_member_refuses_the_stack(self, monkeypatch):
        """Of three draws, the one whose block at vertex 2 leaves the float
        range is refused, by both routes, before any comparison; the
        others assemble."""
        g = chain_graph(3)
        draws = np.full((3, g.num_edges, 1, 2), 0.5)
        draws[1] = 1e308
        judged = count_calls(monkeypatch, edgewise, "_require_close")
        with pytest.raises(ValueError, match="overflows the float range"):
            assemble_blocks(double_integrator(), g, draws[1])
        with pytest.raises(ValueError, match="overflows the float range"):
            cross_check(double_integrator(), g, draws[1])
        assert judged == []
        for draw in draws[::2]:
            cross_check(double_integrator(), g, draw)
        assert len(judged) == 2

    def test_rejects_a_stack_of_the_wrong_shape(self):
        """Weights are one (M, p, r) draw: a stack of draws is refused, even
        one whose members have the right shape."""
        g = chain_graph(3)
        for shape in ((2, 2, 1, 2), (1, 2, 1, 2), (2, 3, 1, 2), (2, 2)):
            with pytest.raises(ValueError, match="one block per edge"):
                assemble_blocks(double_integrator(), g, np.ones(shape))


class TestFactorizedForm:
    def test_residual_small_on_random_instances(self):
        gen = np.random.default_rng(77)
        for i in range(12):
            n = int(gen.integers(2, 6))
            g = random_connected_graph(gen, n)
            g = replace(g, driven=random_driven(gen, n))
            if i % 2 == 0:
                r = int(gen.integers(1, 3))
                model = random_model(gen, int(gen.integers(1, 4)), r)
                weights = sample_weights(g, (1, r), RandomSource(i))
            else:
                p, r = int(gen.integers(2, 4)), int(gen.integers(1, 3))
                model = random_model(gen, int(gen.integers(1, 4)), r, num_inputs=p)
                weights = sample_weights(g, (p, r), RandomSource(i))
            a_sys, _ = dense_pair(model, g, weights)
            reference = factorized_state_matrix(model, g, weights)
            scale = max(1.0, np.max(np.abs(a_sys)))
            assert np.max(np.abs(a_sys - reference)) < 1e-10 * scale


class TestSampledWeights:
    def test_deterministic_for_fixed_source(self):
        g = chain_graph(4)
        first = sample_weights(g, (1, 2), RandomSource(7))
        second = sample_weights(g, (1, 2), RandomSource(7))
        other = sample_weights(g, (1, 2), RandomSource(8))
        assert first.shape == (g.num_edges, 1, 2)
        assert np.array_equal(first, second)
        assert any(not np.array_equal(f, o) for f, o in zip(first, other))

    def test_entries_bounded_away_from_zero(self):
        g = chain_graph(5)
        w = sample_weights(g, (2, 3), RandomSource(3))
        mags = np.abs(w)
        assert np.all(mags >= 0.1 - 1e-12) and np.all(mags <= 1.0 + 1e-12)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            sample_weights(chain_graph(2), (0, 1), RandomSource(0))

    def test_matches_per_edge_draws_bit_for_bit(self):
        gen = np.random.default_rng(30)
        for case in range(200):
            g = random_graph(gen, int(gen.integers(1, 9)))
            shape = (int(gen.integers(1, 4)), int(gen.integers(1, 4)))
            rng = RandomSource(int(gen.integers(0, 2**31))).derive(case)
            got = sample_weights(g, shape, rng)
            want = loop_sample_weights(g, shape, rng)
            assert got.shape == (g.num_edges, *shape)
            for drawn, block in zip(got, want):
                assert drawn.view(np.uint64).tolist() == block.view(np.uint64).tolist()


def written_chain(num_masses: int, mass: float, springs, dampers) -> Problem:
    """The problem file ``diffnet example`` writes for these constants, parsed."""
    argv = ["example", "--N", str(num_masses), "--mass", repr(mass), "--seed", "0"]
    argv += ["--springs", *map(repr, springs), "--dampers", *map(repr, dampers)]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    return parse_problem(text.getvalue())


class TestMassSpringChain:
    def test_coefficients_and_layout(self):
        chain = mass_spring_chain(3, 2.0, springs=(1.0, 2.0, 3.0), dampers=(4.0, 5.0, 6.0))
        assert isinstance(chain, Problem)
        assert chain.graph.num_vertices == 3
        assert [edge_key(e) for e in chain.graph.edges] == [
            edge_key(Edge(1, 2)),
            edge_key(Edge(2, 3)),
        ]
        # edge {i, i+1} carries [k_{i+1}, mu_{i+1}]; k_1, mu_1 belong to the wall
        assert np.array_equal(chain.weights, [[[2.0, 5.0]], [[3.0, 6.0]]])
        assert chain.options == {
            "wall": {"stiffness_over_mass": 0.5, "damping_over_mass": 2.0}
        }
        # force, external or coupling, enters through B = [0; 1/m]
        assert np.array_equal(chain.model.b, [[0.0], [0.5]])
        assert chain.graph.driven == (1,)

    def test_single_mass_chain_assembles(self):
        chain = mass_spring_chain(1, 1.0, springs=(2.0,), dampers=(0.5,))
        a_sys, _ = dense_pair(chain.model, chain.graph, chain.weights)
        assert np.array_equal(a_sys, chain.model.a)

    def test_grounded_two_mass_physics(self):
        m, k1, k2, mu1, mu2 = 2.0, 1.0, 3.0, 0.25, 0.5
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-(k1 + k2) / m, -(mu1 + mu2) / m, k2 / m, mu2 / m],
                [0.0, 0.0, 0.0, 1.0],
                [k2 / m, mu2 / m, -k2 / m, -mu2 / m],
            ]
        )
        args = (2, m, (k1, k2), (mu1, mu2))
        for chain in (mass_spring_chain(*args), written_chain(*args)):
            a_sys, _ = assemble_blocks(chain.model, chain.graph, chain.weights)
            wall = grounding_shift(**chain.options["wall"])
            grounded = ground_first_vertex(a_sys, wall).dense()
            assert np.allclose(grounded, expected)

    @seed(26)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sampled_from([0.25, 1.0, 2.0, 3.0, 0.7]),
                *(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),) * 2,
            )
        )
    )
    def test_written_file_is_the_chain_and_both_are_physical(self, case):
        """``example`` writes the problem ``mass_spring_chain`` returns,
        and both lump to the chain's equations of motion, plain and
        grounded, with the force input B = [0; 1/m]."""
        num, mass, springs, dampers = case
        chain = mass_spring_chain(num, mass, springs, dampers)
        written = written_chain(num, mass, springs, dampers)
        for name in ("a", "b", "c"):
            assert np.array_equal(getattr(written.model, name), getattr(chain.model, name))
        for name in ("num_vertices", "u", "v", "directed", "driven"):
            assert np.array_equal(getattr(written.graph, name), getattr(chain.graph, name))
        assert written.weights.view(np.uint64).tolist() == chain.weights.view(np.uint64).tolist()
        assert written.options == {"seed": 0, **chain.options}
        for problem in (chain, written):
            a_sys, b_sys = assemble_blocks(problem.model, problem.graph, problem.weights)
            wall = grounding_shift(**problem.options["wall"])
            for state, grounded in ((a_sys, False), (ground_first_vertex(a_sys, wall), True)):
                a, b = physical_chain(mass, springs, dampers, grounded)
                np.testing.assert_allclose(state.dense(), a, rtol=1e-12, atol=0.0)
                assert np.array_equal(b_sys.dense(), b)

    def test_validation(self):
        with pytest.raises(ValueError):
            mass_spring_chain(0, 1.0, springs=(), dampers=())
        with pytest.raises(ValueError):
            mass_spring_chain(2, 0.0, springs=(1.0, 1.0), dampers=(1.0, 1.0))
        with pytest.raises(ValueError):
            mass_spring_chain(2, 1.0, springs=(1.0,), dampers=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            mass_spring_chain(2, float("inf"), springs=(1.0, 1.0), dampers=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            mass_spring_chain(2, 1.0, springs=(1.0, float("nan")), dampers=(1.0, 1.0))

    def test_grounding_shift_values(self):
        shift = grounding_shift(3.0, 0.5)
        assert np.array_equal(shift, [[0.0, 0.0], [-3.0, -0.5]])
        # placed at vertex 1's diagonal block of a 2-node state matrix
        zero, _ = assemble_blocks(double_integrator(), chain_graph(2), np.zeros((1, 1, 2)))
        zero = replace(zero, blocks=np.zeros_like(zero.blocks))
        expected = np.zeros((4, 4))
        expected[1, 0] = -3.0
        expected[1, 1] = -0.5
        assert np.array_equal(ground_first_vertex(zero, shift).dense(), expected)
        assert np.array_equal(expected, dense_wall_shift(2, 3.0, 0.5))


class TestCrossCheck:
    def test_judged_deviation_is_that_of_the_whole_matrices(self, monkeypatch):
        """``cross_check`` sums the edgewise route and compares it with the
        assembled matrix at the blocks either route writes. Both are exactly
        0.0 everywhere else, so the deviation and scale it judges equal the
        formula over the whole matrices: as built, with noise planted in
        every term of the edgewise route, and with a NaN in one."""
        gen = np.random.default_rng(909)
        noise, judged, routes = [0.0, False], [], []

        def planted(model, graph, blocks):
            rows, cols, terms = _edgewise_state_blocks(model, graph, blocks)
            terms = terms + gen.normal(scale=noise[0], size=terms.shape)
            if noise[1]:
                terms[-1, -1, -1] = np.nan
            routes.append((rows, cols, terms))
            return rows, cols, terms

        def capture(name, first, second, rtol):
            judged.append(deviation_and_scale(first, second))
            _require_close(name, first, second, rtol)

        def deviation_and_scale(first, second):
            return (
                float(np.max(np.abs(first - second))),
                max(1.0, float(np.max(np.abs(first)))),
            )

        monkeypatch.setattr(edgewise, "_edgewise_state_blocks", planted)
        monkeypatch.setattr(edgewise, "_require_close", capture)
        for (p, r), g in itertools.product(
            itertools.product((1, 2, 3), repeat=2), list(mixed_graphs(gen))
        ):
            model = random_model(gen, int(gen.integers(1, 4)), r, num_inputs=p)
            weights = sample_weights(g, (p, r), RandomSource(int(gen.integers(1 << 30))))
            g = replace(g, driven=random_driven(gen, g.num_vertices))
            a_sys = None
            for noise[:] in ([0.0, False], [1e-3, False], [0.0, True]):
                judged.clear()
                routes.clear()
                if a_sys is None:
                    cross_check(model, g, weights)
                    a_sys, _ = dense_pair(model, g, weights)
                else:
                    with pytest.raises(ConsistencyError, match="disagree"):
                        cross_check(model, g, weights)
                (route,) = routes
                whole = deviation_and_scale(a_sys, edgewise_matrix(model, g, route))
                if noise[1]:
                    assert np.isnan(judged[0][0]) and np.isnan(whole[0])
                    assert judged[0][1] == whole[1]
                else:
                    assert judged == [whole]
