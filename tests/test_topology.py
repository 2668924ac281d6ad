"""Graphs, reachability, forests, incidence factorization, and the pattern
digraph cycle check restated in ``lemmas``."""

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assembled_laplacian,
    edge_key,
    edges_with_defects,
    incoming_influence_counts,
    loop_spanning_forest,
    oriented,
    outcome,
    random_driven,
    random_graph,
    reference_graph_check,
    reference_weights_json,
)
from diffnet.topology import (
    DIRECTED,
    UNDIRECTED,
    DrivenIdError,
    Edge,
    NetworkGraph,
    spanning_forest,
)
from edgewise import incidence_matrices
from lemmas import cycles_input_reachable


class TestGraphValidation:
    def test_edge_key_canonicalizes_undirected(self):
        assert edge_key(Edge(3, 1)) == edge_key(Edge(1, 3))
        assert edge_key(Edge(3, 1, DIRECTED)) != edge_key(Edge(1, 3, DIRECTED))

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            NetworkGraph(0)

    def test_rejects_out_of_range_and_self_loops(self):
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 3),))
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 1),))

    def test_rejects_duplicates_and_pair_conflicts(self):
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 2), Edge(2, 1)))
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 2), Edge(1, 2, DIRECTED)))
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 2, DIRECTED), Edge(1, 2, DIRECTED)))

    def test_antiparallel_directed_pair_allowed(self):
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED), Edge(2, 1, DIRECTED)))
        assert g.num_edges == 2 and g.has_directed_edges()

    def test_edge_is_a_named_tuple(self):
        assert Edge(1, 2) == (1, 2, UNDIRECTED)
        assert hash(Edge(2, 1, DIRECTED)) == hash((2, 1, DIRECTED))
        assert Edge(2, 1)._asdict() == {"u": 2, "v": 1, "kind": UNDIRECTED}

    def test_bulk_checks_match_the_per_edge_reference(self):
        gen = np.random.default_rng(81)
        seen = set()
        for _ in range(1500):
            n = int(gen.integers(2, 7))
            edges = edges_with_defects(gen, n)
            got = outcome(lambda: NetworkGraph(n, tuple(edges)))
            want = outcome(reference_graph_check, n, edges)
            if want[0] == "ok":
                assert got[0] == "ok", got
                g = got[1]
                assert g.edges == tuple(edges)
                assert {type(i) for e in g.edges for i in e[:2]} <= {int}
                assert (g.start + 1).tolist() == [oriented(e)[0] for e in edges]
                assert (g.end + 1).tolist() == [oriented(e)[1] for e in edges]
                assert g.directed.tolist() == [e.kind == DIRECTED for e in edges]
                driven = replace(g, driven=(1,))
                forest = spanning_forest(driven)
                want_forest = loop_spanning_forest(driven)
                assert (dict(forest.parent), forest.order, forest.unreachable) == want_forest
                assert g.has_directed_edges() == any(g.directed)
                seen.add("ok")
            else:
                assert got == want
                seen.update(f for f in self.GRAPH_ERRORS if f in want[1])
        # every check of the reference fired at least once
        assert seen == {"ok", *self.GRAPH_ERRORS}

    GRAPH_ERRORS = (
        "has unknown kind",
        "references a vertex outside",
        "self-loop",
        "duplicate edge",
        "already carry",
    )

    def test_vertex_count_must_fit_int64(self):
        NetworkGraph(2**63 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            NetworkGraph(2**63)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkGraph(2, (Edge(1, 2, "bidirectional"),))

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_vertex_ids_must_be_ints(self, bad):
        for edge in (Edge(bad, 3), Edge(3, bad), (bad, 3, UNDIRECTED)):
            with pytest.raises(ValueError, match="outside"):
                NetworkGraph(3, (Edge(1, 2), edge))

    def test_plain_tuple_edges_are_checked_as_edges(self):
        with pytest.raises(ValueError, match="outside"):
            NetworkGraph(3, ((1.0, 2, UNDIRECTED),))
        with pytest.raises(ValueError, match="duplicate"):
            NetworkGraph(3, ((1, 2, UNDIRECTED), (2, 1, UNDIRECTED)))
        assert NetworkGraph(3, ((1, 2, UNDIRECTED),)).num_edges == 1

    def test_plain_tuples_are_held_as_edges(self):
        g = NetworkGraph(3, ((1, 2, UNDIRECTED),))
        assert type(g.edges[0]) is Edge
        assert reference_weights_json(g, np.ones((1, 1, 1))) == {
            "edges": [{"u": 1, "v": 2, "kind": UNDIRECTED, "W": [[1.0]]}]
        }
        pair = NetworkGraph(3, ((1, 2),)).edges
        assert pair == (Edge(1, 2),) and type(pair[0]) is Edge

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_ids_become_ints(self, integer):
        g = NetworkGraph(3, (Edge(integer(1), 2), (3, integer(2), DIRECTED)))
        assert g.edges == (Edge(1, 2), Edge(3, 2, DIRECTED))
        assert {type(i) for e in g.edges for i in e[:2]} == {int}
        with pytest.raises(ValueError, match=r"edge \(4, 2\) references a vertex outside"):
            NetworkGraph(3, (Edge(integer(4), 2),))

    @pytest.mark.parametrize("entry", [(1, 2, UNDIRECTED, 0), (1,), [1, 2], "12", None])
    def test_other_entries_are_refused_by_position(self, entry):
        with pytest.raises(ValueError, match="edge #0 must be an Edge"):
            NetworkGraph(3, (entry,))
        with pytest.raises(ValueError, match="edge #1 must be an Edge"):
            NetworkGraph(3, (Edge(1, 2), entry))

    def test_driven_set_validation(self):
        with pytest.raises(DrivenIdError, match="must be positive"):
            NetworkGraph(3, driven=(0,))
        for bad in (True, 1.5, 2.0, "2"):
            with pytest.raises(DrivenIdError, match=f"integers, got {bad!r}"):
                NetworkGraph(3, driven=(1, bad))
        g = NetworkGraph(3, driven=[np.int64(2), np.int32(3), 2])
        assert g.driven == (2, 3)
        assert all(type(i) is int for i in g.driven)
        exceed = r"driven vertices \[2, 5\] exceed the vertex count 1"
        with pytest.raises(DrivenIdError, match=exceed):
            NetworkGraph(1, driven={5, 1, 2})

    def test_driven_ids_are_held_sorted_and_distinct(self):
        assert NetworkGraph(4, driven=iter([3, 1, 3, 4])).driven == (1, 3, 4)
        assert NetworkGraph(4).driven == ()
        assert NetworkGraph(4, driven=(2,)) == NetworkGraph(4, driven={2})

    def test_driven_ids_are_checked_after_the_edges(self):
        # a graph with a bad edge and a bad driven id reports the edge
        with pytest.raises(ValueError, match="self-loop") as caught:
            NetworkGraph(2, (Edge(1, 1),), driven=(9,))
        assert not isinstance(caught.value, DrivenIdError)

    def test_replace_checks_the_driven_ids(self):
        g = NetworkGraph(3, (Edge(1, 2), Edge(2, 3)), driven=(1,))
        moved = replace(g, driven=(np.int64(3), 2))
        assert moved.driven == (2, 3) and moved.edges == g.edges
        assert np.array_equal(moved.start, g.start) and g.driven == (1,)
        for bad, message in ((4, "exceed the vertex count 3"), (0, "positive"), (1.0, "integers")):
            with pytest.raises(DrivenIdError, match=message):
                replace(g, driven=(bad,))
        with pytest.raises(DrivenIdError, match=r"vertices \[3\] exceed the vertex count 2"):
            replace(moved, num_vertices=2, edges=(Edge(1, 2),))

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_vertex_count_is_an_int(self, integer):
        g = NetworkGraph(integer(3), (Edge(1, 3),), driven=(3,))
        assert g.num_vertices == 3 and type(g.num_vertices) is int
        with pytest.raises(ValueError, match="positive vertex count, got 0"):
            NetworkGraph(integer(0))

    @pytest.mark.parametrize("bad", [True, False, 3.0, "3", None])
    def test_vertex_count_must_be_an_integer(self, bad):
        message = f"positive vertex count, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            NetworkGraph(bad)


def reached(graph: NetworkGraph, driven) -> set[int]:
    return set(spanning_forest(replace(graph, driven=driven)).order)


class TestReachability:
    def test_influence_and_incoming_counts(self):
        g = NetworkGraph(3, (Edge(1, 2, DIRECTED), Edge(2, 3)))
        from_2 = spanning_forest(replace(g, driven=(2,)))
        assert (from_2.order, dict(from_2.parent), from_2.unreachable) == ((2, 3), {3: 2}, {1})
        from_3 = spanning_forest(replace(g, driven=(3,)))
        assert (from_3.order, dict(from_3.parent), from_3.unreachable) == ((3, 2), {2: 3}, {1})
        assert incoming_influence_counts(g) == [0, 2, 1]

    def test_undirected_chain(self):
        g = NetworkGraph(3, (Edge(1, 2), Edge(2, 3)))
        assert reached(g, (1,)) == {1, 2, 3}
        assert not spanning_forest(replace(g, driven=(1,))).unreachable

    def test_empty_driven_reaches_nothing(self):
        g = NetworkGraph(3, (Edge(1, 2), Edge(2, 3)))
        assert reached(g, ()) == frozenset()

    def test_mixed_kinds_hand_trace(self):
        g = NetworkGraph(3, (Edge(1, 2, DIRECTED), Edge(3, 2, UNDIRECTED)))
        assert reached(g, (1,)) == {1, 2, 3}

    def test_directed_edges_are_one_way(self):
        g = NetworkGraph(2, (Edge(1, 2, DIRECTED),))
        assert reached(g, (2,)) == {2}

    def test_single_driven_vertex_alone(self):
        assert reached(NetworkGraph(1), (1,)) == {1}

    def test_monotone_in_driven_set(self):
        gen = np.random.default_rng(21)
        for _ in range(25):
            n = int(gen.integers(2, 8))
            g = random_graph(gen, n)
            small = random_driven(gen, n, allow_empty=True)
            extra = random_driven(gen, n, allow_empty=True)
            large = small + extra
            assert reached(g, small) <= reached(g, large)


class TestSpanningForest:
    def test_chain_parents(self):
        g = NetworkGraph(3, (Edge(1, 2), Edge(2, 3)), driven=(1,))
        forest = spanning_forest(g)
        assert not forest.unreachable
        assert dict(forest.parent) == {2: 1, 3: 2}
        assert forest.roots == (1,)

    def test_star_center(self):
        g = NetworkGraph(4, (Edge(1, 2), Edge(1, 3), Edge(1, 4)), driven=(1,))
        forest = spanning_forest(g)
        assert dict(forest.parent) == {2: 1, 3: 1, 4: 1}

    def test_disconnected_reports_unreachable(self):
        g = NetworkGraph(4, (Edge(1, 2),), driven=(1,))
        forest = spanning_forest(g)
        assert forest.unreachable == {3, 4}

    def test_parent_precedes_child_in_order(self):
        gen = np.random.default_rng(8)
        for _ in range(25):
            n = int(gen.integers(2, 9))
            g = random_graph(gen, n)
            forest = spanning_forest(replace(g, driven=random_driven(gen, n)))
            pos = {v: i for i, v in enumerate(forest.order)}
            for child, parent in forest.parent.items():
                assert pos[parent] < pos[child]

    def test_forest_success_iff_reachable(self):
        gen = np.random.default_rng(17)
        for _ in range(40):
            n = int(gen.integers(1, 11))
            g = random_graph(gen, n, edge_prob=0.4)
            d = random_driven(gen, n, allow_empty=True)
            forest = spanning_forest(replace(g, driven=d))
            assert set(forest.order) | forest.unreachable == set(range(1, n + 1))
            assert not set(forest.order) & forest.unreachable


def incidence_laplacian(real, edge_weights) -> np.ndarray:
    """-injection @ diag(edge_weights) @ incidence."""
    return -real.injection @ (np.asarray(edge_weights)[:, None] * real.incidence)


class TestIncidence:
    def test_chain_hand_values(self):
        g = NetworkGraph(3, (Edge(1, 2), Edge(2, 3)))
        real = incidence_matrices(g)
        assert np.array_equal(
            real.incidence, np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        )
        assert np.array_equal(
            real.injection, np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
        )
        lap = incidence_laplacian(real, [2.0, 3.0])
        expected = np.array(
            [[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]]
        )
        assert np.allclose(lap, expected)

    def test_single_undirected_edge(self):
        real = incidence_matrices(NetworkGraph(2, (Edge(1, 2),)))
        assert np.allclose(
            incidence_laplacian(real, [4.0]), np.array([[4.0, -4.0], [-4.0, 4.0]])
        )

    def test_single_directed_edge_one_way(self):
        real = incidence_matrices(NetworkGraph(2, (Edge(1, 2, DIRECTED),)))
        lap = incidence_laplacian(real, [4.0])
        assert np.allclose(lap, np.array([[0.0, 0.0], [-4.0, 4.0]]))

    def test_each_incidence_row_sums_to_zero(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(gen, int(gen.integers(2, 8)))
            real = incidence_matrices(g)
            for row in real.incidence:
                assert sorted(row[row != 0.0]) == [-1.0, 1.0] or not row.any()
                assert row.sum() == 0.0

    def test_undirected_only_injection_is_negative_transpose(self):
        gen = np.random.default_rng(11)
        for _ in range(15):
            g = random_graph(gen, int(gen.integers(2, 9)), allow_directed=False)
            real = incidence_matrices(g)
            assert np.array_equal(real.injection, -real.incidence.T)

    def test_undirected_laplacian_symmetric_zero_row_sums(self):
        gen = np.random.default_rng(29)
        for _ in range(15):
            g = random_graph(gen, int(gen.integers(2, 9)), allow_directed=False)
            if g.num_edges == 0:
                continue
            w = gen.uniform(0.5, 2.0, size=g.num_edges)
            lap = assembled_laplacian(g, w[:, None, None])
            assert np.allclose(lap, lap.T)
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
            for idx, e in enumerate(g.edges):
                assert np.isclose(lap[e.u - 1, e.v - 1], -w[idx])

    def test_orientation_policy_recorded(self):
        g = NetworkGraph(3, (Edge(2, 1), Edge(2, 3, DIRECTED), Edge(3, 2, DIRECTED)))
        # undirected edges run from the lower to the higher vertex id;
        # directed edges keep their own direction
        assert (g.start + 1).tolist() == [1, 2, 3]
        assert (g.end + 1).tolist() == [2, 3, 2]

    def test_weight_count_mismatch_rejected(self):
        g = NetworkGraph(2, (Edge(1, 2),))
        with pytest.raises(ValueError):
            assembled_laplacian(g, np.array([[[1.0]], [[2.0]]]))


class TestAuxDigraph:
    """Pattern entry (j, i) is the arc i -> j; inputs likewise."""

    @pytest.fixture(autouse=True)
    def _networkx(self):
        pytest.importorskip("networkx")

    def test_pattern_rules(self):
        h = np.zeros((2, 2))
        h[0, 0] = h[1, 0] = 1.0  # a self-loop at 0 and the arc 0 -> 1
        assert cycles_input_reachable(h, np.array([[1.0], [0.0]]))
        assert not cycles_input_reachable(h, np.array([[0.0], [1.0]]))

    def test_all_zero_state_pattern(self):
        assert cycles_input_reachable(np.zeros((2, 2)), np.zeros((2, 1)))
        assert cycles_input_reachable(np.zeros((2, 2)), np.ones((2, 2)))

    def test_three_cycle_pattern(self):
        h = np.zeros((3, 3))
        h[1, 0] = h[2, 1] = h[0, 2] = 1.0
        assert not cycles_input_reachable(h, np.zeros((3, 1)))
        for k in range(3):
            assert cycles_input_reachable(h, np.eye(3)[:, k : k + 1])


class TestCycleCheck:
    @pytest.fixture(autouse=True)
    def _networkx(self):
        pytest.importorskip("networkx")

    def test_everything_reachable_passes(self):
        h = np.zeros((2, 2))
        h[1, 0] = 1.0
        h[0, 1] = 1.0
        assert cycles_input_reachable(h, np.array([[1.0], [0.0]]))

    def test_isolated_two_cycle_fails_with_witness(self):
        h = np.zeros((3, 3))
        h[1, 0] = h[0, 1] = 1.0  # 0 <-> 1 isolated from the input
        assert not cycles_input_reachable(h, np.array([[0.0], [0.0], [1.0]]))
        h[0, 2] = 1.0  # the input's state now feeds the cycle
        assert cycles_input_reachable(h, np.array([[0.0], [0.0], [1.0]]))

    def test_self_loop_on_unreachable_vertex_fails(self):
        h = np.zeros((2, 2))
        h[1, 1] = 1.0
        assert not cycles_input_reachable(h, np.array([[1.0], [0.0]]))

    def test_cycle_touched_by_input_passes(self):
        h = np.zeros((2, 2))
        h[1, 0] = h[0, 1] = 1.0
        assert cycles_input_reachable(h, np.array([[1.0], [0.0]]))

    def test_against_brute_force_enumerator(self):
        import networkx

        gen = np.random.default_rng(47)
        for _ in range(60):
            n = int(gen.integers(1, 9))
            num_inputs = int(gen.integers(0, 3))
            h = (gen.random((n, n)) < 0.3).astype(float)
            p = (gen.random((n, max(num_inputs, 1))) < 0.5).astype(float)
            if num_inputs == 0:
                p = np.zeros((n, 1))
            arcs = [(int(i), int(j)) for j, i in zip(*np.nonzero(h))]
            nxg = networkx.DiGraph(arcs)
            nxg.add_nodes_from(range(n))
            reached = set()
            stack = [int(j) for j in np.nonzero(p)[0]]
            while stack:
                v = stack.pop()
                if v in reached:
                    continue
                reached.add(v)
                stack.extend(w for (x, w) in arcs if x == v)
            brute = all(
                any(v in reached for v in cycle)
                for cycle in networkx.simple_cycles(nxg)
            )
            assert cycles_input_reachable(h, p) == brute
