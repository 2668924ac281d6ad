"""``analyze`` against the exact oracle of ``lemmas``, on networks of
integer nodes.

A node's entries lie in [-2, 2] and it has at most three states, so every
minor of its Kalman matrices is far below 2^61 - 1: the node ranks mod
that prime are its exact ranks over the rationals. A network is measured
at two draws of integer edge weights. A full rank at either proves it
controllable; a deficit at both is strong evidence that it is not.

Where the exact node ranks confirm ``analyze``'s node records, a
CONTROLLABLE verdict must be exact-full at one draw and a NOT_CONTROLLABLE
verdict exact-deficient at both; INCONCLUSIVE is only counted. Where they
do not, the disagreement must have the shape of ROADMAP item 1: ``analyze``
passes a node pair whose exact rank is deficient, never the reverse. The
planted cases give item 1 a node with a defective eigenvalue and b or C in
its deficient direction.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_LINES, integer_node
from diffnet.subsystem import SubsystemModel
from diffnet.topology import DIRECTED, UNDIRECTED, Edge, NetworkGraph
from diffnet.verdict import Verdict, analyze
from lemmas import network_reachable_dimension, node_ranks


def node_disagreements(report, model) -> list[tuple[str, bool]]:
    """The node records of ``report``, as (name, holds), that the exact
    node ranks contradict. No fixed mode is exactly (A, B) controllable
    and (A, C) observable."""
    ctrb, obsv = (rank == model.order for rank in node_ranks(model))
    exact = {
        "subsystem_controllable": ctrb,
        "subsystem_observable": obsv,
        "no_fixed_mode": ctrb and obsv,
    }
    return [
        (rec.name, rec.holds)
        for rec in report.conditions
        if rec.name in exact and rec.holds != exact[rec.name]
    ]


def check_against_oracle(model, graph, gen, tally, strict=False) -> None:
    """Assert ``analyze`` agrees with the oracle on one network and count
    the outcome in ``tally``. Unless ``strict``, item 1's disagreement is
    counted instead of failing."""
    report = analyze(model, graph)
    wrong = node_disagreements(report, model)
    if wrong and not strict:
        assert all(holds for _, holds in wrong), f"a node record fails wrongly: {wrong}"
        tally["node pair passed, exact-deficient (item 1)"] += 1
        return
    assert not wrong, f"node records contradict the exact ranks: {wrong}"
    full = graph.num_vertices * model.order
    dims = [network_reachable_dimension(model, graph, gen) for _ in range(2)]
    exact_full = max(dims) == full
    if report.verdict is Verdict.CONTROLLABLE:
        assert exact_full, "CONTROLLABLE, but deficient at both draws"
    elif report.verdict is Verdict.NOT_CONTROLLABLE:
        assert not exact_full, "NOT_CONTROLLABLE, but an exact full rank"
    tally[f"{report.verdict.name} exact-{'full' if exact_full else 'deficient'}"] += 1


def report_tally(name: str, tally: Counter) -> None:
    counts = ", ".join(f"{key} {count}" for key, count in sorted(tally.items()))
    line = f"oracle {name}: {sum(tally.values())} networks ({counts})"
    ACCEPTANCE_LINES.append(line)
    print(line)


ENTRY = st.integers(-2, 2)


def int_matrix(rows: int, cols: int, nonzero_rows: bool = False):
    row = st.lists(ENTRY, min_size=cols, max_size=cols)
    if nonzero_rows:  # a zero output row is not a valid node
        row = row.filter(any)
    return st.lists(row, min_size=rows, max_size=rows)


#: one draw per vertex pair: absent 4/9, undirected 3/9, directed 2/9 (one
#: way or the other), so 40 % of the edges are directed
PAIR_KINDS = [None] * 4 + [UNDIRECTED] * 3 + ["forward", "backward"]


@st.composite
def networks(draw, single_input: bool):
    """Single input: N = 3-7, n = 2-3, r = 1-2, mixed edges, 1-2 driven.
    Multi-input: p = r = 2, n = 2-3, N = 2-5, undirected edges, any
    nonempty driven set."""
    if single_input:
        n_vertices, inputs, outputs = draw(st.integers(3, 7)), 1, draw(st.integers(1, 2))
        kinds, max_driven = PAIR_KINDS, 2
    else:
        n_vertices, inputs, outputs = draw(st.integers(2, 5)), 2, 2
        kinds, max_driven = [None, UNDIRECTED], n_vertices
    order = draw(st.integers(2, 3))
    model = SubsystemModel(
        draw(int_matrix(order, order)),
        draw(int_matrix(order, inputs)),
        draw(int_matrix(outputs, order, nonzero_rows=True)),
    )
    pairs = [(u, v) for u in range(1, n_vertices + 1) for v in range(u + 1, n_vertices + 1)]
    drawn = draw(st.lists(st.sampled_from(kinds), min_size=len(pairs), max_size=len(pairs)))
    edges = [
        Edge(v, u, DIRECTED)
        if kind == "backward"
        else Edge(u, v, DIRECTED if kind == "forward" else kind)
        for (u, v), kind in zip(pairs, drawn)
        if kind is not None
    ]
    driven = draw(st.sets(st.integers(1, n_vertices), min_size=1, max_size=max_driven))
    weight_seed = draw(st.integers(0, 2**32 - 1))
    return model, NetworkGraph(n_vertices, tuple(edges), driven), weight_seed


@pytest.mark.parametrize(
    "name, single_input, examples",
    [("single-input mixed", True, 120), ("multi-input undirected", False, 60)],
)
def test_analyze_agrees_with_the_exact_oracle(name, single_input, examples):
    tally = Counter()

    @seed(16)
    @settings(max_examples=examples, deadline=None, database=None)
    @given(networks(single_input))
    def case(network):
        model, graph, weight_seed = network
        check_against_oracle(model, graph, np.random.default_rng(weight_seed), tally)

    case()
    report_tally(name, tally)


#: a double eigenvalue -1 and a triple eigenvalue 1, each in one Jordan
#: block; integer companion forms, so LAPACK splits the eigenvalue
J2 = [[0, 1], [-1, -2]]
J3 = [[0, 1, 0], [0, 0, 1], [1, -3, 3]]
U, D = UNDIRECTED, DIRECTED

#: (label, A, B, C, N, edges, driven): B or C is in the deficient direction
#: of the Jordan block. J2's left eigenvector is (1, 1) and its eigenvector
#: (1, -1); J3's are (1, -2, 1) and (1, 1, 1).
PLANTED = [
    ("J2 b", J2, [[-1], [1]], [[0, 1]], 2, [(1, 2, U)], {1}),
    ("J2 C", J2, [[0], [1]], [[1, 1]], 2, [(1, 2, U)], {1}),
    ("J2 b, every vertex driven", J2, [[-1], [1]], [[0, 1]], 2, [(1, 2, U)], {1, 2}),
    ("J3 b, directed", J3, [[1], [0], [-1]], [[0, 0, 1]], 3, [(1, 2, D), (2, 3, U)], {1}),
    ("J3 C, r = 1", J3, [[0], [0], [1]], [[1, -1, 0]], 2, [(1, 2, U)], {1}),
    ("J3 C, r = 2, directed", J3, [[0], [0], [1]], [[1, -1, 0], [0, 1, -1]], 3,
     [(1, 2, U), (2, 3, D)], {2}),
    ("J3 B, p = r = 2", J3, [[1, 2], [0, 0], [-1, -2]], [[1, 0, 0], [0, 1, 0]], 2, [(1, 2, U)], {1}),
    ("J3 C, p = r = 2", J3, [[1, 0], [0, 1], [0, 0]], [[1, -1, 0], [0, 1, -1]], 2, [(1, 2, U)], {1}),
]


def planted(case):
    _, a, b, c, n_vertices, edges, driven = case
    graph = NetworkGraph(n_vertices, tuple(Edge(*e) for e in edges), driven)
    return SubsystemModel(a, b, c), graph


@pytest.mark.parametrize("case", PLANTED, ids=[case[0] for case in PLANTED])
def test_planted_node_is_exact_deficient(case):
    model, _ = planted(case)
    assert min(node_ranks(model)) < model.order


@pytest.mark.parametrize("case", PLANTED, ids=[case[0] for case in PLANTED])
def test_planted_defective_node(case):
    model, graph = planted(case)
    gen = np.random.default_rng(1)
    check_against_oracle(model, graph, gen, Counter(), strict=True)


#: powers of two by which A is scaled up and B and C down (or the reverse);
#: exact in floats, they leave every Krylov span, so every node rank, as it is
SCALES = [5, -5, 20, -20, 100, -100]


@pytest.mark.parametrize("k", SCALES)
def test_nodes_scaled_apart_keep_their_exact_node_ranks(k):
    """Random integer nodes, half with planted repeated or defective
    eigenvalues, with A times 2^k and B and C times 2^-k: ``analyze``'s
    node records on the scaled node must match the exact ranks of the
    integer one. A rank test of the pencil [lambda I - A, B] cut against
    its largest singular value misses deficient pairs here."""
    gen = np.random.default_rng(2027)
    graph = NetworkGraph(2, (Edge(1, 2),), {1})
    checked = Counter()
    for i in range(250):
        model = integer_node(gen, planted=i % 2 == 1)
        up, down = 2.0**k, 2.0**-k
        scaled = SubsystemModel(up * model.a, down * model.b, down * model.c)
        report = analyze(scaled, graph)
        assert not node_disagreements(report, model), f"node {i}: {model}"
        checked[min(node_ranks(model)) == model.order] += 1
    assert checked[True] and checked[False]
