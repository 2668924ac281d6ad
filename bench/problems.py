"""Problem generators, expected outcomes and output checks for the benchmark.

Every problem is built from the benchmark seed. Its expected exit code and
verdict follow from how it was built: subsystems are controllable and
observable by construction (companion form under a random orthogonal change
of basis), fixed modes are planted in a decoupled block, and reachability
comes from this module's own breadth-first search. Nothing here asks
diffnet what the answer should be; the mass-spring chains are written by
``diffnet example`` because they are the paper's example, and their
expectation is still derived from the file's graph and triple.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

CONTROLLABLE = "STRUCTURALLY_CONTROLLABLE"
NOT_CONTROLLABLE = "NOT_STRUCTURALLY_CONTROLLABLE"
INCONCLUSIVE = "INCONCLUSIVE"
EXIT_OF_VERDICT = {CONTROLLABLE: 0, NOT_CONTROLLABLE: 1, INCONCLUSIVE: 2}

#: Relative tolerance of the numpy rebuild of a lumped state matrix.
LUMP_RTOL = 1e-9

#: Chain and network sizes of every certify-sweep round. Rounds differ only
#: in their random draws, so a run's mix of sizes does not depend on how
#: many rounds fit in it.
CHAIN_SIZES = tuple(range(5, 51, 3))
CERTIFY_NET_SIZES = (8, 12, 16, 20, 24)
LUMP_SIZES = (40, 60, 80, 100, 120, 140, 160, 180, 200)
ANALYZE_SIZES = (20, 100, 300, 600, 1000)

WORKLOADS = ("certify-sweep", "lump-dense", "analyze-many")
_WORKLOAD_CODE = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass
class Item:
    """One CLI call of a workload and what it must produce.

    ``argv`` omits ``--out``; the runner appends the report path. ``check``
    names the report check ("verdict", "graph" or "lump") and ``expect``
    holds its data.
    """

    name: str
    argv: list
    exit_code: int
    check: str
    expect: dict
    states: int


# ---------------------------------------------------------------- builders


def _rng(seed: int, workload: str, round_index: int, index: int) -> np.random.Generator:
    key = [seed & 0xFFFFFFFFFFFFFFFF, _WORKLOAD_CODE[workload], round_index, index]
    return np.random.default_rng(np.random.SeedSequence(key))


def _companion(rng: np.random.Generator, n: int) -> np.ndarray:
    """Controllable canonical form of a polynomial with roots in [-1.5, 1.5]."""
    roots = rng.uniform(-1.5, 1.5, size=n)
    coeffs = np.poly(roots)  # leading 1, then c_1..c_n
    a = np.eye(n, k=1)
    a[-1, :] = -coeffs[:0:-1]
    return a


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def minimal_triple(rng: np.random.Generator, n: int, p: int, r: int):
    """(A, B, C), controllable through B's first column and observable
    through C's first row, so no mode is fixed."""
    a = _companion(rng, n)
    b = np.hstack([np.eye(n)[:, -1:], rng.uniform(-1, 1, size=(n, p - 1))])
    c = np.vstack([np.eye(n)[:1, :], rng.uniform(-1, 1, size=(r - 1, n))])
    q = _rotation(rng, n)
    return q @ a @ q.T, q @ b, c @ q.T


def fixed_mode_triple(rng: np.random.Generator, n: int, p: int, r: int):
    """(A, B, C) whose last state is a decoupled mode: no input reaches it
    and no output sees it, so it survives every output feedback."""
    a1, b1, c1 = minimal_triple(rng, n - 1, p, r)
    lam = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)
    a = np.zeros((n, n))
    a[: n - 1, : n - 1] = a1
    a[-1, -1] = lam
    b = np.vstack([b1, np.zeros((1, p))])
    c = np.hstack([c1, np.zeros((r, 1))])
    q = _rotation(rng, n)
    return q @ a @ q.T, q @ b, c @ q.T


def connected_edges(rng, vertices, extra: float, directed_frac: float = 0.0, root=None):
    """Random edges on ``vertices`` reaching every one of them from ``root``.

    A random tree is grown from ``root``; a directed tree edge points away
    from it, so influence still flows out. ``extra * len(vertices)`` more
    edges join random pairs, directed ones in a random direction.
    """
    order = list(vertices)
    rng.shuffle(order)
    if root is not None:
        order.remove(root)
        order.insert(0, root)
    used = set()
    edges = []

    def add(u, v):
        used.add((min(u, v), max(u, v)))
        kind = "directed" if rng.random() < directed_frac else "undirected"
        edges.append((u, v, kind))

    for i in range(1, len(order)):
        add(order[int(rng.integers(0, i))], order[i])
    want = int(extra * len(order))
    tries = 0
    while want > 0 and tries < 20 * len(order):
        tries += 1
        u, v = (int(x) for x in rng.choice(order, size=2, replace=False))
        if (min(u, v), max(u, v)) in used:
            continue
        add(u, v)
        want -= 1
    return edges


def reachable_from(num_vertices: int, edges, driven) -> list:
    """Breadth-first search along influence directions (1-based ids)."""
    out = [[] for _ in range(num_vertices + 1)]
    for u, v, kind in edges:
        out[u].append(v)
        if kind == "undirected":
            out[v].append(u)
    seen = set(driven)
    queue = deque(sorted(driven))
    while queue:
        i = queue.popleft()
        for j in out[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return sorted(seen)


def problem_doc(a, b, c, num_vertices, edges, driven, weights=None) -> dict:
    doc = {
        "$schema": "diffnet-problem/v1",
        "subsystem": {"A": a.tolist(), "B": b.tolist(), "C": c.tolist()},
        "graph": {
            "N": num_vertices,
            "edges": [{"u": u, "v": v, "kind": k} for u, v, k in edges],
        },
        "driven": sorted(driven),
    }
    if weights is not None:
        doc["weights"] = {
            "edges": [{"u": u, "v": v, "W": w.tolist()} for (u, v, _), w in zip(edges, weights)]
        }
    return doc


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _verdict_item(name, argv, verdict, unreachable, states) -> Item:
    return Item(
        name,
        argv,
        EXIT_OF_VERDICT[verdict],
        "verdict",
        {"verdict": verdict, "unreachable": unreachable},
        states,
    )


# ---------------------------------------------------------------- workloads


def certify_sweep(seed: int, round_index: int, workdir: str, example) -> list:
    """Mass-spring chains (every other one grounded) and small multi-input
    networks, all structurally controllable, run through ``certify``.

    ``example(argv)`` runs ``diffnet example`` and returns its exit code.
    """
    items = []
    tag = f"r{round_index}-"
    for i, n in enumerate(CHAIN_SIZES):
        path = os.path.join(workdir, f"{tag}chain{n}.json")
        chain_seed = int(_rng(seed, "certify-sweep", round_index, i).integers(0, 2**31))
        code = example(["example", "--N", str(n), "--seed", str(chain_seed), "--out", path])
        if code != 0:
            raise RuntimeError(f"diffnet example --N {n} exited {code}")
        verdict, unreachable = _chain_expectation(path)
        grounded = i % 2 == 1
        argv = ["certify", path] + (["--ground-first-mass"] if grounded else [])
        items.append(_verdict_item(f"{tag}chain{n}", argv, verdict, unreachable, 2 * n))
    for j, n in enumerate(CERTIFY_NET_SIZES):
        rng = _rng(seed, "certify-sweep", round_index, 100 + j)
        a, b, c = minimal_triple(rng, 4, 2, 2)
        vertices = range(1, n + 1)
        edges = connected_edges(rng, vertices, extra=0.5)
        driven = [int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False)]
        path = os.path.join(workdir, f"{tag}net{n}.json")
        _write(path, problem_doc(a, b, c, n, edges, driven))
        items.append(_verdict_item(f"{tag}net{n}", ["certify", path], CONTROLLABLE, [], 4 * n))
    return items


def _chain_expectation(path: str):
    """Verdict of a chain file from its own graph and double-integrator triple."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    a = np.array(doc["subsystem"]["A"])
    b = np.array(doc["subsystem"]["B"])
    c = np.array(doc["subsystem"]["C"])
    n = a.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    obsv = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(n)])
    minimal = np.linalg.matrix_rank(ctrb) == n and np.linalg.matrix_rank(obsv) == n
    num = doc["graph"]["N"]
    edges = [(e["u"], e["v"], e.get("kind", "undirected")) for e in doc["graph"]["edges"]]
    reach = reachable_from(num, edges, doc["driven"])
    unreachable = sorted(set(range(1, num + 1)) - set(reach))
    if not minimal:
        raise RuntimeError(f"{path}: the chain's node triple is not minimal")
    return (CONTROLLABLE if not unreachable else NOT_CONTROLLABLE), unreachable


def lump_dense(seed: int, round_index: int, workdir: str, example=None) -> list:
    """Connected undirected multi-input networks run through ``lump``; at
    each size one file carries its weights and one leaves them to sampling."""
    items = []
    for i, n in enumerate(LUMP_SIZES):
        for given in (True, False):
            rng = _rng(seed, "lump-dense", round_index, 2 * i + given)
            a, b, c = minimal_triple(rng, 4, 2, 2)
            edges = connected_edges(rng, range(1, n + 1), extra=1.0)
            driven = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
            weights = None
            if given:
                weights = [rng.uniform(-1, 1, size=(2, 2)) for _ in edges]
            name = f"r{round_index}-lump{n}{'w' if given else 's'}"
            path = os.path.join(workdir, f"{name}.json")
            _write(path, problem_doc(a, b, c, n, edges, driven, weights))
            expect = {
                "a": a, "b": b, "c": c, "num_vertices": n, "driven": driven,
                "weights": weights, "edges": edges,
            }
            items.append(Item(name, ["lump", path], 0, "lump", expect, 4 * n))
    return items


def analyze_many(seed: int, round_index: int, workdir: str, example=None) -> list:
    """Single-input nodes on mixed graphs and multi-input nodes on undirected
    graphs, each reachable, cut off and fully driven, plus planted fixed
    modes; every problem runs through ``analyze`` and ``graph``."""
    cases = [
        ("simo", "reach"), ("simo", "cut"), ("simo", "all"),
        ("mimo", "reach"), ("mimo", "cut"), ("mimo", "all"),
        ("mimo", "fixed"), ("mimo", "fixed-all"),
    ]
    items = []
    index = 0
    for n in ANALYZE_SIZES:
        for family, case in cases:
            index += 1
            rng = _rng(seed, "analyze-many", round_index, index)
            simo = family == "simo"
            order, p, r = (3, 1, 2) if simo else (4, 2, 2)
            build = fixed_mode_triple if case.startswith("fixed") else minimal_triple
            a, b, c = build(rng, order, p, r)
            directed = 0.3 if simo else 0.0
            root = int(rng.integers(1, n + 1))
            if case == "cut":
                edges, driven = _cut_graph(rng, n, root, directed, simo)
            else:
                edges = connected_edges(rng, range(1, n + 1), 0.5, directed, root)
                driven = [root]
                if case in ("all", "fixed-all"):
                    driven = list(range(1, n + 1))
            reach = reachable_from(n, edges, driven)
            unreachable = sorted(set(range(1, n + 1)) - set(reach))
            if case == "fixed-all":
                verdict = NOT_CONTROLLABLE  # every vertex driven: (A, B) decides
            elif unreachable:
                verdict = NOT_CONTROLLABLE
            elif case == "fixed":
                verdict = INCONCLUSIVE
            else:
                verdict = CONTROLLABLE
            name = f"r{round_index}-{family}-{case}-{n}"
            path = os.path.join(workdir, f"{name}.json")
            _write(path, problem_doc(a, b, c, n, edges, driven))
            states = order * n
            items.append(_verdict_item(f"analyze-{name}", ["analyze", path], verdict, unreachable, states))
            items.append(
                Item(
                    f"graph-{name}",
                    ["graph", path],
                    0,
                    "graph",
                    {"reachable": reach, "unreachable": unreachable},
                    states,
                )
            )
    return items


def _cut_graph(rng, n: int, root: int, directed: float, simo: bool):
    """A reachable part holding the driven root plus a cut-off tenth of the
    vertices. With single-input nodes the cut part still influences the rest
    through directed edges pointing out of it; otherwise it is a separate
    component."""
    others = [v for v in range(1, n + 1) if v != root]
    rng.shuffle(others)
    cut = sorted(others[: max(2, n // 10)])
    live = sorted(set(range(1, n + 1)) - set(cut))
    edges = connected_edges(rng, live, 0.5, directed, root)
    edges += connected_edges(rng, cut, 0.5, 0.0)
    if simo:
        used = {(min(u, v), max(u, v)) for u, v, _ in edges}
        for u in cut[:3]:
            v = int(rng.choice(live))
            if (min(u, v), max(u, v)) not in used:
                edges.append((u, v, "directed"))
    return edges, [root]


#: Rounds with distinct problems; a run's later rounds repeat them. Chain
#: certificates vary with the drawn constants, so certify-sweep averages
#: over three rounds of fresh chains; the other workloads repeat one round.
DISTINCT_ROUNDS = {"certify-sweep": 3, "lump-dense": 1, "analyze-many": 1}

GENERATORS = {
    "certify-sweep": certify_sweep,
    "lump-dense": lump_dense,
    "analyze-many": analyze_many,
}


# ---------------------------------------------------------------- checks


def check_report(item: Item, raw: bytes) -> str | None:
    """None when the report matches the construction, else what differs."""
    doc = json.loads(raw)
    if item.check == "verdict":
        got = doc["analysis"]["verdict"]
        if got != item.expect["verdict"]:
            return f"verdict {got}, expected {item.expect['verdict']}"
        if item.argv[0] == "certify" and doc["analysis"].get("certification") is None:
            return "certify report carries no certification"
        reach = [c for c in doc["analysis"]["conditions"] if c["name"] == "globally_input_reachable"]
        if not reach:
            if item.expect["unreachable"]:
                return "report carries no globally_input_reachable condition to witness with"
            return None
        wit = (reach[0]["witness"] or {}).get("unreachable_vertices", [])
        if sorted(wit) != item.expect["unreachable"]:
            return "unreachable witness differs from breadth-first search"
        return None
    if item.check == "graph":
        if doc["reachable"] != item.expect["reachable"]:
            return "reachable set differs from breadth-first search"
        if doc["unreachable"] != item.expect["unreachable"]:
            return "unreachable set differs from breadth-first search"
        if doc["globally_input_reachable"] != (not item.expect["unreachable"]):
            return "globally_input_reachable flag is wrong"
        return None
    return _check_lump(item.expect, doc)


def lumped_pair(a, b, c, num_vertices: int, driven, weight_rows):
    """I kron A - (I kron B) L (I kron C) and Delta kron B, from weight rows
    (u, v, kind, W) with W feeding v from u and, if undirected, u from v."""
    p, r = b.shape[1], c.shape[0]
    lap = np.zeros((num_vertices * p, num_vertices * r))
    for u, v, kind, w in weight_rows:
        pairs = [(v, u)] if kind == "directed" else [(v, u), (u, v)]
        for i, j in pairs:
            lap[(i - 1) * p : i * p, (j - 1) * r : j * r] -= w
            lap[(i - 1) * p : i * p, (i - 1) * r : i * r] += w
    eye = np.eye(num_vertices)
    a_sys = np.kron(eye, a) - np.kron(eye, b) @ lap @ np.kron(eye, c)
    delta = np.zeros((num_vertices, num_vertices))
    for i in driven:
        delta[i - 1, i - 1] = 1.0
    return a_sys, np.kron(delta, b)


def _check_lump(expect: dict, doc: dict) -> str | None:
    rows = [(w["u"], w["v"], w["kind"], np.array(w["W"])) for w in doc["weights"]["edges"]]
    got_edges = sorted((u, v) for u, v, _, _ in rows)
    if got_edges != sorted((u, v) for u, v, _ in expect["edges"]):
        return "emitted weights do not cover the problem's edges"
    if expect["weights"] is not None:
        given = {(u, v): w for (u, v, _), w in zip(expect["edges"], expect["weights"])}
        for u, v, _, w in rows:
            if not np.array_equal(w, given[(u, v)]):
                return f"emitted weight on ({u}, {v}) differs from the file"
    elif not all(np.all(np.abs(w) > 0) for *_, w in rows):
        return "a sampled weight is zero"
    a_ref, b_ref = lumped_pair(
        expect["a"], expect["b"], expect["c"], expect["num_vertices"], expect["driven"], rows
    )
    a_got = np.array(doc["a_sys"])
    b_got = np.array(doc["b_sys"])
    if a_got.shape != a_ref.shape or b_got.shape != b_ref.shape:
        return f"matrix shapes {a_got.shape}, {b_got.shape} differ from the rebuild"
    scale = max(1.0, float(np.max(np.abs(a_ref))))
    if float(np.max(np.abs(a_got - a_ref))) > LUMP_RTOL * scale:
        return "state matrix differs from the numpy rebuild"
    if not np.array_equal(b_got, b_ref):
        return "input matrix differs from Delta kron B"
    return None
