"""Structural controllability verdicts and their numerical certification.

The criteria implemented here decide, from the network topology and one
copy of the node dynamics, whether some (equivalently, almost every) choice
of edge weights makes the assembled network controllable. ``analyze`` is
the one analyzer for single-input (vector-weight) and multi-input
(matrix-weight) nodes; the scalar-weight, leader, auxiliary-digraph and
rank-condition checks are side criteria. Every verdict can be
cross-examined by a Monte Carlo oracle on sampled weights, which measures
the controllable subspace of each assembled pair by block Arnoldi. Every
randomized check draws its network one way: trial t's weight blocks come
from ``rng.derive(t)`` exactly as ``sample_weights`` draws them. The
certificate and the leader check assemble and rank-test all their trials
as one stack (``assemble_lumped_stack``); the rank condition builds each
trial with ``assemble_lumped``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import (
    MatrixWeights,
    assemble_lumped,
    assemble_lumped_stack,
    matrix_laplacian,
    sample_weights,
)
from .errors import ConsistencyError, NumericError, PremiseError
from .numerics import (
    DEFAULT_TOL,
    RandomSource,
    ToleranceConfig,
    controllable_dimension,
    dedupe_eigenvalues,
    eigenvalues,
    kron,
    numerical_rank,
    sample_away_from_zero,
)
from .subsystem import (
    SubsystemModel,
    check_controllable,
    check_observable,
    fixed_modes,
    require_valid,
)
from .topology import (
    DrivenSet,
    NetworkGraph,
    all_cycles_input_reachable,
    aux_digraph,
    incidence_matrices,
    is_globally_input_reachable,
    spanning_forest,
)

DEFAULT_CERTIFY_TRIALS = 5

#: The certificate's trials run as one stack while their state matrices
#: take at most this many bytes together, and in consecutive stacks beyond
#: it, so that memory stays bounded whatever the trial count.
_TRIAL_STACK_BYTES = 1 << 24


class Verdict(str, Enum):
    CONTROLLABLE = "STRUCTURALLY_CONTROLLABLE"
    NOT_CONTROLLABLE = "NOT_STRUCTURALLY_CONTROLLABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ConditionRecord:
    """One necessary/sufficient condition with a witness when it fails."""

    name: str
    holds: bool
    witness: object = None


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo draw: sampled weights, assembled, rank-tested.

    ``deficient_count`` is the number of states outside the controllable
    subspace of the assembled pair (0 exactly when the draw is controllable),
    as ``numerics.controllable_dimension`` measures it. The draws of one
    call are tested as a stack; a numeric failure is retried draw by draw,
    so ``error`` is set on the failing draw only, with ``controllable`` and
    ``deficient_count`` None.
    """

    stream_id: int
    controllable: bool | None
    deficient_count: int | None
    error: str | None = None


@dataclass(frozen=True)
class CertificationReport:
    """Monte Carlo evidence beside the verdict it examines.

    ``any_controllable`` uses existence semantics: one controllable draw
    certifies that controllable weights exist. Agreement means the evidence
    is consistent with the compared verdict (an inconclusive verdict cannot
    be contradicted). All trials uncontrollable against a controllable
    verdict is reported as disagreement, a numerical red flag left for the
    caller to adjudicate.
    """

    trials: int
    per_trial: tuple[TrialResult, ...]
    any_controllable: bool
    compared_verdict: str
    agree_with_verdict: bool


@dataclass(frozen=True)
class AnalysisReport:
    verdict: Verdict
    theorem_used: str
    conditions: tuple[ConditionRecord, ...]
    certification: CertificationReport | None = None
    notes: tuple[str, ...] = ()

    def with_certification(self, cert: CertificationReport) -> "AnalysisReport":
        return dataclasses.replace(self, certification=cert)

    def condition(self, name: str) -> ConditionRecord:
        for rec in self.conditions:
            if rec.name == name:
                return rec
        raise KeyError(name)


def _eig_witness(deficient) -> dict:
    return {"deficient_eigenvalues": tuple(complex(z) for z in deficient)}


def _criterion_family(graph: NetworkGraph) -> tuple[str, tuple[str, ...]]:
    if graph.has_directed_edges():
        return "2", ("directed influences present: semi-symmetric criteria applied",)
    return "1", ()


def _pbh_record(
    name: str, check, model: SubsystemModel, tol: ToleranceConfig
) -> ConditionRecord:
    """Node-level PBH condition, witnessed by its deficient eigenvalues."""
    ok, deficient = check(model, tol)
    return ConditionRecord(name, ok, None if ok else _eig_witness(deficient))


def _all_driven_report(
    model: SubsystemModel,
    tol: ToleranceConfig,
    notes: tuple[str, ...] = (
        "every vertex is driven: subsystem controllability decides",
    ),
) -> AnalysisReport:
    """With every vertex driven, subsystem controllability alone decides."""
    record = _pbh_record("subsystem_controllable", check_controllable, model, tol)
    return AnalysisReport(
        verdict=Verdict.CONTROLLABLE if record.holds else Verdict.NOT_CONTROLLABLE,
        theorem_used="trivial-case",
        conditions=(record,),
        notes=notes,
    )


def _reachability_record(graph: NetworkGraph, driven: DrivenSet) -> ConditionRecord:
    unreachable = sorted(spanning_forest(graph, driven).unreachable)
    return ConditionRecord(
        "globally_input_reachable",
        not unreachable,
        {"unreachable_vertices": tuple(unreachable)} if unreachable else None,
    )


def analyze(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    tol: ToleranceConfig = DEFAULT_TOL,
    rng: RandomSource = RandomSource(0),
) -> AnalysisReport:
    """Structural controllability verdict from the topology and one node.

    With every vertex driven, subsystem controllability alone decides.
    Otherwise global input-reachability is necessary for both node kinds.

    Single-input nodes (vector edge weights): the verdict is the conjunction
    of (A, b) controllable, (A, C) observable and reachability, each
    necessary and together sufficient; directed influences switch the
    criterion family from theorem 1 to theorem 2.

    Multi-input nodes (matrix edge weights, undirected topologies only):
    when (A, B, C) has no fixed mode, reachability is equivalent to
    structural controllability (theorem 3). An unreachable topology is
    decisive; fixed modes on a reachable topology leave the criterion
    silent and the verdict is INCONCLUSIVE. ``rng`` drives the randomized
    fixed-mode cross-check only.
    """
    require_valid(model)
    single_input = model.num_inputs == 1
    if not single_input and graph.has_directed_edges():
        raise ValueError(
            "matrix-weight analysis covers undirected topologies only; "
            "model directed influences with single-input nodes instead"
        )
    driven.validate_for(graph)
    if len(driven) == graph.num_vertices:
        return _all_driven_report(model, tol)
    reach = _reachability_record(graph, driven)

    if single_input:
        theorem, notes = _criterion_family(graph)
        conditions = (
            _pbh_record("subsystem_controllable", check_controllable, model, tol),
            _pbh_record("subsystem_observable", check_observable, model, tol),
            reach,
        )
        verdict = (
            Verdict.CONTROLLABLE
            if all(c.holds for c in conditions)
            else Verdict.NOT_CONTROLLABLE
        )
        return AnalysisReport(verdict, theorem, conditions, notes=notes)

    modes = fixed_modes(model, rng, tol)
    conditions = (
        ConditionRecord(
            "no_fixed_mode",
            modes.empty,
            None
            if modes.empty
            else {
                "fixed_modes": tuple(
                    complex(z) for z in dedupe_eigenvalues(modes.fixed_modes, tol)
                )
            },
        ),
        reach,
    )
    notes: tuple[str, ...] = ()
    if not reach.holds:
        verdict = Verdict.NOT_CONTROLLABLE
    elif modes.empty:
        verdict = Verdict.CONTROLLABLE
    else:
        verdict = Verdict.INCONCLUSIVE
        notes = (
            "fixed modes present on a reachable topology: the matrix-weight "
            "criterion is sufficient-only and makes no claim here",
        )
    return AnalysisReport(verdict, "3", conditions, notes=notes)


def _sampled_trials(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    trials: int,
    rng: RandomSource,
    tol: ToleranceConfig,
    a_shift: np.ndarray | None = None,
) -> tuple[TrialResult, ...]:
    """The trials of ``certify_monte_carlo``, without the verdict comparison.

    Trial t draws its blocks from ``rng.derive(t)`` as ``sample_weights``
    does. The trials are assembled, shifted and rank-tested as one stack,
    split only where the stack's state matrices would pass
    ``_TRIAL_STACK_BYTES``. A numeric failure of the stacked rank test
    reruns its members one at a time, so it lands on its own trial.
    """
    if trials < 1:
        raise ValueError(f"certification needs at least one trial, got {trials}")
    require_valid(model)
    driven.validate_for(graph)
    shape = (model.num_inputs, model.num_outputs)
    n_states = graph.num_vertices * model.order
    if a_shift is not None:
        a_shift = np.asarray(a_shift, dtype=float)
        if a_shift.shape != (n_states, n_states):
            raise ValueError(
                f"state-matrix shift has shape {a_shift.shape}, "
                f"expected {(n_states, n_states)}"
            )
    size = max(1, _TRIAL_STACK_BYTES // (8 * n_states * n_states))
    sources = [rng.derive(t) for t in range(trials)]
    per: list[TrialResult] = []
    for at in range(0, trials, size):
        chunk = sources[at : at + size]
        blocks = np.stack(
            [
                sample_away_from_zero(src.generator(), shape, count=graph.num_edges)
                for src in chunk
            ]
        )
        lumped = assemble_lumped_stack(model, graph, blocks, driven)
        a_sys = lumped.a_sys
        if a_shift is not None:
            a_sys += a_shift
        try:
            dims = list(controllable_dimension(a_sys, lumped.b_sys, tol))
        except NumericError:
            dims = []
            for member in a_sys:
                try:
                    dims.append(controllable_dimension(member, lumped.b_sys, tol))
                except NumericError as exc:
                    dims.append(exc)
        per.extend(
            TrialResult(src.stream_id, None, None, str(dim))
            if isinstance(dim, NumericError)
            else TrialResult(src.stream_id, bool(dim == n_states), int(n_states - dim))
            for src, dim in zip(chunk, dims)
        )
    return tuple(per)


def certify_monte_carlo(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    trials: int = DEFAULT_CERTIFY_TRIALS,
    rng: RandomSource = RandomSource(0),
    tol: ToleranceConfig = DEFAULT_TOL,
    a_shift: np.ndarray | None = None,
    analysis: AnalysisReport | None = None,
) -> CertificationReport:
    """Monte Carlo controllability oracle over sampled weights.

    Each trial derives its own stream from the source and samples one
    generic weight per edge; the trials' lumped pairs are assembled as one
    stack and their controllable subspaces measured together by block
    Arnoldi. The states outside a pair's subspace are its trial's
    ``deficient_count``. ``a_shift`` (added to every assembled state matrix
    before testing) accommodates grounding-style modifications. Numeric
    failures are recorded per trial and never abort the run. The trials are
    compared with ``analysis``, computed by ``analyze`` when not given.
    """
    if analysis is None:
        analysis = analyze(model, graph, driven, tol)
    per = _sampled_trials(model, graph, driven, trials, rng, tol, a_shift)
    any_ok = any(t.controllable for t in per)
    if analysis.verdict is Verdict.CONTROLLABLE:
        agree = any_ok
    elif analysis.verdict is Verdict.NOT_CONTROLLABLE:
        agree = not any_ok
    else:
        agree = True
    return CertificationReport(
        trials=trials,
        per_trial=per,
        any_controllable=any_ok,
        compared_verdict=analysis.verdict.value,
        agree_with_verdict=agree,
    )


def reduce_scalar_weight(model: SubsystemModel) -> SubsystemModel:
    """Collapse the coupling channels into one summed output row.

    Models the constraint of a single scalar weight per edge: with all
    channel Laplacians equal, the coupling acts through c_1 + ... + c_r.
    The summed row may cancel to zero; the result is returned as-is and
    callers decide how to treat that degenerate output.
    """
    require_valid(model)
    summed = model.c.sum(axis=0, keepdims=True)
    return SubsystemModel(model.a, model.b, summed)


def analyze_scalar_constrained(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AnalysisReport:
    """Verdict when every edge is forced to carry one scalar weight.

    A controllable scalar-constrained network is controllable in the
    vector-weighted sense (the constraint picks particular weights), but
    not conversely. If the summed coupling row cancels to zero the
    constrained network has no coupling at all and cannot be controllable
    unless every vertex is driven. The summed row models single-input nodes
    only; any multi-input model is refused with ValueError.
    """
    require_valid(model)
    if model.num_inputs != 1:
        raise ValueError(
            "the scalar-weight criteria need single-input nodes, got "
            f"{model.num_inputs} inputs"
        )
    reduced = reduce_scalar_weight(model)
    note = "channels constrained to a single scalar weight per edge"
    if not np.any(reduced.c):
        if len(driven) == graph.num_vertices:
            return _all_driven_report(
                model, tol, (note, "every vertex is driven: coupling is irrelevant")
            )
        theorem, extra = _criterion_family(graph)
        record = ConditionRecord(
            "scalar_reduced_coupling_nonzero",
            False,
            {"summed_output_row": tuple(float(x) for x in reduced.c.reshape(-1))},
        )
        return AnalysisReport(
            verdict=Verdict.NOT_CONTROLLABLE,
            theorem_used=theorem,
            conditions=(record,),
            notes=(note, "the channel sum cancels: no coupling survives") + extra,
        )
    report = analyze(reduced, graph, driven, tol)
    return dataclasses.replace(report, notes=report.notes + (note,))


def laplacian_leader_controllability(
    graph: NetworkGraph,
    leader: int,
    trials: int = 3,
    rng: RandomSource = RandomSource(0),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Single-leader controllability of -L on a connected undirected graph.

    Scalar integrator nodes (A = 0, B = C = 1) make the lumped pair
    (-L, Delta) with Delta selecting the leader, so this runs the Monte
    Carlo certificate's trials on that network, with no verdict to compare:
    True only if every trial is controllable.
    On a connected undirected graph that holds for almost every weight
    draw. A trial that fails numerically raises NumericError.
    """
    if graph.has_directed_edges():
        raise PremiseError("leader controllability is stated for undirected graphs")
    if not 1 <= leader <= graph.num_vertices:
        raise ValueError(
            f"leader {leader} outside the vertex range 1..{graph.num_vertices}"
        )
    driven = DrivenSet(frozenset({leader}))
    reach = _reachability_record(graph, driven)
    if not reach.holds:
        raise PremiseError(
            "graph is not connected: vertices "
            f"{list(reach.witness['unreachable_vertices'])} "
            "are cut off from the leader"
        )
    integrator = SubsystemModel([[0.0]], [[1.0]], [[1.0]])
    per = _sampled_trials(integrator, graph, driven, trials, rng, tol)
    for trial in per:
        if trial.error is not None:
            raise NumericError(trial.error)
    return all(trial.controllable for trial in per)


@dataclass(frozen=True)
class AuxConditionDetail:
    """Both auxiliary-digraph cycle checks plus the topology comparison."""

    edge_pattern_holds: bool
    vertex_pattern_holds: bool
    edge_pattern_witness: tuple[int, ...] | None
    vertex_pattern_witness: tuple[int, ...] | None
    num_edge_states: int
    num_vertex_states: int
    graph_reachable: bool


def aux_condition_check(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Cycle input-reachability on two pattern-equivalent auxiliary digraphs.

    Pattern one lives on coupling-channel copies of the edges (built from
    the incidence product K_I K and K_I Delta); pattern two on channel
    copies of the vertices (built from a structural Laplacian and Delta).
    The two must agree; the shared boolean is returned with the detail.

    Premises: single-input nodes with (A, b) controllable and no zero
    coupling row.
    """
    require_valid(model)
    if model.num_inputs != 1:
        raise ValueError("the auxiliary-digraph condition is built on single-input nodes")
    ctrb_ok, deficient = check_controllable(model, tol)
    if not ctrb_ok:
        raise PremiseError(
            "the pattern equivalence assumes (A, b) controllable; deficient at "
            + ", ".join(str(z) for z in deficient)
        )
    driven.validate_for(graph)

    r = model.num_outputs
    real = incidence_matrices(graph)
    delta = driven.delta(graph.num_vertices)
    ones_rr = np.ones((r, r))
    ones_r1 = np.ones((r, 1))

    kik = real.incidence @ real.injection
    kid = real.incidence @ delta
    dg_edge = aux_digraph(kron(ones_rr, kik), kron(ones_r1, kid))
    edge_ok, edge_wit = all_cycles_input_reachable(dg_edge)

    unit = MatrixWeights.from_edge_arrays(
        graph, [np.ones((1, 1)) for _ in graph.edges], shape=(1, 1)
    )
    lap_pattern = matrix_laplacian(graph, unit)
    dg_vertex = aux_digraph(kron(ones_rr, lap_pattern), kron(ones_r1, delta))
    vertex_ok, vertex_wit = all_cycles_input_reachable(dg_vertex)

    if edge_ok != vertex_ok:
        raise ConsistencyError(
            "pattern-equivalent auxiliary digraphs disagree: "
            f"edge pattern {edge_ok}, vertex pattern {vertex_ok}"
        )
    detail = AuxConditionDetail(
        edge_pattern_holds=edge_ok,
        vertex_pattern_holds=vertex_ok,
        edge_pattern_witness=edge_wit,
        vertex_pattern_witness=vertex_wit,
        num_edge_states=dg_edge.num_states,
        num_vertex_states=dg_vertex.num_states,
        graph_reachable=is_globally_input_reachable(graph, driven),
    )
    return edge_ok, detail


@dataclass(frozen=True)
class RankCheckDetail:
    eigenvalue: complex
    generic_rank: int
    required: int
    ok: bool


def rank_condition_check(
    model: SubsystemModel,
    graph: NetworkGraph,
    driven: DrivenSet,
    rng: RandomSource = RandomSource(0),
    tol: ToleranceConfig = DEFAULT_TOL,
    trials: int = 3,
):
    """Generic rank of [lambda I - A_sys, B_sys] at each subsystem eigenvalue.

    For a structurally controllable single-input network the sampled
    maximum rank must reach full row rank at every distinct eigenvalue of
    A. Eigenvalues are deduplicated within the matching tolerance. Trial t
    samples weights from ``rng.derive(t)``, as the certificate does, and
    tests every eigenvalue on that one assembled pair.
    """
    require_valid(model)
    if model.num_inputs != 1:
        raise ValueError("the rank condition is stated for single-input nodes")
    if trials < 1:
        raise ValueError(f"the rank condition needs at least one trial, got {trials}")
    driven.validate_for(graph)

    required = graph.num_vertices * model.order
    eye_sys = np.eye(required)
    distinct = dedupe_eigenvalues(eigenvalues(model.a), tol)
    best = [0] * len(distinct)
    for t in range(trials):
        w = sample_weights(graph, (1, model.num_outputs), rng.derive(t))
        lumped = assemble_lumped(model, graph, w, driven)
        for i, lam in enumerate(distinct):
            pencil = np.hstack([lam * eye_sys - lumped.a_sys, lumped.b_sys])
            best[i] = max(best[i], numerical_rank(pencil, tol))
    details = tuple(
        RankCheckDetail(complex(lam), got, required, got == required)
        for lam, got in zip(distinct, best)
    )
    return all(d.ok for d in details), details
