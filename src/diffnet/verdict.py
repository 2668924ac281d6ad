"""Structural controllability verdicts and their numerical certification.

``analyze`` decides, from the network graph with its driven vertices and
one copy of the node dynamics, whether some (equivalently, almost every)
choice of edge weights makes the assembled network controllable. It is
the one analyzer for single-input (vector-weight) and multi-input
(matrix-weight) nodes. Its node conditions and fixed modes come from the
same block Arnoldi as the certificate (``numerics.uncontrolled_part``),
run on the node's matrices each normalised by its own Frobenius norm; a
failed node condition is witnessed by the spectrum outside the
controllable (or observable) subspace. Every verdict can be
cross-examined by ``certify_monte_carlo``, a Monte Carlo oracle on
sampled weights: trial t's weight blocks are ``sample_weights`` on
``rng.derive(t)``. The property is generic, so one controllable draw
shows that controllable weights exist: against a CONTROLLABLE verdict
trial 0 runs alone first, and the oracle stops there when it is
controllable. Otherwise the trials are assembled (``assemble_blocks`` on
the stack of draws, its blocks scattered into dense matrices) and
rank-tested as one stack, by block Arnoldi on the controllable subspace,
against one input matrix: Delta kron B at the driven vertices' |D| p
columns only, a ``BlockMatrix`` scattered once per call. A single-input
network's steps are then single columns, each taken by its norm.
A shift of vertex 1's diagonal block (a wall-grounded chain) is tested on
the same draws: each trial is drawn and assembled once, and its plain and
shifted pairs share the stack. A shift that acts only through a driven
vertex 1's input row, as the chain's wall acts on mass 1 beside its
external force, is state feedback, which leaves every pair's controllable
subspace as it is: its grounded trials are then the plain ones, and the
stack holds the plain pairs only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import BlockMatrix, assemble_blocks, ground_first_vertex, sample_weights
from .errors import NumericError
from .numerics import (
    DEFAULT_TOL,
    RandomSource,
    ToleranceConfig,
    controllable_dimension,
    dedupe_eigenvalues,
    uncontrolled_part,
)
from .subsystem import SubsystemModel, fixed_modes
from .topology import NetworkGraph, spanning_forest

DEFAULT_CERTIFY_TRIALS = 5

#: The certificate's trials run as one stack while their state matrices
#: take at most this many bytes together, plain and shifted halves both
#: counted, and in consecutive stacks beyond it, so that memory stays
#: bounded whatever the trial count.
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
    as ``numerics.controllable_dimension`` measures it. The pairs of one
    call, plain and shifted, are tested as a stack; a numeric failure is
    retried pair by pair, so ``error`` is set on the failing pair's trial
    only, with ``controllable`` and ``deficient_count`` None.
    """

    stream_id: int
    controllable: bool | None
    deficient_count: int | None
    error: str | None = None


@dataclass(frozen=True)
class CertificationReport:
    """Monte Carlo evidence beside the verdict it examines.

    ``any_controllable`` uses existence semantics: one controllable draw
    certifies that controllable weights exist, so against a CONTROLLABLE
    verdict ``trials`` and ``per_trial`` may hold trial 0 alone: they
    hold the trials that ran. Agreement means the evidence is consistent
    with the compared verdict (an inconclusive verdict cannot be
    contradicted). All trials uncontrollable against a controllable
    verdict is reported as disagreement, a numerical red flag left for the
    caller to adjudicate.

    ``grounded`` holds, for a call with a state-matrix shift, the same
    draws tested with the shift, compared with the same analysis; it is
    None otherwise. For a shift that is state feedback through a driven
    input it repeats the unshifted trials, which have the same
    controllable subspaces. ``per_trial`` always holds the unshifted
    trials.
    """

    trials: int
    per_trial: tuple[TrialResult, ...]
    any_controllable: bool
    compared_verdict: str
    agree_with_verdict: bool
    grounded: CertificationReport | None = None


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


def _node_record(name: str, a, b, tol: ToleranceConfig) -> ConditionRecord:
    """Node-level condition that (A, B) is controllable, decided by the
    staircase and witnessed by the spectrum of its uncontrolled part,
    deduplicated; the dual pair (A^T, C^T) gives observability."""
    deficient = uncontrolled_part(a, b, tol)[1]
    if not deficient.size:
        return ConditionRecord(name, True)
    witness = tuple(complex(z) for z in dedupe_eigenvalues(deficient, tol))
    return ConditionRecord(name, False, {"deficient_eigenvalues": witness})


def analyze(
    model: SubsystemModel,
    graph: NetworkGraph,
    tol: ToleranceConfig = DEFAULT_TOL,
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
    silent and the verdict is INCONCLUSIVE.
    """
    single_input = model.num_inputs == 1
    if not single_input and graph.has_directed_edges():
        raise ValueError(
            "matrix-weight analysis covers undirected topologies only; "
            "model directed influences with single-input nodes instead"
        )
    if len(graph.driven) == graph.num_vertices:
        record = _node_record("subsystem_controllable", model.a, model.b, tol)
        return AnalysisReport(
            verdict=Verdict.CONTROLLABLE if record.holds else Verdict.NOT_CONTROLLABLE,
            theorem_used="trivial-case",
            conditions=(record,),
            notes=("every vertex is driven: subsystem controllability decides",),
        )
    unreachable = tuple(sorted(spanning_forest(graph).unreachable))
    reach = ConditionRecord(
        "globally_input_reachable",
        not unreachable,
        {"unreachable_vertices": unreachable} if unreachable else None,
    )

    if single_input:
        theorem, notes = "1", ()
        if graph.has_directed_edges():
            theorem = "2"
            notes = ("directed influences present: semi-symmetric criteria applied",)
        conditions = (
            _node_record("subsystem_controllable", model.a, model.b, tol),
            _node_record("subsystem_observable", model.a.T, model.c.T, tol),
            reach,
        )
        verdict = (
            Verdict.CONTROLLABLE
            if all(c.holds for c in conditions)
            else Verdict.NOT_CONTROLLABLE
        )
        return AnalysisReport(verdict, theorem, conditions, notes=notes)

    modes = fixed_modes(model, tol)
    conditions = (
        ConditionRecord(
            "no_fixed_mode",
            not modes,
            {"fixed_modes": tuple(complex(z) for z in dedupe_eigenvalues(modes, tol))}
            if modes
            else None,
        ),
        reach,
    )
    notes: tuple[str, ...] = ()
    if not reach.holds:
        verdict = Verdict.NOT_CONTROLLABLE
    elif not modes:
        verdict = Verdict.CONTROLLABLE
    else:
        verdict = Verdict.INCONCLUSIVE
        notes = (
            "fixed modes present on a reachable topology: the matrix-weight "
            "criterion is sufficient-only and makes no claim here",
        )
    return AnalysisReport(verdict, "3", conditions, notes=notes)


def certify_monte_carlo(
    model: SubsystemModel,
    graph: NetworkGraph,
    trials: int = DEFAULT_CERTIFY_TRIALS,
    rng: RandomSource = RandomSource(0),
    tol: ToleranceConfig = DEFAULT_TOL,
    a_shift: np.ndarray | None = None,
    analysis: AnalysisReport | None = None,
) -> CertificationReport:
    """Monte Carlo controllability oracle over sampled weights.

    Trial t's weights are ``sample_weights`` on ``rng.derive(t)``, derived
    when its stack runs. Against a CONTROLLABLE ``analysis`` trial 0 runs
    first, alone, and the report holds it alone when it is controllable in
    every half: one controllable draw decides ``any_controllable`` and
    agreement. Otherwise the trials' lumped pairs are assembled and their
    controllable subspaces measured by block Arnoldi as one stack, split
    only where the stack's state matrices would pass
    ``_TRIAL_STACK_BYTES``; a trial's result does not depend on its stack.
    Every pair shares one input matrix, scattered once from its blocks:
    the driven vertices' |D| p columns of Delta kron B, B at block row
    v - 1 and block column k for the k-th driven vertex v, which span what
    all its N p columns span. The states outside a pair's subspace are its
    trial's ``deficient_count``.

    ``a_shift``, an (n, n) array for nodes of order n, is added to vertex
    1's diagonal block of every state matrix (``ground_first_vertex``; a
    chain's wall is ``grounding_shift``). Each trial is still drawn and
    assembled once: a stack of k trials holds the k plain state matrices,
    the blocks of ``assemble_blocks`` scattered, and after them the k
    shifted ones, the shifted blocks scattered; the shifted results form
    the report's ``grounded`` part. When the shift is state feedback
    through vertex 1's input (``_is_input_feedback``: vertex 1 driven, B
    and the shift zero outside one row, B not zero in it), the shifted
    pair (A + B_sys G, B_sys) has the plain pair's controllable subspace,
    so no shifted matrix is built: the stack holds the k plain ones, and
    ``grounded`` repeats the plain trials, counts, flags and errors. A
    numeric failure of the stacked rank test reruns its members one at a
    time, so it is recorded on its own trial (and half) and never aborts
    the run. Both parts are compared with ``analysis``, computed by
    ``analyze`` when not given.
    """
    if trials < 1:
        raise ValueError(f"certification needs at least one trial, got {trials}")
    if analysis is None:
        analysis = analyze(model, graph, tol)
    shape = (model.num_inputs, model.num_outputs)
    n_states = graph.num_vertices * model.order
    halves = 1
    if a_shift is not None:
        a_shift = np.asarray(a_shift, dtype=float)
        block = (model.order, model.order)
        if a_shift.shape != block:
            raise ValueError(
                f"state-matrix shift has shape {a_shift.shape}, expected {block}"
            )
        if not _is_input_feedback(model, graph, a_shift):
            halves = 2
    size = max(1, _TRIAL_STACK_BYTES // (8 * halves * n_states * n_states))
    controllable_verdict = analysis.verdict is Verdict.CONTROLLABLE
    per: list[list[TrialResult]] = [[] for _ in range(halves)]
    driven = np.array(graph.driven, dtype=np.intp) - 1
    b_sys = BlockMatrix(
        (n_states, driven.size * model.num_inputs),
        driven,
        np.arange(driven.size),
        np.broadcast_to(model.b, (driven.size,) + model.b.shape),
    ).dense()
    at = 0
    while at < trials:
        # a CONTROLLABLE verdict needs one controllable draw per half, so
        # trial 0 runs alone first and ends the run when it is one
        stop = min(trials, at + (1 if controllable_verdict and not at else size))
        chunk = [rng.derive(t) for t in range(at, stop)]
        blocks = np.stack([sample_weights(graph, shape, src) for src in chunk])
        # the chunk's plain state matrices, then, unless the shift is input
        # feedback, the same grounded
        k = len(chunk)
        a_sys = np.empty((halves * k, n_states, n_states))
        state, _ = assemble_blocks(model, graph, blocks)
        state.dense(out=a_sys[:k])
        if halves == 2:
            ground_first_vertex(state, a_shift).dense(out=a_sys[k:])
        try:
            dims = list(controllable_dimension(a_sys, b_sys, tol))
        except NumericError:
            dims = []
            for member in a_sys:
                try:
                    dims.append(controllable_dimension(member, b_sys, tol))
                except NumericError as exc:
                    dims.append(exc)
        for half, results in enumerate(per):
            results.extend(
                _trial(src, dim, n_states) for src, dim in zip(chunk, dims[half * k :])
            )
        at = stop
        if controllable_verdict and all(results[0].controllable for results in per):
            break
    plain = _compared(per[0], analysis.verdict)
    if a_shift is None:
        return plain
    # an input-feedback shift ran no second half: its trials are the plain ones
    return dataclasses.replace(plain, grounded=_compared(per[-1], analysis.verdict))


def _is_input_feedback(
    model: SubsystemModel, graph: NetworkGraph, shift: np.ndarray
) -> bool:
    """Whether adding ``shift`` to vertex 1's diagonal block is state
    feedback through vertex 1's input: vertex 1 is driven, B is zero
    outside one row r and nonzero in it, and the finite shift is zero
    outside row r. Then shift = B F, for F zero but in row j, which holds
    the shift's row r over B[r, j] for any j with B[r, j] != 0. So the
    shifted pair is the plain pair under the feedback u_1 = F x_1 + v, and
    both have one controllable subspace (Wonham 1985)."""
    if 1 not in graph.driven or not np.all(np.isfinite(shift)):
        return False
    rows = np.flatnonzero(np.any(model.b != 0.0, axis=1))
    return rows.size == 1 and not np.any(np.delete(shift, rows[0], axis=0))


def _trial(src: RandomSource, dim, n_states: int) -> TrialResult:
    """One trial from its pair's controllable dimension or numeric failure."""
    if isinstance(dim, NumericError):
        return TrialResult(src.stream_id, None, None, str(dim))
    return TrialResult(src.stream_id, bool(dim == n_states), int(n_states - dim))


def _compared(per: list[TrialResult], verdict: Verdict) -> CertificationReport:
    """The trials as evidence for or against ``verdict``."""
    any_ok = any(t.controllable for t in per)
    if verdict is Verdict.CONTROLLABLE:
        agree = any_ok
    elif verdict is Verdict.NOT_CONTROLLABLE:
        agree = not any_ok
    else:
        agree = True
    return CertificationReport(
        trials=len(per),
        per_trial=tuple(per),
        any_controllable=any_ok,
        compared_verdict=verdict.value,
        agree_with_verdict=agree,
    )
