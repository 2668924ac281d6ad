"""Command-line front end.

Commands: ``analyze`` (theorem engine verdict), ``certify`` (Monte Carlo
controllability oracle beside the verdict), ``lump`` (assembled system matrices),
``example`` (ready-to-analyze mass-spring chain files), ``graph``
(topology report).

``main`` may be called any number of times in one process. It parses with
one parser, built on the first call and reused after: the parser holds no
per-call state. ``parse_args`` returns a new namespace on each call, the
command's function is looked up by name when it runs, ``DIFFNET_SEED`` is
read when a seed is resolved and ``COLUMNS`` when help is formatted.
Importing the module builds no parser. ``build_parser`` returns a fresh one.

A command resolves a seed only when it draws from it (``certify``, and
``lump`` without file weights) or writes it for a later draw (``example``).

Exit codes: 0 structurally controllable (or success for non-verdict
commands), 1 not structurally controllable, 2 inconclusive, 3
certification disagrees with the verdict, 64 input error, 70 internal
error, 74 output write failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .assembly import (
    BlockMatrix,
    assemble_blocks,
    ground_first_vertex,
    grounding_shift,
    sample_weights,
)
from .errors import DiffnetError, ModelValidationError, ProblemFileError
from .numerics import (
    DEFAULT_EIG_MATCH_TOL,
    DEFAULT_RANK_REL_TOL,
    RandomSource,
    ToleranceConfig,
)
from .problem_io import (
    LUMP_SCHEMA,
    PROBLEM_SCHEMA,
    Problem,
    certification_to_json,
    graph_members,
    json_parts,
    load_problem,
    mass_spring_chain,
    report_document,
    weights_member,
    write_report,
)
from .topology import DIRECTED, UNDIRECTED, spanning_forest
from .verdict import (
    DEFAULT_CERTIFY_TRIALS,
    AnalysisReport,
    Verdict,
    analyze,
    certify_monte_carlo,
)

EXIT_CONTROLLABLE = 0
EXIT_NOT_CONTROLLABLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_DISAGREEMENT = 3
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 70
EXIT_WRITE_ERROR = 74

_VERDICT_EXIT = {
    Verdict.CONTROLLABLE: EXIT_CONTROLLABLE,
    Verdict.NOT_CONTROLLABLE: EXIT_NOT_CONTROLLABLE,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"relative tolerance must lie strictly between 0 and 1, got {value}"
        )
    return value


def _resolve_seed(flag_value: int | None, options: dict) -> int:
    """Precedence: --seed flag, then the file's options, then DIFFNET_SEED."""
    if flag_value is not None:
        return flag_value
    if "seed" in options:
        return options["seed"]
    env = os.environ.get("DIFFNET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemFileError(
                f"DIFFNET_SEED must be an integer, got {env!r}"
            ) from None
    return 0


def _resolve_tol(flag_value: float | None, options: dict) -> ToleranceConfig:
    rank = flag_value if flag_value is not None else options.get(
        "rank_rel_tol", DEFAULT_RANK_REL_TOL
    )
    eig = options.get("eig_match_tol", DEFAULT_EIG_MATCH_TOL)
    return ToleranceConfig(rank_rel_tol=rank, eig_match_tol=eig)


def _resolve_trials(flag_value: int | None, options: dict) -> int:
    if flag_value is not None:
        return flag_value
    return options.get("trials", DEFAULT_CERTIFY_TRIALS)


def _ground_shift(problem: Problem) -> np.ndarray:
    """The wall's shift of vertex 1's diagonal block."""
    wall = problem.options.get("wall")
    if wall is None:
        raise ProblemFileError(
            '--ground-first-mass needs options "wall" with '
            "stiffness_over_mass and damping_over_mass"
        )
    if problem.model.order != 2:
        raise ProblemFileError(
            "--ground-first-mass assumes two states (position, velocity) "
            f"per node, but the subsystem has {problem.model.order}"
        )
    return grounding_shift(wall["stiffness_over_mass"], wall["damping_over_mass"])


def _emit(args, doc: dict, text) -> None:
    """Write the report: ``doc`` as canonical JSON, or under ``--format
    text`` the rendering that ``text()`` builds."""
    if args.format == "json":
        parts = json_parts(doc)
    else:
        rendered = text()
        parts = [rendered] if rendered.endswith("\n") else [rendered, "\n"]
    write_report(args.out, parts)


def _witness_text(witness) -> str:
    if not witness:
        return ""
    parts = []
    for key, value in witness.items():
        if isinstance(value, tuple):
            rendered = ", ".join(str(v) for v in value)
            parts.append(f"{key} = [{rendered}]")
        else:
            parts.append(f"{key} = {value}")
    return "  (" + "; ".join(parts) + ")"


def _cert_lines(cert, label: str) -> list[str]:
    good = sum(1 for t in cert.per_trial if t.controllable)
    lines = [
        f"{label}: {good}/{cert.trials} trials controllable; "
        f"agrees with verdict: {'yes' if cert.agree_with_verdict else 'NO'}"
    ]
    for t in cert.per_trial:
        if t.error is not None:
            lines.append(f"  trial stream {t.stream_id}: error: {t.error}")
        else:
            status = "controllable" if t.controllable else (
                f"uncontrollable ({t.deficient_count} states outside the "
                "controllable subspace)"
            )
            lines.append(f"  trial stream {t.stream_id}: {status}")
    return lines


def _analysis_text(report: AnalysisReport) -> str:
    lines = [f"verdict: {report.verdict.value}", f"criteria: {report.theorem_used}"]
    lines.append("conditions:")
    for cond in report.conditions:
        mark = "pass" if cond.holds else "FAIL"
        lines.append(f"  [{mark}] {cond.name}{_witness_text(cond.witness)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    cert = report.certification
    if cert is not None:
        lines.extend(_cert_lines(cert, "certification"))
        if cert.grounded is not None:
            lines.extend(_cert_lines(cert.grounded, "grounded certification"))
    return "\n".join(lines)


def _report_options(tol: ToleranceConfig, **extra) -> dict:
    return {
        "rank_rel_tol": tol.rank_rel_tol,
        "eig_match_tol": tol.eig_match_tol,
        **extra,
    }


def cmd_analyze(args) -> int:
    problem, digest = load_problem(args.path)
    tol = _resolve_tol(args.tol, problem.options)
    report = analyze(problem.model, problem.graph, tol)
    doc = report_document(report, __version__, digest, _report_options(tol))
    _emit(args, doc, lambda: _analysis_text(report))
    return _VERDICT_EXIT[report.verdict]


def cmd_certify(args) -> int:
    problem, digest = load_problem(args.path)
    tol = _resolve_tol(args.tol, problem.options)
    seed = _resolve_seed(args.seed, problem.options)
    trials = _resolve_trials(args.trials, problem.options)
    # a grounded run without a usable wall is refused before anything is drawn
    shift = _ground_shift(problem) if args.ground_first_mass else None
    analysis = analyze(problem.model, problem.graph, tol)
    cert = certify_monte_carlo(
        problem.model,
        problem.graph,
        trials=trials,
        rng=RandomSource(seed),
        tol=tol,
        a_shift=shift,
        analysis=analysis,
    )
    report = analysis.with_certification(cert)
    options = _report_options(
        tol, seed=seed, trials=trials, ground_first_mass=bool(args.ground_first_mass)
    )
    doc = report_document(report, __version__, digest, options)
    # the theorem engine addresses the diffusive network itself, so agreement
    # is judged on the unshifted trials; the grounded ones are reported beside
    if cert.grounded is not None:
        doc["grounded_certification"] = certification_to_json(cert.grounded)
    _emit(args, doc, lambda: _analysis_text(report))
    if not cert.agree_with_verdict:
        return EXIT_DISAGREEMENT
    return _VERDICT_EXIT[report.verdict]


def _printed(matrix: BlockMatrix) -> str:
    """``str`` of the dense matrix under the print options in effect.

    Above numpy's ``threshold`` entries it prints only the first and last
    ``edgeitems`` rows and columns of each axis longer than twice that,
    and formats them from those entries alone. So a larger matrix is
    printed from a small array of just those rows and columns, with one
    more between them that the summary drops, gathered from the blocks.
    """
    options = np.get_printoptions()
    if math.prod(matrix.shape) <= options["threshold"]:
        return str(matrix.dense())
    edge = options["edgeitems"]
    picks = [
        np.r_[: edge + 1, n - edge : n] if n > 2 * edge else np.arange(n)
        for n in matrix.shape
    ]
    # the blocks in the picked rows and columns, renumbered among them
    h, w = matrix.blocks.shape[-2:]
    (brows, at_row), (bcols, at_col) = (
        np.unique(p // size, return_inverse=True) for p, size in zip(picks, (h, w))
    )
    hit = np.isin(matrix.rows, brows) & np.isin(matrix.cols, bcols)
    near = BlockMatrix(
        (brows.size * h, bcols.size * w),
        np.searchsorted(brows, matrix.rows[hit]),
        np.searchsorted(bcols, matrix.cols[hit]),
        matrix.blocks[hit],
    ).dense()
    corners = near[np.ix_(at_row * h + picks[0] % h, at_col * w + picks[1] % w)]
    with np.printoptions(threshold=corners.size - 1):
        return str(corners)


def cmd_lump(args) -> int:
    problem, digest = load_problem(args.path)
    model, graph = problem.model, problem.graph
    sampled = problem.weights is None
    seed = _resolve_seed(args.seed, problem.options) if sampled else None
    # a grounded run without a usable wall is refused before anything is drawn
    wall = _ground_shift(problem) if args.ground_first_mass else None
    if sampled:
        weights = sample_weights(
            graph, (model.num_inputs, model.num_outputs), RandomSource(seed)
        )
    else:
        weights = problem.weights
    a_sys, b_sys = assemble_blocks(model, graph, weights)
    grounded = wall is not None
    if grounded:
        a_sys = ground_first_vertex(a_sys, wall)
    doc = {
        "$schema": LUMP_SCHEMA,
        "tool": {"name": "diffnet", "version": __version__},
        "input": {"sha256": digest},
        "a_sys": a_sys,
        "b_sys": b_sys,
        "weights": weights_member(graph, weights),
        "sampled": sampled,
        "seed": seed,
        "grounded": grounded,
    }

    def text() -> str:
        with np.printoptions(precision=6, suppress=True):
            return "\n".join(
                [
                    f"state matrix ({a_sys.shape[0]} x {a_sys.shape[1]}):",
                    _printed(a_sys),
                    f"input matrix ({b_sys.shape[0]} x {b_sys.shape[1]}):",
                    _printed(b_sys),
                    f"weights {'sampled from seed ' + str(seed) if sampled else 'taken from the problem file'}",
                ]
            )

    _emit(args, doc, text)
    return 0


def cmd_example(args) -> int:
    if args.name != "mass-spring":
        raise ProblemFileError(
            f"unknown example {args.name!r}; available: mass-spring"
        )
    seed = _resolve_seed(args.seed, {})
    num = args.num_masses
    gen = RandomSource(seed).generator()
    springs = args.springs or [float(x) for x in gen.uniform(0.5, 2.0, size=num)]
    dampers = args.dampers or [float(x) for x in gen.uniform(0.5, 2.0, size=num)]
    if len(springs) != num or len(dampers) != num:
        raise ProblemFileError(
            f"--springs and --dampers each need {num} values (wall first)"
        )
    chain = mass_spring_chain(num, args.mass, springs, dampers)
    model, graph = chain.model, chain.graph
    ends = list(zip(graph.u.tolist(), graph.v.tolist()))
    kinds = [DIRECTED if d else UNDIRECTED for d in graph.directed.tolist()]
    doc = {
        "$schema": PROBLEM_SCHEMA,
        "subsystem": {"A": model.a.tolist(), "B": model.b.tolist(), "C": model.c.tolist()},
        "graph": {
            "N": graph.num_vertices,
            "edges": [{"u": u, "v": v, "kind": k} for (u, v), k in zip(ends, kinds)],
        },
        "driven": list(graph.driven),
        # problem files carry no edge kinds inside "weights"
        "weights": {
            "edges": [
                {"u": u, "v": v, "W": w} for (u, v), w in zip(ends, chain.weights.tolist())
            ]
        },
        "options": {"seed": seed, **chain.options},
    }
    write_report(args.out, json_parts(doc))
    return 0


def _graph_text(graph, forest) -> str:
    unreachable = sorted(forest.unreachable)
    lines = [
        f"vertices: {graph.num_vertices}",
        f"edges: {graph.num_edges}",
        f"driven: {list(graph.driven)}",
        f"globally input-reachable: {'yes' if not unreachable else 'no'}",
    ]
    if unreachable:
        lines.append(f"unreachable vertices: {unreachable}")
    lines.append("spanning forest:")
    for root in sorted(forest.roots):
        lines.append(f"  root {root}")
    for child in forest.order:
        if child in forest.parent:
            lines.append(f"  {child} <- {forest.parent[child]}")
    lines.append("edge orientation:")
    columns = (graph.u, graph.v, graph.start + 1, graph.end + 1, graph.directed)
    for u, v, start, end, directed in zip(*(c.tolist() for c in columns)):
        if directed:
            label = f"({u} -> {v}) {DIRECTED}"
            injection = f"injection +1 at {end} only"
        else:
            label = f"{{{u}, {v}}} {UNDIRECTED}"
            injection = f"injection +1 at {end}, -1 at {start}"
        lines.append(f"  {label}: oriented {start} -> {end}; {injection}")
    return "\n".join(lines)


def cmd_graph(args) -> int:
    problem, digest = load_problem(args.path)
    graph = problem.graph
    forest = spanning_forest(graph)
    unreachable = sorted(forest.unreachable)
    edges, orientation = graph_members(graph)
    doc = {
        "$schema": "diffnet-graph/v1",
        "tool": {"name": "diffnet", "version": __version__},
        "input": {"sha256": digest},
        "vertices": graph.num_vertices,
        "edges": edges,
        "driven": list(graph.driven),
        "globally_input_reachable": not unreachable,
        "reachable": sorted(forest.order),
        "unreachable": unreachable,
        "forest": {
            "roots": sorted(forest.roots),
            "parents": {str(child): parent for child, parent in forest.parent.items()},
        },
        "orientation": orientation,
    }
    _emit(args, doc, lambda: _graph_text(graph, forest))
    return 0


def _add_io_flags(parser, with_seed=True, with_tol=False):
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    if with_seed:
        parser.add_argument(
            "--seed",
            type=_any_int,
            help="random seed (default: problem options, then DIFFNET_SEED, then 0)",
        )
    if with_tol:
        parser.add_argument(
            "--tol",
            type=_tolerance,
            metavar="REL",
            help="relative rank tolerance for the SVD-based tests",
        )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format (default: json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diffnet",
        description=(
            "Structural controllability of diffusively coupled networks "
            "with vector- or matrix-weighted edges."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="graph-theoretic verdict for a problem file")
    p.add_argument("path", help="problem file (JSON)")
    _add_io_flags(p, with_seed=False, with_tol=True)

    p = sub.add_parser(
        "certify", help="Monte Carlo controllability certification beside the verdict"
    )
    p.add_argument("path", help="problem file (JSON)")
    p.add_argument(
        "--trials",
        type=_positive_int,
        help="at most this many trials; a CONTROLLABLE verdict stops at the first "
        "draw that is controllable (default: problem options, then 5)",
    )
    p.add_argument(
        "--ground-first-mass",
        action="store_true",
        help="also test every sampled draw with the wall coupling from "
        "options.wall added to its state matrix",
    )
    _add_io_flags(p, with_tol=True)

    p = sub.add_parser("lump", help="assembled lumped matrices for a problem file")
    p.add_argument("path", help="problem file (JSON)")
    p.add_argument(
        "--ground-first-mass",
        action="store_true",
        help="add the wall coupling from options.wall to the emitted state matrix",
    )
    _add_io_flags(p)

    p = sub.add_parser("example", help="generate a ready-to-analyze problem file")
    p.add_argument(
        "name",
        nargs="?",
        default="mass-spring",
        help="example family (default: mass-spring)",
    )
    p.add_argument(
        "--N",
        dest="num_masses",
        type=_positive_int,
        default=5,
        help="number of masses (default: 5)",
    )
    p.add_argument(
        "--mass", type=float, default=1.0, help="mass of each node (default: 1)"
    )
    p.add_argument(
        "--springs",
        type=float,
        nargs="+",
        help="spring constants, wall spring first (default: drawn from the seed)",
    )
    p.add_argument(
        "--dampers",
        type=float,
        nargs="+",
        help="damper constants, wall damper first (default: drawn from the seed)",
    )
    p.add_argument("--out", metavar="PATH", help="write the problem file here")
    p.add_argument("--seed", type=_any_int, help="seed for drawn constants")

    p = sub.add_parser("graph", help="topology report for a problem file")
    p.add_argument("path", help="problem file (JSON)")
    _add_io_flags(p, with_seed=False)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call uses, built on the first one."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* function takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ProblemFileError, ModelValidationError, ValueError) as exc:
        print(f"diffnet: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"diffnet: write failed: {exc}", file=sys.stderr)
        return EXIT_WRITE_ERROR
    except DiffnetError as exc:
        print(f"diffnet: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception as exc:
        # exit 1 would read as NOT_CONTROLLABLE; anything unforeseen is internal
        print(
            f"diffnet: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
