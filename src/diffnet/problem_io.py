"""Problems, problem-file loading, report serialization and the report write.

A problem file is one JSON document:

    {
      "subsystem": {"A": [[...]], "B": [[...]], "C": [[...]]},
      "graph": {"N": 3, "edges": [{"u": 1, "v": 2, "kind": "undirected"}]},
      "driven": [1],
      "weights": {"edges": [{"u": 1, "v": 2, "W": [[...]]}]},   # optional
      "options": {"seed": 0, "trials": 5, "rank_rel_tol": 1e-9}  # optional
    }

Matrices are dense row-major nested lists. ``kind`` defaults to undirected.
"graph" and "driven" build one ``NetworkGraph``. The parser checks only
their JSON shape; "N", the u, v and kind columns of the "edges" entries
and the "driven" list go to the graph's one check as the file gives
them, so a parsed file builds no ``Edge`` and its values are checked
once. A bad driven id is reported as ``invalid driven set:`` and any
other value fault of the graph as ``invalid graph:``, each followed by
the graph's own text. The report members that list edges are written
from the graph's int64 columns.
``mass_spring_chain`` builds the paper's example as the ``Problem`` that
``diffnet example`` writes to a file and ``parse_problem`` reads back:
force input B = [0; 1/m], edge weights [k, mu] and the wall constants
per unit mass in its "wall" option.
Reports serialize to canonical JSON with complex numbers as
{"re": ..., "im": ...} objects.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .assembly import BlockMatrix
from .errors import ModelValidationError, ProblemFileError
from .subsystem import SubsystemModel
from .topology import UNDIRECTED, DrivenIdError, NetworkGraph
from .verdict import AnalysisReport, CertificationReport

REPORT_SCHEMA = "diffnet-report/v1"
LUMP_SCHEMA = "diffnet-lump/v1"
PROBLEM_SCHEMA = "diffnet-problem/v1"

_TOP_LEVEL_KEYS = {"$schema", "subsystem", "graph", "driven", "weights", "options"}
_OPTION_KEYS = {"seed", "trials", "rank_rel_tol", "eig_match_tol", "wall"}


@dataclass(frozen=True)
class Problem:
    """A problem ready for the analysis entry points: a parsed problem
    file, or the chain ``mass_spring_chain`` builds.

    ``graph`` holds the driven vertices. ``weights``, when given, is the
    (M, p, r) array of the edges' weight blocks in edge order. ``options``
    holds the members of the file's "options"."""

    model: SubsystemModel
    graph: NetworkGraph
    weights: np.ndarray | None
    options: dict


def mass_spring_chain(num_masses: int, mass: float, springs, dampers) -> Problem:
    """The paper's example: N equal masses in a line, springs k_1..k_N and
    dampers mu_1..mu_N, k_1 and mu_1 tying mass 1 to a wall.

    Each mass is a double integrator with states (position, velocity).
    Force enters it through B = [0; 1/mass], the external force on mass 1,
    the graph's one driven vertex, and the coupling forces alike. So edge
    {i, i+1} carries the physical 1 x 2 weight [k_{i+1}, mu_{i+1}], and
    ``weights`` has shape (N - 1, 1, 2). The wall is not an edge:
    ``options["wall"]`` holds k_1/mass and mu_1/mass, per unit mass
    because ``grounding_shift`` adds them to the state matrix directly.
    """
    if not isinstance(num_masses, int) or num_masses < 1:
        raise ValueError(f"need at least one mass, got {num_masses}")
    if not 0.0 < mass < math.inf:
        raise ValueError(f"mass must be positive and finite, got {mass}")
    springs = [float(k) for k in springs]
    dampers = [float(mu) for mu in dampers]
    if not all(map(math.isfinite, springs + dampers)):
        raise ValueError(
            f"spring and damper constants must be finite, got {springs} and {dampers}"
        )
    if len(springs) != num_masses or len(dampers) != num_masses:
        raise ValueError(
            f"need {num_masses} spring and damper constants, got "
            f"{len(springs)} and {len(dampers)}"
        )
    model = SubsystemModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0 / mass]], np.eye(2))
    graph = NetworkGraph(
        num_masses, tuple((i, i + 1) for i in range(1, num_masses)), driven=(1,)
    )
    weights = np.stack([springs[1:], dampers[1:]], axis=-1)[:, None, :]
    wall = {"stiffness_over_mass": springs[0] / mass, "damping_over_mass": dampers[0] / mass}
    return Problem(model, graph, weights, {"wall": wall})


def _fail(msg: str) -> ProblemFileError:
    return ProblemFileError(msg)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


#: The types ``json.loads`` gives a JSON number; a bool, though an int in
#: Python, is not one, and neither is a string that numpy would convert
_NUMBER_TYPES = {int, float}


def _flat(nested: list, depth: int):
    """The entries of lists nested ``depth`` deep, as one iterable."""
    for _ in range(depth - 1):
        nested = itertools.chain.from_iterable(nested)
    return nested


def _matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(f"{where} is not a numeric array: {exc}") from None
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise _fail(f"{where} must be a non-empty 1-D or 2-D numeric array")
    bad = [x for x in _flat(value, arr.ndim) if type(x) not in _NUMBER_TYPES]
    if bad:
        raise _fail(
            f"{where} has the non-numeric entry {json.dumps(bad[0])}: "
            "every entry must be a JSON number"
        )
    if not np.all(np.isfinite(arr)):
        raise _fail(f"{where} contains non-finite entries")
    return arr


def _int_field(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{where} must be an integer, got {value!r}")
    return value


def _finite_field(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(f"{where} must be finite, got {value!r}")
    return number


def _parse_subsystem(doc: dict) -> SubsystemModel:
    sub = _require_mapping(doc.get("subsystem"), '"subsystem"')
    missing = {"A", "B", "C"} - set(sub)
    if missing:
        raise _fail(f'"subsystem" is missing members: {sorted(missing)}')
    extra = set(sub) - {"A", "B", "C"}
    if extra:
        raise _fail(f'"subsystem" has unknown members: {sorted(extra)}')
    a = _matrix(sub["A"], 'subsystem "A"')
    b = _matrix(sub["B"], 'subsystem "B"')
    c = _matrix(sub["C"], 'subsystem "C"')
    try:
        return SubsystemModel(a, b, c)
    except ModelValidationError as exc:
        raise _fail("invalid subsystem: " + "; ".join(exc.violations)) from None


_EDGE_MEMBERS = {"u", "v", "kind"}
_WEIGHT_MEMBERS = {"u", "v", "W"}


def _edge_columns(entries: list) -> tuple[list, list, list]:
    """The u, v and kind columns of the "edges" entries, their values as
    the file gives them, for the graph to check. Raises at the first entry
    that is not an object with "u" and "v" and no member but those and
    "kind"."""
    try:
        us = [e["u"] for e in entries]
        vs = [e["v"] for e in entries]
        kinds = [e.get("kind", UNDIRECTED) for e in entries]
    except (TypeError, KeyError):  # no object, or no "u" or "v"
        us = None
    if us is None or not set().union(*entries) <= _EDGE_MEMBERS:
        for i, entry in enumerate(entries):
            e = _require_mapping(entry, f"edge #{i}")
            extra = set(e) - _EDGE_MEMBERS
            if extra:
                raise _fail(f"edge #{i} has unknown members: {sorted(extra)}")
            if "u" not in e or "v" not in e:
                raise _fail(f'edge #{i} needs both "u" and "v"')
    return us, vs, kinds


def _parse_graph(doc: dict) -> NetworkGraph:
    """The graph of "graph" and "driven". Only the JSON shape is checked
    here; the vertex count, the edge values and the driven ids go to the
    graph as the file gives them, and a fault among them is refused with
    the graph's own text."""
    g = _require_mapping(doc.get("graph"), '"graph"')
    extra = set(g) - {"N", "edges"}
    if extra:
        raise _fail(f'"graph" has unknown members: {sorted(extra)}')
    if "N" not in g:
        raise _fail('"graph" is missing "N"')
    entries = g.get("edges", [])
    if not isinstance(entries, list):
        raise _fail('graph "edges" must be a list')
    columns = _edge_columns(entries)
    driven = doc.get("driven")
    if not isinstance(driven, list):
        raise _fail('"driven" must be a list of vertex ids')
    try:
        return NetworkGraph._from_columns(g["N"], *columns, driven)
    except DrivenIdError as exc:
        raise _fail(f"invalid driven set: {exc}") from None
    except ValueError as exc:
        raise _fail(f"invalid graph: {exc}") from None


def _edge_positions(graph: NetworkGraph) -> dict[tuple[int, int], int]:
    """Position of the edge a weight's (u, v) names: a directed edge's own
    (u, v), and either order of an undirected edge's ends. An undirected
    pair never coexists with another edge on the same vertices, so no two
    edges share a name."""
    both = ~graph.directed
    first = np.concatenate([graph.start, graph.end[both]]) + 1
    second = np.concatenate([graph.end, graph.start[both]]) + 1
    position = np.concatenate([np.arange(graph.num_edges), np.flatnonzero(both)])
    return dict(zip(zip(first.tolist(), second.tolist()), position.tolist()))


def _weight_columns(entries: list, positions: dict, shape: tuple[int, int]):
    """Edge positions and stacked blocks of the "weights" entries, or None
    unless every entry is well formed, names a distinct edge and has a
    finite block of the given shape, all of JSON numbers."""
    try:
        us = [e["u"] for e in entries]
        vs = [e["v"] for e in entries]
        ws = [e["W"] for e in entries]
    except (TypeError, KeyError):  # no object, or a member missing
        return None
    if not (
        set().union(*entries) <= _WEIGHT_MEMBERS
        and {*map(type, us), *map(type, vs)} <= {int}
    ):
        return None
    found = list(map(positions.get, zip(us, vs)))
    if None in found or len(set(found)) < len(found):
        return None
    try:
        blocks = np.array(ws, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    depth = blocks.ndim
    if shape[0] == 1 and depth == 2:  # one 1-D row per weight
        blocks = blocks[:, None, :]
    if (
        blocks.shape[1:] != shape
        or not np.all(np.isfinite(blocks))
        or not set(map(type, _flat(ws, depth))) <= _NUMBER_TYPES
    ):
        return None
    return found, blocks


def _walk_weights(entries: list, positions: dict, shape: tuple[int, int]):
    """Parse the "weights" entries one by one, raising at the first bad one."""
    found, blocks, seen = [], [], set()
    for i, entry in enumerate(entries):
        e = _require_mapping(entry, f"weight #{i}")
        extra = set(e) - _WEIGHT_MEMBERS
        if extra:
            raise _fail(f"weight #{i} has unknown members: {sorted(extra)}")
        if "u" not in e or "v" not in e or "W" not in e:
            raise _fail(f'weight #{i} needs "u", "v" and "W"')
        u = _int_field(e["u"], f'weight #{i} "u"')
        v = _int_field(e["v"], f'weight #{i} "v"')
        position = positions.get((u, v))
        if position is None:
            raise _fail(f"weight #{i} references no edge between {u} and {v}")
        if position in seen:
            raise _fail(f"duplicate weight for edge between {u} and {v}")
        block = np.atleast_2d(_matrix(e["W"], f'weight #{i} "W"'))
        if block.shape != shape:
            raise _fail(
                f"weight #{i} has shape {block.shape}, expected {shape} "
                "from the subsystem's input and output counts"
            )
        seen.add(position)
        found.append(position)
        blocks.append(block)
    return found, blocks


def _parse_weights(doc: dict, graph: NetworkGraph, model: SubsystemModel):
    raw = doc.get("weights")
    if raw is None:
        return None
    w = _require_mapping(raw, '"weights"')
    extra = set(w) - {"edges"}
    if extra:
        raise _fail(f'"weights" has unknown members: {sorted(extra)}')
    entries = w.get("edges")
    if not isinstance(entries, list):
        raise _fail('weights "edges" must be a list')

    shape = (model.num_inputs, model.num_outputs)
    positions = _edge_positions(graph)
    columns = _weight_columns(entries, positions, shape)
    found, blocks = _walk_weights(entries, positions, shape) if columns is None else columns
    if len(found) < graph.num_edges:
        covered = set(found)
        raise _fail(
            "weights must cover every edge; missing: "
            + ", ".join(
                f"({u}, {v})"
                for i, (u, v) in enumerate(zip(graph.u.tolist(), graph.v.tolist()))
                if i not in covered
            )
        )
    weights = np.empty((graph.num_edges, *shape))
    weights[found] = np.reshape(blocks, (-1, *shape))
    return weights


def _parse_options(doc: dict) -> dict:
    raw = doc.get("options")
    if raw is None:
        return {}
    opts = dict(_require_mapping(raw, '"options"'))
    extra = set(opts) - _OPTION_KEYS
    if extra:
        raise _fail(f'"options" has unknown members: {sorted(extra)}')
    if "seed" in opts:
        opts["seed"] = _int_field(opts["seed"], 'options "seed"')
    if "trials" in opts:
        trials = _int_field(opts["trials"], 'options "trials"')
        if trials < 1:
            raise _fail(f'options "trials" must be at least 1, got {trials}')
        opts["trials"] = trials
    for key in ("rank_rel_tol", "eig_match_tol"):
        if key in opts:
            opts[key] = _finite_field(opts[key], f'options "{key}"')
    if "wall" in opts:
        wall = _require_mapping(opts["wall"], 'options "wall"')
        needed = {"stiffness_over_mass", "damping_over_mass"}
        if set(wall) != needed:
            raise _fail(f'options "wall" must have exactly the members {sorted(needed)}')
        opts["wall"] = {
            k: _finite_field(wall[k], f'options "wall" "{k}"') for k in sorted(needed)
        }
    return opts


def parse_problem(text: str) -> Problem:
    """Parse and fully validate one problem document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    doc = _require_mapping(doc, "problem document")
    extra = set(doc) - _TOP_LEVEL_KEYS
    if extra:
        raise _fail(f"unknown top-level members: {sorted(extra)}")
    for required in ("subsystem", "graph", "driven"):
        if required not in doc:
            raise _fail(f'missing required member "{required}"')

    model = _parse_subsystem(doc)
    graph = _parse_graph(doc)
    weights = _parse_weights(doc, graph, model)
    options = _parse_options(doc)
    return Problem(model, graph, weights, options)


def load_problem(path) -> tuple[Problem, str]:
    """Load a problem file; returns the problem and its input digest."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fail(f"{path} is not UTF-8 text: {exc}") from None
    return parse_problem(text), digest


def _jsonable(value):
    """Recursively convert report payloads to JSON-safe structures."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def certification_to_json(cert: CertificationReport) -> dict:
    return {
        "trials": cert.trials,
        "per_trial": [
            {
                "stream_id": t.stream_id,
                "controllable": t.controllable,
                "deficient_count": t.deficient_count,
                "error": t.error,
            }
            for t in cert.per_trial
        ],
        "any_controllable": cert.any_controllable,
        "compared_verdict": cert.compared_verdict,
        "agree_with_verdict": cert.agree_with_verdict,
    }


def analysis_to_json(report: AnalysisReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "theorem_used": report.theorem_used,
        "conditions": [
            {"name": c.name, "holds": c.holds, "witness": _jsonable(c.witness)}
            for c in report.conditions
        ],
        "notes": list(report.notes),
        "certification": (
            None
            if report.certification is None
            else certification_to_json(report.certification)
        ),
    }


def report_document(
    report: AnalysisReport,
    tool_version: str,
    input_digest: str,
    options: dict,
) -> dict:
    """Full report file: analysis plus provenance for reproducibility."""
    return {
        "$schema": REPORT_SCHEMA,
        "tool": {"name": "diffnet", "version": tool_version},
        "input": {"sha256": input_digest},
        "options": _jsonable(options),
        "analysis": analysis_to_json(report),
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


#: the format of an entry of ``_encode_blocks``: after the one before it
#: in its run, or starting a new run
_RUN_FORMAT = np.array([",%s", "\0%s"], dtype=object)

#: a run of k 0.0 entries is written as two shared strings, of
#: k - k % _RUN_STEP and of k % _RUN_STEP entries
_RUN_STEP = 64


def _zero_runs(unit: str, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unit * k`` for each k in ``counts``, as two object arrays whose
    elementwise concatenation it is. Their strings come from two tables,
    of ``unit`` repeated by the multiples of ``_RUN_STEP`` up to
    max(counts) and by 0 to ``_RUN_STEP`` - 1, so that runs of any
    lengths share at most max(counts) / _RUN_STEP + _RUN_STEP strings."""
    steps, rest = divmod(counts, _RUN_STEP)
    longs = [unit * (_RUN_STEP * q) for q in range(int(steps.max(initial=0)) + 1)]
    shorts = [unit * k for k in range(_RUN_STEP)]
    return np.array(longs, dtype=object)[steps], np.array(shorts, dtype=object)[rest]


def _encode_blocks(matrix: BlockMatrix) -> list[str]:
    """JSON text of a 2-D ``BlockMatrix`` as a list of parts whose join is
    byte-identical to encoding ``matrix.dense().tolist()``. ``json_parts``
    lists them among the rest of its document's parts, so neither the
    dense matrix nor its text is built.

    Only the block entries other than 0.0, -0.0 included, go through float
    repr, once per distinct value, and only they are checked to be finite:
    0.0 is. Each run of them in adjacent columns of a row is one string,
    made in one formatting pass over all runs. The rest of the
    text is references to strings shared across the matrix: a row of 0.0
    entries, and the runs of 0.0 before, between and after the entries,
    two strings from small tables per run (``_zero_runs``).
    """
    n_rows, n_cols = matrix.shape
    h, w = matrix.blocks.shape[1:]
    bits = np.ascontiguousarray(matrix.blocks).view(np.uint64).ravel()
    at = np.flatnonzero(bits)  # every block entry but 0.0
    block, inner = divmod(at, h * w)
    i, j = divmod(inner, w)
    flat = (matrix.rows[block] * h + i) * n_cols + matrix.cols[block] * w + j
    # arrays of one value per entry are dropped once used: the formatting
    # below sets the peak of a lump call, and they would be held under it
    del block, inner, i, j
    order = np.argsort(flat, kind="stable")  # row-major
    distinct, which = np.unique(bits[at[order]], return_inverse=True)
    values = distinct.view(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("Out of range float values are not JSON compliant")
    row, col = divmod(flat[order], n_cols)
    del at, flat, order
    # per entry: it opens its row, or starts a run of entries in adjacent
    # columns; it ends its run, or closes its row
    opens = np.ones(row.size, dtype=bool)
    opens[1:] = row[1:] != row[:-1]
    starts = opens.copy()
    starts[1:] |= col[1:] != col[:-1] + 1
    ends, closes = np.ones_like(starts), np.ones_like(opens)
    ends[:-1], closes[:-1] = starts[1:], opens[1:]
    first, last = np.flatnonzero(starts), np.flatnonzero(ends)
    texts = []
    if first.size:  # each run's text, its entries' reprs joined by ","
        fmt = "".join(_RUN_FORMAT[starts.view(np.uint8)].tolist())[1:]
        reprs = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
        texts = (fmt % tuple(reprs[which].tolist())).split("\0")
    # per run from here on; its 0.0 entries before it, from its row's
    # start or from the run before
    opens, closes = opens[first], closes[last]
    before = col[first] - np.where(opens, 0, col[first - 1] + 1)
    # a row holding runs is "[", then per run the 0.0 entries before it,
    # each "0.0,", and the run, after the first run preceded by ",", and
    # then the 0.0 entries after its last run, each ",0.0", and "]"
    per_row = np.bincount(row[first], minlength=n_rows)
    slots = 1 + np.where(per_row, 4 * per_row + 3, 1)
    offset = np.cumsum(slots) - slots
    parts = np.empty(slots.sum() + 1, dtype=object)
    parts[offset] = ","
    parts[0], parts[-1] = "[", "]"
    parts[offset[per_row == 0] + 1] = "[" + "0.0," * (n_cols - 1) + "0.0]"
    rank = np.arange(first.size) - (np.cumsum(per_row) - per_row)[row[first]]
    slot = offset[row[first]] + 1 + 4 * rank
    parts[slot] = np.where(opens, "[", ",")
    parts[slot + 1], parts[slot + 2] = _zero_runs("0.0,", before)
    parts[slot + 3] = texts
    end = slot[closes] + 4
    parts[end], parts[end + 1] = _zero_runs(",0.0", n_cols - 1 - col[last[closes]])
    parts[end + 2] = "]"
    return parts.tolist()


@dataclass(frozen=True)
class PreEncoded:
    """A report member already written as JSON text, which ``json_parts``
    passes through as it is."""

    text: str


def json_parts(doc: dict) -> list[str]:
    """Canonical serialization of ``doc`` as a flat list of parts whose
    join is its JSON text: key-sorted, compact, newline-terminated.

    Byte-identical output for equal documents, so fixed-seed runs are
    reproducible at the file level. NaN and infinities raise ValueError:
    RFC 8259 JSON has no token for them. Every value is encoded, and so
    checked, before the list is returned. A top-level 2-D ``BlockMatrix``
    value is encoded from its blocks alone, with the same bytes as the
    ``tolist()`` form of its dense matrix but without making that matrix
    or the generic encoder's per-element pass: only the block entries
    other than 0.0 are formatted, each distinct value once, and the runs
    of 0.0 between them are shared strings. A top-level ``PreEncoded``
    value is written as its text, unchanged. Every other value goes
    through the standard library encoder whole.

    The matrices' row parts are among the parts, so a report of several
    megabytes is held as shared strings and references and never as one
    string: ``write_report`` writes it from the parts.
    """
    parts = []
    for key in sorted(doc):
        value = doc[key]
        parts += ("," if parts else "{", _ENCODER.encode(key), ":")
        if isinstance(value, PreEncoded):
            parts.append(value.text)
        elif isinstance(value, BlockMatrix):
            parts += _encode_blocks(value)
        else:
            parts.append(_ENCODER.encode(value))
    parts.append("}\n" if parts else "{}\n")
    return parts


#: key-sorted JSON of one "edges" entry and one "orientation" entry,
#: indexed by the edge's directed flag; an orientation entry takes end,
#: start (undirected only), start, end, u and v
_EDGE_JSON = ('{"kind":"undirected","u":%d,"v":%d}', '{"kind":"directed","u":%d,"v":%d}')
_ORIENTATION_JSON = (
    '{"injection_case":"injection +1 at %d, -1 at %d","kind":"undirected",'
    '"oriented":[%d,%d],"u":%d,"v":%d}',
    '{"injection_case":"injection +1 at %d only","kind":"directed",'
    '"oriented":[%d,%d],"u":%d,"v":%d}',
)


def graph_members(graph: NetworkGraph) -> tuple[PreEncoded, PreEncoded]:
    """The report's "edges" and "orientation" members, written from the
    graph's columns with the templates above. Their fields are ints and
    fixed ASCII text, which JSON writes unescaped."""
    directed = graph.directed.tolist()
    start, end = graph.start + 1, graph.end + 1
    fields = np.column_stack([end, start, start, end, graph.u, graph.v])
    keep = np.ones(fields.shape, dtype=bool)
    keep[graph.directed, 1] = False
    edges = ",".join(map(_EDGE_JSON.__getitem__, directed)) % tuple(
        fields[:, 4:].ravel().tolist()
    )
    orientation = ",".join(map(_ORIENTATION_JSON.__getitem__, directed)) % tuple(
        fields[keep].tolist()
    )
    return PreEncoded(f"[{edges}]"), PreEncoded(f"[{orientation}]")


def weights_member(graph: NetworkGraph, weights: np.ndarray) -> PreEncoded:
    """The lump report's "weights" member, written from the graph's
    columns and the (M, p, r) array of the weight blocks in edge order
    with one key-sorted template per edge kind. ``tolist`` hands ``%r``
    Python floats, which it writes as the JSON encoder does. They are
    finite: assembly refuses a non-finite weight before the report is
    built."""
    p, r = weights.shape[1:]
    row = "[" + ",".join(["%r"] * r) + "]"
    head = '{"W":[' + ",".join([row] * p) + '],"kind":'
    templates = (head + '"undirected","u":%d,"v":%d}', head + '"directed","u":%d,"v":%d}')
    values = weights.reshape(graph.num_edges, p * r).tolist()
    ends = zip(values, graph.u.tolist(), graph.v.tolist())
    fields = [x for w, u, v in ends for x in (*w, u, v)]
    entries = ",".join(map(templates.__getitem__, graph.directed.tolist())) % tuple(fields)
    return PreEncoded(f'{{"edges":[{entries}]}}')


#: characters per slice of a written report; reports are ASCII, so a
#: slice is 64 KiB
_WRITE_SLICE = 1 << 16


def _slices(parts: list[str]):
    """The join of ``parts`` in slices of ``_WRITE_SLICE`` characters, the
    last one shorter. Each slice is cut from the join of the parts it
    spans, after what the slice before left over, so no string longer
    than a slice and the longest part is built. Slices are cut by length,
    not by a count of parts: one part may be a whole row of 0.0 entries."""
    held, size = [], 0
    for part in parts:
        held.append(part)
        size += len(part)
        if size >= _WRITE_SLICE:
            text = "".join(held)
            whole = size - size % _WRITE_SLICE
            for start in range(0, whole, _WRITE_SLICE):
                yield text[start : start + _WRITE_SLICE]
            held, size = [text[whole:]], size - whole
    tail = "".join(held)
    if tail:
        yield tail


def write_report(out_path: str | None, parts: list[str]) -> None:
    """Write the report whose text is the join of ``parts`` (strings, such
    as ``json_parts`` returns) to stdout, or to ``out_path`` by way of
    ``<out_path>.tmp`` and a rename, so that the target holds either its
    old bytes or the whole new report.

    The report is written one 64 KiB slice at a time, the file as UTF-8
    bytes, and is never joined whole: a ``lump`` report of (nN)^2 entries
    would otherwise be held in memory twice, as its parts and as its
    text. Whatever interrupts the write or the rename, the temporary file
    is removed and the exception raised again.
    """
    if out_path is None:
        for piece in _slices(parts):
            sys.stdout.write(piece)
        return
    tmp = f"{out_path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for piece in _slices(parts):
                fh.write(piece.encode("utf-8"))
        os.replace(tmp, out_path)
    except BaseException:
        # a failed or interrupted write leaves no partial report behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
