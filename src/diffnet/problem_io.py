"""Problem-file loading, report serialization and the report write.

A problem file is one JSON document:

    {
      "subsystem": {"A": [[...]], "B": [[...]], "C": [[...]]},
      "graph": {"N": 3, "edges": [{"u": 1, "v": 2, "kind": "undirected"}]},
      "driven": [1],
      "weights": {"edges": [{"u": 1, "v": 2, "W": [[...]]}]},   # optional
      "options": {"seed": 0, "trials": 5, "rank_rel_tol": 1e-9}  # optional
    }

Matrices are dense row-major nested lists. ``kind`` defaults to undirected.
"graph" and "driven" build one ``NetworkGraph``, checked once: a bad
driven id is reported as an invalid driven set, any other fault of the
graph as an invalid graph. The "edges" entries are read as u, v and kind
columns and handed to the graph's column check, so a parsed file builds
no ``Edge``; the report members that list edges are written from the
graph's int64 columns.
Reports serialize to canonical JSON with complex numbers as
{"re": ..., "im": ...} objects.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError, ProblemFileError
from .subsystem import SubsystemModel
from .topology import DIRECTED, UNDIRECTED, DrivenIdError, NetworkGraph
from .verdict import AnalysisReport, CertificationReport

REPORT_SCHEMA = "diffnet-report/v1"
LUMP_SCHEMA = "diffnet-lump/v1"
PROBLEM_SCHEMA = "diffnet-problem/v1"

_TOP_LEVEL_KEYS = {"$schema", "subsystem", "graph", "driven", "weights", "options"}
_OPTION_KEYS = {"seed", "trials", "rank_rel_tol", "eig_match_tol", "wall"}


@dataclass(frozen=True)
class Problem:
    """A parsed problem file, ready for the analysis entry points.

    ``graph`` holds the file's driven vertices. ``weights``, when the file gives them, is the (M, p, r) array of the
    edges' weight blocks in edge order."""

    model: SubsystemModel
    graph: NetworkGraph
    weights: np.ndarray | None
    options: dict


def _fail(msg: str) -> ProblemFileError:
    return ProblemFileError(msg)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(f"{where} is not a numeric array: {exc}") from None
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise _fail(f"{where} must be a non-empty 1-D or 2-D numeric array")
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


def _edge_columns(entries: list):
    """The u, v and kind columns of the "edges" entries, or None unless
    every entry is an object with int "u" and "v", a known kind and no
    other member."""
    try:
        us = [e["u"] for e in entries]
        vs = [e["v"] for e in entries]
        kinds = [e.get("kind", UNDIRECTED) for e in entries]
    except (TypeError, KeyError):  # no object, or no "u" or "v"
        return None
    if (
        set().union(*entries) <= _EDGE_MEMBERS
        and {*map(type, us), *map(type, vs)} <= {int}
        and kinds.count(UNDIRECTED) + kinds.count(DIRECTED) == len(kinds)
    ):
        return us, vs, kinds
    return None


def _walk_edges(entries: list) -> tuple[list, list, list]:
    """Parse the "edges" entries one by one, raising at the first bad one."""
    us, vs, kinds = [], [], []
    for i, entry in enumerate(entries):
        e = _require_mapping(entry, f"edge #{i}")
        extra = set(e) - _EDGE_MEMBERS
        if extra:
            raise _fail(f"edge #{i} has unknown members: {sorted(extra)}")
        if "u" not in e or "v" not in e:
            raise _fail(f'edge #{i} needs both "u" and "v"')
        kind = e.get("kind", UNDIRECTED)
        if kind not in (UNDIRECTED, DIRECTED):
            raise _fail(
                f'edge #{i} kind must be "{UNDIRECTED}" or "{DIRECTED}", got {kind!r}'
            )
        us.append(_int_field(e["u"], f'edge #{i} "u"'))
        vs.append(_int_field(e["v"], f'edge #{i} "v"'))
        kinds.append(kind)
    return us, vs, kinds


def _parse_graph(doc: dict) -> NetworkGraph:
    g = _require_mapping(doc.get("graph"), '"graph"')
    extra = set(g) - {"N", "edges"}
    if extra:
        raise _fail(f'"graph" has unknown members: {sorted(extra)}')
    if "N" not in g:
        raise _fail('"graph" is missing "N"')
    n = _int_field(g["N"], 'graph "N"')
    entries = g.get("edges", [])
    if not isinstance(entries, list):
        raise _fail('graph "edges" must be a list')
    columns = _edge_columns(entries) or _walk_edges(entries)
    driven = doc.get("driven")
    if not isinstance(driven, list):
        raise _fail('"driven" must be a list of vertex ids')
    if not {*map(type, driven)} <= {int}:
        for v in driven:
            _int_field(v, '"driven" entry')
    try:
        return NetworkGraph._from_columns(n, *columns, driven)
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
    finite block of the given shape."""
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
    if shape[0] == 1 and blocks.ndim == 2:  # one 1-D row per weight
        blocks = blocks[:, None, :]
    if blocks.shape[1:] != shape or not np.all(np.isfinite(blocks)):
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
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
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


def weights_to_json(graph: NetworkGraph, weights: np.ndarray) -> dict:
    """The edges' weight blocks, an (M, p, r) array in edge order, as the
    "weights" member of a report."""
    return {
        "edges": [
            {"u": e.u, "v": e.v, "kind": e.kind, "W": w}
            for e, w in zip(graph.edges, weights.tolist())
        ]
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _prefixes(template: str, lengths: np.ndarray) -> np.ndarray:
    """``template[:n]`` for each n in ``lengths``, one string object per
    distinct n."""
    distinct, index = np.unique(lengths, return_inverse=True)
    return np.array([template[:n] for n in distinct.tolist()], dtype=object)[index]


def _encode_matrix(arr: np.ndarray) -> list[str]:
    """JSON text of a non-empty 2-D float64 array as a list of parts whose
    join is byte-identical to encoding ``arr.tolist()``. ``dump_json``
    joins them with the rest of its document in one pass, so the matrix
    text is never built on its own.

    Only the entries other than 0.0, -0.0 included, go through float repr,
    once per distinct value, and only they are checked to be finite: 0.0
    is. The rest of the text is references to strings shared across the
    matrix: a row of 0.0 entries, or one run of them per length, so that
    no string is made per gap between two entries.
    """
    n_rows, n_cols = arr.shape
    bits = arr.ravel().view(np.uint64)
    flat = np.flatnonzero(bits)  # every entry but 0.0, in row-major order
    distinct, which = np.unique(bits[flat], return_inverse=True)
    values = distinct.view(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("Out of range float values are not JSON compliant")
    texts = list(map(float.__repr__, values.tolist()))
    row, col = divmod(flat, n_cols)
    first = np.ones(flat.size, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    last = np.ones(flat.size, dtype=bool)
    last[:-1] = first[1:]
    # a row holding such entries is "[", then per entry the run of "0.0,"
    # since the row start, or "," and the run since the previous entry,
    # and the entry itself, then the run of ",0.0" to the row end and "]"
    leads = np.empty(flat.size, dtype=object)
    leads[first] = _prefixes("[" + "0.0," * n_cols, 4 * col[first] + 1)
    leads[~first] = _prefixes("," + "0.0," * n_cols, 4 * np.diff(col)[~first[1:]] - 3)
    ends = _prefixes(",0.0" * n_cols, 4 * (n_cols - 1 - col[last]))
    # each row takes a slot for the separator before it, then one for a
    # row of 0.0 entries, or two per entry and two for its end
    per_row = np.bincount(row, minlength=n_rows)
    slots = 1 + np.where(per_row, 2 * per_row + 2, 1)
    offset = np.cumsum(slots) - slots
    parts = np.empty(slots.sum() + 1, dtype=object)
    parts[offset] = ","
    parts[0], parts[-1] = "[", "]"
    parts[offset[per_row == 0] + 1] = "[" + "0.0," * (n_cols - 1) + "0.0]"
    rank = np.arange(flat.size) - (np.cumsum(per_row) - per_row)[row]  # place in its row
    slot = offset[row] + 1 + 2 * rank
    parts[slot] = leads
    parts[slot + 1] = np.array(texts, dtype=object)[which]
    parts[slot[last] + 2] = ends
    parts[slot[last] + 3] = "]"
    return parts.tolist()


@dataclass(frozen=True)
class PreEncoded:
    """A report member already written as JSON text, which ``dump_json``
    passes through as it is."""

    text: str


def dump_json(doc: dict) -> str:
    """Canonical serialization: key-sorted, compact, newline-terminated.

    Byte-identical output for equal documents, so fixed-seed runs are
    reproducible at the file level. NaN and infinities raise ValueError:
    RFC 8259 JSON has no token for them. A top-level non-empty 2-D float64
    ndarray value is encoded in place, with the same bytes as its
    ``tolist()`` form but without the generic encoder's per-element pass:
    only the entries other than 0.0 are formatted, each distinct value
    once, and the runs of 0.0 between them are shared strings. For a
    block-sparse lumped matrix those entries are the few percent in the
    blocks the graph fills. A top-level ``PreEncoded`` value is written
    as its text, unchanged. Every other value goes through the standard
    library encoder whole.

    The document is gathered as one flat list of parts, the matrices' row
    parts among them, and joined once: a report of several megabytes is
    built as a single string, with no intermediate copy of a matrix or of
    the members to fill fresh pages.
    """
    parts = []
    for key in sorted(doc):
        value = doc[key]
        parts += ("," if parts else "{", _ENCODER.encode(key), ":")
        if isinstance(value, PreEncoded):
            parts.append(value.text)
        elif (
            isinstance(value, np.ndarray)
            and value.ndim == 2
            and value.dtype == np.float64
            and value.size
        ):
            parts += _encode_matrix(value)
        else:
            parts.append(_ENCODER.encode(value))
    parts.append("}\n" if parts else "{}\n")
    return "".join(parts)


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


#: characters per slice of a report written to ``--out``; reports are
#: ASCII, so a slice is 64 KiB
_WRITE_SLICE = 1 << 16


def write_report(out_path: str | None, payload: str) -> None:
    """Write ``payload`` to stdout, or to ``out_path`` by way of
    ``<out_path>.tmp`` and a rename, so that the target holds either its
    old bytes or the whole new report.

    The file is written as UTF-8 bytes, one 64 KiB slice of the text
    encoded at a time: encoding a report of several megabytes whole would
    copy it into fresh pages once more. Whatever interrupts the write or
    the rename, the temporary file is removed and the exception raised
    again.
    """
    if out_path is None:
        sys.stdout.write(payload)
        return
    tmp = f"{out_path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for start in range(0, len(payload), _WRITE_SLICE):
                fh.write(payload[start : start + _WRITE_SLICE].encode("utf-8"))
        os.replace(tmp, out_path)
    except BaseException:
        # a failed or interrupted write leaves no partial report behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
