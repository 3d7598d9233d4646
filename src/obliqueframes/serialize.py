"""Canonical JSON fixtures and reports.

All numbers are written with 17 significant digits so that parsing and
re-serializing a canonical file is byte-identical and floats round-trip
exactly.  Parse failures raise ParseError naming the offending field.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ParseError
from .frames import FiniteFrame, ObliqueDualPair
from .linalg import Subspace, DEFAULT_TOL, Tolerance
from .measures import DiscreteMeasure
from .transport import Coupling, TriCoupling


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    return format(float(x), ".17g")


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if all(isinstance(v, (bool, int, float, str, np.integer, np.floating))
               or v is None for v in items):
            return "[" + ", ".join(_emit(v, 0) for v in items) + "]"
        inner = ",\n".join(pad + "  " + _emit(v, indent + 1) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize objects of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return _emit(obj, 0) + "\n"


def write_atomic(text: str, path: str):
    """Write via a sibling temp file and rename, so readers never see a
    half-written report."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Field extraction


def _require(obj: dict, field: str):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object with a '{field}' field")
    if field not in obj:
        raise ParseError(f"missing required field '{field}'")
    return obj[field]


def _ambient_dim(obj: dict) -> int:
    n = _require(obj, "ambient_dim")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("field 'ambient_dim' must be a positive integer")
    return n


def _number_list(value, field: str) -> list[float]:
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ParseError(f"field '{field}' must be an array of numbers")
    return [float(v) for v in value]


def _matrix(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"field '{field}' must be a non-empty array of rows")
    rows = [_number_list(row, field) for row in value]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"field '{field}' has ragged rows")
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# Typed schemas


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": s.basis.tolist()}


def subspace_from_obj(obj) -> Subspace:
    n = _ambient_dim(obj)
    basis = _matrix(_require(obj, "basis"), "basis")
    try:
        return Subspace(ambient_dim=n, basis=basis)
    except Exception as exc:
        raise ParseError(f"invalid subspace: {exc}") from exc


def frame_to_obj(f: FiniteFrame) -> dict:
    return {
        "ambient_dim": f.subspace.ambient_dim,
        "subspace_basis": f.subspace.basis.tolist(),
        "vectors": f.vectors.tolist(),
    }


def frame_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> FiniteFrame:
    n = _ambient_dim(obj)
    basis = _matrix(_require(obj, "subspace_basis"), "subspace_basis")
    vectors = _matrix(_require(obj, "vectors"), "vectors")
    try:
        return FiniteFrame.create(vectors, Subspace(n, basis), tol)
    except Exception as exc:
        raise ParseError(f"invalid frame: {exc}") from exc


def pair_to_obj(pair: ObliqueDualPair) -> dict:
    return {
        "synthesis": frame_to_obj(pair.synthesis),
        "analysis": frame_to_obj(pair.analysis),
        "residual": float(pair.residual),
    }


def pair_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> ObliqueDualPair:
    """The file's 'residual' is not read: the pair recomputes it."""
    synthesis = frame_from_obj(_require(obj, "synthesis"), tol)
    analysis = frame_from_obj(_require(obj, "analysis"), tol)
    try:
        return ObliqueDualPair(analysis=analysis, synthesis=synthesis)
    except Exception as exc:
        raise ParseError(f"invalid dual pair: {exc}") from exc


def measure_to_obj(mu: DiscreteMeasure) -> dict:
    return {
        "ambient_dim": mu.ambient_dim,
        "points": mu.points.tolist(),
        "weights": mu.weights.tolist(),
    }


def measure_from_obj(obj) -> DiscreteMeasure:
    n = _ambient_dim(obj)
    points = _matrix(_require(obj, "points"), "points")
    weights = _number_list(_require(obj, "weights"), "weights")
    if points.shape[1] != n:
        raise ParseError(
            f"points have length {points.shape[1]}, ambient_dim is {n}"
        )
    try:
        return DiscreteMeasure(points, np.array(weights))
    except ValueError as exc:
        raise ParseError(f"invalid measure: {exc}") from exc


def coupling_to_obj(gamma: Coupling) -> dict:
    return {
        "pairs": [
            [gamma.x[k].tolist(), gamma.y[k].tolist(), float(gamma.weights[k])]
            for k in range(gamma.num_pairs)
        ],
    }


def coupling_from_obj(obj) -> Coupling:
    pairs = _require(obj, "pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ParseError("field 'pairs' must be a non-empty array")
    xs, ys, ws = [], [], []
    for k, entry in enumerate(pairs):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"pair {k} must be [x, y, weight]")
        for side, value, rows in (("x", entry[0], xs), ("y", entry[1], ys)):
            row = _number_list(value, f"pairs[{k}].{side}")
            if not row:
                raise ParseError(f"field 'pairs[{k}].{side}' must be non-empty")
            if rows and len(row) != len(rows[0]):
                raise ParseError(f"field 'pairs[{k}].{side}' has length "
                                 f"{len(row)}, pairs[0].{side} has {len(rows[0])}")
            rows.append(row)
        if not isinstance(entry[2], (int, float)) or isinstance(entry[2], bool):
            raise ParseError(f"pairs[{k}].weight must be a number")
        ws.append(float(entry[2]))
    x = np.array(xs)
    y = np.array(ys)
    w = np.array(ws)
    try:
        return Coupling(x, y, w)
    except ValueError as exc:
        raise ParseError(f"invalid coupling: {exc}") from exc


def tricoupling_to_obj(tri: TriCoupling) -> dict:
    return {
        "triples": [
            [tri.x[k].tolist(), tri.y[k].tolist(), tri.z[k].tolist(),
             float(tri.weights[k])]
            for k in range(tri.weights.shape[0])
        ],
    }


_PARSERS = {
    "subspace": subspace_from_obj,
    "frame": frame_from_obj,
    "pair": pair_from_obj,
    "measure": measure_from_obj,
    "coupling": coupling_from_obj,
}

_SERIALIZERS = {
    Subspace: subspace_to_obj,
    FiniteFrame: frame_to_obj,
    ObliqueDualPair: pair_to_obj,
    DiscreteMeasure: measure_to_obj,
    Coupling: coupling_to_obj,
    TriCoupling: tricoupling_to_obj,
}


def parse_fixture(path: str, kind: str, tol: Tolerance = DEFAULT_TOL):
    """Load a typed fixture; kind selects the schema."""
    if kind not in _PARSERS:
        raise ParseError(f"unknown fixture kind {kind!r}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"fixture not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    parser = _PARSERS[kind]
    if kind in ("frame", "pair"):
        return parser(obj, tol)
    return parser(obj)


def serialize_fixture(value, path: str | None = None) -> str:
    """Render a typed value in canonical JSON; optionally write atomically."""
    for klass, to_obj in _SERIALIZERS.items():
        if isinstance(value, klass):
            text = dumps_canonical(to_obj(value))
            break
    else:
        text = dumps_canonical(value)  # plain report dictionaries
    if path is not None:
        write_atomic(text, path)
    return text
