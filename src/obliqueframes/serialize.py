"""Canonical JSON fixtures and reports, and the interiority CSV.

This module owns every schema the CLI writes: typed fixtures through their
*_to_obj functions, couplings and tricouplings as records (_emit_records),
report dataclasses by their fields in declaration order, and the per-trial
interiority CSV.  All numbers are written with 17 significant digits so
that parsing and re-serializing a canonical file is byte-identical and
floats round-trip exactly.  Parse failures raise ParseError naming the
offending field.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np

from .approx import InteriorityReport
from .errors import ParseError
from .frames import FiniteFrame, ObliqueDualPair
from .linalg import Subspace, DEFAULT_TOL, Tolerance
from .measures import DiscreteMeasure
from .transport import Coupling, TriCoupling


def _format_float(x: float) -> str:
    if not math.isfinite(x):
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
        if obj.ndim == 2 and obj.size and obj.dtype.kind == "f":
            row = pad + "  [" + ", ".join(["%.17g"] * obj.shape[1]) + "]"
            return "[\n" + _printf_rows(row, obj) + "\n" + pad + "]"
        return _emit(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        # One pass for a row of finite floats; _format_float refuses the rest.
        if (obj and set(map(type, obj)) == {float}
                and all(map(math.isfinite, obj))):
            return "[" + ", ".join([format(v, ".17g") for v in obj]) + "]"
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
    if type(obj) in _RECORDS:
        return _emit_records(obj, indent)
    to_obj = _SERIALIZERS.get(type(obj))
    if to_obj is not None:
        return _emit(to_obj(obj), indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _emit({f.name: getattr(obj, f.name)
                      for f in dataclasses.fields(obj)}, indent)
    raise TypeError(f"cannot serialize objects of type {type(obj).__name__}")


# A coupling is {"pairs": [[x, y, w], ...]}, a tricoupling
# {"triples": [[x, y, z, w], ...]}: one record per weight, its blocks in order.
_RECORDS = {Coupling: ("pairs", ("x", "y")),
            TriCoupling: ("triples", ("x", "y", "z"))}


def _printf_rows(template: str, table: np.ndarray) -> str:
    """The rows of a 2-D float table, each formatted from one %.17g template
    and joined by ",\n"; finiteness is checked once for the whole table."""
    if not np.isfinite(table).all():
        raise ValueError("cannot serialize non-finite numbers")
    return ",\n".join([template % tuple(r) for r in table.tolist()])


def _emit_records(obj, indent: int) -> str:
    """obj in the record schema above, laid out as _emit lays out that dict
    of nested lists, each record formatted from one template."""
    key, fields = _RECORDS[type(obj)]
    blocks = [getattr(obj, f) for f in fields]
    table = np.column_stack([*blocks, obj.weights])
    pad, outer, inner = ("  " * (indent + i) for i in (0, 2, 3))
    rows = ["[" + ", ".join(["%.17g"] * b.shape[1]) + "]" for b in blocks]
    template = (outer + "[\n" + inner + (",\n" + inner).join(rows + ["%.17g"])
                + "\n" + outer + "]")
    records = _printf_rows(template, table)
    body = "[\n" + records + "\n" + pad + "  ]" if records else "[]"
    return "{\n" + pad + f'  "{key}": ' + body + "\n" + pad + "}"


def dumps_canonical(obj) -> str:
    return _emit(obj, 0) + "\n"


def write_atomic(text: str, path: str):
    """Write via a sibling temp file and rename, so readers never see a
    half-written report."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the report, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
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


def _numbers(value, field: str) -> list:
    """value itself, once it is a list of JSON numbers: no bool, string or
    null."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ParseError(f"field '{field}' must be an array of numbers")
    return value


def _floats(value, field: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ParseError(f"field '{field}' holds an integer too large "
                         "for a double") from None


def _matrix(value, field: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError(f"field '{field}' must be a non-empty array of rows")
    rows = [_numbers(row, field) for row in value]
    if len(set(map(len, rows))) != 1:
        raise ParseError(f"field '{field}' has ragged rows")
    return _floats(rows, field)


# ---------------------------------------------------------------------------
# Typed schemas


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": s.basis}


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
        "subspace_basis": f.subspace.basis,
        "vectors": f.vectors,
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
        "points": mu.points,
        "weights": mu.weights.tolist(),
    }


def measure_from_obj(obj) -> DiscreteMeasure:
    n = _ambient_dim(obj)
    points = _matrix(_require(obj, "points"), "points")
    weights = _floats(_numbers(_require(obj, "weights"), "weights"), "weights")
    if points.shape[1] != n:
        raise ParseError(
            f"points have length {points.shape[1]}, ambient_dim is {n}"
        )
    try:
        return DiscreteMeasure(points, weights)
    except ValueError as exc:
        raise ParseError(f"invalid measure: {exc}") from exc


def coupling_from_obj(obj) -> Coupling:
    pairs = _require(obj, "pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ParseError("field 'pairs' must be a non-empty array")
    xs, ys, ws = [], [], []
    for k, entry in enumerate(pairs):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"pair {k} must be [x, y, weight]")
        for side, value, rows in (("x", entry[0], xs), ("y", entry[1], ys)):
            name = f"pairs[{k}].{side}"
            row = _floats(_numbers(value, name), name)
            if not row.size:
                raise ParseError(f"field '{name}' must be non-empty")
            if rows and len(row) != len(rows[0]):
                raise ParseError(f"field '{name}' has length "
                                 f"{len(row)}, pairs[0].{side} has {len(rows[0])}")
            rows.append(row)
        if type(entry[2]) not in (int, float):
            raise ParseError(f"field 'pairs[{k}].weight' must be a number")
        ws.append(_floats(entry[2], f"pairs[{k}].weight"))
    try:
        return Coupling(np.array(xs), np.array(ys), np.array(ws))
    except ValueError as exc:
        raise ParseError(f"invalid coupling: {exc}") from exc


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
}


def parse_fixture(path: str, kind: str, tol: Tolerance = DEFAULT_TOL):
    """Load a typed fixture; kind selects the schema."""
    if kind not in _PARSERS:
        raise ParseError(f"unknown fixture kind {kind!r}")
    try:
        with open(path) as fh:
            # The writer prints -0.0 as "-0", which int() would read as +0.
            obj = json.load(fh, parse_int=lambda s: -0.0 if s == "-0" else int(s))
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
    """Render a typed value, a report dataclass, or plain containers of
    them in canonical JSON; optionally write atomically."""
    text = dumps_canonical(value)
    if path is not None:
        write_atomic(text, path)
    return text


def write_interiority_csv(path: str, summary: InteriorityReport):
    """One CSV row per interiority trial, floats with 17 significant digits,
    written atomically like every report."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trial", "lambda", "eps_claimed", "eps_actual", "pass"])
    writer.writerows([r.trial, f"{r.lam:.17g}", f"{r.eps_claimed:.17g}",
                      f"{r.eps_actual:.17g}", int(r.passed)]
                     for r in summary.records)
    write_atomic(buf.getvalue(), path)
