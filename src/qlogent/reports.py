"""Matrix file parsing and deterministic JSON report emission."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from . import linalg as la
from .states import DensityMatrix, Pvm

TOOL_NAME = "qlogent"


class ParseError(ValueError):
    """Input file is not a well-formed matrix file."""


def matrix_to_pairs(m) -> list:
    """Nested lists of [re, im] pairs for a complex array of any shape."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_NOT_FINITE = "expected [re, im] pairs of finite numbers"


def pairs_to_array(entries, ndim: int) -> np.ndarray:
    """Complex array with ndim axes from nested lists of [re, im] pairs of finite numbers."""
    # object dtype keeps the parsed values, so booleans (which numpy would turn
    # into 0 and 1), strings and nulls can be told apart from numbers
    a = np.array(entries, dtype=object)
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        name = "vector" if ndim == 1 else "matrix"
        raise ParseError(f"expected a non-empty rectangular {name} of [re, im] pairs")
    if not set(map(type, a.flat)) <= {int, float}:
        raise ParseError(_NOT_FINITE)
    try:
        a = a.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(_NOT_FINITE) from None
    if not np.isfinite(a).all():
        raise ParseError(_NOT_FINITE)
    return a.view(complex)[..., 0]


def _reject_constant(name: str):
    raise ParseError(f"{_NOT_FINITE}, got {name}")


def load_matrix_file(path: str, kind: str):
    """Read a density, vector or pvm file; returns (object, {"path", "sha256"}).

    The object is a validated DensityMatrix, a complex vector or a validated Pvm.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    info = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    key = "blocks" if kind == "pvm" else "matrix"
    if not isinstance(doc, dict) or doc.get("kind") != kind or key not in doc:
        raise ParseError(f"{path}: expected an object with kind {kind!r} and {key!r}")
    dims = doc.get("dims")
    if dims is not None:
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
        ):
            raise ParseError(f"{path}: dims must be a list of positive integers")
        dims = tuple(dims)
    # rebinding entries to arrays releases the parsed lists before validation
    # allocates its temporaries
    entries = doc.pop(key)
    del doc, raw
    try:
        if kind != "pvm":
            entries = pairs_to_array(entries, 1 if kind == "vector" else 2)
        elif not isinstance(entries, list) or not entries:
            raise ParseError("'blocks' must be a non-empty list")
        else:
            # decoded one by one, not stacked, so Pvm can report blocks of mixed dimension
            entries = [pairs_to_array(b, 2) for b in entries]
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if kind == "vector":
        return entries, info
    if kind == "pvm":
        return Pvm(entries), info
    if entries.shape[0] != entries.shape[1]:
        raise ParseError(f"{path}: density matrix must be square")
    return DensityMatrix(entries, dims), info


def write_matrix_file(path: str, kind: str, matrix, dims=None) -> None:
    doc = {"kind": kind}
    if dims is not None:
        doc["dims"] = list(dims)
    matrix = np.ravel(matrix) if kind == "vector" else la.as_matrix(matrix)
    doc["matrix"] = matrix_to_pairs(matrix)
    with open(path, "w") as fh:
        fh.write(dumps_stable(doc))
        fh.write("\n")


def _format_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not serializable in reports")
    if x in (float("inf"), float("-inf")):
        raise ValueError("infinity is not serializable in reports")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps_stable(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits.

    Hand-rolled so byte-identical output is guaranteed across runs.
    """
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, complex):
        _emit([obj.real, obj.imag], parts)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def run_report(
    command: str,
    args: dict,
    inputs: dict,
    results: dict,
    warnings: list[str] | None = None,
    seed: int | None = None,
) -> dict:
    return {
        "command": command,
        "args": args,
        "inputs": inputs,
        "results": results,
        "warnings": warnings or [],
        "seed": seed,
        "tool": {"name": TOOL_NAME, "version": __version__},
    }
