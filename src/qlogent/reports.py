"""Matrix file parsing and deterministic JSON report emission."""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from . import __version__
from . import linalg as la
from .states import DensityMatrix, Pvm

TOOL_NAME = "qlogent"


class ParseError(ValueError):
    """Input file is not a well-formed matrix file."""


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def vector_to_pairs(v: np.ndarray) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex).ravel()]


def _pair_to_complex(entry) -> complex:
    # the bound rejects NaN, +-Infinity (json.loads accepts them) and integers
    # too large for a float
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(
            isinstance(x, (int, float))
            and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max
            for x in entry
        )
    ):
        raise ParseError(f"expected an [re, im] pair of finite numbers, got {entry!r}")
    return complex(entry[0], entry[1])


def pairs_to_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty nested array")
    width = None
    out = []
    for row in rows:
        if not isinstance(row, list):
            raise ParseError("matrix rows must be arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("matrix is not rectangular")
        out.append([_pair_to_complex(e) for e in row])
    return np.array(out, dtype=complex)


def pairs_to_vector(entries) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ParseError("vector must be a non-empty array of [re, im] pairs")
    return np.array([_pair_to_complex(e) for e in entries], dtype=complex)


def load_matrix_file(path: str) -> dict:
    """Parse a matrix file into {kind, dims, payload} without semantic validation."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc or "matrix" not in doc:
        raise ParseError(f"{path}: expected an object with 'kind' and 'matrix'")
    kind = doc["kind"]
    if kind not in ("density", "vector"):
        raise ParseError(f"{path}: unknown kind {kind!r}")
    dims = doc.get("dims")
    if dims is not None:
        if not isinstance(dims, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
        ):
            raise ParseError(f"{path}: dims must be a list of positive integers")
        dims = tuple(dims)
    if kind == "vector":
        payload = pairs_to_vector(doc["matrix"])
    else:
        payload = pairs_to_matrix(doc["matrix"])
        if payload.shape[0] != payload.shape[1]:
            raise ParseError(f"{path}: {kind} matrix must be square")
    return {"kind": kind, "dims": dims, "payload": payload, "sha256": _digest(raw)}


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def density_from_file(parsed: dict) -> DensityMatrix:
    if parsed["kind"] != "density":
        raise ParseError(f"expected kind 'density', got {parsed['kind']!r}")
    return DensityMatrix(parsed["payload"], parsed["dims"])


def pvm_from_file(path: str) -> tuple[Pvm, str]:
    """Parse a PVM file: {"kind": "pvm", "blocks": [matrix, ...]}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if (
        not isinstance(doc, dict)
        or doc.get("kind") != "pvm"
        or not isinstance(doc.get("blocks"), list)
        or not doc["blocks"]
    ):
        raise ParseError(
            f"{path}: expected an object with kind 'pvm' and a non-empty 'blocks' list"
        )
    blocks = [pairs_to_matrix(b) for b in doc["blocks"]]
    return Pvm(blocks), _digest(raw)


def vector_from_file(parsed: dict) -> np.ndarray:
    if parsed["kind"] != "vector":
        raise ParseError(f"expected kind 'vector', got {parsed['kind']!r}")
    return parsed["payload"]


def write_matrix_file(path: str, kind: str, matrix, dims=None) -> None:
    doc = {"kind": kind}
    if dims is not None:
        doc["dims"] = list(dims)
    if kind == "vector":
        doc["matrix"] = vector_to_pairs(matrix)
    else:
        doc["matrix"] = matrix_to_pairs(la.as_matrix(matrix))
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
        _emit(complex_to_pair(obj), parts)
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
