"""Matrix file parsing and deterministic JSON report emission."""

from __future__ import annotations

import gc
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
    # json.loads builds one list per [re, im] pair, 266k for a d = 64 PVM, and
    # the cyclic collector would rescan them all on every collection it triggers.
    # JSON trees hold no reference cycles, so pausing it until they are released
    # leaves no garbage behind.
    enabled = gc.isenabled()
    gc.disable()
    try:
        entries, dims, info = _read_entries(path, kind)
    finally:
        if enabled:
            gc.enable()
    if kind == "vector":
        return entries, info
    if kind == "pvm":
        return Pvm(entries), info
    if entries.shape[0] != entries.shape[1]:
        raise ParseError(f"{path}: density matrix must be square")
    return DensityMatrix(entries, dims), info


def _read_entries(path: str, kind: str):
    """(decoded arrays, dims or None, info) of a matrix file; the parsed lists die with it."""
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
    entries = doc.pop(key)
    del doc, raw  # released before the decode allocates its arrays
    try:
        if kind != "pvm":
            return pairs_to_array(entries, 1 if kind == "vector" else 2), dims, info
        if not isinstance(entries, list) or not entries:
            raise ParseError("'blocks' must be a non-empty list")
        # decoded one by one, not stacked, so Pvm can report blocks of mixed dimension
        return [pairs_to_array(b, 2) for b in entries], dims, info
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_matrix_file(path: str, kind: str, matrix, dims=None) -> None:
    """Write a density matrix, a vector, or a PVM given as a (k, d, d) stack or a list of blocks."""
    doc = {"kind": kind}
    if dims is not None:
        doc["dims"] = list(dims)
    if kind == "pvm":
        blocks = la.as_stack(matrix)
        if blocks.ndim != 3:
            raise la.DimensionMismatchError(f"expected (k, d, d) PVM blocks, got shape {blocks.shape}")
        doc["blocks"] = matrix_to_pairs(blocks)
    elif kind == "vector":
        vec = np.asarray(matrix, dtype=complex)
        if vec.ndim != 1:
            raise la.DimensionMismatchError(f"expected a 1-D vector, got shape {vec.shape}")
        doc["matrix"] = matrix_to_pairs(vec)
    elif kind == "density":
        doc["matrix"] = matrix_to_pairs(la.as_matrix(matrix))
    else:
        raise ValueError(f"kind must be 'density', 'vector' or 'pvm', got {kind!r}")
    with open(path, "w") as fh:
        fh.write(dumps_stable(doc))
        fh.write("\n")


def _plain(obj):
    """JSON form of what json itself cannot encode: complex numbers and numpy values."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_stable(obj) -> str:
    """Compact JSON with sorted keys and shortest round-trip floats; NaN and inf raise ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain)


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
