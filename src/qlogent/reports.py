"""Matrix file parsing and deterministic JSON report emission."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
from contextlib import suppress
from itertools import chain

import numpy as np

from . import __version__
from . import linalg as la
from .states import DensityMatrix, Pvm

TOOL_NAME = "qlogent"
# A file of at least this many bytes is hashed on a second thread while json scans its
# text (hashlib releases the GIL); a smaller one is hashed inline. In-process on a 2-vCPU
# box, sha256 took 0.9 ms per MiB and a thread's start and join 0.08 ms, so with the second
# CPU free the thread breaks even near 0.1 MiB; with it busy (two spinning processes each
# at half speed), loading a fine PVM of 72-600 KiB took 0.1-0.7 ms longer with the thread.
# From 1 MiB a free CPU saves more than that (about 0.9 ms per MiB; 9 ms, median of 7
# rounds, on the 11.3 MiB fine d = 64 PVM).
HASH_THREAD_MIN_BYTES = 1 << 20


class ParseError(ValueError):
    """Input file is not a well-formed matrix file."""


def matrix_to_pairs(m) -> list:
    """Nested lists of [re, im] pairs for a complex array of any shape."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_NOT_FINITE = "expected [re, im] pairs of finite numbers"


def pairs_to_array(entries, ndim: int) -> np.ndarray:
    """Complex array with ndim axes from nested lists of [re, im] pairs of finite numbers,
    as json decodes them."""
    # lists of one length on each level, then ints or floats (numpy would take bools too).
    # The pair level is checked by len alone: a number, None or bool has no len, and a
    # 2-key object or a 2-character string flattens into str leaves, which fail below
    shape, flat = [], [entries]
    with suppress(TypeError):
        while len(shape) <= ndim and (len(shape) == ndim or set(map(type, flat)) == {list}):
            if len(n := set(map(len, flat))) != 1:
                break
            shape.append(n.pop())
            flat = list(chain.from_iterable(flat))
    if len(shape) == ndim + 1 and shape[-1] == 2 and set(map(type, flat)) <= {int, float}:
        with suppress(OverflowError):  # an integer beyond the float range
            if np.isfinite(a := np.fromiter(flat, dtype=float, count=len(flat))).all():
                return a.view(complex).reshape(shape[:-1])
    # object dtype keeps the parsed values, to tell a wrong shape from a wrong entry
    if (a := np.array(entries, dtype=object)).ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        name = "vector" if ndim == 1 else "matrix"
        raise ParseError(f"expected a non-empty rectangular {name} of [re, im] pairs")
    raise ParseError(_NOT_FINITE)


def _reject_constant(name: str):
    raise ParseError(f"{_NOT_FINITE}, got {name}")


def _decode_json(text: str, kind: str):
    """json.loads(text), except that in a pvm file each item of an array value of the
    top-level object goes through pairs_to_array as soon as json has read it, so one
    block's lists are alive at a time; an item that does not decode is kept as read."""
    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    scan = decoder.scan_once  # json's own scanner, which makes every grammar decision

    def block(s, idx):
        item, end = scan(s, idx)
        with suppress(ParseError):
            item = pairs_to_array(item, 2)
        return item, end

    def value(s, idx):
        return json.decoder.JSONArray((s, idx + 1), block) if s.startswith("[", idx) else scan(s, idx)

    def document(s, idx):
        if s.startswith("{", idx):
            return json.decoder.JSONObject((s, idx + 1), True, value, None, None, {})
        return scan(s, idx)

    if kind == "pvm":
        decoder.scan_once = document
    return decoder.decode(text)


def load_matrix_file(path: str, kind: str):
    """Read a density, vector or pvm file; returns (object, {"path", "sha256"}).

    The object is a validated DensityMatrix, a complex vector or a validated Pvm.
    """
    # the cyclic collector would rescan a block's live lists (a d = 64 PVM parses into 266k)
    # on every collection they trigger; they hold no reference cycles, so pausing it until
    # the decode ends leaves no garbage behind
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


def _update(sha, data: bytes, failed: list) -> None:
    """sha.update(data) on the hashing thread; an error is kept for the reading thread."""
    try:
        sha.update(data)
    except BaseException as exc:
        failed.append(exc)


def _read_entries(path: str, kind: str):
    """(decoded arrays, dims or None, info) of a matrix file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        sha, failed, hasher = hashlib.sha256(), [], None
        if len(raw) >= HASH_THREAD_MIN_BYTES:
            hasher = threading.Thread(target=_update, args=(sha, raw, failed))
            hasher.start()
        else:
            sha.update(raw)
        try:
            text = raw.decode(json.detect_encoding(raw), "surrogatepass")  # as json.loads does
            del raw  # not kept through the scan, once hashed
            doc = _decode_json(text, kind)
        finally:
            if hasher is not None:
                hasher.join()
        if failed:
            raise failed[0]
        info = {"path": path, "sha256": sha.hexdigest()}
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
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
    del doc, text  # released before the decode allocates its arrays
    try:
        if kind != "pvm":
            return pairs_to_array(entries, 1 if kind == "vector" else 2), dims, info
        if not isinstance(entries, list) or not entries:
            raise ParseError("'blocks' must be a non-empty list")
        # not stacked, so Pvm can report mixed dimensions; a block kept as read fails here
        return [b if isinstance(b, np.ndarray) else pairs_to_array(b, 2) for b in entries], dims, info
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
    warnings: list[str],
    seed: int | None,
) -> dict:
    return {
        "command": command,
        "args": args,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
        "seed": seed,
        "tool": {"name": TOOL_NAME, "version": __version__},
    }
