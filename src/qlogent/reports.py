"""The file formats: matrix files read and written, and deterministic JSON emission."""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import suppress
from itertools import chain

import numpy as np

from . import linalg as la
from .states import DensityMatrix, Pvm

# orjson 3.8 builds nested arrays recursively, with no depth limit and about 64 bytes of C
# stack per level (a balanced nest of 131k levels overflowed an 8 MiB stack), so it reads
# only arrays with at most this many opening brackets: at most 0.5 MiB of stack, where
# json's own scanner takes about 0.13 MiB at its recursion limit. A d = 64 block has 4,161.
ORJSON_MAX_OPEN = 1 << 13


class ParseError(ValueError):
    """Input file is not a well-formed matrix file."""


def matrix_to_pairs(m) -> list:
    """Nested lists of [re, im] pairs for a complex array of any shape."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


_NOT_FINITE = "expected [re, im] pairs of finite numbers"


def pairs_to_array(entries, ndim: int, numbers: bool = False) -> np.ndarray:
    """Complex array with ndim axes from nested lists of [re, im] pairs of finite numbers,
    as json decodes them. numbers=True vouches that every value under the lists is an int
    or a float, so the leaves are streamed into the array unchecked."""
    # lists of one length on each level, then ints or floats (numpy would take bools too).
    # The pair level is checked by len alone: a number, None or bool has no len, and a
    # 2-key object or a 2-character string flattens into str leaves, which fail below
    shape, flat = [], [entries]
    with suppress(TypeError):
        while len(shape) < ndim and set(map(type, flat)) == {list}:
            if len(n := set(map(len, flat))) != 1:
                break
            shape.append(n.pop())
            flat = list(chain.from_iterable(flat))
        if len(shape) == ndim and set(map(len, flat)) == {2}:
            leaves = chain.from_iterable(flat) if numbers else list(chain.from_iterable(flat))
            # an integer beyond the float range; with numbers, a list leaf (a level too many)
            with suppress(OverflowError, ValueError):
                if numbers or set(map(type, leaves)) <= {int, float}:
                    if np.isfinite(a := np.fromiter(leaves, float, 2 * len(flat))).all():
                        return a.view(complex).reshape(shape)
    # object dtype keeps the parsed values, to tell a wrong shape from a wrong entry
    if (a := np.array(entries, dtype=object)).ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        name = "vector" if ndim == 1 else "matrix"
        raise ParseError(f"expected a non-empty rectangular {name} of [re, im] pairs")
    raise ParseError(_NOT_FINITE)


def _reject_constant(name: str):
    raise ParseError(f"{_NOT_FINITE}, got {name}")


def _decode_json(text: str, kind: str):
    """json.loads(text), except that arrays of [re, im] pairs go through pairs_to_array as
    soon as they have been read, so one block's lists are alive at a time: in a pvm file
    each item of an array value of the top-level object, in a density or vector file each
    array value. A value that does not decode is kept as read.

    A value opening with a run of ndim + 1 brackets is first read by orjson, up to the
    first run of ndim + 1 closing brackets, if that text holds at most ORJSON_MAX_OPEN
    opening brackets and no byte that opens a string, object, boolean or null. If it
    parses completely, it is the value json would read there (a JSON value has one end),
    and it is kept if it decodes. Any other outcome steps aside to json's own scanner for
    the rest of the document, so json decides every refusal and its message; an indented
    file never opens with that run."""
    # imported on the first read, not with the module: mapping orjson adds about 0.8 MB to
    # a process's peak RSS, which verify, the one command that reads no file, need not pay
    import orjson
    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    scan = decoder.scan_once  # json's own scanner, which makes every grammar decision
    ndim = 1 if kind == "vector" else 2
    opening, closing = "[" * (ndim + 1), "]" * (ndim + 1)
    fast = True

    def pairs(s, idx):
        nonlocal fast
        if fast and s.startswith(opening, idx):
            # with no closing run, end < idx: an empty slice, which orjson refuses
            end = s.find(closing, idx) + len(closing)
            # a lone surrogate's UnicodeEncodeError, orjson's JSONDecodeError or a ParseError
            with suppress(ValueError):
                chunk = s[idx:end].encode()
                # every JSON value but a number or an array opens with one of these, and
                # pairs_to_array refuses each, so a span holding one goes to json unread
                if not any(c in chunk for c in (b'"', b"{", b"t", b"f", b"n")) and (
                    np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("[")) <= ORJSON_MAX_OPEN
                ):
                    return pairs_to_array(orjson.loads(chunk), ndim, numbers=True), end
            fast = False
        item, end = scan(s, idx)
        with suppress(ParseError):
            item = pairs_to_array(item, ndim)
        return item, end

    def value(s, idx):
        if not s.startswith("[", idx):
            return scan(s, idx)
        return json.decoder.JSONArray((s, idx + 1), pairs) if kind == "pvm" else pairs(s, idx)

    def document(s, idx):
        if s.startswith("{", idx):
            return json.decoder.JSONObject((s, idx + 1), True, value, None, None, {})
        return scan(s, idx)

    decoder.scan_once = document
    return decoder.decode(text)


def load_matrix_file(path: str, kind: str):
    """Read a density, vector or pvm file; returns (object, {"path", "sha256"}).

    The object is a validated DensityMatrix, a complex vector or a validated Pvm.
    """
    # a fine d = 64 PVM parses into 266k lists, enough allocations to start 320 collections
    # (291 young, 27 middle, 2 full: 21 ms of a 135 ms load on a 2-vCPU box); the lists hold
    # no reference cycles, so pausing the collector until the decode ends leaves no garbage
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
    """(decoded arrays, dims or None, info) of a matrix file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        info = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        text = raw.decode(json.detect_encoding(raw), "surrogatepass")  # as json.loads does
        del raw  # not kept through the scan, once hashed
        doc = _decode_json(text, kind)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    key = "blocks" if kind == "pvm" else "matrix"
    # only a str is compared: a "kind" decoded into an array would compare elementwise
    found = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(found, str) or found != kind or key not in doc:
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
    ndim = 1 if kind == "vector" else 2

    def decoded(x):  # an array that _decode_json kept as read fails here
        return x if isinstance(x, np.ndarray) else pairs_to_array(x, ndim)

    try:
        if kind != "pvm":
            return decoded(entries), dims, info
        if not isinstance(entries, list) or not entries:
            raise ParseError("'blocks' must be a non-empty list")
        # not stacked, so Pvm can report mixed dimensions
        return [decoded(b) for b in entries], dims, info
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
