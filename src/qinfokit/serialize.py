"""JSON document formats shared by the CLI and any external tooling.

Conventions: every complex scalar is a two-element array [re, im];
matrices are row-major nested arrays; dimensions are always explicit.
Canonical output sorts keys and prints every real with %.17g, so
serialize -> parse -> serialize is byte-identical.

A document is read as bytes, once (``load_document``). Each bracketed
run of numbers that holds a dense array of [re, im] pairs (a vector, a
matrix, or matrices nested in arrays) is read from its opening bracket
to its own closing one, in chunks of whole outermost elements of up to
``_CHUNK`` bytes, with no pass over the whole text first; the reader
holds the bytes, the arrays and one chunk's work at a time. One numpy
scan of a chunk's bytes checks its numbers' JSON grammar and converts
one-digit integers, other numbers go through ``np.loadtxt``, and
``json.loads`` reads the rest of the text. A vector lands in the tree as
an (n, 2) array and a matrix as an (rows, cols, 2) array, which
``vector_from_doc`` and ``matrix_from_doc`` view as complex without a
copy; every array level above a matrix stays a Python list. A run takes
this route when its brackets are laid out as a rectangular array's,
every number is a finite JSON number that ``json.loads`` reads to the
same float (an integer ``-0`` is not: it reads as +0.0), and whitespace
only sits next to brackets and commas, as in canonical and ``json.dump``
output. A vector or matrix run falls back to ``json.loads`` whole on the
first chunk that fails, a run of matrices only that chunk's elements.
UTF-8 is validated only when a byte is not ASCII.

When the text is not JSON, or spells NaN or Infinity, the whole text
falls back to ``json.loads``, decoded as a file opened in text mode
reads it (UTF-8, universal newlines), so a syntax error's
``path:line:col`` is the one that reading gives. The readers walk each
matrix entry by entry, naming the offending entry as ``where[i][j]``.
A bulk array that a reader cannot view as what it expects (a vector
where a matrix belongs, say) is walked as the nested lists that
``json.loads`` reads from the same text, so every diagnostic is the one
the plain JSON tree gives.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
from collections.abc import Sized
from contextlib import contextmanager

import numpy as np

from .channels import Channel
from .errors import FormatError
from .qec import Code
from .states import PureState, State
from .zeroerr import Graph


def _fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        raise FormatError("non-finite real in document")
    x = float(x)
    if x == 0.0:
        return "0"  # collapse signed zero so reparse/redump is stable
    return "%.17g" % x


def _nested_text(cells: np.ndarray) -> str:
    if cells.ndim == 1:
        return "[" + ",".join(cells.tolist()) + "]"
    return "[" + ",".join(map(_nested_text, cells)) + "]"


def _array_text(a: np.ndarray) -> str:
    """Canonical text of a real or complex array: that of its nested-list
    form, with each complex entry as [re, im]. Each distinct entry is
    formatted once."""
    distinct, inverse = np.unique(a.reshape(-1), return_inverse=True)
    if a.dtype.kind == "c":
        texts = [f"[{_fmt_float(z.real)},{_fmt_float(z.imag)}]"
                 for z in distinct.tolist()]
    else:
        texts = list(map(_fmt_float, distinct.tolist()))
    cells = np.array(texts, dtype=object)[inverse.reshape(-1)]
    return _nested_text(cells.reshape(a.shape))


def canonical_dumps(doc) -> str:
    """Deterministic JSON text: sorted keys, %.17g reals.

    JSON scalars are dispatched on their exact type; containers and any
    other type (numpy scalars, subclasses of the JSON types) go through
    ``isinstance`` checks. A real or complex array is written as its
    nested-list form, a complex entry as [re, im], with each distinct
    entry formatted once, which matters for dense matrices with few
    distinct entries (Paulis, projectors).
    """

    def render(obj) -> str:
        kind = type(obj)
        if kind is float:
            return _fmt_float(obj)
        if kind is int:
            return str(obj)
        if kind is str:
            return json.dumps(obj)
        if kind is bool:
            return "true" if obj else "false"
        if obj is None:
            return "null"
        if isinstance(obj, dict):
            items = sorted(obj.items())
            return "{" + ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items) + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ",".join(map(render, obj)) + "]"
        if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc" and obj.ndim:
            return _array_text(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt_float(float(obj))
        if isinstance(obj, str):
            return json.dumps(obj)
        raise FormatError(f"cannot serialize {type(obj).__name__}")

    return render(doc) + "\n"


@contextmanager
def _gc_paused():
    """Pause the cyclic collector while a JSON-shaped tree is built.

    Such a tree holds no reference cycles, so the collector can free
    nothing in it; left on, it re-walks the growing tree of millions of
    lists many times while a large document is parsed or built.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def matrix_to_doc(m) -> list:
    """The nested-list form of a matrix; ``canonical_dumps`` writes a
    complex array as the same text without it."""
    m = np.asarray(m, dtype=complex)
    with _gc_paused():
        return np.stack([m.real, m.imag], -1).tolist()


def vector_to_doc(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack([v.real, v.imag], -1).tolist()


# JSON numbers parse to exactly these types; bool (true/false) is excluded
# although it subclasses int.
_REALS = {int, float}


def _pair_to_complex(obj, where: str) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        # bool subclasses int, but JSON true/false are not numbers.
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            try:
                z = complex(float(re), float(im))
                if math.isfinite(z.real) and math.isfinite(z.imag):
                    return z
            except OverflowError:
                pass
            raise FormatError(f"{where}: real out of range")
    raise FormatError(f"{where}: complex scalar must be [re, im]")


def _from_bulk(obj, ndim: int):
    """``obj`` as a reader takes it: a bulk-read float64 array of [re, im]
    pairs with ``ndim`` axes as a complex view without the last axis; any
    other array, or a list that holds one (as a list ``_nest`` split one
    into does), as the nested lists json.loads reads from its text, for
    the per-entry walk; any other value as it is."""
    if isinstance(obj, list) and any(isinstance(x, np.ndarray) for x in obj):
        return [x.tolist() if isinstance(x, np.ndarray) else x for x in obj]
    if not isinstance(obj, np.ndarray):
        return obj
    if obj.dtype != np.float64 or obj.ndim != ndim or obj.shape[-1] != 2:
        return obj.tolist()
    return np.ascontiguousarray(obj).view(complex)[..., 0]


def matrix_from_doc(obj, where: str) -> np.ndarray:
    obj = _from_bulk(obj, 3)
    if isinstance(obj, np.ndarray):
        return obj
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise FormatError(f"{where}: matrix must be a nested array")
    rows = len(obj)
    cols = len(obj[0])
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, Sized):
            raise FormatError(f"{where}[{i}]: matrix row must be an array")
        if len(row) != cols:
            raise FormatError(f"{where}: ragged matrix at row {i}")
        for j, z in enumerate(row):
            out[i, j] = _pair_to_complex(z, f"{where}[{i}][{j}]")
    return out


def vector_from_doc(obj, where: str) -> np.ndarray:
    obj = _from_bulk(obj, 2)
    if isinstance(obj, np.ndarray):
        return obj
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: vector must be a non-empty array")
    return np.array([_pair_to_complex(z, f"{where}[{k}]")
                     for k, z in enumerate(obj)])


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _need_int(doc: dict, key: str, where: str) -> int:
    value = _need(doc, key, where)
    if type(value) is not int:
        raise FormatError(f"{where}: {key} must be an integer")
    return value


def state_to_doc(state) -> dict:
    if isinstance(state, PureState):
        return {"kind": "state", "dims": list(state.dims), "vec": state.vec}
    return {"kind": "state", "dims": list(state.dims), "rho": state.rho}


def state_from_doc(doc: dict, where: str = "state"):
    dims = _need(doc, "dims", where)
    if not isinstance(dims, list) or not all(type(d) is int and d > 0
                                             for d in dims):
        raise FormatError(f"{where}: dims must be a list of positive integers")
    if "vec" in doc:
        return PureState(tuple(dims), vector_from_doc(doc["vec"], f"{where}.vec"))
    rho = matrix_from_doc(_need(doc, "rho", where), f"{where}.rho")
    return State(tuple(dims), rho)


def channel_to_doc(ch: Channel, probs=None) -> dict:
    doc = {
        "kind": "channel",
        "din": ch.din,
        "dout": ch.dout,
        "kraus": list(ch.kraus),
    }
    if probs is not None:
        doc["probs"] = [float(p) for p in probs]
    return doc


def _matrix_list(doc: dict, key: str, where: str) -> list:
    """The matrices of a non-empty array field, named ``where.key[i]``."""
    value = _need(doc, key, where)
    # A bulk array here (a vector, or one matrix) is read row by row.
    if not isinstance(value, (list, np.ndarray)) or not len(value):
        raise FormatError(f"{where}: {key} must be a non-empty array")
    return [matrix_from_doc(m, f"{where}.{key}[{i}]")
            for i, m in enumerate(value)]


def channel_from_doc(doc: dict, where: str = "channel") -> Channel:
    din = _need_int(doc, "din", where)
    dout = _need_int(doc, "dout", where)
    return Channel(din, dout, tuple(_matrix_list(doc, "kraus", where)))


def system_from_doc(doc: dict, where: str = "system") -> tuple:
    """(dim, spanning matrices) of an operator-system document."""
    dim = _need_int(doc, "dim", where)
    if dim <= 0:
        raise FormatError(f"{where}: dim must be positive")
    spanning = _matrix_list(doc, "basis", where)
    for i, mat in enumerate(spanning):
        if mat.shape != (dim, dim):
            raise FormatError(
                f"{where}.basis[{i}]: {mat.shape[0]}x{mat.shape[1]} matrix, "
                f"dim is {dim}")
    return dim, spanning


def code_to_doc(code: Code) -> dict:
    return {
        "kind": "code",
        "physical_dim": code.physical_dim,
        "logical_dim": code.logical_dim,
        "isometry": code.isometry,
    }


def code_from_doc(doc: dict, where: str = "code") -> Code:
    return Code(
        _need_int(doc, "physical_dim", where),
        _need_int(doc, "logical_dim", where),
        matrix_from_doc(_need(doc, "isometry", where), f"{where}.isometry"),
    )


def error_list_from_doc(doc: dict, where: str = "errors"):
    """Kraus-style error list; probabilities optional.

    ``probs`` is checked before any matrix is read: its checks need only
    the number of Kraus operators.
    """
    kraus = _need(doc, "kraus", where)
    if not isinstance(kraus, (list, np.ndarray)):
        raise FormatError(f"{where}: kraus must be an array")
    probs = doc.get("probs")
    if probs is not None:
        if isinstance(probs, Sized) and len(probs) != len(kraus):
            raise FormatError(f"{where}: probs length mismatch")
        if not isinstance(probs, list) or not set(map(type, probs)) <= _REALS:
            raise FormatError(f"{where}: probs must be an array of numbers")
        try:
            probs = [float(p) for p in probs]
            finite = all(map(math.isfinite, probs))
        except OverflowError:
            finite = False
        if not finite:
            raise FormatError(f"{where}: probs out of range")
    return _matrix_list(doc, "kraus", where), probs


def graph_from_edge_list(text: str) -> Graph:
    """Edge-list format: one 0-indexed 'u v' pair per line; blank lines
    and #-comments ignored. Vertex count = 1 + max index."""
    edges = set()
    max_v = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edge list line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"edge list line {lineno}: {exc}") from exc
        if u < 0 or v < 0 or u == v:
            raise FormatError(f"edge list line {lineno}: bad edge ({u}, {v})")
        edges.add((min(u, v), max(u, v)))
        max_v = max(max_v, u, v)
    if max_v < 0:
        raise FormatError("edge list has no edges")
    return Graph(max_v + 1, frozenset(edges))


# --- the bulk route -----------------------------------------------------------

_NUMBER_BYTES = b"-+.0123456789eE"
_WHITESPACE = b" \t\n\r"
# The bytes of a run laid out with whitespace, which is read stripped of it.
_SPACED_RUN = re.compile(rb"[-+.0-9eE,\[\] \t\n\r]*")
# Whitespace between two number characters would join two numbers.
_SPLIT_NUMBER = re.compile(rb"[-+.0-9eE][ \t\n\r]+[-+.0-9eE]")
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
# Deeper runs are left to json.loads; this bounds the shape search.
_MAX_NDIM = 32
# Bytes of a chunk scanned at a time, so the scanner's masks stay in cache.
_BLOCK = 1 << 16
# Bytes of text per chunk of a run (whole outermost elements): a run is read
# one chunk at a time, so no copy of the whole run is made.
_CHUNK = 1 << 20


def _shape_of(skeleton: bytes, ndim: int) -> tuple | None:
    """The shape of the rectangular array of ``ndim`` axes whose first
    entry along every axis has the layout that ``skeleton`` (a run with
    its numbers deleted) starts with; None when they fit no shape."""
    shape, inner = [], 0
    for depth in range(1, ndim + 1):
        # The first array of this depth closes at the first ']' * depth.
        size = skeleton.find(b"]" * depth) + 2 * depth - ndim
        count, rest = divmod(size - 1, inner + 1)
        if count < 1 or rest:
            return None
        shape.append(count)
        inner = size
    return tuple(reversed(shape))


def _skeleton(shape: tuple) -> bytes:
    """The brackets and commas of an array of this shape."""
    text = b""
    for count in reversed(shape):
        text = b"[" + b",".join([text] * count) + b"]"
    return text


def _dense_array(data: bytes, start: int) -> tuple:
    """(close, text, arrays) for the run of numbers that opens at
    ``data[start]``: ``text`` stands for ``data[start:close]`` (None when
    no part of it takes the bulk route) and ``arrays`` are the values of
    its NaNs in text order. The run is read in chunks of whole outermost
    elements and ends at its own closing bracket, where the byte after an
    element is not ','. The search for the end of an element longer than
    a chunk starts at its least length: its skeleton plus one byte per
    number. The layout comes from the first element (in a run of
    matrices, from the second if the first has none). A vector or matrix
    stands as one NaN; in a run of matrices each element of a chunk that
    passes does, and a chunk that fails stays as text. A run with
    whitespace in its first bytes is read from its run bytes, stripped."""
    head = data[start:start + _MAX_NDIM + 1]
    if any(space in head for space in _WHITESPACE):
        stop = _SPACED_RUN.match(data, start).end()
        close = data.rfind(b"]", start, stop) + 1
        if close <= start or _SPLIT_NUMBER.search(data, start, close):
            return max(close, start + 1), None, []
        run = data[start:close].translate(None, _WHITESPACE)
        end, text, arrays = _dense_array(run, 0)
        return (close, text, arrays) if end == len(run) else (close, None, [])
    ndim = len(head) - len(head.lstrip(b"["))
    if not 2 <= ndim <= _MAX_NDIM:
        return start + 1, None, []
    inner = b"]" * (ndim - 1)
    # The run closes at its first ']' * ndim; its elements meet at ']],[['.
    shut, boundary = inner + b"]", inner + b"," + b"[" * (ndim - 1)
    unit, lower, failed, begin, pieces, arrays = None, 0, False, start + 1, [], []
    while True:
        reach = begin + max(lower - len(inner), 0)
        if (unit is None and not failed) or lower > _CHUNK:
            end = data.find(inner, reach)  # one element: the first, or a long one
        else:
            end = data.find(shut, begin, begin + _CHUNK)
            if end < 0:
                end = data.rfind(boundary, begin, begin + _CHUNK)
            if end < 0:
                end = data.find(inner, reach)
        end = len(data) if end < 0 else end + ndim - 1
        chunk, laid_out = data[begin:end], False
        if not failed:
            skeleton = chunk.translate(None, _NUMBER_BYTES)
            if unit is None:
                shape = _shape_of(skeleton, ndim - 1)  # of one element
                if shape and shape[-1] == 2 and _skeleton(shape) == skeleton:
                    unit, lower = skeleton, len(skeleton) + math.prod(shape)
                    if lower <= _CHUNK:
                        continue  # read the first element with those after it
            if unit:
                elements, rest = divmod(len(skeleton) + 1, len(unit) + 1)
                laid_out = not rest and skeleton == b",".join([unit] * elements)
            del skeleton  # so one chunk's work is held at a time
        if laid_out:
            values = np.empty((elements,) + shape)
            laid_out = _scan_chunk(chunk, values.reshape(-1))
        if laid_out:
            arrays += [values] if ndim < 4 else map(_nest, values)
            pieces.append(b",".join([b"NaN"] * elements))
        elif ndim < 4:
            failed = True  # the run is still read to its end, unscanned
        else:  # a run of matrices may start with one element with no layout
            failed = unit is None and bool(pieces)
            pieces.append(chunk)
        if data[end:end + 1] != b",":
            break
        begin = end + 1
    closed = data[end:end + 1] == b"]"
    close = end + closed
    if not arrays or (ndim < 4 and (failed or not closed)):
        return close, None, []
    if ndim < 4:
        return close, b"NaN", [np.concatenate(arrays) if len(arrays) > 1 else arrays[0]]
    return close, b"[" + b",".join(pieces) + b"]" * closed, arrays


def _scan_chunk(chunk: bytes, out: np.ndarray) -> bool:
    """Write the numbers of ``chunk``, scanned in blocks of about ``_BLOCK``
    bytes cut at commas, into ``out``; False when one fails ``_scan_block``,
    they do not fill the fields of its checked layout, or one is not finite."""
    if chunk[:1] != b"[" or chunk[-1:] != b"]":
        return False  # a number before the first bracket or after the last
    integer = not any(byte in chunk for byte in (b".", b"e", b"E", b"+"))
    a, parts, begin, last = np.frombuffer(chunk, np.uint8), [], 0, len(chunk) - 1
    while begin < last:
        end = chunk.find(b",", begin + _BLOCK)
        end = last if end < 0 else end
        parts.append(_scan_block(a[begin:end + 1], integer))
        if parts[-1] is None:
            return False
        begin = end
    if any(part is True for part in parts):
        try:
            values = np.loadtxt(_lines(chunk), delimiter=",", ndmin=1).reshape(-1)
        except ValueError:
            return False
    else:
        values = np.concatenate(parts)
    # 1e999 and huge integers keep their diagnostics.
    if values.size != out.size or not np.isfinite(values).all():
        return False
    out[:] = values
    return True


def _scan_block(a: np.ndarray, integer: bool):
    """The numbers in ``a``, a chunk's bytes from a bracket or comma to one,
    when each is an integer of one digit after at most a '-', else True,
    for np.loadtxt; None when one is no JSON number that float() reads as
    json.loads does (float() reads '+1', '1.', '.5', '01', '1-2', and -0
    as -0.0) or is out of place. ``integer`` says the chunk has no '.',
    'e', 'E' or '+'. The tests are predicates on the bytes around tokens."""
    d = a - np.uint8(48)  # a digit's value; 10 or more for any other byte
    digit, minus = d < 10, a == 45
    opens = (a[:-1] == 44) | (a[:-1] == 91)
    bad = (opens[:-1] & (a[1:-1] == 48) & digit[2:]).any()  # a leading zero
    if integer:  # '-' starts a token, before 1-9; no token after ']' or before '['
        bad = (bad or (minus[1:-1] & ~(opens[:-1] & (d[2:] - np.uint8(1) < 9))).any()
               or ((a[:-1] == 93) & (digit[1:] | minus[1:])).any()
               or (digit[:-1] & (a[1:] == 91)).any())
    else:  # '+' only after e or E, '.' between digits, '-0' only before '.', e, E;
        # np.loadtxt strips blanks around a field, so a number that touches a
        # bracket ('0]5', '5[1') leaves a blank inside a field, which it fails.
        bad = (bad or ((a[1:] == 43) & ((a[:-1] | 32) != 101)).any()
               or ((a[1:-1] == 46) & ~(digit[:-2] & digit[2:])).any()
               or (opens[:-2] & minus[1:-2] & (a[2:-1] == 48)
                   & (digit[3:] | (a[3:] == 44) | (a[3:] == 93))).any())
    if bad:
        return None
    if not integer or (digit[:-1] & digit[1:]).any():
        return True  # a decimal, or an integer of more than one digit
    # Each token is one digit, after at most a sign.
    signed = d[1:].view(np.int8) * (1 - 2 * minus[:-1].view(np.int8))
    return signed[np.flatnonzero(digit[1:])]


def _lines(chunk: bytes):
    """The lines np.loadtxt reads for a chunk: one per matrix row, brackets
    blanked, made one at a time so no second copy of the chunk is held."""
    start = 0
    while (end := chunk.find(b"]],[[", start)) >= 0:
        yield chunk[start:end].translate(_BLANK_BRACKETS)
        start = end + 5
    yield chunk[start:].translate(_BLANK_BRACKETS)


def _nest(values: np.ndarray):
    """Vectors and matrices as arrays, the levels above them as lists."""
    return values if values.ndim <= 3 else [_nest(v) for v in values]


def _json_loads(data: bytes):
    """json.loads of the document's text, decoded as a file opened in text
    mode reads it: UTF-8 with universal newlines, so ``path:line:col``
    counts lines and columns as that does."""
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _bulk_loads(data: bytes):
    """json.loads of the document's bytes ``data``, with each dense array
    read in bulk. A run starts at a '[' and ends at its own closing
    bracket (``_dense_array``), and the next is looked for after it, so
    no pass over the whole text comes first. The arrays read in bulk are
    replaced by ``NaN``, a constant json.loads hands to ``parse_constant``,
    which returns them in text order. A text that spells NaN or Infinity
    itself, or a run inside a string, sends the whole text to json.loads.
    """
    pieces, arrays, last = [], [], 0
    start = data.find(b"[")
    while start >= 0:
        close, text, found = _dense_array(data, start)
        if text is not None:
            pieces += (data[last:start], text)
            arrays += found
            last = close
        start = data.find(b"[", close)
    pieces.append(data[last:])
    skeleton = b"".join(pieces)
    if not arrays or skeleton.count(b"NaN") != len(arrays) or b"Infinity" in skeleton:
        return _json_loads(data)
    placed = iter(arrays)
    try:
        doc = json.loads(skeleton.decode(), parse_constant=lambda _: next(placed))
    except json.JSONDecodeError:
        return _json_loads(data)  # raises at the error's place in the text
    if next(placed, None) is not None:
        return _json_loads(data)
    return doc


def read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, which must be UTF-8 text; a file
    that cannot be read raises FormatError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            data.decode("utf-8")  # raises as a text-mode read would
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return data


def load_document(path: str) -> dict:
    """The JSON object in the file at ``path``."""
    data = read_bytes(path)
    try:
        with _gc_paused():
            doc = _bulk_loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    return doc
