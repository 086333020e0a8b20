"""JSON document formats shared by the CLI and any external tooling.

Conventions: every complex scalar is a two-element array [re, im];
matrices are row-major nested arrays; dimensions are always explicit.
Canonical output sorts keys and prints every real with %.17g, so
serialize -> parse -> serialize is byte-identical.

Dense matrices and vectors are validated and converted in bulk: a few
whole-array passes check that rows are arrays of equal length, that every
entry is a two-element array and that every scalar is a JSON number, and
one conversion builds the complex array. Only when a check fails does the
per-entry walk run, and it alone names the offending entry as
``where[i][j]``, so diagnostics cost nothing on well-formed input.
"""

from __future__ import annotations

import gc
import json
import math
from collections.abc import Iterable, Sized
from contextlib import contextmanager
from itertools import chain

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


def canonical_dumps(doc) -> str:
    """Deterministic JSON text: sorted keys, %.17g reals."""

    def render(obj):
        if isinstance(obj, dict):
            items = sorted(obj.items())
            inner = ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ",".join(render(v) for v in obj) + "]"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt_float(float(obj))
        if obj is None:
            return "null"
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
                return complex(float(re), float(im))
            except OverflowError:
                raise FormatError(f"{where}: real out of range") from None
    raise FormatError(f"{where}: complex scalar must be [re, im]")


def _bulk_pairs(rows: list, count: int) -> np.ndarray | None:
    """The ``count`` [re, im] pairs held in a list of lists, as one flat
    complex array; None when any pair is not two JSON numbers, so that the
    caller's per-entry walk can name it.

    Each check is one C-level pass over an iterator: no intermediate list
    is built, so a large document's peak memory stays that of its tree.
    """
    def pairs():
        return chain.from_iterable(rows)

    if set(map(type, pairs())) != {list} or set(map(len, pairs())) != {2}:
        return None
    if not set(map(type, chain.from_iterable(pairs()))) <= _REALS:
        return None
    try:
        reals = np.fromiter(chain.from_iterable(pairs()), float, 2 * count)
    except OverflowError:  # an integer beyond float range
        return None
    return reals.view(complex)


def matrix_from_doc(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise FormatError(f"{where}: matrix must be a nested array")
    rows = len(obj)
    cols = len(obj[0])
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {cols}:
        flat = _bulk_pairs(obj, rows * cols)
        if flat is not None:
            return flat.reshape(rows, cols)
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
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: vector must be a non-empty array")
    flat = _bulk_pairs([obj], len(obj))
    if flat is not None:
        return flat
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
        return {
            "kind": "state",
            "dims": list(state.dims),
            "vec": vector_to_doc(state.vec),
        }
    return {
        "kind": "state",
        "dims": list(state.dims),
        "rho": matrix_to_doc(state.rho),
    }


def state_from_doc(doc: dict, where: str = "state"):
    dims = _need(doc, "dims", where)
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise FormatError(f"{where}: dims must be a list of integers")
    if "vec" in doc:
        return PureState(tuple(dims), vector_from_doc(doc["vec"], f"{where}.vec"))
    rho = matrix_from_doc(_need(doc, "rho", where), f"{where}.rho")
    return State(tuple(dims), rho)


def channel_to_doc(ch: Channel, probs=None) -> dict:
    doc = {
        "kind": "channel",
        "din": ch.din,
        "dout": ch.dout,
        "kraus": [matrix_to_doc(k) for k in ch.kraus],
    }
    if probs is not None:
        doc["probs"] = [float(p) for p in probs]
    return doc


def channel_from_doc(doc: dict, where: str = "channel") -> Channel:
    din = _need_int(doc, "din", where)
    dout = _need_int(doc, "dout", where)
    kraus_doc = _need(doc, "kraus", where)
    if not isinstance(kraus_doc, list) or not kraus_doc:
        raise FormatError(f"{where}: kraus must be a non-empty array")
    kraus = tuple(
        matrix_from_doc(k, f"{where}.kraus[{i}]")
        for i, k in enumerate(kraus_doc)
    )
    return Channel(din, dout, kraus)


def code_to_doc(code: Code) -> dict:
    return {
        "kind": "code",
        "physical_dim": code.physical_dim,
        "logical_dim": code.logical_dim,
        "isometry": matrix_to_doc(code.isometry),
    }


def code_from_doc(doc: dict, where: str = "code") -> Code:
    return Code(
        _need_int(doc, "physical_dim", where),
        _need_int(doc, "logical_dim", where),
        matrix_from_doc(_need(doc, "isometry", where), f"{where}.isometry"),
    )


def error_list_from_doc(doc: dict, where: str = "errors"):
    """Kraus-style error list; probabilities optional."""
    ops_doc = _need(doc, "kraus", where)
    if not isinstance(ops_doc, Iterable):
        raise FormatError(f"{where}: kraus must be an array")
    ops = [matrix_from_doc(k, f"{where}.kraus[{i}]")
           for i, k in enumerate(ops_doc)]
    probs = doc.get("probs")
    if probs is not None:
        if isinstance(probs, Sized) and len(probs) != len(ops):
            raise FormatError(f"{where}: probs length mismatch")
        if not isinstance(probs, list) or not set(map(type, probs)) <= _REALS:
            raise FormatError(f"{where}: probs must be an array of numbers")
        try:
            probs = [float(p) for p in probs]
        except OverflowError:
            raise FormatError(f"{where}: probs out of range") from None
    return ops, probs


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


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        with _gc_paused():
            doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    return doc
