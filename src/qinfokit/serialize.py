"""JSON document formats shared by the CLI and any external tooling.

Conventions: every complex scalar is a two-element array [re, im];
matrices are row-major nested arrays; dimensions are always explicit.
Canonical output sorts keys and prints every real with %.17g, so
serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
import math

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


def complex_to_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_doc(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in m]


def vector_to_doc(v) -> list:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def _pair_to_complex(obj, where: str) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        # bool subclasses int, but JSON true/false are not numbers.
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            return complex(float(re), float(im))
    raise FormatError(f"{where}: complex scalar must be [re, im]")


def matrix_from_doc(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise FormatError(f"{where}: matrix must be a nested array")
    rows = len(obj)
    cols = len(obj[0])
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if len(row) != cols:
            raise FormatError(f"{where}: ragged matrix at row {i}")
        for j, z in enumerate(row):
            out[i, j] = _pair_to_complex(z, f"{where}[{i}][{j}]")
    return out


def vector_from_doc(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: vector must be a non-empty array")
    return np.array([_pair_to_complex(z, f"{where}[{k}]")
                     for k, z in enumerate(obj)])


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    return doc[key]


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
    din = _need(doc, "din", where)
    dout = _need(doc, "dout", where)
    kraus_doc = _need(doc, "kraus", where)
    if not isinstance(kraus_doc, list) or not kraus_doc:
        raise FormatError(f"{where}: kraus must be a non-empty array")
    kraus = tuple(
        matrix_from_doc(k, f"{where}.kraus[{i}]")
        for i, k in enumerate(kraus_doc)
    )
    return Channel(int(din), int(dout), kraus)


def code_to_doc(code: Code) -> dict:
    return {
        "kind": "code",
        "physical_dim": code.physical_dim,
        "logical_dim": code.logical_dim,
        "isometry": matrix_to_doc(code.isometry),
    }


def code_from_doc(doc: dict, where: str = "code") -> Code:
    return Code(
        int(_need(doc, "physical_dim", where)),
        int(_need(doc, "logical_dim", where)),
        matrix_from_doc(_need(doc, "isometry", where), f"{where}.isometry"),
    )


def error_list_from_doc(doc: dict, where: str = "errors"):
    """Kraus-style error list; probabilities optional."""
    ops_doc = _need(doc, "kraus", where)
    ops = [matrix_from_doc(k, f"{where}.kraus[{i}]")
           for i, k in enumerate(ops_doc)]
    probs = doc.get("probs")
    if probs is not None:
        if len(probs) != len(ops):
            raise FormatError(f"{where}: probs length mismatch")
        probs = [float(p) for p in probs]
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
            doc = json.load(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    return doc
