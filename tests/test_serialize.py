"""The document reader of ``serialize`` against the diagnostic route.

``load_document`` and the ``*_from_doc`` readers on its tree must give
the same arrays, bit for bit, or the same FormatError text as the
diagnostic route they replaced: ``json.loads`` of the whole text and a
per-entry walk of each matrix. A copy of that route is kept below as the
oracle.
"""

import json
import math
import mmap
import os
import re
import runpy
import tracemalloc
from collections.abc import Sized
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qinfokit import qec, serialize
from qinfokit.channels import Channel
from qinfokit.errors import FormatError
from qinfokit.randkit import random_channel, random_pure, random_state


# --- the diagnostic route as it stood before the bulk route (the oracle) -------

def _reference_load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    return doc


def _reference_pair(obj, where):
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            try:
                z = complex(float(re), float(im))
            except OverflowError:
                raise FormatError(f"{where}: real out of range") from None
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise FormatError(f"{where}: real out of range")
            return z
    raise FormatError(f"{where}: complex scalar must be [re, im]")


def _reference_matrix(obj, where):
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise FormatError(f"{where}: matrix must be a nested array")
    rows, cols = len(obj), len(obj[0])
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, Sized):
            raise FormatError(f"{where}[{i}]: matrix row must be an array")
        if len(row) != cols:
            raise FormatError(f"{where}: ragged matrix at row {i}")
        for j, z in enumerate(row):
            out[i, j] = _reference_pair(z, f"{where}[{i}][{j}]")
    return out


def _reference_vector(obj, where):
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: vector must be a non-empty array")
    return np.array([_reference_pair(z, f"{where}[{k}]")
                     for k, z in enumerate(obj)])


def _reader(matrix, vector):
    """Reads the test format {"m": matrix, "v": vector, "k": [matrices]}."""

    def read(doc):
        # A dense run of one matrix's shape lands as an array, which
        # stands for the list it spells (as in serialize._matrix_list).
        if not isinstance(doc.get("k"), (list, np.ndarray)):
            raise FormatError("doc: k must be an array")
        return ([matrix(doc.get("m"), "doc.m"), vector(doc.get("v"), "doc.v")]
                + [matrix(x, f"doc.k[{i}]") for i, x in enumerate(doc["k"])])

    return read


def _outcome(read):
    try:
        arrays = read()
    except FormatError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) for a in arrays]


def _both_routes(path):
    read = _reader(serialize.matrix_from_doc, serialize.vector_from_doc)
    bulk = _outcome(lambda: read(serialize.load_document(path)))
    reference = _outcome(lambda: _reader(_reference_matrix, _reference_vector)(
        _reference_load(path)))
    return bulk, reference


# --- generated and mutated documents ------------------------------------------

_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-5, 1e17, 1e300, 0.1]),
    st.integers(-2 ** 70, 2 ** 70),
)

# Tokens that some float parser reads, but json.loads reads differently or
# not at all, and a few that both read alike.
_TOKENS = [
    "nan", "NaN", "inf", "-Infinity", "+1", "1.", ".5", "-.5", "01", "-01",
    "00", "-0", "-0.0", "0", "1e999", "-1e999", "1" * 400, "9" * 300, "1e-0",
    "0e5", "-0e0", "1E5", "1e+5", "1.5e-07", "true", "null", '"s"', "1_0",
    "[]", "[1,0,0]", "[1]",
]

# Integers at the edges of int64 and of exact doubles, and beyond int64;
# runs of integers alone are parsed as int64.
_INTEGERS = [str(2 ** 53 + 1), str(-(2 ** 53 + 1)), str(2 ** 63 - 1),
             str(-(2 ** 63 - 1)), str(-2 ** 63), str(2 ** 63), str(10 ** 20),
             "1" * 400, "-0"]

_SPACES = [" ", "\n", "\t", "\r\n", "\r", "  "]


def _pairs(draw, count):
    return [[draw(_REALS), draw(_REALS)] for _ in range(count)]


@st.composite
def _documents(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "m": [_pairs(draw, cols) for _ in range(rows)],
        "v": _pairs(draw, draw(st.integers(1, 4))),
        "k": [[_pairs(draw, cols) for _ in range(rows)]
              for _ in range(draw(st.integers(0, 2)))],
        "s": draw(st.sampled_from(["x"] * 6 + ["[[1,0]]", "NaN", "[[1,0],[0,1]]"])),
    }
    # Shape mutations on the tree: a triple, a ragged row, an empty pair
    # or row, a scalar where a pair or a row belongs.
    target = draw(st.sampled_from(["m", "v", "k"] + [None] * 5))
    if target == "k" and doc["k"]:
        matrix = doc["k"][0]
    elif target == "m":
        matrix = doc["m"]
    else:
        matrix = None
    if matrix is not None:
        kind = draw(st.sampled_from(["triple", "ragged", "empty pair",
                                     "empty row", "scalar", "pair as row"]))
        i = draw(st.integers(0, len(matrix) - 1))
        if kind == "triple":
            matrix[i][0] = matrix[i][0] + [1.0]
        elif kind == "ragged" and len(matrix) > 1:
            matrix[i] = matrix[i] + [[0, 0]]
        elif kind == "empty pair":
            matrix[i][0] = []
        elif kind == "empty row":
            matrix[i] = []
        elif kind == "scalar":
            matrix[i][0] = 1.5
        elif kind == "pair as row":
            matrix[i] = [1, 0]
    elif target == "v":
        doc["v"][0] = draw(st.sampled_from([[], [1, 2, 3], [[1, 0]], 0.5]))
    layout = draw(st.sampled_from(["canonical", "spaced", "indent"]))
    if layout == "canonical":
        text = serialize.canonical_dumps(doc)
    elif layout == "spaced":
        text = json.dumps(doc)
    else:
        text = json.dumps(doc, indent=draw(st.integers(0, 2)))
    # Text mutations: one number token replaced, whitespace put inside or
    # between tokens, or a syntax error after the arrays.
    kind = draw(st.sampled_from(["token", "space", "byte", "syntax"] + [None] * 4))
    spans = [m.span() for m in re.finditer(r"-?[0-9][0-9.eE+-]*", text)]
    if kind == "token" and spans:
        start, end = draw(st.sampled_from(spans))
        text = text[:start] + draw(st.sampled_from(_TOKENS)) + text[end:]
    elif kind in ("space", "byte"):
        at = draw(st.integers(1, len(text) - 1))
        insert = _SPACES if kind == "space" else list("05-+.e,[]")
        text = text[:at] + draw(st.sampled_from(insert)) + text[at:]
    elif kind == "syntax":
        at = draw(st.sampled_from([len(text) - 2, len(text) - 1, text.index('"v"')]))
        text = text[:at] + draw(st.sampled_from(["x", ",", "]", "}", "[["])) + text[at:]
    return text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_documents())
def test_bulk_route_matches_reference_route(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("token", _TOKENS,
                         ids=lambda t: t if len(t) < 12 else f"{t[0]}*{len(t)}")
def test_each_grammar_trap_matches_reference_route(tmp_path, token):
    doc = {"m": [[[0.5, token], [1, 0]], [[0, 0], [1, 0]]],
           "v": [[1, 0], [0, 0]], "k": []}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace(json.dumps(token), token))
    bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("matrix", [
    "[[[1,0]5,[2,3]]]", "[[5[1,0]]]", "[[[1.5,0]5,[2,3]]]", "[[5[1.5,0]]]",
    "[[[1,0]] 5]", "[[[1,0],,[2,3]]]",
    "[[[1,0]],[]]", "[[[1, 0], [2 3]]]", "[[[1,0]],[[1,0]]", "[[[1,0]][[1,0]]]",
    "[[[1,-0],[2e-05,3]]]", "[ [ [1 ,0] ] ]", "[[[1,0],[2,3]],[[4,5,6],[7]]]",
    # Dense arrays of the wrong depth: a vector, and four axes.
    "[[1,0],[2,3]]", "[[[[1,0]],[[2,3]]]]",
])
def test_malformed_runs_match_reference_route(tmp_path, matrix):
    path = tmp_path / "doc.json"
    path.write_text('{"m": %s, "v": [[1, 0]], "k": []}' % matrix)
    bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("prefix", ["\ufeff", "\x00", " \n"])
def test_leading_bytes_match_reference_route(tmp_path, prefix):
    path = tmp_path / "doc.json"
    path.write_text(prefix + '{"m": [[[1,0]]], "v": [[1, 0]], "k": []}')
    bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("token, valid", [
    ("01", False), ("-01", False), ("-0", False), ("+1", False), ("1.", False),
    (".5", False), ("-.5", False), ("1.e5", False),
    ("0", True), ("-0.5", True), ("10", True), ("1e-05", True), ("1e+5", True),
])
def test_grammar_tests_see_across_block_boundaries(token, valid):
    # The scanner reads a chunk in blocks cut at commas; put the token at
    # every offset around the first block boundary of a long run.
    pairs = b",[1,1]" * ((serialize._BLOCK - 100) // 6)
    for at in range(serialize._BLOCK - 8, serialize._BLOCK + 4):
        head = b"[[" + b"1" * (at - len(pairs) - 7) + b",1]"
        run = head + pairs + b",[" + token.encode() + b",1]]"
        assert run[at:at + len(token)] == token.encode()
        chunk = run[1:-1]  # the run's elements, as a chunk holds them
        out = np.empty(2 * chunk.count(b"["))
        assert serialize._scan_chunk(chunk, out) is valid
        if valid:
            assert out[-2] == float(token)


@pytest.mark.parametrize("token", _INTEGERS,
                         ids=lambda t: t if len(t) < 24 else f"{t[0]}*{len(t)}")
@pytest.mark.parametrize("text", [
    '{"m": [[[1,7],[1,0]],[[0,-1],[%s,0]]], "v": [[1,0],[0,5]], "k": [[[[2,0]]]]}',
    '{"m": [[[1,7],[1,0]]], "v": [[1,0],[0,%s]], "k": [[[[2,0]]]]}',
], ids=["matrix", "vector"])
def test_integer_runs_match_reference_route(tmp_path, token, text):
    path = tmp_path / "doc.json"
    path.write_text(text % token)
    bulk, reference = _both_routes(str(path))
    assert bulk == reference


def test_integer_runs_across_cast_chunks_match_reference_route(tmp_path):
    # Runs of more than one chunk of text, each chunk of multi-digit
    # integers parsed by np.loadtxt into the run's array, with values that
    # doubles round.
    rng = np.random.default_rng(152)
    m = rng.integers(-2 ** 63, 2 ** 63 - 1, size=(serialize._CHUNK // 256, 10, 2),
                     endpoint=True).tolist()
    assert len(json.dumps(m, separators=(",", ":"))) > serialize._CHUNK
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"m": m, "v": [[1, 0]], "k": [m]}))
    bulk, reference = _both_routes(str(path))
    assert isinstance(bulk, list) and bulk == reference
    assert isinstance(serialize.load_document(str(path))["m"], np.ndarray)


# Integer tokens of one digit, which the scanner converts, and of more,
# which np.loadtxt converts; and malformed ones that float() or int() read
# but json.loads refuses or reads differently.
_SCANNED_INTEGERS = st.one_of(
    st.integers(-9, 9),
    st.integers(-10 ** 18 + 1, 10 ** 18 - 1),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 53 + 1, -2 ** 63, 2 ** 63, 10 ** 18, 10 ** 19 + 1]),
).map(str)
_MALFORMED_INTEGERS = st.sampled_from(
    ["01", "-01", "00", "-0", "+1", "1-2", "--1", "-", "", "1" * 400, "0-", "-00"])


@st.composite
def _integer_documents(draw):
    """Test documents whose runs hold integers only, a few malformed."""
    token = st.one_of(*[_SCANNED_INTEGERS] * 9, _MALFORMED_INTEGERS)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def pairs(count):
        return ",".join(f"[{draw(token)},{draw(token)}]" for _ in range(count))

    def matrix():
        return "[" + ",".join(f"[{pairs(cols)}]" for _ in range(rows)) + "]"

    k = ",".join(matrix() for _ in range(draw(st.integers(1, 3))))
    v = pairs(draw(st.integers(1, 5)))
    return '{"k": [%s], "m": %s, "v": [%s]}' % (k, matrix(), v)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_integer_documents(), chunk=st.integers(1, 64), block=st.integers(1, 24))
def test_scanned_integer_runs_match_reference_route(tmp_path, text, chunk, block):
    # Small chunks and blocks put tokens at every offset around their cuts.
    # A document of at least one chunk is mapped, so this is also a test of
    # the mapped read.
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CHUNK", chunk)
        mp.setattr(serialize, "_BLOCK", block)
        bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("token", ["7", "-7", "0", "10", "-10", str(10 ** 18 - 1),
                                   str(2 ** 63), "01", "-0", "+1", "1-2", "--1",
                                   "-", ""], ids=lambda t: t or "empty")
def test_integer_tokens_at_every_pair_of_a_scanned_vector(tmp_path, monkeypatch,
                                                          token):
    # Blocks of 5 bytes cut the run every pair or two, so the token sits
    # first, last and inside a block, and next to a chunk cut.
    pairs = [[1, -1]] * 12
    monkeypatch.setattr(serialize, "_BLOCK", 5)
    for i in range(len(pairs)):
        path = tmp_path / f"doc{i}.json"
        text = json.dumps({"m": [[[1, 0]]], "v": pairs, "k": []}, separators=(",", ":"))
        at = text.index('"v"') + 5 + 7 * i + 1
        path.write_text(text[:at] + token + text[at + 1:])
        bulk, reference, _ = _chunked_routes(monkeypatch, path, chunk=15)
        assert bulk == reference


# --- one-digit runs: the fixed byte layout -------------------------------------

# Tokens in place of one number of a run of one digit per number: an integer
# -0, which stays in the layout and is read as +0.0 (as json.loads reads
# it), and tokens that break the layout: two signs, a sign alone, no number,
# a sign after the digit, a leading zero, two digits, a sign before a
# bracket, and the byte after '9'.
_LAYOUT_BREAKERS = ["-0", "--1", "-", "", "1-", "01", "10", "-[", ":"]


def _floats(tree):
    """A JSON tree with every number as a float and every bulk array as
    its nested lists of floats, so that json.dumps shows the sign of a
    zero: an int8 array of one-digit integers reads as the integers
    json.loads gives, a float64 array with the signs of its zeros."""
    if isinstance(tree, np.ndarray):
        return _floats(tree.tolist())
    if isinstance(tree, dict):
        return {k: _floats(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_floats(v) for v in tree]
    return float(tree) if type(tree) is int else tree


@st.composite
def _one_digit_documents(draw):
    """Test documents of one-digit integers with random signs (a vector, a
    matrix, a list of matrices and a list of lists of them), with one
    token of _LAYOUT_BREAKERS in place of a number or one byte of the text
    replaced or deleted, or neither, in canonical or json.dumps layout."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    digit = st.integers(-9, 9)

    def pairs(count):
        return [[draw(digit), draw(digit)] for _ in range(count)]

    def matrices(count):
        return [[pairs(cols) for _ in range(rows)] for _ in range(count)]

    doc = {"k": matrices(draw(st.integers(1, 3))), "m": matrices(1)[0],
           "v": pairs(draw(st.integers(1, 5))),
           "kk": [matrices(2) for _ in range(draw(st.integers(1, 2)))]}
    text = json.dumps(doc, separators=(",", ":")) if draw(st.booleans()) else json.dumps(doc)
    kind = draw(st.sampled_from(["token", "byte", None]))
    if kind == "token":
        start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"-?[0-9]", text)]))
        text = text[:start] + draw(st.sampled_from(_LAYOUT_BREAKERS)) + text[end:]
    elif kind == "byte":
        at = draw(st.integers(text.index("["), len(text) - 2))
        text = text[:at] + draw(st.sampled_from(["", "[", "]", ",", "0", "-", " ", ":"])) + text[at + 1:]
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_one_digit_documents(), chunk=st.integers(1, 64), block=st.integers(1, 24))
def test_one_digit_runs_match_reference_route(tmp_path, text, chunk, block):
    # Small chunks and blocks cut the rows of pairs that are compared with
    # the template at every offset. The readers' arrays are compared by
    # bytes, which hold the signs of their zeros, and the whole tree, which
    # holds a run of five axes, by value as JSON text of floats. A document of
    # at least one chunk is mapped, so this is also a test of the mapped read.
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CHUNK", chunk)
        mp.setattr(serialize, "_BLOCK", block)
        bulk, reference = _both_routes(str(path))
        assert bulk == reference
        if isinstance(reference, list):
            assert (json.dumps(_floats(serialize.load_document(str(path))))
                    == json.dumps(_floats(json.loads(text))))


@pytest.mark.parametrize("token", _LAYOUT_BREAKERS, ids=lambda t: t or "empty")
def test_layout_breakers_at_every_number_of_one_digit_runs(tmp_path, monkeypatch, token):
    # Every number of a vector, a matrix and a list of two matrices, with
    # chunks of one to a few elements.
    doc = {"k": [[[[1, -2], [3, 0]], [[-4, 5], [6, -7]]]] * 2,
           "m": [[[8, -9], [0, 1]], [[-1, 2], [3, 4]]], "v": [[5, -6], [7, 8]]}
    text = json.dumps(doc, separators=(",", ":"))
    for i, number in enumerate(re.finditer(r"-?[0-9]", text)):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text[:number.start()] + token + text[number.end():])
        bulk, reference, _ = _chunked_routes(monkeypatch, path, chunk=30)
        assert bulk == reference


@pytest.mark.parametrize("byte", ["[", "]", ",", "0", " "])
def test_every_bracket_and_comma_of_one_digit_runs(tmp_path, monkeypatch, byte):
    # Each bracket and comma of a vector, a matrix, a list of matrices and
    # a list of lists of them, replaced by a byte of the same length.
    doc = {"k": [[[[1, -2], [3, 0]], [[-4, 5], [6, -7]]]] * 2,
           "m": [[[8, -9], [0, 1]], [[-1, 2], [3, 4]]], "v": [[5, -6], [7, 8]],
           "kk": [[[[[1, 2]], [[3, -4]]]] * 2] * 2}
    text = json.dumps(doc, separators=(",", ":"))
    for i in range(text.index("["), len(text) - 1):
        if text[i] not in "[],":
            continue
        path = tmp_path / f"doc{i}.json"
        path.write_text(text[:i] + byte + text[i + 1:])
        bulk, reference, _ = _chunked_routes(monkeypatch, path, chunk=30)
        assert bulk == reference
        try:
            want = json.dumps(_floats(json.loads(path.read_text())))
        except json.JSONDecodeError:
            continue
        assert json.dumps(_floats(serialize.load_document(str(path)))) == want


@pytest.fixture(scope="module")
def shor_errors(tmp_path_factory):
    """The errors document of the benchmark's qec-shor9 workload for seed
    1: 28 phased one-qubit Pauli words on nine qubits, 44 MB of one-digit
    integers, written by the benchmark's own generator."""
    inputs = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "inputs.py"))
    outdir = tmp_path_factory.mktemp("shor")
    inputs["generate"]("qec-shor9", 1, str(outdir))
    return outdir / "shor_errors.json"


def test_one_digit_documents_need_no_number_parser(tmp_path, monkeypatch, shor_errors):
    # Pauli documents hold one-digit integers only, which are read as a
    # fixed byte layout: neither the grammar scan nor np.loadtxt runs.
    def refused(*args, **kwargs):
        raise AssertionError("a chunk left the fixed layout")

    monkeypatch.setattr(serialize, "_scan_block", refused)
    monkeypatch.setattr(serialize.np, "loadtxt", refused)
    phases = [1, -1, 1j, -1j]
    docs = [
        {"kind": "channel", "din": 8, "dout": 8,
         "kraus": [phases[i % 4] * op for i, op in enumerate(qec.one_paulis(3))]},
        {"kind": "channel", "din": 2, "dout": 2, "kraus": [qec.pauli_on(1, 0, "Y")]},
        {"kraus": [-qec.pauli_on(2, 1, "Z")], "probs": [1]},
    ]
    for i, doc in enumerate(docs):
        text = serialize.canonical_dumps(doc)
        for layout in (text, json.dumps(json.loads(text)),
                       json.dumps(json.loads(text), indent=2)):
            path = tmp_path / f"doc{i}.json"
            path.write_text(layout)
            want = [_reference_matrix(k, "k") for k in _reference_load(str(path))["kraus"]]
            # Blocks of a few bytes cut the rows of pairs at every offset.
            for block in (1, 5, 6, 7, 13, 1 << 16):
                monkeypatch.setattr(serialize, "_BLOCK", block)
                tree = serialize.load_document(str(path))
                assert all(isinstance(k, np.ndarray) for k in tree["kraus"])
                got, _ = serialize.error_list_from_doc(tree)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    tree = serialize.load_document(str(shor_errors))
    assert len(tree["kraus"]) == 28
    assert all(isinstance(k, np.ndarray) for k in tree["kraus"])
    ops, _ = serialize.error_list_from_doc(tree)
    # The canonical text of what was read, of the tree's int8 arrays as of
    # the reader's complex ones, is the document itself.
    text = shor_errors.read_text()
    assert serialize.canonical_dumps(tree) == text
    assert serialize.canonical_dumps({**tree, "kraus": np.stack(ops)}) == text


def test_qec_holds_one_dense_error_at_a_time(shor_errors):
    # The tree holds the 28 errors as int8 (14.7 MB), and qec converts,
    # checks, traces and images one 4 MiB complex matrix at a time: the
    # float64 tree with every error held as complex peaked at 120 MB.
    w = qec.shor_code().isometry
    tracemalloc.start()
    try:
        errors, _ = serialize.error_list_from_doc(serialize.load_document(str(shor_errors)))
        imaged = qec._ImagedErrors(w, errors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(imaged.traces) == 28 and (imaged.traces == 512).all()
    assert peak <= 32 * 2 ** 20


def test_a_string_before_the_errors_leaves_them_to_the_bulk_route(tmp_path, shor_errors):
    # The search for a run passes over string literals, escapes included,
    # so a string that spells the boundary of two matrices does not send
    # it into the text of the errors.
    path = tmp_path / "errors.json"
    path.write_bytes(b'{"a":"\\\"]],[[",' + shor_errors.read_bytes()[1:])
    tree = serialize.load_document(str(path))
    assert tree["a"] == '"]],[[' and len(tree["kraus"]) == 28
    assert all(isinstance(k, np.ndarray) for k in tree["kraus"])


@pytest.mark.parametrize("refused", ['[["a]]",1]]', '[["]]]"]]', '[[1,"]",[2]]]',
                                     '[[["]]],[[["]]]', '[[0,1],["\\"]]",2]]',
                                     '[[[[1,0]]],"]]]]",[[[2,0]]]]',
                                     '[[[[1,0]]],[[[2,0]]],"]]]]",[[[3,0]]]]'])
@pytest.mark.parametrize("chunk", [16, 1 << 20])
def test_runs_after_a_refused_array_of_strings_keep_the_bulk_route(tmp_path, monkeypatch,
                                                                   refused, chunk):
    # The walk of a refused array, or of a run of matrices with a string
    # among them, may end inside one of its strings; the search for the
    # next run goes on from that string's opening quote. Chunks of 16 bytes
    # hold one matrix each, so the last run is read in part before the
    # string.
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    path = tmp_path / "doc.json"
    path.write_text('{"x":%s,"m":[[[1,0],[0.5,-2]]],"v":[[1,0]],"k":[],"s":"[[1,0]]"}'
                    % refused)
    bulk, reference = _both_routes(str(path))
    assert isinstance(bulk, list) and bulk == reference
    tree = serialize.load_document(str(path))
    assert isinstance(tree["m"], np.ndarray) and isinstance(tree["v"], np.ndarray)
    assert tree["s"] == "[[1,0]]"


# --- runs read in chunks ------------------------------------------------------

def _chunk_doc(count=6, rows=3, pairs=40):
    """A test document of small integers; a chunk of 16 bytes holds one
    matrix of "k", one row of "m" or three pairs of "v"."""
    rng = np.random.default_rng(153)
    k = rng.integers(-9, 10, size=(count, rows, rows, 2)).tolist()
    return {"m": k[0], "v": rng.integers(-9, 10, size=(pairs, 2)).tolist(), "k": k}


def _chunked_routes(monkeypatch, path, chunk=16):
    """Both routes' outcomes with ``chunk`` bytes per chunk, and the number
    of chunks the bulk route parsed."""
    scan = serialize._scan_chunk
    calls = []

    def counted(text, out):
        calls.append(len(text))
        return scan(text, out)

    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    monkeypatch.setattr(serialize, "_scan_chunk", counted)
    bulk, reference = _both_routes(str(path))
    return bulk, reference, len(calls)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_documents(), chunk=st.integers(1, 40))
def test_bulk_route_in_small_chunks_matches_reference_route(tmp_path, text, chunk):
    # A document of at least one chunk is mapped, so this is also a test of
    # the mapped read.
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CHUNK", chunk)
        bulk, reference = _both_routes(str(path))
    assert bulk == reference


@pytest.mark.parametrize("layout", ["canonical", "spaced", "indent"])
def test_runs_of_several_chunks_match_reference_route(tmp_path, monkeypatch, layout):
    doc = _chunk_doc()
    text = {"canonical": serialize.canonical_dumps(doc), "spaced": json.dumps(doc),
            "indent": json.dumps(doc, indent=2)}[layout]
    path = tmp_path / "doc.json"
    path.write_text(text)
    bulk, reference, chunks = _chunked_routes(monkeypatch, path)
    assert isinstance(bulk, list) and bulk == reference
    assert chunks >= 6 + 3 + 10  # every run spans several chunks
    tree = serialize.load_document(str(path))
    assert isinstance(tree["v"], np.ndarray) and isinstance(tree["k"][0], np.ndarray)


@pytest.mark.parametrize("token", ["01", "-0", "+1", ".5", "1.", "1e999", "nan",
                                   "1" * 400, "true", "[1,0]", "[]"],
                         ids=lambda t: t if len(t) < 12 else f"{t[0]}*{len(t)}")
@pytest.mark.parametrize("field", ["k", "m", "v"])
def test_bad_token_in_the_last_chunk_only_matches_reference_route(
        tmp_path, monkeypatch, token, field):
    doc = _chunk_doc()
    if field == "k":
        doc["k"][-1][-1][-1][0] = 777
    elif field == "m":
        doc["m"][-1][-1][0] = 777
    else:
        doc["v"][-1][0] = 777
    path = tmp_path / "doc.json"
    path.write_text(serialize.canonical_dumps(doc).replace("777", token))
    bulk, reference, chunks = _chunked_routes(monkeypatch, path)
    assert bulk == reference


@pytest.mark.parametrize("token", ["01", "00", "-01", ".5", "+1"])
def test_grammar_traps_at_every_pair_of_a_chunked_vector(tmp_path, monkeypatch, token):
    # Some of the pairs start a chunk, where the tests need the bytes
    # before the cut.
    pairs = [[1, 0]] * 12
    for i in range(len(pairs)):
        path = tmp_path / f"doc{i}.json"
        text = json.dumps({"m": [[[1, 0]]], "v": pairs, "k": []}, separators=(",", ":"))
        at = text.index('"v"') + 5 + 6 * i + 1
        path.write_text(text[:at] + token + text[at + 1:])
        bulk, reference, _ = _chunked_routes(monkeypatch, path, chunk=7)
        assert bulk == reference


def test_wrong_layout_of_the_same_length_in_a_later_chunk(tmp_path, monkeypatch):
    doc = _chunk_doc()
    text = serialize.canonical_dumps(doc)
    row = json.dumps(doc["k"][-1][-1], separators=(",", ":"))
    assert text.count(row) == 1
    # [[a,b],[c,d],[e,f]] -> [[a,b,c],[d],[e,f]]: same brackets and commas
    # in another order.
    pairs = doc["k"][-1][-1]
    bad = "[[%d,%d,%d],[%d],[%d,%d]]" % (*pairs[0], *pairs[1], *pairs[2])
    path = tmp_path / "doc.json"
    path.write_text(text.replace(row, bad))
    bulk, reference, _ = _chunked_routes(monkeypatch, path)
    assert isinstance(reference, str) and bulk == reference


@pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 10 ** 20, 2 ** 53 + 1,
                                   -2 ** 63])
def test_int64_overflow_in_a_later_chunk_only_matches_reference_route(
        tmp_path, monkeypatch, value):
    doc = _chunk_doc()
    doc["k"][-2][1][0][1] = value
    doc["v"][-3][0] = value
    path = tmp_path / "doc.json"
    path.write_text(serialize.canonical_dumps(doc))
    bulk, reference, chunks = _chunked_routes(monkeypatch, path)
    assert isinstance(bulk, list) and bulk == reference
    assert chunks >= 6 + 4
    tree = serialize.load_document(str(path))
    assert isinstance(tree["v"], np.ndarray) and isinstance(tree["k"][0], np.ndarray)


@pytest.mark.parametrize("old, new", [
    # An element nested one level deeper holds an outer boundary inside it.
    ("]]],[[[", "]]],[[[["),
    ("]]],[[[", "]]]],[[["),
    # A row boundary inside a matrix spelled as an outer boundary.
    ("]],[[", "]]],[[["),
    ("]]],[[[", "]],[["),
])
@pytest.mark.parametrize("at", [0, 1, 3, -1])
def test_boundaries_at_the_wrong_depth_match_reference_route(
        tmp_path, monkeypatch, old, new, at):
    doc = _chunk_doc()
    k = serialize.canonical_dumps({"k": doc["k"]})[5:-2]
    places = [m.start() for m in re.finditer(re.escape(old), k)]
    place = places[at]
    # The malformed run, with one bracket more or fewer at the other end
    # where that keeps its brackets balanced.
    k = k[:place] + new + k[place + len(old):]
    k = k[:-1] if k.count("[") < k.count("]") else k
    k = k + "]" * (k.count("[") - k.count("]"))
    path = tmp_path / "doc.json"
    path.write_text('{"m": %s, "v": [[1,0]], "k": %s}'
                    % (json.dumps(doc["m"]), k))
    bulk, reference, _ = _chunked_routes(monkeypatch, path)
    assert bulk == reference


@pytest.mark.parametrize("doc", [
    {"m": [[[1, 0]] * 40], "v": [[1, 0]], "k": [[[[2, 5]] * 30] * 4]},
    {"m": [[[1, 0.5]]], "v": [[-3, 0]], "k": [[[[2, 5]]]]},
], ids=["long", "single"])
def test_one_element_outer_runs_match_reference_route(tmp_path, monkeypatch, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    bulk, reference, chunks = _chunked_routes(monkeypatch, path)
    assert isinstance(bulk, list) and bulk == reference
    assert chunks == 3  # one chunk per run, however long its element


def test_load_document_peak_is_text_output_and_a_few_chunks(tmp_path):
    # The reader holds the bytes, the arrays and one chunk's work at a
    # time; a copy of the whole run or of the text would exceed this.
    rng = np.random.default_rng(154)
    kraus = (rng.integers(-4, 5, size=(8, 256, 256))
             + 1j * rng.integers(-4, 5, size=(8, 256, 256))) / 8
    path = tmp_path / "k.json"
    path.write_text(serialize.canonical_dumps({"kraus": kraus}))
    tracemalloc.start()
    try:
        doc = serialize.load_document(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.stack(doc["kraus"]).view(complex)[..., 0], kraus)
    assert peak <= kraus.nbytes + path.stat().st_size + 4 * serialize._CHUNK


def test_load_document_peak_for_matrices_longer_than_a_chunk(tmp_path):
    # Phased nine-qubit Paulis, as in an error list of the Shor code: each
    # matrix's text is longer than a chunk, so a chunk holds one matrix.
    rng = np.random.default_rng(155)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    ops = []
    for _ in range(4):
        op = np.array([[1j ** rng.integers(4)]])
        for which in rng.integers(0, 4, size=9):
            op = np.kron(op, paulis[which])
        ops.append(op)
    kraus = np.stack(ops)
    path = tmp_path / "k.json"
    path.write_text(serialize.canonical_dumps({"kraus": kraus}))
    assert path.stat().st_size > 4 * serialize._CHUNK
    tracemalloc.start()
    try:
        doc = serialize.load_document(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One-digit integers, held as int8 and converted by the reader.
    assert all(k.dtype == np.int8 for k in doc["kraus"])
    ops, _ = serialize.error_list_from_doc(doc)
    assert np.array_equal(np.stack(ops), kraus)
    assert peak <= kraus.nbytes + path.stat().st_size + 8 * 2 ** 20


@pytest.mark.parametrize("bad, at, lists", [
    # An integer -0 beside a decimal leaves the fixed layout, and the scan
    # of decimals refuses it.
    ("[-0,0.5]", 0, [0]), ("[-0,0.5]", 3, [3]), ("[0,1,2]", 3, [3]), ("[0]", 5, [5]),
    # A byte no number has does not end the run; in the first matrix it
    # leaves the layout to the next one.
    ("[0,true]", 3, [3]), ("[0,true]", 5, [5]), ("[0,true]", 0, [0]),
])
def test_bad_element_of_a_run_of_matrices_alone_leaves_the_bulk_route(
        tmp_path, monkeypatch, bad, at, lists):
    # One matrix of "k" per chunk: the others still land as arrays, and
    # the walk of the bad one names the entry the plain tree names.
    doc = _chunk_doc()
    doc["k"][at][-1][-1] = [777, 777]
    path = tmp_path / "doc.json"
    path.write_text(serialize.canonical_dumps(doc).replace("[777,777]", bad))
    bulk, reference, _ = _chunked_routes(monkeypatch, path)
    assert bulk == reference
    k = serialize.load_document(str(path))["k"]
    assert [type(m) for m in k] == [list if i in lists else np.ndarray
                                    for i in range(6)]


@pytest.mark.parametrize("at", [0, 3])
def test_an_integer_minus_zero_keeps_its_matrix_on_the_bulk_route(tmp_path, monkeypatch,
                                                                  at):
    # One matrix of "k" per chunk, as above: the matrix with [0,-0] lands as
    # an array like the others, and its -0 is +0.0, as json.loads reads it.
    doc = _chunk_doc()
    doc["k"][at][-1][-1] = [777, 777]
    path = tmp_path / "doc.json"
    path.write_text(serialize.canonical_dumps(doc).replace("[777,777]", "[0,-0]"))
    bulk, reference, _ = _chunked_routes(monkeypatch, path)
    assert bulk == reference
    k = serialize.load_document(str(path))["k"]
    assert all(isinstance(m, np.ndarray) for m in k)
    want = _reference_matrix(_reference_load(str(path))["k"][at], "k")
    got = serialize.matrix_from_doc(k[at], "k")
    assert got.tobytes() == want.tobytes() and got[-1, -1] == 0
    assert not np.signbit(got[-1, -1].imag)


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("string", ["]]],[[[", "]]]]", "[[[[0,0]]]]", "NaN", "]],[[",
                                    "[[0,0]]", "[1,0]"])
@pytest.mark.parametrize("place", ["value before", "key before", "element",
                                   "value after", "key after"])
@pytest.mark.parametrize("chunk", [16, 1 << 20])
def test_strings_that_spell_run_text_match_reference_route(tmp_path, monkeypatch,
                                                           string, place, chunk):
    # A run ends at its own bracket, not at the first byte that no number
    # has, so a string next to or inside a run is read as text around it.
    doc = _chunk_doc()
    k = [_compact(m) for m in doc["k"]]
    if place == "element":
        k.insert(3, json.dumps(string))
    body = '"k":[%s],"m":%s,"v":%s' % (",".join(k), _compact(doc["m"]),
                                        _compact(doc["v"]))
    s = json.dumps(string)
    text = {"value before": '{"a":%s,%s}' % (s, body),
            "key before": "{%s:0,%s}" % (s, body), "element": "{%s}" % body,
            "value after": '{%s,"z":%s}' % (body, s),
            "key after": "{%s,%s:1}" % (body, s)}[place]
    path = tmp_path / "doc.json"
    path.write_text(text)
    bulk, reference, _ = _chunked_routes(monkeypatch, path, chunk=chunk)
    assert bulk == reference


def test_arrays_that_hold_no_run_are_attempted_once(tmp_path, monkeypatch):
    # About 10^5 '[' that begin no dense run: an array that is refused is
    # passed over whole, not attempted again at each '[' inside it.
    doc = {"ragged": [[1, 2, 3], [4]] * 20000, "strings": [["a", "b"], ["c"]] * 20000,
           "rows": [[[1, 0]], [[1, 0], [2, 0]]] * 5000,
           "m": [[[1, 0]]], "v": [[1, 0]], "k": []}
    path = tmp_path / "doc.json"
    path.write_text(_compact(doc))
    assert path.read_text().count("[") > 10 ** 5
    dense_array, starts = serialize._dense_array, []

    def counted(data, start):
        starts.append(start)
        return dense_array(data, start)

    monkeypatch.setattr(serialize, "_dense_array", counted)
    bulk, reference = _both_routes(str(path))
    assert isinstance(bulk, list) and bulk == reference
    assert len(starts) <= len(doc)  # at most one per outermost array


@pytest.mark.parametrize("data", [
    b'{\r\n "m": [[[1,0],\r\n [2,3]]],\r\n "v": [[1, 0]],\r\n "k": []\r\n}\r\n',
    b'{\r\n "m": [[[1,0]]],\r\n "v": [[1, 0]] x,\r\n "k": []}',
    b'{\r "m": [[[1,0],\r [2,3]]],\r "v": [[1, 0]],\r "k": []\r}',
    b'{\r "m": [[[1,0]]],\r\r "v": [[1, 0]],\n\r "k": [] ,}',
    b'{"s": "a\rb", "m": [[[1,0]]], "v": [[1, 0]], "k": []}',
    b'\xef\xbb\xbf{"m": [[[1,0]]], "v": [[1, 0]], "k": []}',
    b'{"s": "\xc3\xa9t\xc3\xa9",\r\n "m": [[[1,0]]], "v": [[1, 0]], "k": [] ]',
    b'{"s": "\xff", "m": [[[1,0]]], "v": [[1, 0]], "k": []}',
    b'{"m": [[[1,0]]], "v": [[1, 0]], "k": [], "s": "\xe2\x82',
    b'{"m": [[[1,0]]], "v": [[1, \xc3\x28]], "k": []} x',
], ids=["crlf", "crlf-error", "cr", "cr-error", "cr-in-string", "bom",
        "utf8-crlf-error", "invalid-utf8", "truncated-utf8", "invalid-in-run"])
def test_byte_reads_match_reference_route(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    bulk, reference = _both_routes(str(path))
    assert bulk == reference
    if isinstance(reference, str) and b"\r" in data and b" x," in data:
        assert reference.startswith(f"{path}:3:")


def test_probs_are_checked_before_any_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was read")

    monkeypatch.setattr(serialize, "matrix_from_doc", no_matrix)
    doc = {"kraus": [np.zeros((2, 2, 2))] * 3, "probs": [1.0]}
    with pytest.raises(FormatError, match="^errors: probs length mismatch$"):
        serialize.error_list_from_doc(doc)
    doc["probs"] = [1.0, "x", 1.0]
    with pytest.raises(FormatError, match="probs must be an array of numbers"):
        serialize.error_list_from_doc(doc)


def test_non_ascii_text_keeps_the_bulk_route(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"s": "\u00e9t\u00e9 [1] \u2192", "m": [[[1,0],[0.5,-2]]],'
                    ' "v": [[1, 0]], "k": [], "t": "\u00fc"}', encoding="utf-8")
    bulk, reference = _both_routes(str(path))
    assert bulk == reference
    tree = serialize.load_document(str(path))
    assert isinstance(tree["m"], np.ndarray) and tree["t"] == "\u00fc"
    assert tree["s"] == "\u00e9t\u00e9 [1] \u2192"


def test_syntax_error_after_large_array_keeps_its_location(tmp_path):
    m = np.arange(2 * 40 * 40, dtype=float).reshape(40, 40, 2) / 7
    text = json.dumps({"m": m.tolist(), "v": [[1, 0]], "k": []}, indent=1)
    path = tmp_path / "doc.json"
    path.write_text(text[:-1] + "\n  ,x}")
    bulk, reference = _both_routes(str(path))
    assert bulk == reference
    assert reference.startswith(f"{path}:{text.count(chr(10)) + 2}:")


def test_bulk_arrays_keep_the_sign_of_zero(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"m": [[[-0.0, 0], [0.0, -0e3]]], "v": [[-0.0, 1]], "k": []}')
    bulk, reference = _both_routes(str(path))
    assert bulk == reference
    doc = serialize.load_document(str(path))
    assert np.signbit(doc["m"]).tolist() == [[[True, False], [False, True]]]


# --- canonical documents take the bulk route ------------------------------------

def _error_list(doc):
    """Every matrix of an error list, each converted as it is indexed."""
    ops, _ = serialize.error_list_from_doc(doc)
    return [ops[i] for i in range(len(ops))]


def _canonical_documents():
    """(document, its reader, the dtype of its bulk arrays): int8 for one-
    digit integers, float64 for any other numbers."""
    rng = np.random.default_rng(150)
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    return [
        (serialize.state_to_doc(random_state((2, 3), rng)), serialize.state_from_doc,
         np.float64),
        (serialize.state_to_doc(random_pure((2, 2), rng)), serialize.state_from_doc,
         np.float64),
        (serialize.channel_to_doc(random_channel(2, 3, 2, rng), [0.5, 0.5]),
         serialize.channel_from_doc, np.float64),
        ({"kind": "channel", "din": 8, "dout": 8,
          "kraus": [1j * qec.pauli_on(3, 1, "Y"), -qec.pauli_on(3, 2, "Z")]},
         _error_list, np.int8),
        # Exponents, with leading zeros and signs, and subnormals.
        ({"kraus": [np.array([[1e-05 - 3e-07j, 1e300], [5e-324, -2.5e-320j]]),
                    np.array([[0.5, -1e-100], [1e17, -0.0]], dtype=complex)]},
         _error_list, np.float64),
        (serialize.code_to_doc(qec.Code(8, 2, w)), serialize.code_from_doc, np.int8),
        ({"dim": 2, "basis": [np.eye(2, dtype=complex), qec.pauli_on(1, 0, "X")]},
         serialize.system_from_doc, np.int8),
    ]


@pytest.mark.parametrize("layout", ["canonical", "spaced", "indent"])
def test_canonical_documents_never_enter_the_diagnostic_route(tmp_path, monkeypatch,
                                                              layout):
    def walk(*args):
        raise AssertionError("the per-entry walk ran")

    def whole_text(*args):
        raise AssertionError("the whole text went to json.loads")

    monkeypatch.setattr(serialize, "_pair_to_complex", walk)
    monkeypatch.setattr(serialize, "_json_loads", whole_text)
    for i, (doc, reader, dtype) in enumerate(_canonical_documents()):
        text = serialize.canonical_dumps(doc)
        if layout == "spaced":
            text = json.dumps(json.loads(text))
        elif layout == "indent":
            text = json.dumps(json.loads(text), indent=2)
        path = tmp_path / f"doc{i}.json"
        path.write_text(text)
        tree = serialize.load_document(str(path))
        leaves = [v for v in tree.values() if isinstance(v, np.ndarray)]
        leaves += [x for v in tree.values() if isinstance(v, list)
                   for x in v if isinstance(x, np.ndarray)]
        assert leaves and all(a.dtype == dtype for a in leaves)
        reader(tree)


@pytest.mark.parametrize("reader, field, text", [
    (serialize.error_list_from_doc, "kraus",
     '{"kraus": [[[1,0],[0,0]],[[0,0],[1,0]]]}'),
    (serialize.error_list_from_doc, "kraus",
     '{"kraus": [[1,0],[0,1]], "probs": [1, 1]}'),
    (serialize.channel_from_doc, "kraus",
     '{"din": 1, "dout": 1, "kraus": [[[[[1,0]]]]]}'),
    (serialize.state_from_doc, "rho",
     '{"dims": [2], "rho": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}'),
    (serialize.state_from_doc, "rho", '{"dims": [2], "rho": [[1,0],[0,0]]}'),
    (serialize.state_from_doc, "vec", '{"dims": [2], "vec": [[[1,0],[0,0]]]}'),
    (serialize.state_from_doc, "dims", '{"dims": [[2,2]], "vec": [[1,0],[0,0]]}'),
], ids=["kraus-one-matrix", "kraus-vector", "kraus-5d", "rho-4d", "rho-vector",
        "vec-matrix", "dims-pair"])
def test_wrong_shapes_for_the_readers_match_reference_route(tmp_path, reader, field,
                                                            text):
    # The field is a dense array of the wrong depth, which the bulk tree
    # holds as an array (or as the list of arrays a run of four or more
    # axes is split into); the reader's error is the plain tree's.
    path = tmp_path / "doc.json"
    path.write_text(text)
    tree = serialize.load_document(str(path))
    value = tree[field]
    while isinstance(value, list):
        value = value[0]
    assert isinstance(value, np.ndarray)
    with pytest.raises(FormatError) as reference:
        reader(_reference_load(str(path)))
    with pytest.raises(FormatError) as bulk:
        reader(tree)
    assert str(bulk.value) == str(reference.value)


def test_bulk_tree_keeps_lists_above_matrices(tmp_path):
    for scale, dtype in ((0.5, np.float64), (1, np.int8)):
        doc = {"kind": "channel", "din": 2, "dout": 2,
               "kraus": [scale * np.eye(2, dtype=complex)] * 2, "probs": [0.5, 0.5]}
        path = tmp_path / f"c{scale}.json"
        path.write_text(serialize.canonical_dumps(doc))
        tree = serialize.load_document(str(path))
        assert type(tree["kraus"]) is list and type(tree["probs"]) is list
        assert [(k.shape, k.dtype) for k in tree["kraus"]] == [((2, 2, 2), dtype)] * 2
        ops, probs = serialize.error_list_from_doc(tree)
        assert probs == [0.5, 0.5]
        want = [_reference_matrix(k, "k") for k in _reference_load(str(path))["kraus"]]
        for op, k, w in zip(ops, tree["kraus"], want):
            assert op.dtype == complex and op.tobytes() == w.tobytes()
            # Decimals: a complex view of the parsed numbers, not a copy.
            # One-digit integers: a fresh complex array.
            assert np.shares_memory(op, k) is (dtype == np.float64)


@pytest.mark.parametrize("read, value", [
    (serialize.matrix_from_doc, np.zeros((2, 2))),
    (serialize.matrix_from_doc, np.zeros((2, 2, 3))),
    (serialize.matrix_from_doc, np.zeros((1, 2, 2, 2))),
    (serialize.matrix_from_doc, np.eye(2, dtype=complex)),
    (serialize.vector_from_doc, np.zeros((2, 2, 2))),
    (serialize.vector_from_doc, np.zeros(2)),
])
def test_arrays_of_other_shapes_raise_format_error(read, value):
    with pytest.raises(FormatError):
        read(value, "where")


def test_canonical_rewrite_of_a_bulk_tree_is_byte_identical(tmp_path):
    rng = np.random.default_rng(151)
    ch = random_channel(3, 2, 2, rng)
    text = serialize.canonical_dumps(serialize.channel_to_doc(ch))
    path = tmp_path / "c.json"
    path.write_text(text)
    assert serialize.canonical_dumps(serialize.load_document(str(path))) == text
    back = serialize.channel_from_doc(serialize.load_document(str(path)))
    assert serialize.canonical_dumps(serialize.channel_to_doc(back)) == text
    assert np.array_equal(back.kraus, ch.kraus)


def test_bulk_reader_gives_the_reference_arrays_for_a_pauli_list(tmp_path):
    ops = [np.eye(8), 1j * qec.pauli_on(3, 0, "X"), -qec.pauli_on(3, 2, "Y")]
    path = tmp_path / "e.json"
    path.write_text(serialize.canonical_dumps(
        serialize.channel_to_doc(Channel(8, 8, ops))))
    got, _ = serialize.error_list_from_doc(serialize.load_document(str(path)))
    want = [_reference_matrix(k, "k") for k in _reference_load(str(path))["kraus"]]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# --- the mapped read ----------------------------------------------------------

def _mapped_text(indent=None):
    """A test document of at least one chunk, which load_document maps: a
    run of decimal matrices, a matrix of one-digit integers and a vector,
    with a non-ASCII string before them."""
    rng = np.random.default_rng(156)
    doc = {"s": "été", "k": (rng.standard_normal((12, 48, 48, 2)) / 7).tolist(),
           "m": rng.integers(-9, 10, size=(32, 32, 2)).tolist(),
           "v": rng.standard_normal((100, 2)).tolist()}
    text = json.dumps(doc, indent=indent)
    assert len(text.encode()) >= serialize._CHUNK
    return text


def _mapped_reads(monkeypatch, then=None) -> list:
    """A list of the lengths of the mappings that serialize makes from now
    on, or of what ``then()`` returns once each is made."""
    seen = []

    def spy(*args, **kwargs):
        data = mmap.mmap(*args, **kwargs)
        seen.append(len(data) if then is None else then())
        return data

    monkeypatch.setattr(serialize, "mmap",
                        SimpleNamespace(mmap=spy, ACCESS_READ=mmap.ACCESS_READ))
    return seen


def test_a_mapped_document_matches_reference_route_and_aliases_no_mapping(
        tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(_mapped_text(), encoding="utf-8")
    seen = _mapped_reads(monkeypatch)
    bulk, reference = _both_routes(str(path))
    assert seen == [path.stat().st_size] and isinstance(bulk, list) and bulk == reference
    tree = serialize.load_document(str(path))
    assert isinstance(tree["m"], np.ndarray) and isinstance(tree["k"][0], np.ndarray)
    want = json.dumps(_floats(tree))
    # Every array was copied out of the text: overwriting the file, then
    # truncating it, leaves them as they were read.
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.write(b"7" * size)
    assert json.dumps(_floats(tree)) == want
    with open(path, "r+b") as fh:
        fh.truncate(0)
    assert json.dumps(_floats(tree)) == want


def test_only_documents_of_at_least_one_chunk_are_mapped(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_chunk_doc()))
    size = path.stat().st_size
    seen = _mapped_reads(monkeypatch)
    want = json.dumps(_floats(serialize.load_document(str(path))))
    for chunk in (size + 1, size, 1):
        monkeypatch.setattr(serialize, "_CHUNK", chunk)
        assert json.dumps(_floats(serialize.load_document(str(path)))) == want
    assert seen == [size, size]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
@pytest.mark.parametrize("tail", ["", " x", "\xff"], ids=["valid", "syntax", "utf8"])
def test_the_mapping_is_closed_when_load_document_returns(tmp_path, monkeypatch, tail):
    # Whether it returns a tree or raises.
    path = tmp_path / "doc.json"
    path.write_bytes(_mapped_text().encode() + tail.encode("latin-1"))
    name = os.path.realpath(path)

    def mapped_now():
        return name in Path("/proc/self/maps").read_text()

    during = _mapped_reads(monkeypatch, mapped_now)
    try:
        serialize.load_document(str(path))
    except FormatError:
        assert tail
    assert during == [True] and not mapped_now()


@pytest.mark.parametrize("chunk", [0, 1])
@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_files_that_cannot_be_mapped_fail_as_the_read_path(tmp_path, monkeypatch, kind,
                                                           chunk):
    # An empty file cannot be mapped, even at a chunk of 0 bytes, and a
    # directory cannot be opened: both are read, and refused, as before.
    path = tmp_path / "doc.json"
    if kind == "empty":
        path.write_bytes(b"")
    else:
        path.mkdir()
    read = _outcome(lambda: [serialize.load_document(str(path))])
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    seen = _mapped_reads(monkeypatch)
    bulk, reference = _both_routes(str(path))
    assert seen == [] and bulk == read == reference
    want = f"{path}:1:1: Expecting value" if kind == "empty" else "Is a directory"
    assert want in bulk


@pytest.mark.parametrize("at", [0.5, -3])
def test_a_mapped_file_that_is_not_utf8_fails_as_the_read_path(tmp_path, monkeypatch, at):
    # 0xFF over a digit: the message names the byte's place in the file.
    data = bytearray(_mapped_text().encode())
    place = [m.start() for m in re.finditer(rb"[0-9]", data)][int(at * len(data)) if at > 0
                                                             else at]
    data[place] = 0xFF
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(FormatError) as read:
        serialize.read_bytes(str(path))
    seen = _mapped_reads(monkeypatch)
    with pytest.raises(FormatError) as mapped:
        serialize.load_document(str(path))
    assert seen == [len(data)] and str(mapped.value) == str(read.value)
    assert str(read.value).startswith(
        f"{path}: 'utf-8' codec can't decode byte 0xff in position {place}:")


@pytest.mark.parametrize("edit", ["nan", "syntax", "syntax-indent"])
def test_a_mapped_document_read_whole_by_json_loads_keeps_its_diagnostics(
        tmp_path, monkeypatch, edit):
    # NaN in the text, or a syntax error at its end, sends the whole text to
    # json.loads, which reads a copy of the mapping: the UTF-8 decode of its
    # non-ASCII string has released every page, so the copy reads them again.
    text = _mapped_text(indent=1 if edit == "syntax-indent" else None)
    if edit == "nan":
        text = text.replace('"v": [[', '"v": [[NaN, 0], [', 1)
    else:
        text = text[:-1] + "\n ,x}"
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    seen = _mapped_reads(monkeypatch)
    bulk, reference = _both_routes(str(path))
    assert len(seen) == 1 and bulk == reference
    if edit == "nan":
        assert reference == "doc.v[0]: real out of range"
    else:
        assert reference.startswith(f"{path}:{text.count(chr(10)) + 1}:3: ")


# --- the released mapping -----------------------------------------------------

_RELEASE_CHUNK = 1 << 16
# Resident bytes allowed of a mapping: the chunk read and the text searched
# for the next one, and at each end of that span the pages the kernel maps
# at a fault, which for a file cached in large folios is up to 2 MiB.
_RESIDENT = 2 * _RELEASE_CHUNK + (4 << 20)


def _released_text(kind, mib=8):
    """A compact test document of over ``mib`` MiB whose matrices are of
    decimals or of one-digit integers, each well under ``_RELEASE_CHUNK``
    bytes: a run of matrices; for "runs", an array of objects that each
    hold a run of ten matrices under one chunk; for "non-ASCII", a run of
    matrices and then a non-ASCII string."""
    rng = np.random.default_rng(157)
    if kind == "decimal":
        k = (rng.standard_normal((100, 8, 8, 2)) / 7).tolist()
    else:
        k = rng.integers(-9, 10, size=(100, 16, 16, 2)).tolist()
    if kind == "runs":
        block = ",".join('{"a":%s}' % _compact(k[i:i + 10]) for i in range(0, len(k), 10))
    else:
        block = _compact(k)[1:-1]
    text = '{"m":%s,"v":%s,"k":[%s]%s}' % (
        _compact(k[0]), _compact(k[0][0]), ",".join([block] * (1 + (mib << 20) // len(block))),
        ',"s":"été"' if kind == "non-ASCII" else "")
    assert len(text) >= mib << 20
    return text


def _resident(name) -> int:
    """Resident bytes of this process's mappings of the file ``name``: its
    pages present in the page table, as the Rss of /proc/self/smaps counts
    them, read from /proc/self/pagemap (bit 63 of each page's entry), which
    walks only these mappings."""
    page, total = mmap.PAGESIZE, 0
    with open("/proc/self/pagemap", "rb") as pagemap:
        for line in Path("/proc/self/maps").read_text().splitlines():
            fields = line.split(None, 5)
            if len(fields) == 6 and fields[5] == name:
                low, high = (int(x, 16) for x in fields[0].split("-"))
                pagemap.seek(low // page * 8)
                entries = np.frombuffer(pagemap.read((high - low) // page * 8), np.uint64)
                total += int((entries >> np.uint64(63)).sum()) * page
    return total


def _resident_reads(monkeypatch, path, every_chunk=True) -> list:
    """Resident bytes of the mapping of ``path`` right after the UTF-8
    check, at each chunk the bulk route scans (when ``every_chunk``) and
    once the text is parsed, for one load_document with
    ``_RELEASE_CHUNK`` bytes per chunk."""
    name, seen = os.path.realpath(path), []
    mapped, scan, parse = serialize._mapped, serialize._scan_chunk, serialize._bulk_loads

    def after(read):
        def reading(*args):
            out = read(*args)
            seen.append(_resident(name))
            return out
        return reading

    def scanned(*args):
        seen.append(_resident(name))
        return scan(*args)

    monkeypatch.setattr(serialize, "_CHUNK", _RELEASE_CHUNK)
    monkeypatch.setattr(serialize, "_mapped", after(mapped))
    monkeypatch.setattr(serialize, "_bulk_loads", after(parse))
    if every_chunk:
        monkeypatch.setattr(serialize, "_scan_chunk", scanned)
    serialize.load_document(str(path))
    return seen


@pytest.mark.skipif(not Path("/proc/self/pagemap").exists() or serialize._DONTNEED is None,
                    reason="needs /proc/self/pagemap and madvise")
@pytest.mark.parametrize("kind", ["one-digit", "decimal", "runs", "non-ASCII"])
def test_a_mapped_document_is_resident_about_one_chunk_at_a_time(tmp_path, monkeypatch,
                                                                 kind):
    """Right after the UTF-8 check (which decodes the whole non-ASCII
    text), at each chunk the bulk route scans and once the text is parsed,
    no more than two chunks and the pages mapped at a fault are resident,
    in a document of 128 chunks; without the release the whole text is
    resident once it is parsed."""
    path = tmp_path / "doc.json"
    path.write_text(_released_text(kind), encoding="utf-8")
    seen = _resident_reads(monkeypatch, path)
    assert len(seen) > 128 and max(seen) <= _RESIDENT
    monkeypatch.undo()
    monkeypatch.setattr(serialize, "_release", lambda *args: None)
    assert _resident_reads(monkeypatch, path, every_chunk=False)[-1] > 6 << 20


@pytest.mark.parametrize("kind", ["one-digit", "decimal"])
def test_releasing_the_mapping_leaves_the_tree_as_it_was(tmp_path, monkeypatch, kind):
    path = tmp_path / "doc.json"
    path.write_text(_released_text(kind, mib=1))
    monkeypatch.setattr(serialize, "_CHUNK", _RELEASE_CHUNK)
    read = _reader(serialize.matrix_from_doc, serialize.vector_from_doc)
    released = _outcome(lambda: read(serialize.load_document(str(path))))
    monkeypatch.setattr(serialize, "_release", lambda *args: None)
    assert isinstance(released, list)
    assert _outcome(lambda: read(serialize.load_document(str(path)))) == released


def test_a_bad_byte_in_a_middle_window_fails_as_the_read_path(tmp_path, monkeypatch):
    """0xFF over a digit in the middle of the text, with windows before it
    checked and released: the message names the byte's place in the file."""
    data = bytearray(_released_text("one-digit").encode())
    place = data.index(b"1", len(data) // 2)
    data[place] = 0xFF
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(FormatError) as read:
        serialize.read_bytes(str(path))
    monkeypatch.setattr(serialize, "_CHUNK", _RELEASE_CHUNK)
    seen = _mapped_reads(monkeypatch)
    with pytest.raises(FormatError) as mapped:
        serialize.load_document(str(path))
    assert seen == [len(data)] and str(mapped.value) == str(read.value)
    assert str(read.value).startswith(
        f"{path}: 'utf-8' codec can't decode byte 0xff in position {place}:")


def test_non_ascii_text_in_the_last_window_reads_as_the_read_path(tmp_path, monkeypatch):
    """Every window but the last is ASCII and released before the last one
    sends the whole text to the UTF-8 decoder."""
    text = _released_text("one-digit", mib=1)
    path = tmp_path / "doc.json"
    path.write_text(text[:-1] + ',"s":"été"}', encoding="utf-8")
    read = _reader(serialize.matrix_from_doc, serialize.vector_from_doc)
    monkeypatch.setattr(serialize, "_CHUNK", path.stat().st_size + 1)  # read whole
    whole = _outcome(lambda: read(serialize.load_document(str(path))))
    monkeypatch.setattr(serialize, "_CHUNK", _RELEASE_CHUNK)
    seen = _mapped_reads(monkeypatch)
    tree = serialize.load_document(str(path))
    assert seen == [path.stat().st_size] and tree["s"] == "été"
    assert isinstance(whole, list) and _outcome(lambda: read(tree)) == whole


@pytest.mark.parametrize("edit", ["last run", "nan", "syntax"])
def test_released_text_read_again_keeps_its_diagnostics(tmp_path, monkeypatch, edit):
    """A refused last run (a vector with [0,true] as its last pair) is
    searched again for string literals and copied as text, and NaN in the
    text or a syntax error at its end sends the whole text to json.loads:
    each reads pages released before it, with the outcome of the read
    path."""
    rng = np.random.default_rng(158)
    vector = _compact((rng.standard_normal((20000, 2)) / 7).tolist())
    text = _released_text("decimal", mib=1)[:-1] + ',"w":%s}' % vector
    last = text.rindex("[")
    if edit == "syntax":
        text = text[:-1] + "\n ,x}"
    else:
        pair = "[0,true]" if edit == "last run" else "[NaN,0]"
        text = text[:last] + pair + text[text.index("]", last) + 1:]
    path = tmp_path / "doc.json"
    path.write_text(text)

    def outcome():
        try:
            return json.dumps(_floats(serialize.load_document(str(path))))
        except FormatError as exc:
            return str(exc)

    monkeypatch.setattr(serialize, "_CHUNK", len(text) + 1)  # read whole
    whole = outcome()
    monkeypatch.setattr(serialize, "_CHUNK", _RELEASE_CHUNK)
    seen = _mapped_reads(monkeypatch)
    assert outcome() == whole and seen == [len(text)]
    assert whole.startswith("{") == (edit != "syntax")
