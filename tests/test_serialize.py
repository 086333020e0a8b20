"""The document reader of ``serialize`` against the diagnostic route.

``load_document`` and the ``*_from_doc`` readers on its tree must give
the same arrays, bit for bit, or the same FormatError text as the
diagnostic route they replaced: ``json.loads`` of the whole text and a
per-entry walk of each matrix. A copy of that route is kept below as the
oracle.
"""

import json
import math
import re
import tracemalloc
from collections.abc import Sized

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
    assert np.array_equal(np.stack(doc["kraus"]).view(complex)[..., 0], kraus)
    assert peak <= kraus.nbytes + path.stat().st_size + 8 * 2 ** 20


@pytest.mark.parametrize("bad, at, lists", [
    ("[0,-0]", 0, [0]), ("[0,-0]", 3, [3]), ("[0,1,2]", 3, [3]), ("[0]", 5, [5]),
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

def _canonical_documents():
    rng = np.random.default_rng(150)
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    return [
        (serialize.state_to_doc(random_state((2, 3), rng)), serialize.state_from_doc),
        (serialize.state_to_doc(random_pure((2, 2), rng)), serialize.state_from_doc),
        (serialize.channel_to_doc(random_channel(2, 3, 2, rng), [0.5, 0.5]),
         serialize.channel_from_doc),
        ({"kind": "channel", "din": 8, "dout": 8,
          "kraus": [1j * qec.pauli_on(3, 1, "Y"), -qec.pauli_on(3, 2, "Z")]},
         serialize.error_list_from_doc),
        # Exponents, with leading zeros and signs, and subnormals.
        ({"kraus": [np.array([[1e-05 - 3e-07j, 1e300], [5e-324, -2.5e-320j]]),
                    np.array([[0.5, -1e-100], [1e17, -0.0]], dtype=complex)]},
         serialize.error_list_from_doc),
        (serialize.code_to_doc(qec.Code(8, 2, w)), serialize.code_from_doc),
        ({"dim": 2, "basis": [np.eye(2, dtype=complex), qec.pauli_on(1, 0, "X")]},
         serialize.system_from_doc),
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
    for i, (doc, reader) in enumerate(_canonical_documents()):
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
        assert leaves and all(a.dtype == np.float64 for a in leaves)
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
    doc = {"kind": "channel", "din": 2, "dout": 2,
           "kraus": [np.eye(2, dtype=complex)] * 2, "probs": [0.5, 0.5]}
    path = tmp_path / "c.json"
    path.write_text(serialize.canonical_dumps(doc))
    tree = serialize.load_document(str(path))
    assert type(tree["kraus"]) is list and type(tree["probs"]) is list
    assert [k.shape for k in tree["kraus"]] == [(2, 2, 2), (2, 2, 2)]
    ops, probs = serialize.error_list_from_doc(tree)
    assert probs == [0.5, 0.5]
    # A complex view of the parsed numbers, not a copy.
    assert all(np.shares_memory(op, k) for op, k in zip(ops, tree["kraus"]))


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
