import builtins
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qinfokit import cli, qec, serialize
from qinfokit.channels import Channel, identity_channel
from qinfokit.errors import FormatError
from qinfokit.randkit import haar_unitary


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(path, doc):
    path.write_text(serialize.canonical_dumps(doc))
    return str(path)


def bell_doc():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return {
        "kind": "state",
        "dims": [2, 2],
        "vec": serialize.vector_to_doc(v),
    }


# --- serialization ---------------------------------------------------------------

def test_canonical_roundtrip_byte_identical():
    doc = {
        "kind": "state",
        "dims": [2],
        "rho": serialize.matrix_to_doc(np.array([[0.25, 0.1j], [-0.1j, 0.75]])),
    }
    text = serialize.canonical_dumps(doc)
    again = serialize.canonical_dumps(json.loads(text))
    assert text == again


def _reference_dumps(doc):
    """The original value-by-value renderer, kept as the oracle."""

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
            return serialize._fmt_float(float(obj))
        if obj is None:
            return "null"
        if isinstance(obj, str):
            return json.dumps(obj)
        raise FormatError(f"cannot serialize {type(obj).__name__}")

    return render(doc) + "\n"


class _Float(float):
    pass


_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e300]),
    st.integers(-2 ** 70, 2 ** 70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-2 ** 31, 2 ** 31).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.just(np.bool_(True)),
    st.just(1j),
)
_PAIRS = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]), min_size=2, max_size=2),
    st.lists(_SCALARS, min_size=1, max_size=3),
)
# Runs of [re, im] pairs, as in matrix rows, with the odd non-pair entry.
_ROWS = st.lists(_PAIRS, min_size=1, max_size=5)
_DOCS = st.recursive(
    st.one_of(_SCALARS, _PAIRS, _ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=30,
)


def _outcome(dumps, doc):
    try:
        return dumps(doc)
    except FormatError as exc:
        return ("FormatError", str(exc))


@settings(max_examples=200, deadline=None)
@given(doc=_DOCS)
def test_canonical_dumps_matches_reference_renderer(doc):
    assert _outcome(serialize.canonical_dumps, doc) == _outcome(_reference_dumps, doc)


def test_canonical_dumps_dense_matrices_match_reference_renderer():
    rng = np.random.default_rng(139)
    for m in (qec.one_paulis(3)[5], rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))):
        doc = {"kind": "channel", "kraus": [serialize.matrix_to_doc(m)], "din": 8}
        assert serialize.canonical_dumps(doc) == _reference_dumps(doc)
        # The array itself is written as the same text.
        assert serialize.canonical_dumps({**doc, "kraus": [m]}) == _reference_dumps(doc)


_ARRAY_REALS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e300, 1e17, 1e-5]),
)


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(0, 3), min_size=1, max_size=3), data=st.data())
def test_canonical_dumps_arrays_match_reference_renderer(shape, data):
    count = 2 * int(np.prod(shape))
    reals = np.array(data.draw(st.lists(_ARRAY_REALS, min_size=count, max_size=count)),
                     dtype=float)
    z = reals.view(complex).reshape(shape)
    pairs = np.stack([z.real, z.imag], -1)  # the bulk reader's form
    listed = {"a": pairs.tolist()}
    want = _outcome(_reference_dumps, listed)
    assert _outcome(serialize.canonical_dumps, {"a": z}) == want
    assert _outcome(serialize.canonical_dumps, {"a": pairs}) == want
    assert _outcome(serialize.canonical_dumps, {"a": z.real}) == _outcome(
        _reference_dumps, {"a": z.real.tolist()})


def test_canonical_dumps_writes_an_int8_array_as_the_float_array_of_its_values():
    # The reader holds a run of one-digit integers as int8 [re, im] pairs.
    pairs = np.array([[[0, -9], [1, 0]], [[-1, 9], [0, 0]]], dtype=np.int8)
    assert (serialize.canonical_dumps({"a": pairs})
            == serialize.canonical_dumps({"a": pairs.astype(float)})
            == _reference_dumps({"a": pairs.tolist()}))


def test_canonical_dumps_rejects_other_arrays():
    for a in (np.arange(3), np.array(1.5 + 0j), np.array([True])):
        with pytest.raises(FormatError, match="cannot serialize ndarray"):
            serialize.canonical_dumps({"a": a})


def test_state_doc_roundtrip(tmp_path):
    rng = np.random.default_rng(140)
    from qinfokit.randkit import random_state

    rho = random_state((2, 3), rng)
    doc = serialize.state_to_doc(rho)
    path = write_doc(tmp_path / "s.json", doc)
    back = serialize.state_from_doc(serialize.load_document(path))
    assert back.dims == rho.dims
    assert np.linalg.norm(back.rho - rho.rho) <= 1e-15


def test_channel_doc_roundtrip(tmp_path):
    from qinfokit.randkit import random_channel

    ch = random_channel(2, 2, 2, np.random.default_rng(141))
    path = write_doc(tmp_path / "c.json", serialize.channel_to_doc(ch))
    back = serialize.channel_from_doc(serialize.load_document(path))
    assert back.din == 2 and back.dout == 2
    assert all(
        np.linalg.norm(a - b) <= 1e-15 for a, b in zip(back.kraus, ch.kraus)
    )


_EDGE_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e300, -1e300]),
)


def _as_walked(rows):
    # Tuple pairs are accepted only by the per-entry walk, so parsing this
    # copy runs the reference path on the same numbers.
    return [[tuple(z) for z in row] for row in rows]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_dense_parse_roundtrip_exact(tmp_path, shape, data):
    reals = data.draw(st.lists(_EDGE_REALS, min_size=2 * shape[0] * shape[1],
                               max_size=2 * shape[0] * shape[1]))
    m = np.array(reals).view(complex).reshape(shape)
    doc = {"m": serialize.matrix_to_doc(m), "v": serialize.vector_to_doc(m[0])}
    text = serialize.canonical_dumps(doc)
    path = tmp_path / "m.json"
    path.write_text(text)
    back = serialize.load_document(str(path))
    mat = serialize.matrix_from_doc(back["m"], "m")
    vec = serialize.vector_from_doc(back["v"], "v")
    assert np.array_equal(mat, m) and np.array_equal(vec, m[0])
    again = {"m": serialize.matrix_to_doc(mat), "v": serialize.vector_to_doc(vec)}
    assert serialize.canonical_dumps(again) == text
    # The bulk path agrees bit for bit with the walk, signed zeros included.
    walked = serialize.matrix_from_doc(_as_walked(doc["m"]), "m")
    assert serialize.matrix_from_doc(doc["m"], "m").tobytes() == walked.tobytes()
    walked_vec = serialize.vector_from_doc(_as_walked([doc["v"]])[0], "v")
    assert serialize.vector_from_doc(doc["v"], "v").tobytes() == walked_vec.tobytes()


def test_graph_edge_list_parsing():
    g = serialize.graph_from_edge_list("0 1\n1 2\n# comment\n\n2 0\n")
    assert g.vertices == 3
    assert len(g.edges) == 3


# --- subcommands --------------------------------------------------------------------

def test_schmidt_command(tmp_path, capsys):
    path = write_doc(tmp_path / "bell.json", bell_doc())
    code, out, _ = run_cli(capsys, "--json", "schmidt", path, "--cut", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2
    assert rep["entanglement_entropy_bits"] == pytest.approx(1.0, abs=1e-9)


def test_channel_analyze_command(tmp_path, capsys):
    ch = Channel(2, 2, (np.eye(2, dtype=complex),))
    path = write_doc(tmp_path / "id.json", serialize.channel_to_doc(ch))
    code, out, _ = run_cli(capsys, "--json", "channel", "analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["is_cp"] and rep["is_tp"] and rep["is_unital"]
    assert rep["choi_rank"] == 1


def test_channel_analyze_above_choi_cap(tmp_path, capsys):
    # din * dout = 10^4 > CHOI_CAP: the report never builds the Choi matrix.
    path = write_doc(tmp_path / "id100.json",
                     serialize.channel_to_doc(identity_channel(100)))
    code, out, err = run_cli(capsys, "--json", "channel", "analyze", path)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["choi_rank"] == 1 and rep["is_cp"] is True


def test_werner_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "werner", "--d", "3", "--f", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["schmidt_number"] == 2
    assert rep["maxent_overlap"] == pytest.approx(0.5, abs=1e-12)


def test_theta_complete_graph_command(tmp_path, capsys):
    edges = "\n".join(
        f"{i} {j}" for i in range(5) for j in range(i + 1, 5)
    )
    path = tmp_path / "k5.edges"
    path.write_text(edges + "\n")
    code, out, _ = run_cli(capsys, "--json", "theta", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["theta"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("dc", ["0", "-1"])
def test_theta_dc_below_one_exits_1(tmp_path, capsys, dc):
    path = tmp_path / "c5.edges"
    path.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    code, out, err = run_cli(capsys, "--json", "theta", "--dc", dc, str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DimensionError",
                               "reason": "dc must be >= 1"}


def test_theta_oversized_graph_exits_1(tmp_path, capsys):
    # K200's graph system is refused by its size guard, before any
    # allocation, with a machine-readable reason.
    path = tmp_path / "k200.edges"
    path.write_text("".join(f"{i} {j}\n" for i in range(200)
                            for j in range(i + 1, 200)))
    code, out, err = run_cli(capsys, "--json", "theta", str(path))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "TooLarge" and "bytes of basis data" in report["reason"]


def test_theta_reports_program(tmp_path, capsys):
    # An edge list is a graph system; the same system rotated by a
    # unitary is not, and takes the full program.
    path = tmp_path / "c5.edges"
    path.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    code, out, _ = run_cli(capsys, "--json", "theta", str(path))
    assert code == 0
    graph_rep = json.loads(out)
    assert graph_rep["program"] == "graph"
    e = np.eye(5)
    units = [np.outer(e[i], e[j]) for i in range(5) for j in range(5)
             if (j - i) % 5 in (0, 1, 4)]
    u = haar_unitary(5, np.random.default_rng(105))
    spanning = [u @ m @ u.conj().T for m in units]
    doc = {"dim": 5, "basis": [serialize.matrix_to_doc(m) for m in spanning]}
    code, out, _ = run_cli(capsys, "--json", "theta",
                           write_doc(tmp_path / "system.json", doc))
    assert code == 0
    rep = json.loads(out)
    assert rep["program"] == "full" and rep["system_size"] == 15
    assert rep["theta"] == pytest.approx(graph_rep["theta"], abs=1e-6)


def test_consecutive_runs_share_no_state(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; one run's options must not
    # leak into the next.
    seen_dc = []
    real_theta = cli.zeroerr.theta_tilde

    def recording_theta(system, dc=None):
        seen_dc.append(dc)
        return real_theta(system, dc=dc)

    monkeypatch.setattr(cli.zeroerr, "theta_tilde", recording_theta)
    path = tmp_path / "k2.edges"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "--json", "theta", "--dc", "3", str(path))
    assert code == 0 and json.loads(out)["theta"] == pytest.approx(1.0, abs=1e-6)
    code, out, _ = run_cli(capsys, "theta", str(path))
    assert code == 0 and out.startswith("analysis: theta\n")
    code, _, err = run_cli(capsys, "theta", "--dc", "x", str(path))
    assert code == 2 and "usage:" in err
    code, out, _ = run_cli(capsys, "theta", str(path))
    assert code == 0 and "dual: " in out
    assert seen_dc == [3, None, None]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("field, value, message", [
    ("dim", "x", "system: dim must be an integer"),
    ("dim", None, "system: dim must be an integer"),
    ("dim", 1.5, "system: dim must be an integer"),
    ("dim", True, "system: dim must be an integer"),
    ("dim", 0, "system: dim must be positive"),
    ("dim", -1, "system: dim must be positive"),
    ("dim", 3, "system.basis[0]: 2x2 matrix, dim is 3"),
    ("basis", [], "system: basis must be a non-empty array"),
])
def test_malformed_theta_system_exits_2(tmp_path, capsys, field, value, message):
    doc = {"dim": 2, "basis": [serialize.matrix_to_doc(np.eye(2))]}
    doc[field] = value
    path = write_doc(tmp_path / "system.json", doc)
    code, _, err = run_cli(capsys, "theta", path)
    assert code == 2
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("basis, reason", [
    ([[[1, 0], [0, 0]]], "operator system must contain the identity"),
    ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], "operator system must be self-adjoint"),
])
def test_theta_rejected_system_exits_1(tmp_path, capsys, basis, reason):
    doc = {"dim": 2,
           "basis": [serialize.matrix_to_doc(np.array(b, float)) for b in basis]}
    path = write_doc(tmp_path / "system.json", doc)
    code, out, err = run_cli(capsys, "--json", "theta", path)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DimensionError", "reason": reason}


def test_qec_check_and_recover_commands(tmp_path, capsys):
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    code_doc = serialize.code_to_doc(qec.Code(8, 2, w))
    errors = [np.eye(8)] + [qec.pauli_on(3, i, "X") for i in range(3)]
    err_doc = {
        "kind": "channel",
        "din": 8,
        "dout": 8,
        "kraus": [serialize.matrix_to_doc(e) for e in errors],
    }
    cpath = write_doc(tmp_path / "code.json", code_doc)
    epath = write_doc(tmp_path / "err.json", err_doc)
    code_rc, out, _ = run_cli(capsys, "--json", "qec", "check", cpath, epath)
    assert code_rc == 0
    assert json.loads(out)["passes"]
    code_rc, out, _ = run_cli(
        capsys, "--json", "qec", "recover", cpath, epath, "--verify", "10"
    )
    assert code_rc == 0
    rep = json.loads(out)
    assert rep["recovered"]
    assert rep["max_deviation"] <= 1e-8


def test_qec_recover_reads_a_kraus_list_as_its_channel(tmp_path, capsys):
    # The bit-flip channel {sqrt(0.9) I, sqrt(0.1) X_0} without probs passes
    # qec check, and qec recover verifies it as that channel.
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    epath = write_doc(tmp_path / "err.json", {
        "kind": "channel", "din": 8, "dout": 8,
        "kraus": [np.sqrt(0.9) * np.eye(8, dtype=complex),
                  np.sqrt(0.1) * qec.pauli_on(3, 0, "X")]})
    code_rc, out, _ = run_cli(capsys, "--json", "qec", "check", cpath, epath)
    assert code_rc == 0 and json.loads(out)["passes"]
    code_rc, out, _ = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    rep = json.loads(out)
    assert code_rc == 0 and rep["recovered"]
    assert rep["max_deviation"] <= 1e-12 and rep["certified_deviation"] <= 1e-12


def test_qec_recover_shor_command(tmp_path, capsys):
    cpath = write_doc(tmp_path / "shor.json",
                      serialize.code_to_doc(qec.shor_code()))
    epath = write_doc(tmp_path / "one_paulis.json", {
        "kind": "channel", "din": 512, "dout": 512, "kraus": qec.one_paulis(9),
    })
    code_rc, out, _ = run_cli(
        capsys, "--json", "qec", "recover", cpath, epath, "--verify", "50"
    )
    assert code_rc == 0
    rep = json.loads(out)
    assert rep["max_deviation"] <= 1e-8


def test_ssa_command(tmp_path, capsys):
    rng = np.random.default_rng(142)
    from qinfokit.randkit import random_state

    rho = random_state((2, 2, 2), rng)
    path = write_doc(tmp_path / "abc.json", serialize.state_to_doc(rho))
    code, out, _ = run_cli(capsys, "--json", "ssa", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["cmi"] >= -1e-8


def test_petz_command(tmp_path, capsys):
    rng = np.random.default_rng(143)
    from qinfokit.randkit import random_channel, random_state

    rho = random_state((3,), rng)
    ch = random_channel(3, 3, 2, rng)
    spath = write_doc(tmp_path / "s.json", serialize.state_to_doc(rho))
    cpath = write_doc(tmp_path / "c.json", serialize.channel_to_doc(ch))
    code, out, _ = run_cli(capsys, "--json", "petz", spath, cpath)
    assert code == 0
    assert json.loads(out)["exact"]


def test_randomize_command_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path / "bell.json", bell_doc())
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--seed", "7", "--json", "randomize", path,
            "--n-unitaries", "4", "--sampler", "weyl",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    rep = json.loads(outputs[0])
    assert rep["achieved_epsilon"] <= 1e-12


def test_tailbound_command_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--seed", "11", "--json", "tailbound",
            "--dist", "bernoulli", "--d", "1", "--mu", "0.5",
            "--n", "50", "--alpha", "0.7", "--trials", "2000",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    rep = json.loads(outputs[0])
    assert rep["within_bound"]


def test_seed_changes_haar_output(tmp_path, capsys):
    path = write_doc(tmp_path / "bell.json", bell_doc())
    _, out1, _ = run_cli(capsys, "--seed", "1", "--json", "randomize", path,
                         "--n-unitaries", "2")
    _, out2, _ = run_cli(capsys, "--seed", "2", "--json", "randomize", path,
                         "--n-unitaries", "2")
    assert out1 != out2


# --- error handling -------------------------------------------------------------------

def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert "input error" in err


def test_non_utf8_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "\xff"}')
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert "input error" in err


def test_missing_field_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path / "bad.json", {"kind": "state", "dims": [2]})
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert "rho" in err


def test_boolean_scalar_exits_2(tmp_path, capsys):
    # JSON true/false are not numbers, although Python bool subclasses int.
    doc = {"kind": "state", "dims": [2],
           "rho": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}
    path = write_doc(tmp_path / "bad.json", doc)
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert "rho[0][0]" in err


_P = [0, 0]


@pytest.mark.parametrize("rho, message", [
    # A JSON string scalar.
    ([[[1, 0], _P], [["1.5", 0], _P]], "state.rho[1][0]: complex scalar must be [re, im]"),
    # true among numbers.
    ([[[1, 0], _P], [_P, [0, True]]], "state.rho[1][1]: complex scalar must be [re, im]"),
    ([[[1, 0], None], [_P, _P]], "state.rho[0][1]: complex scalar must be [re, im]"),
    ([[[1, 0], _P], [_P]], "state.rho: ragged matrix at row 1"),
    # Same scalar count as a valid 2 x 2 matrix, wrong pair lengths.
    ([[[1, 0, 0], [0]], [_P, _P]], "state.rho[0][0]: complex scalar must be [re, im]"),
    # Nesting one level too shallow, then one too deep.
    ([[1, 0], [0, 0]], "state.rho[0][0]: complex scalar must be [re, im]"),
    ([[[1, 0], _P], [_P, [_P, _P]]], "state.rho[1][1]: complex scalar must be [re, im]"),
    # A row that is not an array.
    ([[[1, 0], _P], 5], "state.rho[1]: matrix row must be an array"),
    # An integer beyond float range.
    ([[[1, 0], _P], [_P, [0, 10 ** 400]]], "state.rho[1][1]: real out of range"),
])
def test_malformed_matrix_exits_2_with_location(tmp_path, capsys, rho, message):
    path = write_doc(tmp_path / "bad.json", {"kind": "state", "dims": [2], "rho": rho})
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert err == f"input error: {message}\n"


def test_malformed_vector_exits_2_with_location(tmp_path, capsys):
    path = write_doc(tmp_path / "bad.json", {
        "kind": "state", "dims": [2], "vec": [[1, 0], [0, None]]})
    code, _, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2
    assert err == "input error: state.vec[1]: complex scalar must be [re, im]\n"


@pytest.mark.parametrize("field, value", [
    ("din", "x"), ("dout", 2.5), ("din", True),
])
def test_non_integer_channel_dimension_exits_2(tmp_path, capsys, field, value):
    doc = serialize.channel_to_doc(Channel(2, 2, (np.eye(2, dtype=complex),)))
    doc[field] = value
    path = write_doc(tmp_path / "bad.json", doc)
    code, _, err = run_cli(capsys, "channel", "analyze", path)
    assert code == 2
    assert err == f"input error: channel: {field} must be an integer\n"


@pytest.mark.parametrize("field, value", [
    ("physical_dim", "x"), ("logical_dim", [2]),
])
def test_non_integer_code_dimension_exits_2(tmp_path, capsys, field, value):
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    doc = serialize.code_to_doc(qec.Code(8, 2, w))
    doc[field] = value
    cpath = write_doc(tmp_path / "code.json", doc)
    epath = write_doc(tmp_path / "err.json", serialize.channel_to_doc(
        Channel(8, 8, (np.eye(8, dtype=complex),))))
    code, _, err = run_cli(capsys, "qec", "check", cpath, epath)
    assert code == 2
    assert err == f"input error: code: {field} must be an integer\n"


# Tokens json.loads reads as non-finite floats, which the canonical writer
# refuses to write.
_NON_FINITE = ["1e999", "NaN", "Infinity"]


@pytest.mark.parametrize("probs", [["abc"], ["0.5"], [None], "x", 5, [10 ** 400],
                                   *_NON_FINITE])
def test_non_numeric_probs_exit_2(tmp_path, capsys, probs):
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    doc = serialize.channel_to_doc(Channel(8, 8, (np.eye(8, dtype=complex),)))
    doc["probs"] = [0] if probs in _NON_FINITE else probs
    epath = write_doc(tmp_path / "err.json", doc)
    if probs in _NON_FINITE:
        path = tmp_path / "err.json"
        path.write_text(path.read_text().replace('"probs":[0]', f'"probs":[{probs}]'))
    code, _, err = run_cli(capsys, "qec", "recover", cpath, epath)
    assert code == 2
    assert err.startswith("input error: errors: probs ")
    if probs in _NON_FINITE or probs == [10 ** 400]:
        assert err == "input error: errors: probs out of range\n"


@pytest.mark.parametrize("token", _NON_FINITE)
def test_non_finite_real_exits_2_with_location(tmp_path, capsys, token):
    path = tmp_path / "bad.json"
    path.write_text('{"kind":"state","dims":[2],"rho":[[[%s,0],[0,0]],'
                    '[[0,0],[1,0]]]}' % token)
    code, out, err = run_cli(capsys, "schmidt", str(path))
    assert code == 2 and out == ""
    assert err == "input error: state.rho[0][0]: real out of range\n"


@pytest.mark.parametrize("kraus", [5, None])
def test_non_array_error_list_exits_2(tmp_path, capsys, kraus):
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    epath = write_doc(tmp_path / "err.json", {"kind": "channel", "din": 8,
                                              "dout": 8, "kraus": kraus})
    code, _, err = run_cli(capsys, "qec", "check", cpath, epath)
    assert code == 2
    assert err == "input error: errors: kraus must be an array\n"


@pytest.mark.parametrize("kraus, message", [
    ({}, "kraus must be an array"),
    ("ab", "kraus must be an array"),
    ([], "kraus must be a non-empty array"),
], ids=["object", "string", "empty"])
@pytest.mark.parametrize("command", ["check", "recover"])
def test_error_list_must_be_a_non_empty_array(tmp_path, capsys, kraus, message,
                                              command):
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    epath = write_doc(tmp_path / "err.json", {"kind": "channel", "din": 8,
                                              "dout": 8, "kraus": kraus})
    code, out, err = run_cli(capsys, "qec", command, cpath, epath)
    assert code == 2 and out == ""
    assert err == f"input error: errors: {message}\n"


@pytest.mark.parametrize("dims", [[True, 2], [0, 2], [-1, -2], [2, "2"], "22", None])
def test_state_dims_must_be_positive_integers(tmp_path, capsys, dims):
    doc = bell_doc()
    doc["dims"] = dims
    path = write_doc(tmp_path / "bell.json", doc)
    code, out, err = run_cli(capsys, "schmidt", path)
    assert code == 2 and out == ""
    assert err == "input error: state: dims must be a list of positive integers\n"


def test_bulk_tree_errors_read_as_on_the_diagnostic_route(tmp_path, capsys):
    # A vector where the matrix belongs is a valid dense array for the bulk
    # reader; the message is still the per-entry walk's.
    path = write_doc(tmp_path / "bad.json", {
        "kind": "state", "dims": [2], "rho": [[1, 0], [0, 0]]})
    code, _, err = run_cli(capsys, "schmidt", path)
    assert code == 2
    assert err == "input error: state.rho[0][0]: complex scalar must be [re, im]\n"


def test_analysis_failure_exits_1(tmp_path, capsys):
    # Uncorrectable error set: recovery synthesis fails with a
    # machine-readable reason.
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    zz = qec.pauli_on(3, 0, "Z")
    epath = write_doc(tmp_path / "err.json", {
        "kind": "channel", "din": 8, "dout": 8,
        "kraus": [serialize.matrix_to_doc(e) for e in (np.eye(8), xx, zz)],
    })
    code, _, err = run_cli(capsys, "qec", "recover", cpath, epath)
    assert code == 1
    rep = json.loads(err)
    assert rep["error"] == "KLViolated"


def bit_flip_docs(tmp_path, probs=None):
    """Code and error documents of the 3-qubit bit-flip code against
    I and X on qubit 0."""
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    doc = serialize.channel_to_doc(
        Channel(8, 8, (np.eye(8), qec.pauli_on(3, 0, "X"))), probs)
    return cpath, write_doc(tmp_path / "err.json", doc)


def test_qec_recover_builds_no_noise_channel(tmp_path, capsys, monkeypatch):
    def no_channel(*args):
        raise AssertionError("noise_channel was built")

    monkeypatch.setattr(qec, "noise_channel", no_channel)
    cpath, epath = bit_flip_docs(tmp_path, [3.0, 1.0])
    code, out, _ = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    assert code == 0 and json.loads(out)["recovered"]


def test_qec_recover_builds_one_compressed_map(tmp_path, capsys, monkeypatch):
    # Both deviations are read off one compressed Choi matrix.
    built = []
    compressed_map = qec._compressed_map

    def counted(*args):
        built.append(args)
        return compressed_map(*args)

    monkeypatch.setattr(qec, "_compressed_map", counted)
    cpath, epath = bit_flip_docs(tmp_path, [3.0, 1.0])
    code, out, _ = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    rep = json.loads(out)
    assert code == 0 and len(built) == 1
    assert max(rep["max_deviation"], rep["certified_deviation"]) <= 1e-12


def test_qec_recover_checks_and_images_the_errors_once(tmp_path, capsys,
                                                       monkeypatch):
    # Recovery synthesis and verification share one checked error list
    # and its images E_b W.
    calls = {"_error_list": 0, "_code_images": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(qec, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(qec, name, counted)
    cpath, epath = bit_flip_docs(tmp_path, [3.0, 1.0])
    code, out, _ = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    assert code == 0 and json.loads(out)["recovered"]
    assert calls == {"_error_list": 1, "_code_images": 1}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_qec_recover_without_samples_exits_1(tmp_path, capsys, samples):
    cpath, epath = bit_flip_docs(tmp_path)
    code, out, err = run_cli(capsys, "--json", "qec", "recover", cpath, epath,
                             "--verify", samples)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "DomainError",
        "reason": f"verification needs samples >= 1, got {samples}",
    }


def test_qec_recover_reads_probabilities_whose_sum_overflows_as_weights(tmp_path, capsys):
    reports = []
    for probs in ([1e308] * 2, [1, 1]):
        cpath, epath = bit_flip_docs(tmp_path, probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
        assert code == 0 and err == ""
        reports.append(json.loads(out))
    assert reports[0] == reports[1] and reports[0]["recovered"] is True


@pytest.mark.parametrize("probs, reason", [
    ([0, 0], "probabilities must have a positive finite sum"),
    ([1, -0.5], "probabilities must be nonnegative"),
])
def test_qec_recover_bad_probs_exit_1(tmp_path, capsys, probs, reason):
    cpath, epath = bit_flip_docs(tmp_path, probs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ProbabilityError", "reason": reason}


def test_qec_recover_probs_length_mismatch_exits_2(tmp_path, capsys):
    cpath, epath = bit_flip_docs(tmp_path, [1.0])
    code, out, err = run_cli(capsys, "--json", "qec", "recover", cpath, epath)
    assert code == 2 and out == ""
    assert err == "input error: errors: probs length mismatch\n"


@pytest.mark.parametrize("option, value, reason", [
    ("--trials", "0", "trials must be >= 1"),
    ("--trials", "-1", "trials must be >= 1"),
    ("--n", "0", "n must be >= 1"),
    ("--n", "-3", "n must be >= 1"),
    ("--alpha", "1.5", "alpha must be in [0, 1]"),
])
def test_tailbound_domain_errors_exit_1(capsys, option, value, reason):
    argv = {"--n": "50", "--alpha": "0.7", "--trials": "100", option: value}
    code, out, err = run_cli(
        capsys, "--json", "tailbound", "--dist", "psd", "--d", "2",
        *[token for pair in argv.items() for token in pair],
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DomainError", "reason": reason}


@pytest.mark.parametrize("sampler", ["haar", "weyl"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_randomize_without_unitaries_exits_1(tmp_path, capsys, sampler, count):
    path = write_doc(tmp_path / "bell.json", bell_doc())
    code, out, err = run_cli(capsys, "--json", "randomize", path,
                             "--n-unitaries", count, "--sampler", sampler)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "reason": "n_unitaries must be >= 1"}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf"])
def test_bad_tolerance_exits_2(tmp_path, capsys, tol):
    cpath, epath = bit_flip_docs(tmp_path)
    code, out, err = run_cli(capsys, f"--tol={tol}", "qec", "recover", cpath, epath)
    assert code == 2 and out == ""
    assert "argument --tol: must be finite and >= 0" in err


@pytest.mark.parametrize("tol", [[], ["--tol", "0"], ["--tol=-0"], ["--tol", "1e-6"]])
def test_zero_and_default_tolerances_are_valid(tmp_path, capsys, tol):
    cpath, epath = bit_flip_docs(tmp_path)
    code, out, _ = run_cli(capsys, *tol, "--json", "qec", "recover", cpath, epath)
    assert code == 0 and json.loads(out)["recovered"]


@pytest.mark.parametrize("argv", [
    ["tailbound", "--dist", "bernoulli", "--d", "2", "--mu", "0.5", "--n", "3",
     "--alpha", "0.9", "--trials", "5"],
    ["randomize", "STATE", "--n-unitaries", "4", "--sampler", "weyl"],
    ["qec", "recover", "CODE", "ERRORS"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    cpath, epath = bit_flip_docs(tmp_path)
    state = write_doc(tmp_path / "bell.json", bell_doc())
    paths = {"STATE": state, "CODE": cpath, "ERRORS": epath}
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, "--seed", "-1", "--json", *argv)
    assert code == 2 and out == ""
    assert "argument --seed: must be >= 0, got -1" in err


def bit_flip_code_with(tmp_path, errors, probs=None):
    """Documents of the 3-qubit bit-flip code and of an error list."""
    w = np.zeros((8, 2))
    w[0, 0] = w[7, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(8, 2, w)))
    doc = {"kind": "channel", "din": 8, "dout": 8,
           "kraus": [np.asarray(e, dtype=complex) for e in errors]}
    if probs is not None:
        doc["probs"] = probs
    return cpath, write_doc(tmp_path / "err.json", doc)


IZ = [np.eye(8), qec.pauli_on(3, 0, "Z")]
IXXX = [np.eye(8)] + [qec.pauli_on(3, i, "X") for i in range(3)]


@pytest.mark.parametrize("scale", [1.0, 1e200, -1e200, 1e-200])
@pytest.mark.parametrize("errors, passes", [(IZ, False), (IXXX, True), (IXXX[:1], True)])
def test_qec_check_verdict_does_not_depend_on_the_scale_of_the_errors(
        tmp_path, capsys, scale, errors, passes):
    paths = bit_flip_code_with(tmp_path, [scale * e for e in errors])
    code, out, err = run_cli(capsys, "--json", "qec", "check", *paths)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["passes"] is passes
    assert report["alpha_trace"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_residual"] == pytest.approx(0.0 if passes else 2 ** -0.5,
                                                   abs=1e-12)


KL_VIOLATED = "correctability residual 7.071e-01 > 1.0e-08"
ALL_ZERO = "errors: every error operator is zero"
OUT_OF_RANGE = "noise: its weight on the code space is zero or out of floating-point range"


# |001><001|, which misses the code space.
MISSES = [np.diag(np.eye(8)[1])]


@pytest.mark.parametrize("command, scale, errors, error, reason", [
    ("recover", 1e200, IZ, "KLViolated", KL_VIOLATED),
    ("recover", 1e-200, IZ, "KLViolated", KL_VIOLATED),
    ("recover", 1e200, MISSES, "DomainError", OUT_OF_RANGE),
    ("recover", 1e-200, MISSES, "DomainError", OUT_OF_RANGE),
    ("check", 0.0, IXXX[:1], "DomainError", ALL_ZERO),
    ("recover", 0.0, IXXX[:1], "DomainError", ALL_ZERO),
    ("check", 0.0, IZ, "DomainError", ALL_ZERO),
    ("recover", 0.0, IZ, "DomainError", ALL_ZERO),
])
def test_qec_on_scaled_errors_exits_1_with_a_reason(tmp_path, capsys, command,
                                                    scale, errors, error, reason):
    # qec recover also refuses noise with no weight on the code space.
    paths = bit_flip_code_with(tmp_path, [scale * e for e in errors])
    code, out, err = run_cli(capsys, "--json", "qec", command, *paths)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": error, "reason": reason}


@pytest.mark.parametrize("errors, unscaled", [
    ([1e200 * e for e in IXXX], IXXX),
    ([1e-200 * e for e in IXXX], IXXX),
    ([1e-200 * IXXX[0]], IXXX[:1]),
    ([1e200 * IXXX[0], 1e-200 * IXXX[1]], [IXXX[0], 0 * IXXX[1]]),
])
def test_qec_recover_reads_scaled_errors_as_the_unscaled_list(tmp_path, capsys,
                                                             errors, unscaled):
    # An error list stands for its normalized noise, whatever its scale.
    reports = []
    for ops in (errors, unscaled):
        code, out, err = run_cli(capsys, "--json", "qec", "recover",
                                 *bit_flip_code_with(tmp_path, ops))
        assert code == 0 and err == ""
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["recovered"] is True
    assert reports[0]["max_deviation"] == reports[0]["certified_deviation"] == 0


def test_qec_recover_reads_operators_of_zero_weight_without_their_peak(tmp_path,
                                                                      capsys):
    # {1e-200 I, 1e200 X_0} with probs [1, 0] is the identity noise: the
    # list is rescaled by the peak of the weighted I alone.
    paths = bit_flip_code_with(tmp_path, [1e-200 * IXXX[0], 1e200 * IXXX[1]], [1.0, 0.0])
    code, out, err = run_cli(capsys, "--json", "qec", "recover", *paths)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["recovered"] is True
    assert report["max_deviation"] == report["certified_deviation"] == 0


def test_qec_recover_rescales_and_images_a_scaled_list_once(tmp_path, capsys,
                                                            monkeypatch):
    # A list whose c overflows is imaged as given, which finds its scale,
    # and once more divided by its peak; recovery synthesis and
    # verification share that second imaging.
    calls = {"_error_list": 0, "_code_images": 0, "_peak_scaled": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(qec, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(qec, name, counted)
    paths = bit_flip_code_with(tmp_path, [1e200 * e for e in IXXX])
    code, out, err = run_cli(capsys, "--json", "qec", "recover", *paths)
    assert code == 0 and err == "" and json.loads(out)["recovered"]
    assert calls == {"_error_list": 1, "_code_images": 2, "_peak_scaled": 1}


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("invalid-utf8", "'utf-8' codec can't decode byte 0xff"),
])
def test_edge_list_read_errors_exit_2(tmp_path, capsys, kind, reason):
    path = tmp_path / "graph.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid-utf8":
        path.write_bytes(b"0 1\n1 \xff2\n")
    code, out, err = run_cli(capsys, "theta", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {path}: ") and reason in err


@pytest.mark.parametrize("case, message", [
    ("probs", "errors: probs length mismatch"),
    ("shape", "errors.kraus[0][0][0]: complex scalar must be [re, im]"),
    ("entry", "errors.kraus[1][7][7]: complex scalar must be [re, im]"),
])
def test_reader_errors_read_each_document_once(tmp_path, capsys, monkeypatch,
                                               case, message):
    # A probs mismatch, one matrix where the list belongs, or a bad entry
    # in the last matrix.
    cpath, epath = bit_flip_docs(tmp_path, [0.5, 0.5])
    doc = json.loads((tmp_path / "err.json").read_text())
    if case == "probs":
        doc["probs"] = [1.0]
    elif case == "shape":
        doc["kraus"] = doc["kraus"][0]
        del doc["probs"]
    else:
        doc["kraus"][-1][-1][-1] = [0, True]
    write_doc(tmp_path / "err.json", doc)
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", counted_open)
    code, out, err = run_cli(capsys, "qec", "check", cpath, epath)
    monkeypatch.undo()
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"
    assert opened.count(cpath) == 1 and opened.count(epath) == 1


def test_probs_mismatch_peak_is_text_and_arrays(tmp_path, capsys):
    # The error list is read once, on the bulk route: the peak is about
    # the document's bytes and its arrays, with no JSON tree of its
    # numbers.
    rng = np.random.default_rng(155)
    kraus = (rng.integers(-4, 5, size=(8, 256, 256))
             + 1j * rng.integers(-4, 5, size=(8, 256, 256))) / 8
    w = np.zeros((256, 2))
    w[0, 0] = w[255, 1] = 1.0
    cpath = write_doc(tmp_path / "code.json", serialize.code_to_doc(qec.Code(256, 2, w)))
    epath = tmp_path / "err.json"
    write_doc(epath, {"kind": "channel", "din": 256, "dout": 256, "kraus": kraus,
                      "probs": [1.0]})
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "qec", "check", cpath, str(epath))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and err == "input error: errors: probs length mismatch\n"
    assert peak <= kraus.nbytes + epath.stat().st_size + 4 * serialize._CHUNK


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
