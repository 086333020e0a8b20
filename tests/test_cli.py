import json

import numpy as np
import pytest

from qinfokit import cli, qec, serialize
from qinfokit.channels import Channel


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


def test_qec_recover_shor_command(tmp_path, capsys):
    cpath = write_doc(tmp_path / "shor.json",
                      serialize.code_to_doc(qec.shor_code()))
    epath = write_doc(tmp_path / "one_paulis.json", {
        "kind": "channel", "din": 512, "dout": 512,
        "kraus": [serialize.matrix_to_doc(e) for e in qec.one_paulis(9)],
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


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
