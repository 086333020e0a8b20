"""Tests of the benchmark's own parts: generator, writer, oracles, tracer.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402


def _digest(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _generated(workload, seed, directory):
    requests = inputs.generate(workload, seed, str(directory))
    return [(r.kind, r.argv, r.expect) for r in requests], _digest(str(directory))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = _generated(workload, 7, tmp_path / "a")
    again = _generated(workload, 7, tmp_path / "b")
    other = _generated(workload, 8, tmp_path / "c")

    def strip(gen, directory):  # paths differ by directory only
        kinds, files = gen
        return json.dumps(kinds).replace(str(directory), ""), files

    assert strip(first, tmp_path / "a") == strip(again, tmp_path / "b")
    assert strip(first, tmp_path / "a") != strip(other, tmp_path / "c")


def test_canonical_writer_matches_program_on_pauli_document():
    from qinfokit import serialize

    ops = [1j * inputs.pauli_string("XIZ"), -inputs.pauli_string("IYI"),
           inputs.pauli_string("III")]
    ours = inputs.canonical_text({"kind": "channel", "din": 8, "dout": 8,
                                  "kraus": ops, "probs": [0.5, 0.25, 0.25]})
    theirs = serialize.canonical_dumps({
        "kind": "channel", "din": 8, "dout": 8,
        "kraus": [serialize.matrix_to_doc(m) for m in ops],
        "probs": [0.5, 0.25, 0.25],
    })
    assert ours == theirs


def test_canonical_writer_matches_program_on_dense_values():
    from qinfokit import serialize

    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    m[0, 0] = complex(-0.0, 1e-300)
    m[1, 1] = complex(1e17, -0.1)
    v = m[:, 0].copy()
    ours = inputs.canonical_text({"m": m, "v": v, "flag": True, "n": None})
    theirs = serialize.canonical_dumps({
        "m": serialize.matrix_to_doc(m), "v": serialize.vector_to_doc(v),
        "flag": True, "n": None,
    })
    assert ours == theirs


def test_markov_block_state_has_zero_cmi():
    rng = np.random.default_rng(5)
    rho, db = inputs._markov_block_state(rng, 2, [(2, 2), (1, 2)], 3)
    dims = (2, db, 3)

    def entropy(keep):
        t = rho.reshape(dims + dims)
        gone = [k for k in range(3) if k not in keep]
        for axis in sorted(gone, reverse=True):
            t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
        d = int(math.isqrt(t.size))
        vals = np.linalg.eigvalsh(t.reshape(d, d))
        vals = vals[vals > 1e-14]
        return float(-np.sum(vals * np.log2(vals)))

    cmi = entropy({0, 1}) + entropy({1, 2}) - entropy({1}) - entropy({0, 1, 2})
    assert abs(cmi) < 1e-9


def test_independence_number_of_known_graphs():
    assert oracles.independence_number(5, inputs.cycle_edges(5)) == 2
    assert oracles.independence_number(6, inputs.cycle_edges(6)) == 3
    assert oracles.independence_number(4, inputs.FOUR_VERTEX_GRAPHS["K4"]) == 1
    assert oracles.independence_number(4, inputs.FOUR_VERTEX_GRAPHS["K13"]) == 3
    assert oracles.independence_number(4, inputs.FOUR_VERTEX_GRAPHS["2K2"]) == 2
    assert oracles.independence_number(4, inputs.FOUR_VERTEX_GRAPHS["K2+2K1"]) == 3


def test_odd_cycle_closed_form():
    assert oracles.odd_cycle_theta(5) == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert oracles.odd_cycle_theta(3) == pytest.approx(1.0, abs=1e-12)
    assert oracles.expected_theta(5, inputs.cycle_edges(5)) == \
        pytest.approx(math.sqrt(5.0))
    assert oracles.expected_theta(6, inputs.cycle_edges(6)) == 3.0
    with pytest.raises(ValueError):
        oracles.expected_theta(5, inputs.cycle_edges(5) + [(0, 2)])


def test_edge_list_vertex_count_follows_largest_label(tmp_path):
    n, edges = oracles.parse_edge_list("# comment\n0 1\n\n2 1 # tail\n")
    assert n == 3 and edges == {(0, 1), (1, 2)}
    for seed in range(20):
        for request in inputs.generate("theta", seed, str(tmp_path)):
            with open(request.expect["path"], encoding="utf-8") as fh:
                n, _ = oracles.parse_edge_list(fh.read())
            assert n == (5 if request.expect["graph"] == "C5"
                         else 6 if request.expect["graph"] == "C6" else 4)


def test_self_time_subtracts_children():
    # name, start, end, parent, request, failed
    synthetic = [
        ["root", 0.0, 10.0, -1, 0, False],
        ["a", 1.0, 4.0, 0, 0, False],
        ["a.inner", 2.0, 3.0, 1, 0, False],
        ["b", 5.0, 9.0, 0, 0, True],
        ["c", 11.0, 12.0, -1, 1, False],
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    stats = spans.summarize(synthetic, {})
    assert stats["b.failed"] == 1 and stats["root.self_s"] == pytest.approx(3.0)
    assert stats["sdpcore.solve.useful_ratio"] == 0.0


def _bindings():
    import qinfokit
    from qinfokit import channels, entropy, randkit, zeroerr

    return {
        "channels.is_tp": channels.is_tp,
        "entropy.is_tp": entropy.is_tp,
        "zeroerr.is_tp": zeroerr.is_tp,
        "Channel.__call__": channels.Channel.__dict__["__call__"],
        "sample_batch": randkit.MatrixDistribution.__dict__["sample_batch"],
        "cli.run": qinfokit.cli.run,
    }


def test_tracer_wraps_every_binding_and_restores_originals():
    from qinfokit import channels, entropy, states

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["entropy.is_tp"] is during["channels.is_tp"]
        assert during["zeroerr.is_tp"] is during["channels.is_tp"]
        ch = channels.Channel(2, 2, (np.eye(2),))
        tracer.request = 4
        sigma = states.State((2,), np.eye(2) / 2)
        entropy.petz_map(sigma, ch)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "entropy.petz_map" and "channels.is_tp" in names
    assert "channels.Channel.__call__" in names
    assert all(s[4] == 4 for s in tracer.spans)
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] != "matkit.herm_eig")


def test_tracer_marks_failed_calls_and_restores_on_error():
    from qinfokit import states

    original = states.werner_schmidt_number
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            states.werner_schmidt_number(3, 2.0)
    finally:
        tracer.uninstall()
    assert states.werner_schmidt_number is original
    assert tracer.spans[0][0] == "states.werner_schmidt_number"
    assert tracer.spans[0][5] is True


def test_per_layer_metric_names_fit_the_benchmark_limits():
    names = [n for n, _, _ in spans.per_layer_names()]
    assert len(names) == len(set(names)) <= 128
    assert all(len(n) <= 64 for n in names)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert declared == names


def test_end_to_end_metrics_from_worker_results():
    import run

    # Two short passes over two requests, each timed while the host ran at
    # half and at full speed: the correction makes them equal.
    cal = run.CALIBRATION_S
    res = {"latencies_ms": [[20.0, 40.0], [10.0, 20.0]],
           "calibration_s": [2 * cal, cal],
           "attempted": 4, "failed": 1, "peak_rss_mb": 50.0}
    setups = [(0.0, {"ready": 3.0, "calibration_s": 2 * cal}),
              (1.0, {"ready": 5.0, "calibration_s": 2 * cal}),
              (5.0, {"ready": 5.5, "calibration_s": cal})]
    e2e = run.end_to_end(setups, res)
    assert e2e["wall_s"] == pytest.approx(0.03)
    assert e2e["setup_s"] == pytest.approx(1.5)
    assert e2e["req_p50_ms"] == pytest.approx(15.0)
    assert e2e["req_p90_ms"] == pytest.approx(19.0)
    assert e2e["success_ratio"] == 0.75


def test_long_passes_are_left_as_measured():
    import run

    long_ms = run.SCALE_MAX_PASS_S * 1e3 + 1.0
    res = {"latencies_ms": [[long_ms]], "calibration_s": [2 * run.CALIBRATION_S]}
    assert run.wall_s(res) == pytest.approx(long_ms / 1e3)


def test_p90_interpolates_and_takes_a_single_sample():
    import run

    values = [float(v) for v in range(1, 101)]
    assert run.p90(values) == pytest.approx(90.1)
    assert run.p90([7.0]) == 7.0
