"""Seeded input generator and canonical JSON writer for the benchmark.

Every input is a pure function of (workload, seed). The generator uses
numpy only; it never imports the package under test, so the documents it
writes (and the set-up time spent writing them) do not depend on the
program's own serializer.

The writer renders documents in the program's canonical form: sorted
keys, reals as ``%.17g`` with zero printed as ``0``, complex scalars as
``[re, im]`` pairs and one trailing newline. Complex numpy arrays are
rendered as nested lists of pairs by formatting each distinct value once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

WORKLOADS = ("qec-shor9", "theta", "tailbound", "analyses")


# ---------------------------------------------------------------------------
# Canonical writer
# ---------------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite real in document")
    return "0" if x == 0.0 else "%.17g" % x


def _render_array(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=complex)
    uniq, inverse = np.unique(a.reshape(-1), return_inverse=True)
    texts = np.array(
        [f"[{_fmt_real(z.real)},{_fmt_real(z.imag)}]" for z in uniq.tolist()],
        dtype=object,
    )[inverse.reshape(-1)]
    if a.ndim == 1:
        return "[" + ",".join(texts.tolist()) + "]"
    if a.ndim != 2:
        raise ValueError("only vectors and matrices are rendered")
    rows = texts.reshape(a.shape).tolist()
    return "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"


def _render(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_render(v)}" for k, v in sorted(obj.items())
        ) + "}"
    if isinstance(obj, np.ndarray):
        return _render_array(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_real(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def canonical_text(doc) -> str:
    """Canonical JSON text of ``doc``; numpy complex arrays become pairs."""
    return _render(doc) + "\n"


def write_doc(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(doc))
    return path


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    """One CLI invocation plus what its oracle needs to judge the answer."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def save_requests(path: str, requests) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in requests], fh)


def load_requests(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [Request(**r) for r in json.load(fh)]


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(workload.encode("utf-8"), "little") % (2 ** 32)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _mixed_state(rng, dim: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr, G square Ginibre."""
    g = _ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.real(np.trace(rho))


def _isometry_kraus(rng, din: int, dout: int, count: int) -> list:
    """Kraus operators of a random channel: blocks of a Haar-like isometry."""
    q, _ = np.linalg.qr(_ginibre(rng, dout * count, din))
    return [q[i * dout:(i + 1) * dout, :] for i in range(count)]


def _channel_doc(kraus) -> dict:
    dout, din = kraus[0].shape
    return {"kind": "channel", "din": din, "dout": dout, "kraus": list(kraus)}


def _state_doc(dims, rho) -> dict:
    return {"kind": "state", "dims": list(dims), "rho": rho}


# ---------------------------------------------------------------------------
# qec-shor9: Shor code and the 28 one-qubit Paulis (identity included)
# ---------------------------------------------------------------------------

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(word: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for ch in word:
        out = np.kron(out, _PAULIS[ch])
    return out


def shor_isometry() -> np.ndarray:
    zero3 = np.zeros(8, dtype=complex)
    zero3[0] = 1.0
    one3 = np.zeros(8, dtype=complex)
    one3[7] = 1.0
    plus = (zero3 + one3) / math.sqrt(2.0)
    minus = (zero3 - one3) / math.sqrt(2.0)
    logical0 = np.kron(np.kron(plus, plus), plus)
    logical1 = np.kron(np.kron(minus, minus), minus)
    return np.stack([logical0, logical1], axis=1)


def one_qubit_pauli_words(n: int = 9) -> list:
    words = ["I" * n]
    for p in "XYZ":
        words += ["I" * s + p + "I" * (n - s - 1) for s in range(n)]
    return words


def _gen_qec_shor9(rng, outdir: str) -> list:
    words = one_qubit_pauli_words(9)
    order = rng.permutation(len(words))
    # A global phase per error leaves correctability and the recovery's
    # action unchanged, so the seed changes the bytes but not the answer.
    phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, size=len(words))]
    kraus = [phases[i] * pauli_string(words[j]) for i, j in enumerate(order)]
    code = write_doc(os.path.join(outdir, "shor_code.json"), {
        "kind": "code", "physical_dim": 512, "logical_dim": 2,
        "isometry": shor_isometry(),
    })
    errors = write_doc(os.path.join(outdir, "shor_errors.json"),
                       _channel_doc(kraus))
    seed = int(rng.integers(2 ** 31))
    return [Request("qec-recover", [
        "--seed", str(seed), "--json", "qec", "recover", code, errors,
        "--verify", "50",
    ], {"samples": 50, "max_deviation": 1e-8})]


# ---------------------------------------------------------------------------
# theta: C5, C6 and the ten non-empty 4-vertex graphs up to isomorphism
# ---------------------------------------------------------------------------

# One fixed labelling per class: the lexicographically first labelled
# version whose top vertex lies on an edge (the edge-list format infers the
# vertex count from the largest label). The labelling is not drawn from the
# seed because the solver's cost depends on it: for the paw, 5 of its 12
# labelled versions break down within about 1 s and 6 run to the iteration
# cap in about 6 s, which would make wall_s differ by ~17% between seeds.
# Whether a class is solved does not depend on the labelling. The line
# order is fixed too: over ten seeded orders the paw took 0.48-0.79 s,
# which moved req_p50_ms on theta by a quarter between seeds.
FOUR_VERTEX_GRAPHS = {
    "K2+2K1": [(0, 3)],
    "2K2": [(0, 1), (2, 3)],
    "P3+K1": [(0, 1), (0, 3)],
    "P4": [(0, 1), (0, 2), (1, 3)],
    "K13": [(0, 1), (0, 2), (0, 3)],
    "K3+K1": [(0, 1), (0, 3), (1, 3)],
    "C4": [(0, 1), (0, 2), (1, 3), (2, 3)],
    "paw": [(0, 1), (0, 2), (0, 3), (1, 2)],
    "diamond": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


def cycle_edges(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def _shuffled_lines(rng, edges) -> list:
    """Edge lines in seeded order, each pair in seeded orientation."""
    out = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(out)
    return [f"{u} {v}" for u, v in out]


def _gen_theta(rng, outdir: str) -> list:
    """C5 and C6 are relabelled by the seed (their solves do not depend on
    the labelling) and get seeded line order and orientation; the 4-vertex
    graphs are written as listed. The request order is fixed: the solver's
    peak memory depends on it."""
    graphs = []
    for n in (5, 6):
        perm = rng.permutation(n)
        edges = [(perm[u], perm[v]) for u, v in cycle_edges(n)]
        graphs.append((f"C{n}", _shuffled_lines(rng, edges)))
    graphs += [(name, [f"{u} {v}" for u, v in edges])
               for name, edges in FOUR_VERTEX_GRAPHS.items()]
    requests = []
    for name, lines in graphs:
        path = os.path.join(outdir, f"graph_{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([f"# {name}", *lines]) + "\n")
        requests.append(Request("theta", ["--json", "theta", path],
                                {"graph": name, "path": path}))
    return requests


# ---------------------------------------------------------------------------
# tailbound: projector (rank 2), psd and full-rank bernoulli at d = 4
# ---------------------------------------------------------------------------

# 500 trials make a pass ~0.35 s on a shared 2-core x86-64 VM, so a 20 s
# run holds ~35-50 passes; each request still draws 50 000 matrices, which
# dominates its time.
TAIL_N, TAIL_TRIALS, TAIL_ALPHA, TAIL_MU, TAIL_D = 100, 500, 0.6, 0.5, 4


def _gen_tailbound(rng, outdir: str) -> list:
    specs = [("projector", ["--rank", "2"]), ("psd", []), ("bernoulli", [])]
    requests = []
    for dist, extra in specs:
        seed = int(rng.integers(2 ** 31))
        argv = ["--seed", str(seed), "--json", "tailbound", "--dist", dist,
                "--d", str(TAIL_D), "--mu", repr(TAIL_MU), *extra,
                "--n", str(TAIL_N), "--alpha", repr(TAIL_ALPHA),
                "--trials", str(TAIL_TRIALS)]
        requests.append(Request("tailbound", argv, {
            "d": TAIL_D, "n": TAIL_N, "trials": TAIL_TRIALS,
            "alpha": TAIL_ALPHA, "mu": TAIL_MU,
        }))
    return requests


# ---------------------------------------------------------------------------
# analyses: a fixed mix of small-document requests
# ---------------------------------------------------------------------------

# Size ladders per request kind; each rung is used ANALYSES_REPEAT times,
# so every seed runs the same sizes and only contents and order change.
ANALYSES_REPEAT = 3
CHANNEL_SIZES = [(8, 4), (8, 8), (12, 4), (16, 4), (16, 8)]       # (d, kraus)
SSA_DIMS = [(2, 4, 3), (3, 3, 4), (4, 4, 4), (3, 5, 5), (4, 4, 6)]
MARKOV_SPECS = [                                                   # (dA, blocks, dC)
    (2, [(2, 2), (1, 1)], 2),
    (2, [(2, 3), (2, 2)], 3),
    (3, [(2, 2), (1, 2)], 3),
    (3, [(2, 3), (1, 2)], 3),
    (4, [(2, 2), (2, 1)], 4),
]
PETZ_SIZES = [(8, 4), (10, 4), (12, 3), (16, 2), (16, 4)]            # (d, kraus)
RANDOMIZE_DIMS = [(2, 8), (3, 6), (4, 4), (4, 8), (4, 12)]          # (dA, dB)
HAAR_UNITARIES = 12
SCHMIDT_DIMS = [(8, 32), (16, 16), (16, 64), (32, 64), (64, 64)]
WERNER_DIMS = [2, 3, 4, 6, 8]


def _markov_block_state(rng, da: int, blocks, dc: int) -> tuple:
    """(rho, dim B) for the direct sum over j of q_j rho_{A bL_j} (x)
    rho_{bR_j C}, the middle factor ordered block by block; its I(A:C|B)
    is exactly zero."""
    q = rng.uniform(0.3, 1.0, size=len(blocks))
    q /= q.sum()
    db = sum(bl * br for bl, br in blocks)
    dim = da * db * dc
    rho = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for qj, (bl, br) in zip(q, blocks):
        embed = np.zeros((db, bl * br))
        embed[offset:offset + bl * br, :] = np.eye(bl * br)
        lift = np.kron(np.kron(np.eye(da), embed), np.eye(dc))
        local = np.kron(_mixed_state(rng, da * bl), _mixed_state(rng, br * dc))
        rho += qj * (lift @ local @ lift.T)
        offset += bl * br
    return (rho + rho.conj().T) / 2.0, db


def _schmidt_vector(rng, da: int, db: int, rank: int) -> np.ndarray:
    left, _ = np.linalg.qr(_ginibre(rng, da, rank))
    right, _ = np.linalg.qr(_ginibre(rng, db, rank))
    coeffs = rng.uniform(0.2, 1.0, size=rank)
    coeffs /= np.linalg.norm(coeffs)
    vec = (left * coeffs) @ right.T
    return vec.reshape(-1)


def _werner_f(rng, d: int) -> float:
    """F in [1/d^2, 1], kept 1e-3 away from every Schmidt-number boundary."""
    while True:
        f = float(rng.uniform(1.0 / d ** 2, 1.0))
        if all(abs(f - k / d) > 1e-3 for k in range(1, d + 1)) \
                and f - 1.0 / d ** 2 > 1e-3:
            return f


def _gen_analyses(rng, outdir: str) -> list:
    requests = []

    def doc(name, content):
        return write_doc(os.path.join(outdir, f"{name}.json"), content)

    for rep in range(ANALYSES_REPEAT):
        for i, (d, r) in enumerate(CHANNEL_SIZES):
            path = doc(f"channel_{rep}_{i}",
                       _channel_doc(_isometry_kraus(rng, d, d, r)))
            requests.append(Request("channel", ["--json", "channel", "analyze",
                                                path], {"kraus_count": r}))
        for i, dims in enumerate(SSA_DIMS):
            path = doc(f"ssa_{rep}_{i}",
                       _state_doc(dims, _mixed_state(rng, math.prod(dims))))
            requests.append(Request("ssa", ["--json", "ssa", path],
                                    {"markov": False}))
        for i, (da, blocks, dc) in enumerate(MARKOV_SPECS):
            rho, db = _markov_block_state(rng, da, blocks, dc)
            path = doc(f"markov_{rep}_{i}", _state_doc((da, db, dc), rho))
            requests.append(Request("ssa", ["--json", "ssa", path],
                                    {"markov": True}))
        for i, (d, r) in enumerate(PETZ_SIZES):
            spath = doc(f"petz_state_{rep}_{i}",
                        _state_doc((d,), _mixed_state(rng, d)))
            cpath = doc(f"petz_channel_{rep}_{i}",
                        _channel_doc(_isometry_kraus(rng, d, d, r)))
            requests.append(Request("petz", ["--json", "petz", spath, cpath],
                                    {"kraus_count": r}))
        for i, (da, db) in enumerate(RANDOMIZE_DIMS):
            for sampler, count in (("haar", HAAR_UNITARIES), ("weyl", da * da)):
                path = doc(f"randomize_{sampler}_{rep}_{i}",
                           _state_doc((da, db), _mixed_state(rng, da * db)))
                seed = int(rng.integers(2 ** 31))
                requests.append(Request("randomize", [
                    "--seed", str(seed), "--json", "randomize", path,
                    "--n-unitaries", str(count), "--sampler", sampler,
                ], {"sampler": sampler, "n_unitaries": count,
                    "exact": sampler == "weyl"}))
        for i, (da, db) in enumerate(SCHMIDT_DIMS):
            rank = int(rng.integers(1, min(da, db) + 1))
            path = doc(f"schmidt_{rep}_{i}", {
                "kind": "state", "dims": [da, db],
                "vec": _schmidt_vector(rng, da, db, rank),
            })
            requests.append(Request("schmidt", ["--json", "schmidt", path],
                                    {"rank": rank, "terms": min(da, db)}))
        for d in WERNER_DIMS:
            f = _werner_f(rng, d)
            requests.append(Request("werner", [
                "--json", "werner", "--d", str(d), "--f", repr(f),
            ], {"d": d, "f": f}))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


_GENERATORS = {
    "qec-shor9": _gen_qec_shor9,
    "theta": _gen_theta,
    "tailbound": _gen_tailbound,
    "analyses": _gen_analyses,
}


def generate(workload: str, seed: int, outdir: str) -> list:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir`` and
    return its request list."""
    os.makedirs(outdir, exist_ok=True)
    return _GENERATORS[workload](_rng(seed, workload), outdir)
