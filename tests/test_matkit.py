import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qinfokit
from qinfokit import matkit, qec, serialize
from qinfokit.errors import DimensionError, NegativeEigenvalue, NotHermitian


def rand_c(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_herm(rng, n):
    a = rand_c(rng, n, n)
    return (a + a.conj().T) / 2


# --- kron ------------------------------------------------------------------

def test_kron_identity():
    assert np.allclose(matkit.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_diagonal():
    out = matkit.kron(np.diag([1.0, 2.0]), np.diag([3.0]))
    assert np.allclose(out, np.diag([3.0, 6.0]))


def test_kron_index_formula_oracle():
    rng = np.random.default_rng(7)
    a, b = rand_c(rng, 2, 2), rand_c(rng, 2, 2)
    got = matkit.kron(a, b)
    # Independent four-loop oracle: (a (x) b)[(i,k),(j,l)] = a[i,j] b[k,l].
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert got[2 * i + k, 2 * j + l] == pytest.approx(
                        a[i, j] * b[k, l]
                    )


def test_kron_mixed_product_and_associativity():
    rng = np.random.default_rng(8)
    a, b, c, d = (rand_c(rng, 2, 2) for _ in range(4))
    lhs = matkit.kron(a, b) @ matkit.kron(c, d)
    rhs = matkit.kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assoc1 = matkit.kron(matkit.kron(a, b), c)
    assoc2 = matkit.kron(a, matkit.kron(b, c))
    assert np.linalg.norm(assoc1 - assoc2) <= 1e-12 * np.linalg.norm(assoc1)


# --- partial trace / transpose ----------------------------------------------

def test_partial_trace_product_case():
    rng = np.random.default_rng(9)
    a, b = rand_c(rng, 2, 2), rand_c(rng, 3, 3)
    out = matkit.partial_trace(np.kron(a, b), (2, 3), {0})
    assert np.allclose(out, a * np.trace(b))


def test_partial_trace_epr_marginal():
    # Tracing either side of a maximally entangled projector gives I/d.
    d = 4
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi.conj())
    for keep in ({0}, {1}):
        out = matkit.partial_trace(proj, (d, d), keep)
        assert np.linalg.norm(out - np.eye(d) / d) <= 1e-12


def test_partial_trace_double_sum_oracle():
    rng = np.random.default_rng(10)
    m = rand_c(rng, 6, 6)
    got = matkit.partial_trace(m, (2, 3), {0})
    # Index-sum oracle: out[a, a'] = sum_b m[(a,b), (a',b)].
    want = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for b in range(3):
                want[a, ap] += m[3 * a + b, 3 * ap + b]
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.trace(got) == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_trace_keep_both_and_order():
    rng = np.random.default_rng(11)
    m = rand_c(rng, 6, 6)
    assert np.allclose(matkit.partial_trace(m, (2, 3), {0, 1}), m)


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionError):
        matkit.partial_trace(np.eye(5), (2, 3), {0})


def test_partial_transpose_product_case():
    rng = np.random.default_rng(12)
    a, b = rand_c(rng, 2, 2), rand_c(rng, 3, 3)
    out = matkit.partial_transpose(np.kron(a, b), (2, 3), 1)
    assert np.allclose(out, np.kron(a, b.T))


def test_partial_transpose_maxent_gives_swap():
    # On the unnormalized Phi = sum |ii><jj|, transposing one side yields
    # the swap operator sum |ij><ji| (index oracle below).
    d = 3
    phi = np.eye(d).reshape(-1)
    proj = np.outer(phi, phi)
    got = matkit.partial_transpose(proj, (d, d), 1)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[d * i + j, d * j + i] = 1.0
    assert np.allclose(got, swap)


def test_partial_transpose_whole_space_and_involution():
    rng = np.random.default_rng(13)
    m = rand_c(rng, 4, 4)
    sym = m + m.T
    assert np.allclose(matkit.partial_transpose(sym, (4,), 0), sym)
    once = matkit.partial_transpose(m, (2, 2), 0)
    twice = matkit.partial_transpose(once, (2, 2), 0)
    assert np.allclose(twice, m)


# --- eigen / svd -------------------------------------------------------------

def test_herm_eig_sorted_ascending():
    eig = matkit.herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [1.0, 2.0, 3.0])


def test_herm_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eig = matkit.herm_eig(x)
    assert np.allclose(eig.values, [-1.0, 1.0])
    for k, lam in enumerate(eig.values):
        v = eig.vectors[:, k]
        assert np.linalg.norm(x @ v - lam * v) <= 1e-12


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(14)
    h = rand_herm(rng, 8)
    eig = matkit.herm_eig(h)
    recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.linalg.norm(gram - np.eye(8)) <= 1e-10


def test_herm_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        matkit.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_diagonal_and_unitary():
    res = matkit.svd(np.diag([2.0, 0.0]))
    assert np.allclose(res.singulars, [2.0, 0.0])
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(matkit.svd(u).singulars, [1.0, 1.0])


def test_svd_reconstruction():
    rng = np.random.default_rng(15)
    m = rand_c(rng, 3, 4)
    res = matkit.svd(m)
    recon = res.left @ np.diag(res.singulars) @ res.right.conj().T
    assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
    assert np.all(np.diff(res.singulars) <= 1e-14)
    for factor in (res.left, res.right):
        gram = factor.conj().T @ factor
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) <= 1e-10


# --- matrix functions ---------------------------------------------------------

def test_matrix_function_sqrt_and_exp():
    assert np.allclose(
        matkit.matrix_function(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0])
    )
    assert np.allclose(
        matkit.matrix_function(np.zeros((3, 3)), "exp"), np.eye(3)
    )


def test_matrix_function_log_exp_roundtrip():
    rng = np.random.default_rng(16)
    g = rand_c(rng, 4, 4)
    psd = g @ g.conj().T + 0.5 * np.eye(4)
    back = matkit.matrix_function(matkit.matrix_function(psd, "ln"), "exp")
    assert np.linalg.norm(back - psd) <= 1e-9 * np.linalg.norm(psd)


def test_matrix_function_pinv_sqrt_on_support():
    p = np.diag([4.0, 0.0])
    out = matkit.matrix_function(p, "pinv_sqrt_inv")
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_matrix_function_rejects_indefinite_sqrt():
    with pytest.raises(NegativeEigenvalue):
        matkit.matrix_function(np.diag([1.0, -1.0]), "sqrt")


# --- norms -------------------------------------------------------------------

def test_norm_unitary_and_trace():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert matkit.norm(u, "operator") == pytest.approx(1.0)
    rng = np.random.default_rng(17)
    h = rand_herm(rng, 5)
    # Eigenvalue oracle for the trace norm of a Hermitian matrix.
    want = np.sum(np.abs(np.linalg.eigvalsh(h)))
    assert matkit.norm(h, "trace") == pytest.approx(want, abs=1e-10)


def test_hs_inner_matrix_units():
    for (i, j, k, l) in [(0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 1, 1)]:
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        a[i, j] = 1.0
        b[k, l] = 1.0
        want = 1.0 if (i, j) == (k, l) else 0.0
        assert matkit.hs_inner(a, b) == pytest.approx(want)


def test_hs_inner_shape_mismatch():
    with pytest.raises(DimensionError):
        matkit.hs_inner(np.eye(2), np.eye(3))


def test_trace_norm_duality():
    # trace_norm(xi) is attained by the sign operator of xi.
    rng = np.random.default_rng(18)
    xi = rand_herm(rng, 6)
    vals, vecs = np.linalg.eigh(xi)
    sign_op = (vecs * np.sign(vals)) @ vecs.conj().T
    attained = abs(np.trace(xi @ sign_op))
    assert matkit.norm(sign_op, "operator") <= 1.0 + 1e-12
    assert attained == pytest.approx(matkit.norm(xi, "trace"), abs=1e-10)


# --- orthonormal_basis ----------------------------------------------------------

def _reference_basis(a, tol):
    """orthonormal_basis by the dense SVD alone (the reference)."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :int(np.sum(s > tol * s[0]))]


def _orthonormal_columns(rng, rows, cols):
    return np.linalg.qr(rand_c(rng, rows, cols))[0]


@st.composite
def _spans(draw):
    """(A, tol, rank or None): low-rank inputs with 1e-14 noise, full-rank
    tall and wide ones, real ones, zero and column-free ones, and inputs
    whose smallest singular value sits 1% above or below tol * s_0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noisy", "full", "real", "zero", "empty",
                                 "above", "below"]))
    rank = draw(st.integers(1, 40))
    rows = draw(st.integers(rank + 8, 90))
    cols = draw(st.integers(rank + 8, 90))
    if kind == "noisy":
        a = rand_c(rng, rows, rank) @ rand_c(rng, rank, cols)
        return a + 1e-14 * rand_c(rng, rows, cols), 1e-10, rank
    if kind == "full":
        rows, cols = draw(st.permutations([rows, draw(st.integers(1, 90))]))
        return rand_c(rng, rows, cols), 1e-10, None
    if kind == "real":
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        return a, 1e-10, rank
    if kind == "zero":
        return np.zeros((rows, cols)), 1e-10, 0
    if kind == "empty":
        return np.zeros((rows, 0), dtype=complex), 1e-10, 0
    # With tol = 1e-3 the smallest kept direction is resolved to ~1e-13.
    tol = 1e-3
    last = tol * (1.01 if kind == "above" else 0.99)
    values = np.append(np.geomspace(1.0, 1e-2, rank), last)
    a = (_orthonormal_columns(rng, rows, rank + 1) * values) @ matkit.dagger(
        _orthonormal_columns(rng, cols, rank + 1))
    return a, tol, rank + 1 if kind == "above" else rank


@settings(max_examples=200, deadline=None)
@given(case=_spans())
def test_orthonormal_basis_matches_dense_svd(case):
    a, tol, rank = case
    got = matkit.orthonormal_basis(a, tol)
    want = _reference_basis(a, tol)
    assert got.shape == want.shape
    if rank is not None:
        assert got.shape[1] == rank
    assert np.abs(got @ matkit.dagger(got) - want @ matkit.dagger(want)).max(initial=0) <= 1e-12
    assert np.abs(matkit.dagger(got) @ got - np.eye(got.shape[1])).max(initial=0) <= 1e-12
    assert got.tobytes() == matkit.orthonormal_basis(a, tol).tobytes()


def test_orthonormal_basis_keeps_a_weak_tail_beyond_the_sketch():
    # 32 unit singular values and 8 at 1e-6: a weak tail far below s_0 but
    # above tol * s_0, so every one of the 40 directions must be kept.
    rng = np.random.default_rng(32)
    values = np.r_[np.ones(32), np.full(8, 1e-6)]
    a = (_orthonormal_columns(rng, 100, 40) * values) @ matkit.dagger(
        _orthonormal_columns(rng, 120, 40))
    basis = matkit.orthonormal_basis(a)
    assert basis.shape == (100, 40)
    assert np.linalg.norm(a - basis @ (matkit.dagger(basis) @ a), 2) <= 1e-12


@pytest.mark.parametrize("rank", [2, 31, 200])
def test_orthonormal_basis_is_one_svd_of_its_input(monkeypatch, rank):
    rng = np.random.default_rng(31)
    a = rand_c(rng, 512, rank) @ rand_c(rng, rank, 600)
    inputs = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        inputs.append(m)
        return svd(m, *args, **kwargs)

    def no_rng(*args, **kwargs):
        raise AssertionError("orthonormal_basis drew random numbers")

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    basis = matkit.orthonormal_basis(a)
    assert basis.shape == (512, rank)
    assert len(inputs) == 1 and inputs[0] is a


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test extra only: the package and a qec recover, which
    # takes the basis of its reachable subspace (a 64 x 16 stack) by SVD,
    # must not import it.
    w = np.zeros((64, 2))
    w[0, 0] = w[63, 1] = 1.0
    code = tmp_path / "code.json"
    code.write_text(serialize.canonical_dumps(
        serialize.code_to_doc(qec.Code(64, 2, w))))
    errors = tmp_path / "errors.json"
    errors.write_text(serialize.canonical_dumps({
        "kind": "channel", "din": 64, "dout": 64,
        "kraus": [np.eye(64, dtype=complex)] + [qec.pauli_on(6, i, "X") for i in range(6)],
    }))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qinfokit\n"
        "from qinfokit import cli\n"
        f"sys.exit(cli.run(['--json', 'qec', 'recover', {str(code)!r}, "
        f"{str(errors)!r}, '--verify', '5']))\n"
    )
    src = os.path.dirname(os.path.dirname(qinfokit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["recovered"] and report["max_deviation"] <= 1e-8
