import numpy as np
import pytest

from qinfokit import qec
from qinfokit.channels import is_tp
from qinfokit.errors import KLViolated
from qinfokit.matkit import dagger
from qinfokit.randkit import haar_unitary


def repetition_code() -> qec.Code:
    w = np.zeros((8, 2), dtype=complex)
    w[0, 0] = 1.0  # |000>
    w[7, 1] = 1.0  # |111>
    return qec.Code(8, 2, w)


def bit_flips():
    return [np.eye(8, dtype=complex)] + [
        qec.pauli_on(3, i, "X") for i in range(3)
    ]


# --- correctability checks -------------------------------------------------------

def test_kl_check_identity_error():
    report = qec.kl_check(repetition_code(), [np.eye(8)])
    assert report.passes
    assert np.allclose(report.alpha, [[1.0]])


def test_kl_check_repetition_bit_flips():
    report = qec.kl_check(repetition_code(), bit_flips())
    assert report.passes
    assert report.max_residual <= 1e-10
    vals = np.linalg.eigvalsh(report.alpha)
    assert vals.min() >= -1e-10
    assert np.trace(report.alpha) == pytest.approx(1.0, abs=1e-10)


def test_kl_check_fails_on_uncorrectable():
    # Z errors are invisible to the repetition code basis but X1 X2 maps
    # the code space onto itself in a logic-dependent way: not correctable
    # together with the identity.
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    zz = qec.pauli_on(3, 0, "Z")
    report = qec.kl_check(repetition_code(), [np.eye(8), xx, zz])
    assert not report.passes


# --- recovery synthesis ------------------------------------------------------------

def test_recovery_identity_error():
    code = repetition_code()
    rec = qec.build_recovery(code, [np.eye(8)])
    assert is_tp(rec)
    rng = np.random.default_rng(50)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    sigma = code.isometry @ rho @ dagger(code.isometry)
    assert np.linalg.norm(rec(sigma) - sigma) <= 1e-10


def test_recovery_repetition_bit_flips():
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    assert is_tp(rec)
    dev = qec.verify_recovery(rec, bit_flips(), code, samples=20, seed=1)
    assert dev <= 1e-9


def test_recovery_partial_isometry_relations():
    # V_i^dag V_j = delta_ij P after the branch normalization.
    code = repetition_code()
    errors = bit_flips()
    rec = qec.build_recovery(code, errors)
    proj = code.projector()
    vs = [dagger(k) for k in rec.kraus[:-1]]  # Kraus are V_i^dag, then Q
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            want = proj if i == j else np.zeros_like(proj)
            assert np.linalg.norm(dagger(vi) @ vj - want) <= 1e-9


def test_build_recovery_rejects_uncorrectable():
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    with pytest.raises(KLViolated):
        qec.build_recovery(repetition_code(), [np.eye(8), xx,
                                               qec.pauli_on(3, 0, "Z")])


def test_verify_recovery_detects_outside_noise():
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    dev = qec.verify_recovery(rec, [xx], code, samples=10, seed=2)
    assert dev > 0.1


def test_verify_recovery_matches_direct_evaluation():
    # Reference: apply noise then recovery as full 8 x 8 channels to the
    # same sampled logical states, without the reachable-subspace
    # compression. The noise is not correctable, so deviations are O(1).
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    noise = qec.noise_channel([np.eye(8), xx, qec.pauli_on(3, 2, "Y")],
                              [0.5, 0.3, 0.2])
    w = code.isometry
    rng = np.random.default_rng(7)
    want = 0.0
    for _ in range(6):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ dagger(g)
        rho /= np.real(np.trace(rho))
        sigma = w @ rho @ dagger(w)
        diff = rec(noise(sigma)) - sigma
        want = max(want, float(np.abs(np.linalg.eigvalsh(diff)).sum()))
    got = qec.verify_recovery(rec, noise, code, samples=6, seed=7)
    assert want > 0.1
    assert got == pytest.approx(want, abs=1e-12)


def test_verify_recovery_identity_noise():
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    dev = qec.verify_recovery(rec, [np.eye(8)], code, samples=5, seed=3)
    assert dev <= 1e-9


def test_recovery_basis_independence():
    # Conjugating every error by a fixed unitary commuting with the code
    # projector preserves correctability (same alpha matrix), and the
    # recovery built from the conjugated family corrects the conjugated
    # noise exactly.
    code = repetition_code()
    errors = bit_flips()
    rng = np.random.default_rng(51)
    # Unitary acting separately on the code space and its complement.
    w = code.isometry
    q, _ = np.linalg.qr(
        np.hstack([w, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))])
    )
    u = q @ _block_diag(haar_unitary(2, rng), haar_unitary(6, rng)) @ dagger(q)
    proj = code.projector()
    assert np.linalg.norm(u @ proj - proj @ u) <= 1e-10
    conj_errors = [u @ e @ dagger(u) for e in errors]
    alpha0 = qec.kl_check(code, errors).alpha
    report = qec.kl_check(code, conj_errors)
    assert report.passes
    assert np.linalg.norm(report.alpha - alpha0) <= 1e-9
    rec_conj = qec.build_recovery(code, conj_errors)
    dev = qec.verify_recovery(rec_conj, qec.noise_channel(conj_errors), code,
                              samples=10, seed=4)
    assert dev <= 1e-8


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


# --- span correction ----------------------------------------------------------------

def test_span_correction_same_set():
    assert qec.span_correction_check(repetition_code(), bit_flips(), bit_flips())


def test_span_correction_detects_outside():
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    assert not qec.span_correction_check(repetition_code(), bit_flips(), [xx])


# --- Shor code ------------------------------------------------------------------------

def test_shor_code_isometry():
    code = qec.shor_code()
    assert code.physical_dim == 512 and code.logical_dim == 2
    w = code.isometry
    assert np.linalg.norm(dagger(w) @ w - np.eye(2)) <= 1e-12


def test_one_paulis_count_and_unitarity():
    ops = qec.one_paulis(9)
    assert len(ops) == 28
    for op in ops[:5]:
        assert np.linalg.norm(op @ dagger(op) - np.eye(512)) <= 1e-12


def test_shor_error_subspaces_orthogonal():
    # V, X_i V, Y_i V (all i) and Z_1 V are mutually orthogonal.
    code = qec.shor_code()
    w = code.isometry
    blocks = [w]
    for which in ("X", "Y"):
        for site in range(9):
            blocks.append(qec.pauli_on(9, site, which) @ w)
    blocks.append(qec.pauli_on(9, 0, "Z") @ w)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            overlap = np.linalg.norm(dagger(blocks[i]) @ blocks[j])
            assert overlap <= 1e-12


def test_shor_z_groups_act_identically():
    # Z errors within one GHZ block restrict to the same map on the code.
    code = qec.shor_code()
    w = code.isometry
    for block in range(3):
        base = qec.pauli_on(9, 3 * block, "Z") @ w
        for offset in (1, 2):
            other = qec.pauli_on(9, 3 * block + offset, "Z") @ w
            assert np.linalg.norm(base - other) <= 1e-12


def test_shor_kl_check_and_binary_blocks():
    code = qec.shor_code()
    ops = qec.one_paulis(9)
    report = qec.kl_check(code, ops)
    assert report.passes
    assert np.trace(report.alpha) == pytest.approx(1.0, abs=1e-10)
    # Each W^dag U_i^dag U_j W is 0 or a phase times I, so the normalized
    # alpha entries have modulus 0 or 1/28.
    mods = np.abs(report.alpha)
    assert np.all((mods <= 1e-9) | (np.abs(mods - 1.0 / 28.0) <= 1e-9))
    w = code.isometry
    rng = np.random.default_rng(6)
    for _ in range(10):
        i, j = rng.integers(0, 28, size=2)
        blk = dagger(ops[i] @ w) @ (ops[j] @ w)
        scale = abs(blk[0, 0])
        if scale <= 1e-12:
            assert np.linalg.norm(blk) <= 1e-10
        else:
            assert np.linalg.norm(blk - blk[0, 0] * np.eye(2)) <= 1e-10


def test_shor_recovery_and_rotation_error():
    code = qec.shor_code()
    ops = qec.one_paulis(9)
    rec = qec.build_recovery(code, ops)
    assert is_tp(rec)
    dev = qec.verify_recovery(rec, ops, code, samples=10, seed=5)
    assert dev <= 1e-8
    theta = 0.3
    x5 = qec.pauli_on(9, 4, "X")
    rot = np.cos(theta) * np.eye(512) + 1j * np.sin(theta) * x5
    assert qec.span_correction_check(code, ops, [rot])
    xx = qec.pauli_on(9, 0, "X") @ qec.pauli_on(9, 1, "X")
    assert not qec.span_correction_check(code, ops, [xx])
