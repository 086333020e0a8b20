import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinfokit import qec
from qinfokit.channels import Channel, is_tp
from qinfokit.errors import DimensionError, DomainError, KLViolated, ProbabilityError
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
    rec = qec.build_recovery(code, [np.eye(8)]).channel()
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
    assert is_tp(rec.channel())
    dev = qec.verify_recovery(rec, bit_flips(), samples=20, seed=1).max_deviation
    assert dev <= 1e-9


def test_recovery_partial_isometry_relations():
    # V_i^dag V_j = delta_ij P after the branch normalization.
    code = repetition_code()
    errors = bit_flips()
    rec = qec.build_recovery(code, errors)
    proj = code.projector()
    vs = [dagger(k) for k in rec.channel().kraus[:-1]]  # V_i^dag, then Q
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            want = proj if i == j else np.zeros_like(proj)
            assert np.linalg.norm(dagger(vi) @ vj - want) <= 1e-9


def test_build_recovery_rejects_uncorrectable():
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    with pytest.raises(KLViolated):
        qec.build_recovery(repetition_code(), [np.eye(8), xx,
                                               qec.pauli_on(3, 0, "Z")])


SCALES = [1e200, -1e200, 1e-200, -1e-200, 1e-320]


@pytest.mark.parametrize("scale", SCALES + [4e153])
def test_kl_verdict_does_not_depend_on_the_scale_of_the_errors(scale):
    # Tr E^dag E of the scaled families over- or underflows; at 4e153 each
    # one is finite and only their sum overflows.
    code = repetition_code()
    uncorrectable = [np.eye(8), qec.pauli_on(3, 0, "Z")]
    for errors, passes in ((uncorrectable, False), (bit_flips(), True)):
        want = qec.kl_check(code, errors)
        got = qec.kl_check(code, [scale * e for e in errors])
        assert got.passes is want.passes is passes
        assert got.max_residual == pytest.approx(want.max_residual, abs=1e-12)
        assert np.abs(got.alpha - want.alpha).max() <= 1e-12
    with pytest.raises(KLViolated, match="residual 7.071e-01"):
        qec.build_recovery(code, [scale * e for e in uncorrectable])
    want = qec.build_recovery(code, bit_flips())
    got = qec.build_recovery(code, [scale * e for e in bit_flips()])
    assert got.branches == want.branches == 4
    np.testing.assert_allclose(got.branch_images @ dagger(got.branch_images),
                               want.branch_images @ dagger(want.branch_images),
                               atol=1e-12)


@pytest.mark.parametrize("errors", [[np.zeros((8, 8))],
                                    [np.zeros((8, 8)), np.zeros((8, 8))]])
def test_all_zero_errors_raise_domain_error(errors):
    with pytest.raises(DomainError, match="every error operator is zero"):
        qec.kl_check(repetition_code(), errors)
    with pytest.raises(DomainError, match="every error operator is zero"):
        qec.build_recovery(repetition_code(), errors)


@pytest.mark.parametrize("scale", SCALES + [0.0])
def test_verify_recovery_refuses_noise_out_of_range(scale):
    # A Channel is taken as given: scaled by 1e200 its deviation is near
    # 1e400, and scaled by 1e-200 it underflows to the zero map. An error
    # list stands for its normalized noise, which no nonzero scale changes.
    rec = qec.build_recovery(repetition_code(), bit_flips())
    noise = bit_flips() + [qec.pauli_on(3, 0, "Z")]
    scaled = [scale * e for e in noise]
    with pytest.raises(DomainError, match="out of floating-point range"):
        qec.verify_recovery(rec, Channel(8, 8, scaled))
    if scale == 0.0:
        with pytest.raises(DomainError, match="every error operator is zero"):
            qec.verify_recovery(rec, scaled)
        return
    want = qec.verify_recovery(rec, noise, samples=5)
    got = qec.verify_recovery(rec, scaled, samples=5)
    assert want.max_deviation > 0.1
    assert got.max_deviation == pytest.approx(want.max_deviation, abs=1e-12)
    assert got.certified_deviation == pytest.approx(want.certified_deviation, abs=1e-12)


@pytest.mark.parametrize("scale", SCALES)
def test_noise_channel_of_a_scaled_list_is_the_channel_of_the_list(scale):
    noise = bit_flips() + [qec.pauli_on(3, 0, "Z")]
    want = qec.noise_channel(noise, [0.4, 0.3, 0.1, 0.1, 0.1]).kraus
    got = qec.noise_channel([scale * e for e in noise], [0.4, 0.3, 0.1, 0.1, 0.1]).kraus
    assert np.abs(np.sign(scale) * got - want).max() <= 1e-15


def test_noise_channel_of_errors_of_mixed_scales():
    # 1e-200 X against 1e200 I weighs 1e-400 in the normalized noise.
    ch = qec.noise_channel([1e200 * np.eye(8), 1e-200 * qec.pauli_on(3, 0, "X")])
    assert np.array_equal(ch.kraus, np.stack([np.eye(8), np.zeros((8, 8))]))


@pytest.mark.parametrize("errors, probs, message", [
    ([np.zeros((8, 8))] * 2, None, "every error operator is zero"),
    ([np.zeros((8, 8)), np.eye(8)], [1.0, 0.0], "is zero or out of floating-point range"),
    ([np.zeros((8, 8)), 1e200 * np.eye(8)], [1.0, 0.0],
     "is zero or out of floating-point range"),
])
def test_noise_channel_refuses_a_list_with_no_weight(errors, probs, message):
    with pytest.raises(DomainError, match=message):
        qec.noise_channel(errors, probs)


def test_operators_of_zero_weight_do_not_set_the_peak():
    # {1e-200 I, 1e200 X_0} with probs [1, 0] stands for the identity
    # noise. Its c underflows, and the list is divided by the peak of the
    # weighted I, not by 1e200, which would underflow I to zero.
    errors = [1e-200 * np.eye(8), 1e200 * qec.pauli_on(3, 0, "X")]
    rec = qec.build_recovery(repetition_code(), errors)
    check = qec.verify_recovery(rec, errors, probs=[1.0, 0.0])
    assert check.max_deviation == check.certified_deviation == 0
    kraus = qec.noise_channel(errors, [1.0, 0.0]).kraus
    assert np.array_equal(kraus, np.stack([np.eye(8), np.zeros((8, 8))]))
    # Probs that weigh only zero operators are still refused.
    with pytest.raises(DomainError, match="is zero or out of floating-point range"):
        qec.verify_recovery(rec, [np.zeros((8, 8)), 1e200 * np.eye(8)], probs=[1.0, 0.0])


def test_probabilities_whose_sum_overflows_are_relative_weights():
    rec = qec.build_recovery(repetition_code(), bit_flips())
    noise = [np.eye(8), qec.pauli_on(3, 0, "Z"), qec.pauli_on(3, 1, "X"),
             qec.pauli_on(3, 2, "Y")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = qec.verify_recovery(rec, noise, samples=5, probs=[1.0] * 4)
        got = qec.verify_recovery(rec, noise, samples=5, probs=[1e308] * 4)
        channel = qec.noise_channel(noise, [1e308] * 4)
    assert want.max_deviation > 0.1
    assert (got.max_deviation, got.certified_deviation) == (
        want.max_deviation, want.certified_deviation)
    assert np.array_equal(channel.kraus, qec.noise_channel(noise, [1.0] * 4).kraus)


def test_a_channel_given_as_an_error_list_is_verified_as_the_channel():
    # The bit-flip channel {sqrt(0.9) I, sqrt(0.1) X_0} without probs: its
    # Kraus operators are read as the channel, not as a uniform mixture
    # of them, as kl_check reads them.
    code = repetition_code()
    noise = [np.sqrt(0.9) * np.eye(8), np.sqrt(0.1) * qec.pauli_on(3, 0, "X")]
    assert qec.kl_check(code, noise).passes
    check = qec.verify_recovery(qec.build_recovery(code, noise), noise)
    assert check.max_deviation <= 1e-12 and check.certified_deviation <= 1e-12
    assert np.abs(qec.noise_channel(noise).kraus - np.stack(noise)).max() <= 1e-15


@pytest.mark.parametrize("scale", [1e-300, 1e300, 1e308])
def test_probabilities_are_weights_of_any_scale(scale):
    # probs are relative weights: Tr[sum_b p_b E_b^dag E_b] may overflow
    # without changing the noise.
    rec = qec.build_recovery(repetition_code(), bit_flips())
    noise = [np.eye(8), qec.pauli_on(3, 0, "Z"), qec.pauli_on(3, 1, "X"),
             qec.pauli_on(3, 2, "Y")]
    probs = [0.4, 0.3, 0.2, 0.1]
    want = qec.verify_recovery(rec, noise, samples=5, probs=probs)
    got = qec.verify_recovery(rec, noise, samples=5, probs=[scale * p for p in probs])
    assert want.max_deviation > 0.1
    assert got.max_deviation == pytest.approx(want.max_deviation, abs=1e-12)
    assert got.certified_deviation == pytest.approx(want.certified_deviation, abs=1e-12)


@st.composite
def unitary_noise(draw):
    """Haar unitaries on the repetition code's space, or bit flips that
    its recovery corrects, with probabilities or without."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        noise = [haar_unitary(8, rng) for _ in range(count)]
    else:
        noise = [bit_flips()[i] for i in rng.integers(0, 4, size=count)]
    probs = rng.uniform(0.0, 3.0, count) if draw(st.booleans()) else None
    return noise, probs


@settings(max_examples=60, deadline=None)
@given(unitary_noise(), st.integers(0, 2 ** 31 - 1))
def test_unitary_noise_verifies_as_the_weighted_mixture(case, seed):
    # A list of unitaries is the mixture with probabilities p_b / sum p,
    # uniform without probs, as it was before the normalization was shared
    # with kl_check: the reference is that mixture given as a Channel.
    noise, probs = case
    rec = qec.build_recovery(repetition_code(), bit_flips())
    p = np.ones(len(noise)) if probs is None else probs
    mixture = Channel(8, 8, [np.sqrt(q / p.sum()) * u for q, u in zip(p, noise)])
    want = qec.verify_recovery(rec, mixture, samples=4, seed=seed)
    got = qec.verify_recovery(rec, noise, samples=4, seed=seed, probs=probs)
    assert got.max_deviation == pytest.approx(want.max_deviation, abs=1e-12)
    assert got.certified_deviation == pytest.approx(want.certified_deviation, abs=1e-12)


def test_recovery_without_branches_verifies():
    # Every error annihilates the code space: alpha = 0, no branch is
    # kept, and the recovery is its completion Q = I alone.
    code = repetition_code()
    off_code = np.diag([0.0, 1, 1, 1, 1, 1, 1, 0])
    rec = qec.build_recovery(code, [off_code])
    assert rec.branches == 0 and rec.kraus_count == 1
    check = qec.verify_recovery(rec, [np.eye(8)], samples=5)
    assert check.max_deviation <= 1e-12 and check.certified_deviation <= 1e-12


def test_verify_recovery_detects_outside_noise():
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    xx = qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X")
    dev = qec.verify_recovery(rec, [xx], samples=10, seed=2).max_deviation
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
        diff = rec.channel()(noise(sigma)) - sigma
        want = max(want, float(np.abs(np.linalg.eigvalsh(diff)).sum()))
    got = qec.verify_recovery(rec, noise, samples=6, seed=7).max_deviation
    assert want > 0.1
    assert got == pytest.approx(want, abs=1e-12)


def test_verify_recovery_reads_an_error_list_without_its_channel(monkeypatch):
    # sqrt(p_b) E_b W is formed from the list directly; the deviation is
    # that of the noise channel with Kraus operators sqrt(p_b) E_b.
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    errors = [np.eye(8), qec.pauli_on(3, 0, "X") @ qec.pauli_on(3, 1, "X"),
              qec.pauli_on(3, 2, "Y")]
    probs = [5.0, 3.0, 2.0]
    want = qec.verify_recovery(rec, qec.noise_channel(errors, probs),
                               samples=6, seed=7)

    def no_channel(*args):
        raise AssertionError("noise_channel was built")

    monkeypatch.setattr(qec, "noise_channel", no_channel)
    got = qec.verify_recovery(rec, errors, samples=6, seed=7, probs=probs)
    assert want.max_deviation > 0.1
    assert got.max_deviation == pytest.approx(want.max_deviation, abs=1e-12)
    assert got.certified_deviation == pytest.approx(want.certified_deviation,
                                                    abs=1e-12)
    with pytest.raises(ProbabilityError, match="nonnegative"):
        qec.verify_recovery(rec, errors, probs=[1.0, -1.0, 1.0])
    with pytest.raises(DimensionError, match=r"error operator \(4, 4\) != \(8, 8\)"):
        qec.verify_recovery(rec, [np.eye(4)])


def test_verify_recovery_refuses_probs_with_a_channel():
    # Probabilities weight an error list; a Channel carries its own.
    rec = qec.build_recovery(repetition_code(), bit_flips())
    noise = qec.noise_channel(bit_flips())
    with pytest.raises(DomainError, match="probs"):
        qec.verify_recovery(rec, noise, probs=[1.0] * 4)


def test_verify_recovery_identity_noise():
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    dev = qec.verify_recovery(rec, [np.eye(8)], samples=5, seed=3).max_deviation
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
    dev = qec.verify_recovery(rec_conj, qec.noise_channel(conj_errors),
                              samples=10, seed=4).max_deviation
    assert dev <= 1e-8


@st.composite
def recovery_cases(draw):
    """A random code, a random error family that it corrects, and noise
    that the recovery built from that family corrects (trace-preserving
    on the code space, in the family's span) or not (random contractions),
    with the flag saying which."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    n = k * m + draw(st.integers(0, 2))
    v = haar_unitary(n, rng)
    code = qec.Code(n, k, v[:, :k])
    # E_b = v S_b v^dag with S_b swapping coordinate blocks 0 and b sends
    # the code space onto mutually orthogonal images; a unitary on the
    # left and linear mixing keep the family correctable, and more
    # members than images make alpha singular (a dropped branch).
    base = []
    for b in range(m):
        perm = np.arange(n)
        perm[:k], perm[b * k:(b + 1) * k] = perm[b * k:(b + 1) * k], perm[:k].copy()
        base.append(v @ np.eye(n)[perm] @ dagger(v))
    u = haar_unitary(n, rng)
    count = m + draw(st.integers(0, 1))
    mix = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    errors = [u @ sum(c * e for c, e in zip(row, base)) for row in mix]
    corrected = draw(st.booleans())
    if corrected:
        # base[0] is I and base[b] a Hermitian unitary, so each member
        # u (cos t I + i sin t base[b]) is a unitary in the family's span,
        # and the noise is trace preserving for any probabilities.
        noise = []
        for b, t in zip(rng.integers(0, m, size=len(errors)),
                        rng.uniform(0, 2 * np.pi, size=len(errors))):
            noise.append(u @ (np.cos(t) * base[0] + 1j * np.sin(t) * base[b]))
    else:
        noise = []
        for _ in range(draw(st.integers(1, 3))):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            noise.append(g / np.linalg.norm(g, 2))
    probs = rng.uniform(0.1, 1.0, len(noise))
    return code, errors, noise, probs, corrected


@settings(max_examples=60, deadline=None)
@given(recovery_cases(), st.integers(0, 2 ** 31 - 1))
def test_factored_verification_matches_dense_channels(case, seed):
    # Reference: the dense recovery channel after the full n x n noise
    # channel, on the same sampled logical states, and the Choi matrix of
    # rho -> R(N(W rho W^dag)) - W rho W^dag on (input x output).
    code, errors, noise, probs, corrected = case
    rec = qec.build_recovery(code, errors)
    dense = rec.channel()
    noise_ch = qec.noise_channel(noise, probs)
    w, n, k = code.isometry, code.physical_dim, code.logical_dim

    def delta(rho):
        sigma = w @ rho @ dagger(w)
        return dense(noise_ch(sigma)) - sigma

    rng = np.random.default_rng(seed)
    want = 0.0
    for _ in range(4):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        rho = g @ dagger(g)
        rho /= np.real(np.trace(rho))
        want = max(want, float(np.abs(np.linalg.eigvalsh(delta(rho))).sum()))
    choi = np.zeros((k * n, k * n), dtype=complex)
    for i in range(k):
        for j in range(k):
            unit = np.zeros((k, k))
            unit[i, j] = 1.0
            choi[i * n:(i + 1) * n, j * n:(j + 1) * n] = delta(unit)
    want_cert = float(np.abs(np.linalg.eigvalsh(choi)).sum())

    check = qec.verify_recovery(rec, noise, samples=4, seed=seed, probs=probs)
    got, cert = check.max_deviation, check.certified_deviation
    assert got == pytest.approx(want, abs=1e-12)
    assert cert == pytest.approx(want_cert, abs=1e-12)
    assert got <= cert + 1e-12
    if corrected:
        assert cert <= 1e-10


def test_sampled_deviation_stays_below_the_certificate():
    # Noise the recovery does not correct: every sampled deviation is
    # bounded by the sample-free certificate.
    rng = np.random.default_rng(61)
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    for _ in range(20):
        noise = [haar_unitary(8, rng) for _ in range(int(rng.integers(1, 4)))]
        probs = rng.uniform(0.1, 1.0, len(noise))
        check = qec.verify_recovery(rec, noise, samples=50,
                                    seed=int(rng.integers(2 ** 31)), probs=probs)
        assert 0.01 < check.max_deviation <= check.certified_deviation


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


def _loop_kl_report(ews):
    """alpha and the largest residual by one k x k product per pair (the
    reference for the single Gram product of _kl_report)."""
    m, _, k = ews.shape
    alpha = np.zeros((m, m), dtype=complex)
    max_resid = 0.0
    for i in range(m):
        for j in range(m):
            blk = dagger(ews[i]) @ ews[j]
            alpha[i, j] = np.trace(blk) / k
            resid = np.linalg.norm(blk - alpha[i, j] * np.eye(k))
            max_resid = max(max_resid, float(resid))
    return alpha, max_resid


def _kl_cases():
    rng = np.random.default_rng(40)
    shor = qec.shor_code()
    w3, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    w1 = np.zeros((4, 1), dtype=complex)
    w1[0, 0] = 1.0
    return [
        (shor, qec.one_paulis(9)),
        (shor, [qec.pauli_on(9, 0, "X") @ qec.pauli_on(9, 1, "X"), np.eye(512)]),
        (repetition_code(), bit_flips()),
        (repetition_code(), bit_flips() + [qec.pauli_on(3, 0, "Z")]),
        (qec.Code(6, 3, w3), [haar_unitary(6, rng) for _ in range(5)]),
        (qec.Code(4, 1, w1), [haar_unitary(4, rng) for _ in range(3)]),
    ]


@pytest.mark.parametrize("case", range(6))
def test_kl_report_matches_pairwise_loop(case):
    code, ops = _kl_cases()[case]
    ews = qec._normalized_images(code.isometry, ops)
    alpha, max_resid = _loop_kl_report(ews)
    report = qec._kl_report(ews, 1e-8)
    assert np.abs(report.alpha - alpha).max() <= 1e-14
    assert abs(report.max_residual - max_resid) <= 1e-14
    assert report.passes is (max_resid <= 1e-8)


def test_shor_recovery_and_rotation_error():
    code = qec.shor_code()
    ops = qec.one_paulis(9)
    rec = qec.build_recovery(code, ops)
    dense = rec.channel()
    assert is_tp(dense)
    assert rec.kraus_count == len(dense.kraus) == 23
    dev = qec.verify_recovery(rec, ops, samples=10, seed=5).max_deviation
    assert dev <= 1e-8
    theta = 0.3
    x5 = qec.pauli_on(9, 4, "X")
    rot = np.cos(theta) * np.eye(512) + 1j * np.sin(theta) * x5
    assert qec.span_correction_check(code, ops, [rot])
    xx = qec.pauli_on(9, 0, "X") @ qec.pauli_on(9, 1, "X")
    assert not qec.span_correction_check(code, ops, [xx])


def test_shor_certified_deviation_and_an_uncorrected_error():
    code = qec.shor_code()
    ops = qec.one_paulis(9)
    rec = qec.build_recovery(code, ops)
    assert qec.verify_recovery(rec, ops).certified_deviation <= 1e-12
    # X on qubits 0 and 1 lies outside the span the recovery was built
    # for: verification against it fails, within the certificate.
    xx = qec.pauli_on(9, 0, "X") @ qec.pauli_on(9, 1, "X")
    check = qec.verify_recovery(rec, [xx], samples=50, seed=6)
    assert 0.1 < check.max_deviation <= check.certified_deviation


def test_shor_recovery_allocates_no_dense_operator():
    # The factored recovery and its verification, certificate included,
    # form nothing n x n: the traced peak stays below one 512 x 512 complex
    # array (4.19 MB), where the dense Kraus stack alone was 96 MB.
    code = qec.shor_code()
    ops = qec.one_paulis(9)
    # The first call imports numpy.random; keep that out of the peak.
    qec.verify_recovery(qec.build_recovery(code, ops), ops, samples=1)
    tracemalloc.start()
    try:
        rec = qec.build_recovery(code, ops)
        qec.verify_recovery(rec, ops, samples=50, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 16


@pytest.mark.parametrize("probs, error, message", [
    ([1.0], DimensionError, "probabilities must match the error list"),
    ([1.0, -0.5], ProbabilityError, "probabilities must be nonnegative"),
    ([0.0, 0.0], ProbabilityError, "positive finite sum"),
    ([np.inf, 1.0], ProbabilityError, "positive finite sum"),
])
def test_noise_channel_probability_errors(probs, error, message):
    with pytest.raises(error, match=message):
        qec.noise_channel([np.eye(2), qec.pauli_on(1, 0, "X")], probs)


def test_noise_channel_stack_scales_errors():
    x = qec.pauli_on(1, 0, "X")
    ch = qec.noise_channel([np.eye(2), x], [3.0, 1.0])
    assert ch.kraus.shape == (2, 2, 2)
    assert np.allclose(ch.kraus[0], np.sqrt(0.75) * np.eye(2))
    assert np.allclose(ch.kraus[1], 0.5 * x)
    assert is_tp(ch)


# --- the one pass over an error list -------------------------------------------

def _readers():
    """Every reader of an error list, each run on a list as given."""
    code = repetition_code()
    rec = qec.build_recovery(code, bit_flips())
    return {
        "kl_check": lambda errors: qec.kl_check(code, errors),
        "build_recovery": lambda errors: qec.build_recovery(code, errors),
        "verify_recovery": lambda errors: qec.verify_recovery(rec, errors, samples=2),
        "noise_channel": qec.noise_channel,
    }


@settings(max_examples=60, deadline=None)
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                            complex(1, -np.inf)]),
       member=st.integers(0, 3), row=st.integers(0, 7), col=st.integers(0, 7),
       reader=st.sampled_from(sorted(_readers())))
def test_a_non_finite_entry_of_any_member_is_refused_by_every_reader(bad, member, row,
                                                                     col, reader):
    # Only a non-finite trace looks at the entries; NaN and inf entries
    # give one, and are refused as asmatrix refuses them.
    errors = [e.copy() for e in bit_flips()]
    errors[member][row, col] = bad
    with pytest.raises(DimensionError, match="^matrix has non-finite entries$"):
        _readers()[reader](errors)


@pytest.mark.parametrize("reader", sorted(_readers()))
def test_a_non_finite_entry_is_reported_before_a_shape_mismatch(reader):
    errors = [np.eye(4)] + bit_flips()[1:]
    errors[-1] = errors[-1].copy()
    errors[-1][3, 5] = np.nan
    with pytest.raises(DimensionError, match="^matrix has non-finite entries$"):
        _readers()[reader](errors)
    errors[-1][3, 5] = 0.0
    with pytest.raises(DimensionError, match=r"^error operator \([48], [48]\) != "):
        _readers()[reader](errors)


def test_errors_whose_traces_overflow_keep_their_verdict_and_deviations():
    # Entries near 1e200 are finite, but their squares overflow: the traces
    # are inf, and the family is scaled by its peak, not refused.
    code, scale = repetition_code(), 1e200
    errors = bit_flips() + [qec.pauli_on(3, 0, "Z")]
    assert np.isinf(qec._ImagedErrors(code.isometry, [scale * e for e in errors]).traces).all()
    for family, passes in ((bit_flips(), True), (errors, False)):
        want = qec.kl_check(code, family)
        got = qec.kl_check(code, [scale * e for e in family])
        assert got.passes is want.passes is passes
        assert got.max_residual == want.max_residual
        assert (got.alpha == want.alpha).all()
    rec = qec.build_recovery(code, [scale * e for e in bit_flips()])
    want = qec.verify_recovery(qec.build_recovery(code, bit_flips()), errors,
                               samples=8, seed=3)
    got = qec.verify_recovery(rec, errors, samples=8, seed=3)
    assert (got.max_deviation, got.certified_deviation) == (want.max_deviation,
                                                            want.certified_deviation)
    assert want.max_deviation > 0.1


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), k=st.integers(1, 4), m=st.integers(1, 4))
def test_one_pass_images_and_traces_are_bit_identical(data, n, k, m):
    # The same BLAS products as one matmul and one vdot per member; members
    # may be real, Fortran-ordered or transposed views.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k = min(k, n)
    w = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    scale = 10.0 ** data.draw(st.integers(-150, 150))
    ops = []
    for _ in range(m):
        e = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        form = data.draw(st.sampled_from(["c", "f", "t", "real"]))
        ops.append({"c": e, "f": np.asfortranarray(e), "t": e.T, "real": e.real}[form])
    images, traces = qec._code_images(w, qec._error_list(ops))
    want = [np.asarray(e, dtype=complex) for e in ops]
    assert images.tobytes() == np.stack([e @ w for e in want]).tobytes()
    assert traces.tobytes() == np.array([np.vdot(e, e).real for e in want]).tobytes()
