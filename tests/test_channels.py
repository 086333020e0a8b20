import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinfokit import channels as chan
from qinfokit import matkit, states
from qinfokit.errors import (
    ChoiTooLarge,
    DimensionError,
    NotMinimal,
    NotPSD,
    NotStochastic,
    NotTracePreserving,
)
from qinfokit.randkit import haar_unitary, random_channel, random_state


def depolarizing2() -> chan.Channel:
    # T(X) = Tr(X) I/2 on M_2, Kraus = matrix units / sqrt(2).
    kraus = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1 / np.sqrt(2)
            kraus.append(e)
    return chan.Channel(2, 2, tuple(kraus))


def swap_choi(d: int) -> chan.ChoiMatrix:
    # Choi of the transpose map: the swap operator.
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            j[d * i + k, d * k + i] = 1.0
    return chan.ChoiMatrix(d, d, j)


# --- Choi calculus -------------------------------------------------------------

def test_choi_identity_rank_one():
    d = 3
    j = chan.choi(chan.identity_channel(d))
    phi = np.eye(d).reshape(-1)
    assert np.allclose(j.j, np.outer(phi, phi))
    assert chan.choi_rank(j) == 1


def test_choi_depolarizing():
    j = chan.choi(depolarizing2())
    assert np.allclose(j.j, np.eye(4) / 2)
    assert chan.choi_rank(j) == 4


def test_choi_random_channel_psd_tp():
    rng = np.random.default_rng(31)
    ch = random_channel(3, 3, 2, rng)
    j = chan.choi(ch)
    vals = np.linalg.eigvalsh(j.j)
    assert vals.min() >= -1e-10
    tr_out = matkit.partial_trace(j.j, (3, 3), {0})
    assert np.linalg.norm(tr_out - np.eye(3)) <= 1e-10
    # Definition oracle: J[(i,a),(j,b)] = T(E_ij)[a,b].
    for i in range(3):
        for jj in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, jj] = 1.0
            blk = j.j[i * 3:(i + 1) * 3, jj * 3:(jj + 1) * 3]
            assert np.linalg.norm(blk - ch(e)) <= 1e-12


def test_kraus_from_choi_roundtrip():
    rng = np.random.default_rng(32)
    for din, dout in [(2, 2), (3, 2), (2, 4)]:
        ch = random_channel(din, dout, 3, rng)
        j = chan.choi(ch)
        back = chan.kraus_from_choi(j)
        assert len(back.kraus) == chan.choi_rank(j)
        j2 = chan.choi(back)
        assert np.linalg.norm(j2.j - j.j) <= 1e-8


def test_kraus_from_choi_identity_phase():
    d = 3
    back = chan.kraus_from_choi(chan.choi(chan.identity_channel(d)))
    assert len(back.kraus) == 1
    k = back.kraus[0]
    assert np.linalg.norm(k - np.eye(d)) <= 1e-10  # phase fixed real positive


def test_kraus_from_choi_rejects_non_psd():
    with pytest.raises(NotPSD):
        chan.kraus_from_choi(swap_choi(2))


def test_choi_cap():
    with pytest.raises(ChoiTooLarge):
        chan.choi(chan.identity_channel(100))


@st.composite
def kraus_families(draw):
    """(din, dout, stack) of 1-5 operators with din, dout in 1..4: fresh
    Gaussian operators, zero operators, multiples of earlier ones and
    earlier ones plus 1e-7 or 1e-2 of a fresh one (their squared singular
    values fall either side of choi_rank's 1e-9), optionally made trace
    preserving, or unital as the adjoint of a TP family."""
    count = draw(st.integers(1, 5))
    din, dout = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = rng.standard_normal((count, dout, din)) + 1j * rng.standard_normal(
        (count, dout, din))
    ops /= np.sqrt(count * din * dout)
    for i in range(count):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "near"]))
        if kind == "zero":
            ops[i] = 0.0
        elif kind == "repeat" and i:
            ops[i] = draw(st.sampled_from([1.0, -0.5, 2j])) * ops[
                draw(st.integers(0, i - 1))]
        elif kind == "near" and i:
            ops[i] = ops[draw(st.integers(0, i - 1))] + draw(
                st.sampled_from([1e-7, 1e-2])) * ops[i]
    mode = draw(st.sampled_from(["raw", "tp", "unital"]))
    rows = ops.reshape(-1, din)
    u, sv, vh = np.linalg.svd(rows, full_matrices=False)
    if mode != "raw" and sv[-1] > 1e-6 * sv[0]:
        # Right polar factor: K_i -> K_i (F^dag F)^(-1/2), which keeps the
        # linear dependences among the K_i.
        ops = (u @ vh).reshape(count, dout, din)
        if mode == "unital":
            return dout, din, ops.conj().swapaxes(1, 2)
    return din, dout, ops


@settings(max_examples=80, deadline=None)
@given(kraus_families(), st.integers(0, 2 ** 32 - 1))
def test_stack_route_matches_choi_route(family, seed):
    din, dout, ops = family
    ch = chan.Channel(din, dout, ops)
    j = chan.choi(ch)
    assert chan.choi_rank(ch) == chan.choi_rank(j)
    assert chan.is_tp(ch) == chan.is_tp(j)
    assert chan.is_unital(ch) == chan.is_unital(j)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((din, din)) + 1j * rng.standard_normal((din, din))
    assert np.max(np.abs(ch(x) - j.apply(x))) <= 1e-12
    v = chan.stinespring_isometry(ch)
    env = matkit.partial_trace(v @ x @ matkit.dagger(v), (dout, len(ops)), {0})
    assert np.max(np.abs(env - ch(x))) <= 1e-12


def test_choi_rank_counts_independent_kraus():
    e = np.array([[1.0, 2.0], [0.0, 1j]])
    assert chan.choi_rank(chan.Channel(2, 2, (e, -3 * e, np.zeros((2, 2))))) == 1
    assert chan.choi_rank(chan.Channel(2, 2, (np.zeros((2, 2)),))) == 0
    assert chan.is_cp(chan.Channel(2, 2, (e,)))


def test_channel_holds_one_kraus_stack():
    stack = np.zeros((3, 2, 4), dtype=complex)
    ch = chan.Channel(4, 2, stack)
    assert ch.kraus is stack
    listed = chan.Channel(4, 2, list(stack))
    assert isinstance(listed.kraus, np.ndarray) and listed.kraus.shape == (3, 2, 4)


@pytest.mark.parametrize("kraus, message", [
    ((), "channel needs at least one Kraus operator"),
    (np.zeros((0, 2, 2)), "channel needs at least one Kraus operator"),
    ((np.eye(2), np.eye(3)), r"Kraus operator \(3, 3\) != \(2, 2\)"),
    ((np.eye(2), np.ones((2, 3))), r"Kraus operator \(2, 3\) != \(2, 2\)"),
    (np.zeros((2, 3, 3)), r"Kraus operator \(3, 3\) != \(2, 2\)"),
    ((np.eye(2), np.ones(2)), "expected a matrix, got ndim=1"),
    ((np.eye(2), np.diag([np.nan, 1.0])), "matrix has non-finite entries"),
    (np.full((1, 2, 2), np.inf), "matrix has non-finite entries"),
])
def test_channel_rejections(kraus, message):
    with pytest.raises(DimensionError, match=message):
        chan.Channel(2, 2, kraus)


# --- structural checks ------------------------------------------------------------

def test_transpose_map_not_cp():
    assert not chan.is_cp(swap_choi(2))
    assert chan.is_tp(swap_choi(2))


def test_choi_apply_runs_kraus_free_maps():
    # The swap Choi defines the transpose map; apply works without any
    # Kraus decomposition.
    rng = np.random.default_rng(56)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(swap_choi(3).apply(x) - x.T) <= 1e-12


def test_is_cp_tp_unital_on_channels():
    rng = np.random.default_rng(33)
    ch = random_channel(3, 3, 2, rng)
    assert chan.is_cp(ch)
    assert chan.is_tp(ch)
    u = haar_unitary(3, rng)
    uni = chan.Channel(3, 3, (u,))
    assert chan.is_unital(uni)
    assert chan.choi_rank(uni) == 1


def test_choi_rank_equals_kraus_span_dimension():
    rng = np.random.default_rng(34)
    for _ in range(5):
        ch = random_channel(3, 3, 3, rng)
        stacked = np.stack([k.reshape(-1) for k in ch.kraus])
        span_dim = np.linalg.matrix_rank(stacked, tol=1e-9)
        assert chan.choi_rank(ch) == span_dim


# --- algebra -----------------------------------------------------------------------

def test_apply_identity():
    rng = np.random.default_rng(35)
    rho = random_state((3,), rng)
    out = chan.apply(chan.identity_channel(3), rho)
    assert np.linalg.norm(out.rho - rho.rho) <= 1e-12


def test_adjoint_duality_oracle():
    rng = np.random.default_rng(36)
    ch = random_channel(3, 2, 2, rng)
    rho = random_state((3,), rng).rho
    sigma = random_state((2,), rng).rho
    lhs = np.trace(sigma @ ch(rho))
    rhs = np.trace(chan.adjoint(ch)(sigma) @ rho)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_compose_with_identity():
    rng = np.random.default_rng(37)
    ch = random_channel(2, 2, 2, rng)
    comp = chan.compose(ch, chan.identity_channel(2))
    assert np.linalg.norm(chan.choi(comp).j - chan.choi(ch).j) <= 1e-10


def test_tensor_dimensions():
    rng = np.random.default_rng(38)
    a = random_channel(2, 3, 2, rng)
    b = random_channel(2, 2, 2, rng)
    t = chan.tensor(a, b)
    assert (t.din, t.dout) == (4, 6)
    assert chan.is_tp(t)


# --- complementary channel -----------------------------------------------------------

def test_complementary_identity_and_unitary():
    d = 3
    comp = chan.complementary(chan.identity_channel(d))
    assert comp.dout == 1
    rho = random_state((d,), np.random.default_rng(39))
    assert comp(rho.rho)[0, 0] == pytest.approx(1.0, abs=1e-12)
    u = haar_unitary(d, np.random.default_rng(40))
    comp_u = chan.complementary(chan.Channel(d, d, (u,)))
    sigma = random_state((d,), np.random.default_rng(41))
    # Constant channel: output independent of the input state.
    assert np.linalg.norm(comp_u(rho.rho) - comp_u(sigma.rho)) <= 1e-12


def test_complementary_requires_tp():
    with pytest.raises(NotTracePreserving):
        chan.complementary(chan.Channel(2, 2, (np.eye(2) * 0.5,)))


def test_stinespring_isometry_recovers_channel():
    rng = np.random.default_rng(42)
    ch = random_channel(2, 2, 2, rng)
    v = chan.stinespring_isometry(ch)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-10
    rho = random_state((2,), rng).rho
    big = v @ rho @ v.conj().T
    out = matkit.partial_trace(big, (2, len(ch.kraus)), {0})
    assert np.linalg.norm(out - ch(rho)) <= 1e-9


def test_complementary_spectra_match_schmidt_marginals():
    rng = np.random.default_rng(43)
    ch = random_channel(3, 3, 2, rng)
    comp = chan.complementary(ch)
    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    rho = np.outer(psi, psi.conj())
    s1 = np.sort(np.linalg.eigvalsh(ch(rho)))
    s2 = np.sort(np.linalg.eigvalsh(comp(rho)))
    # Outputs are the two marginals of one pure dilation state, so the
    # nonzero spectra agree.
    nz1 = s1[s1 > 1e-9]
    nz2 = s2[s2 > 1e-9]
    assert len(nz1) == len(nz2)
    assert np.linalg.norm(nz1 - nz2) <= 1e-9


# --- classical and Schur channels ------------------------------------------------------

def test_classical_channel_identity_kernel():
    ch = chan.classical_channel(np.eye(3))
    assert chan.is_tp(ch)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert np.linalg.norm(ch(rho) - rho) <= 1e-12


def test_classical_channel_rejects_nonstochastic():
    with pytest.raises(NotStochastic):
        chan.classical_channel(np.array([[0.5, 0.2], [0.4, 0.8]]))


def test_schur_all_ones_is_identity():
    sm = chan.schur_channel(np.ones((3, 3)))
    assert sm.is_cp()
    rng = np.random.default_rng(44)
    x = rng.standard_normal((3, 3))
    assert np.allclose(sm(x), x)


def test_schur_indefinite_multiplier_not_cp():
    sm = chan.schur_channel(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not sm.is_cp()
    # Choi eigenvalue oracle.
    vals = np.linalg.eigvalsh(sm.choi().j)
    assert vals.min() < -1e-9


# --- Kraus change of basis ---------------------------------------------------------------

def test_change_of_basis_same_family():
    rng = np.random.default_rng(45)
    ch = random_channel(2, 2, 2, rng)
    u = chan.kraus_change_of_basis(ch.kraus, ch.kraus)
    assert u is not None
    assert np.linalg.norm(u - np.eye(2)) <= 1e-8


def test_change_of_basis_recovers_rotation():
    rng = np.random.default_rng(46)
    ch = random_channel(2, 2, 2, rng)
    rot = haar_unitary(2, rng)
    rotated = tuple(
        sum(rot[i, j] * ch.kraus[j] for j in range(2)) for i in range(2)
    )
    u = chan.kraus_change_of_basis(ch.kraus, rotated)
    assert u is not None
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-9
    assert np.linalg.norm(u - rot) <= 1e-8


def test_change_of_basis_unrelated_channels():
    rng = np.random.default_rng(47)
    a = random_channel(2, 2, 2, rng)
    b = random_channel(2, 2, 2, rng)
    assert chan.kraus_change_of_basis(a.kraus, b.kraus) is None


def test_change_of_basis_rejects_dependent_family():
    e = np.eye(2, dtype=complex)
    with pytest.raises(NotMinimal):
        chan.kraus_change_of_basis((e, 2 * e), (e,))


# --- channel distance ------------------------------------------------------------------

def antisym_sym_pair(d: int):
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[d * i + j, d * j + i] = 1.0
    eye = np.eye(d * d)
    alpha = (eye - swap) / (d * (d - 1))  # antisymmetric projector, normalized
    sigma = (eye + swap) / (d * (d + 1))  # symmetric projector, normalized
    t1 = chan.kraus_from_choi(chan.ChoiMatrix(d, d, d * alpha))
    t2 = chan.kraus_from_choi(chan.ChoiMatrix(d, d, d * sigma))
    return t1, t2


def test_one_to_one_norm_same_channel_zero():
    rng = np.random.default_rng(48)
    ch = random_channel(2, 2, 2, rng)
    val, _ = chan.one_to_one_norm_lb(ch, ch, restarts=2, iters=10)
    assert val <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_one_to_one_norm_worked_pair(d):
    t1, t2 = antisym_sym_pair(d)
    assert chan.is_tp(t1) and chan.is_tp(t2)
    val, witness = chan.one_to_one_norm_lb(t1, t2, restarts=4, iters=40)
    assert val == pytest.approx(4.0 / (d + 1), abs=1e-6)
    # The ascent value is attained at the returned witness.
    proj = np.outer(witness.vec, witness.vec.conj())
    attained = matkit.norm(t1(proj) - t2(proj), "trace")
    assert attained == pytest.approx(val, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_maximally_entangled_input_separates(d):
    t1, t2 = antisym_sym_pair(d)
    big1 = chan.tensor(t1, chan.identity_channel(d))
    big2 = chan.tensor(t2, chan.identity_channel(d))
    psi0 = states.max_entangled(d).vec
    rho = np.outer(psi0, psi0.conj())
    dist = matkit.norm(big1(rho) - big2(rho), "trace")
    assert dist == pytest.approx(2.0, abs=1e-8)


def test_trace_distance_contraction():
    rng = np.random.default_rng(49)
    for _ in range(10):
        ch = random_channel(3, 3, 2, rng)
        a, b = random_state((3,), rng), random_state((3,), rng)
        before = matkit.norm(a.rho - b.rho, "trace")
        after = matkit.norm(ch(a.rho) - ch(b.rho), "trace")
        assert after <= before + 1e-9


# --- transpose norm demo ---------------------------------------------------------------

@pytest.mark.parametrize("n,expect", [(1, 1.0), (2, 2.0), (3, 3.0)])
def test_transpose_channel_norm_demo(n, expect):
    assert chan.transpose_channel_norm_demo(n) == pytest.approx(expect, abs=1e-9)
