import numpy as np
import pytest

from qinfokit import matkit, states
from qinfokit.errors import BelowValidRange, CutOutOfRange, DimensionError, FOutOfRange
from qinfokit.randkit import haar_unitary, random_pure, random_state
from qinfokit.states import PureState, State


def bell() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState((2, 2), v)


@pytest.mark.parametrize("dims", [(0, 2), (-1, -2), (2, 0)])
def test_states_need_positive_dimensions(dims):
    with pytest.raises(DimensionError, match="must be positive"):
        State(dims, np.eye(1))
    with pytest.raises(DimensionError, match="must be positive"):
        PureState(dims, np.ones(1))


# --- Schmidt decomposition ----------------------------------------------------

def test_a_state_keeps_its_spectrum_and_a_read_only_rho():
    rng = np.random.default_rng(28)
    state = random_state((2, 3), rng)
    assert state.spectrum.tobytes() == np.linalg.eigvalsh(state.rho).tobytes()
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.spectrum[0] = 1.0
    # The caller's array is copied, so it stays writable.
    rho = np.eye(2, dtype=complex) / 2
    State((2,), rho)
    rho[0, 0] = 1.0


def test_schmidt_product_state():
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    psi = PureState((2, 2), np.kron(u, v))
    form = states.schmidt_decompose(psi)
    assert form.coeffs[0] == pytest.approx(1.0)
    assert np.all(form.coeffs[1:] <= 1e-12)
    assert states.schmidt_rank(psi) == 1


def test_schmidt_bell():
    form = states.schmidt_decompose(bell())
    assert np.allclose(form.coeffs, [1 / np.sqrt(2)] * 2)


def test_schmidt_random_marginals_oracle():
    rng = np.random.default_rng(21)
    psi = random_pure((3, 4), rng)
    form = states.schmidt_decompose(psi)
    assert len(form.coeffs) <= 3
    assert np.sum(form.coeffs ** 2) == pytest.approx(1.0, abs=1e-10)
    # Reconstruction from the Schmidt data.
    recon = np.zeros(12, dtype=complex)
    for k, lam in enumerate(form.coeffs):
        recon += lam * np.kron(form.left_vecs[:, k], form.right_vecs[:, k])
    assert np.linalg.norm(recon - psi.vec) <= 1e-10
    # Marginal formulas: rho_A = sum lam^2 |phi_k><phi_k| and same for B.
    rho = psi.to_state()
    for keep, vecs in (({0}, form.left_vecs), ({1}, form.right_vecs)):
        marg = matkit.partial_trace(rho.rho, (3, 4), keep)
        want = sum(
            lam ** 2 * np.outer(vecs[:, k], vecs[:, k].conj())
            for k, lam in enumerate(form.coeffs)
        )
        assert np.linalg.norm(marg - want) <= 1e-10


def test_schmidt_rank_cases():
    d = 3
    assert states.schmidt_rank(states.max_entangled(d)) == d
    lam = np.array([0.8, 0.6])
    vec = np.zeros(9, dtype=complex)
    vec[0] = lam[0]
    vec[4] = lam[1]
    assert states.schmidt_rank(PureState((3, 3), vec)) == 2


def test_schmidt_cut_out_of_range():
    with pytest.raises(CutOutOfRange):
        states.schmidt_decompose(bell(), cut=2)


def test_entropy_left_equals_right_on_pure():
    rng = np.random.default_rng(22)
    from qinfokit.entropy import von_neumann

    for _ in range(20):
        psi = random_pure((3, 5), rng)
        rho = psi.to_state()
        sa = von_neumann(rho.marginal({0}))
        sb = von_neumann(rho.marginal({1}))
        assert sa == pytest.approx(sb, abs=1e-10)


def test_schmidt_local_unitary_invariance():
    rng = np.random.default_rng(23)
    psi = random_pure((3, 3), rng)
    u, v = haar_unitary(3, rng), haar_unitary(3, rng)
    rotated = PureState((3, 3), np.kron(u, v) @ psi.vec)
    c1 = states.schmidt_decompose(psi).coeffs
    c2 = states.schmidt_decompose(rotated).coeffs
    assert np.linalg.norm(c1 - c2) <= 1e-10


# --- purification ---------------------------------------------------------------

def test_purify_pure_input():
    psi = PureState((2,), np.array([1.0, 0.0]))
    pur = states.purify(psi.to_state())
    assert pur.dims == (2, 1)


def test_purify_maximally_mixed():
    d = 3
    pur = states.purify(State((d,), np.eye(d) / d))
    form = states.schmidt_decompose(pur)
    assert np.allclose(form.coeffs, np.full(d, 1 / np.sqrt(d)))


def test_purify_roundtrip():
    rng = np.random.default_rng(24)
    rho = random_state((3,), rng)
    pur = states.purify(rho)
    back = matkit.partial_trace(
        np.outer(pur.vec, pur.vec.conj()), pur.dims, {0}
    )
    assert np.linalg.norm(back - rho.rho) <= 1e-10


# --- Werner family ---------------------------------------------------------------

def test_werner_endpoints():
    d = 3
    psi0 = states.max_entangled(d)
    w1 = states.werner(d, 1.0)
    assert np.linalg.norm(
        w1.rho - np.outer(psi0.vec, psi0.vec.conj())
    ) <= 1e-12
    w_mixed = states.werner(d, 1.0 / d ** 2)
    assert matkit.norm(w_mixed.rho - np.eye(d * d) / d ** 2, "trace") <= 1e-12


def test_werner_eigenvalues():
    w = states.werner(3, 0.5)
    vals = np.sort(np.linalg.eigvalsh(w.rho))
    assert np.allclose(vals[:-1], 0.0625, atol=1e-12)
    assert vals[-1] == pytest.approx(0.5, abs=1e-12)


def test_werner_overlap_and_invariance():
    rng = np.random.default_rng(25)
    d, f = 3, 0.37
    w = states.werner(d, f)
    psi0 = states.max_entangled(d).vec
    assert np.real(psi0.conj() @ w.rho @ psi0) == pytest.approx(f, abs=1e-12)
    for _ in range(5):
        u = haar_unitary(d, rng)
        big = np.kron(u, u.conj())
        rotated = big @ w.rho @ big.conj().T
        assert matkit.norm(rotated - w.rho, "trace") <= 1e-9


def test_werner_f_out_of_range():
    with pytest.raises(FOutOfRange):
        states.werner(2, 1.5)


def test_werner_schmidt_number_bands():
    assert states.werner_schmidt_number(3, 0.5) == 2
    assert states.werner_schmidt_number(3, 1.0) == 3
    assert states.werner_schmidt_number(3, 1.0 / 3.0) == 1
    assert states.werner_schmidt_number(3, 2.0 / 3.0) == 2
    assert states.werner_schmidt_number(3, 2.0 / 3.0 + 1e-6) == 3
    with pytest.raises(BelowValidRange):
        states.werner_schmidt_number(3, 0.05)


# --- fidelity / distance ----------------------------------------------------------

def test_fidelity_identical_and_orthogonal():
    rng = np.random.default_rng(26)
    rho = random_state((3,), rng)
    assert states.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert states.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    e0 = State((2,), np.diag([1.0, 0.0]))
    e1 = State((2,), np.diag([0.0, 1.0]))
    assert states.fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)
    assert states.trace_distance(e0, e1) == pytest.approx(2.0, abs=1e-12)


def test_fidelity_pure_overlap_oracle():
    rng = np.random.default_rng(27)
    a, b = random_pure((4,), rng), random_pure((4,), rng)
    want = abs(np.vdot(a.vec, b.vec)) ** 2
    got = states.fidelity(a.to_state(), b.to_state())
    assert got == pytest.approx(want, abs=1e-10)


def test_fidelity_trace_distance_relation():
    rng = np.random.default_rng(28)
    for _ in range(20):
        rho, sigma = random_state((3,), rng), random_state((3,), rng)
        lhs = 0.5 * states.trace_distance(rho, sigma)
        rhs = np.sqrt(max(0.0, 1.0 - states.fidelity(rho, sigma)))
        assert lhs <= rhs + 1e-10


# --- overlap ascent ------------------------------------------------------------

def test_max_overlap_maxent_on_maxent():
    d = 3
    rho = states.max_entangled(d).to_state()
    val, u = states.max_overlap_maxent(rho, restarts=1, iters=50)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10


def test_max_overlap_pure_schmidt_formula():
    # For a pure state with Schmidt coefficients lam the maximum overlap
    # with maximally entangled states is (sum lam)^2 / d.
    rng = np.random.default_rng(29)
    d = 3
    psi = random_pure((d, d), rng)
    lam = states.schmidt_decompose(psi).coeffs
    want = float(np.sum(lam)) ** 2 / d
    val, _ = states.max_overlap_maxent(
        psi.to_state(), restarts=8, iters=300, rng=np.random.default_rng(0)
    )
    assert val == pytest.approx(want, abs=1e-6)


def test_max_overlap_werner():
    rho = states.werner(3, 0.7)
    val, _ = states.max_overlap_maxent(rho, restarts=4, iters=200)
    assert val == pytest.approx(0.7, abs=1e-6)


def test_max_overlap_bounded_by_schmidt_number():
    # Mixtures of Schmidt-number <= k states never beat k/d.
    rng = np.random.default_rng(30)
    d, k = 4, 2
    mats = []
    for _ in range(6):
        vec = np.zeros(d * d, dtype=complex)
        # Rank-k pure state with haphazard coefficients.
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        lam = np.abs(rng.standard_normal(k))
        lam /= np.linalg.norm(lam)
        for i in range(k):
            vec += lam[i] * np.kron(u[:, i], v[:, i])
        mats.append(np.outer(vec, vec.conj()))
    w = np.abs(rng.standard_normal(len(mats)))
    w /= w.sum()
    rho = State((d, d), sum(wi * m for wi, m in zip(w, mats)))
    val, _ = states.max_overlap_maxent(rho, restarts=6, iters=200)
    assert val <= k / d + 1e-8


def test_schmidt_number_lower_bound():
    d = 3
    assert states.schmidt_number_lower_bound(
        State((d, d), np.eye(d * d) / d ** 2), restarts=2, iters=50
    ) == 1
    assert states.schmidt_number_lower_bound(
        states.max_entangled(d).to_state(), restarts=2, iters=50
    ) == d
    assert states.schmidt_number_lower_bound(
        states.werner(3, 0.9), restarts=4, iters=200
    ) == 3


# --- Weyl / EPR bases -----------------------------------------------------------

def test_weyl_basis_d2_matches_pauli_set():
    basis = states.unitary_error_basis(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    targets = [np.eye(2, dtype=complex), z, x, x @ z]
    assert len(basis) == 4
    for w, t in zip(basis, targets):
        # Equal up to a global phase.
        overlap = abs(np.trace(t.conj().T @ w)) / 2
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_weyl_orthogonality_gram():
    for d in (2, 3):
        basis = states.unitary_error_basis(d)
        gram = np.array([
            [matkit.hs_inner(a, b) for b in basis] for a in basis
        ])
        assert np.linalg.norm(gram - d * np.eye(d * d)) <= 1e-12


def test_epr_basis_gram_and_marginals():
    d = 3
    basis = states.epr_basis(d)
    gram = np.array([
        [np.vdot(a.vec, b.vec) for b in basis] for a in basis
    ])
    assert np.linalg.norm(gram - np.eye(d * d)) <= 1e-12
    for psi in basis[:4]:
        marg = matkit.partial_trace(
            np.outer(psi.vec, psi.vec.conj()), (d, d), {0}
        )
        assert np.linalg.norm(marg - np.eye(d) / d) <= 1e-12
