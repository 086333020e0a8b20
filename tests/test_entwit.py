import numpy as np
import pytest

from qinfokit import entwit, matkit, states
from qinfokit.errors import DimensionError, EigsNotDistinct, KOutOfRange
from qinfokit.randkit import random_pure, random_state
from qinfokit.states import PureState, State


# --- PPT test -------------------------------------------------------------------

def test_ppt_product_state():
    rng = np.random.default_rng(110)
    a, b = random_state((2,), rng), random_state((3,), rng)
    rho = State((2, 3), np.kron(a.rho, b.rho))
    assert entwit.ppt_test(rho)


def test_ppt_bell_state_fails():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = State((2, 2), np.outer(v, v.conj()))
    assert not entwit.ppt_test(rho)
    # Eigenvalue oracle: min eigenvalue of the partial transpose is -1/2.
    pt = matkit.partial_transpose(rho.rho, (2, 2), 1)
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)


def test_ppt_werner_low_f():
    rho = states.werner(2, 0.2)
    pt = matkit.partial_transpose(rho.rho, (2, 2), 1)
    assert np.linalg.eigvalsh(pt).min() >= -1e-9  # oracle
    assert entwit.ppt_test(rho)


def test_ppt_necessary_for_separability():
    rng = np.random.default_rng(111)
    for _ in range(20):
        terms = []
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            a = random_pure((2,), rng)
            b = random_pure((3,), rng)
            terms.append(w * np.kron(
                np.outer(a.vec, a.vec.conj()), np.outer(b.vec, b.vec.conj())
            ))
        rho = State((2, 3), sum(terms))
        assert entwit.ppt_test(rho)


# --- rank-two construction --------------------------------------------------------

def test_rank2_subspace_dimension():
    s = entwit.rank2_subspace(2)
    assert s.ambient == (4, 4)
    assert len(s) == 8


def test_rank2_subspace_no_rank_one_sampled():
    # Probabilistic proxy for the exact guarantee: no rank-one element
    # shows up among a thousand random draws.
    s = entwit.rank2_subspace(2)
    rng = np.random.default_rng(112)
    for _ in range(1000):
        coeffs = rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
        assert entwit.matrix_rank(s.element(coeffs)) >= 2


def test_rank2_block_structure_diagonal_case():
    # A = I, B = 0 gives rank exactly 2... per block scaling: the element
    # [[I, 0], [0, I]] has rank 2n; the defining low-rank case is a rank-1
    # A: [[A, 0], [0, A]] with A = E_11 has rank exactly 2.
    n = 2
    s = entwit.rank2_subspace(n)
    stack = np.stack([b.reshape(-1) for b in s.basis], axis=1)
    target = np.zeros((2 * n, 2 * n), dtype=complex)
    target[0, 0] = 1.0
    target[n, n] = 1.0
    coeffs = stack.conj().T @ target.reshape(-1)
    recon = s.element(coeffs)
    assert np.linalg.norm(recon - target) <= 1e-10  # target lies in S
    assert entwit.matrix_rank(target) == 2


def test_rank2_rejects_degenerate_spectrum():
    with pytest.raises(EigsNotDistinct):
        entwit.rank2_subspace(2, np.ones(4))


def test_rank2_complement():
    s = entwit.rank2_subspace(2)
    comp = entwit.rank2_complement(s)
    assert len(s) + len(comp) == 16
    for a in s.basis:
        for b in comp.basis:
            assert abs(matkit.hs_inner(a, b)) <= 1e-10
    rng = np.random.default_rng(113)
    for _ in range(200):
        coeffs = rng.standard_normal(len(comp)) + 1j * rng.standard_normal(len(comp))
        assert entwit.matrix_rank(comp.element(coeffs)) >= 2


# --- maximal min-rank subspaces ------------------------------------------------------

def test_min_rank_subspace_k0_full_space():
    s = entwit.min_rank_subspace(3, 4, 0)
    assert len(s) == 12


def test_min_rank_subspace_dimensions():
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(min(m, n)):
                s = entwit.min_rank_subspace(m, n, k)
                assert len(s) == (m - k) * (n - k), (m, n, k)


def test_min_rank_subspace_3_3_1():
    s = entwit.min_rank_subspace(3, 3, 1)
    assert len(s) == 4
    observed, passes = entwit.verify_min_rank(s, 1, samples=300, seed=0)
    assert passes and observed >= 2


def test_min_rank_subspace_4_4_1_sampled():
    s = entwit.min_rank_subspace(4, 4, 1)
    observed, passes = entwit.verify_min_rank(s, 1, samples=500, seed=1)
    assert passes and observed >= 2


def test_min_rank_k_out_of_range():
    with pytest.raises(KOutOfRange):
        entwit.min_rank_subspace(3, 3, 3)


def test_verify_min_rank_detects_pollution():
    s = entwit.min_rank_subspace(3, 3, 1)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1.0
    # QR with the rank-one witness first keeps it as a literal basis
    # element of the polluted span.
    stack = np.stack([bad.reshape(-1)] + [b.reshape(-1) for b in s.basis],
                     axis=1)
    q, _ = np.linalg.qr(stack)
    polluted = entwit.MatrixSubspace(
        (3, 3), tuple(q[:, i].reshape(3, 3) for i in range(q.shape[1]))
    )
    observed, passes = entwit.verify_min_rank(polluted, 1, samples=300, seed=2)
    assert observed == 1
    assert not passes


def test_a_subspace_keeps_its_complex_stack_and_refuses_other_shapes():
    s = entwit.min_rank_subspace(3, 4, 1)
    assert isinstance(s.basis, np.ndarray) and s.basis.shape == (6, 3, 4)
    assert entwit.MatrixSubspace((3, 4), s.basis).basis is s.basis
    coeffs = np.arange(6) + 1j
    assert np.abs(s.element(coeffs)
                  - sum(c * b for c, b in zip(coeffs, s.basis))).max() <= 1e-14
    with pytest.raises(DimensionError, match=r"basis element \(4, 3\) != \(3, 4\)"):
        entwit.MatrixSubspace((3, 4), [s.basis[0], s.basis[1].T])


def test_rank2_subspace_needs_n_at_least_2():
    with pytest.raises(DimensionError):
        entwit.rank2_subspace(1)


# --- Schmidt rank vs matrix rank ------------------------------------------------------

def test_schmidt_rank_equals_reshape_rank():
    rng = np.random.default_rng(114)
    for _ in range(100):
        m, n = 3, 4
        r = int(rng.integers(1, 4))
        vec = np.zeros(m * n, dtype=complex)
        for _ in range(r):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            vec += np.kron(a, b)
        vec /= np.linalg.norm(vec)
        psi = PureState((m, n), vec)
        reshaped_rank = entwit.matrix_rank(vec.reshape(m, n), tol=1e-9)
        assert states.schmidt_rank(psi, tol=1e-9) == reshaped_rank
