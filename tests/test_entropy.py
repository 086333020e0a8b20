import math

import numpy as np
import pytest

from qinfokit import entropy, matkit
from qinfokit.channels import Channel, adjoint
from qinfokit.errors import NotTracePreserving, ProbabilityError
from qinfokit.matkit import dagger
from qinfokit.randkit import haar_unitary, random_channel, random_pure, random_state
from qinfokit.states import State


def bell_state() -> State:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return State((2, 2), np.outer(v, v.conj()))


# --- entropies -----------------------------------------------------------------

def test_von_neumann_pure_and_mixed():
    rng = np.random.default_rng(60)
    psi = random_pure((4,), rng)
    assert entropy.von_neumann(psi.to_state()) <= 1e-10
    d = 5
    assert entropy.von_neumann(State((d,), np.eye(d) / d)) == pytest.approx(
        math.log2(d), abs=1e-12
    )


def test_von_neumann_eigenvalue_oracle():
    rng = np.random.default_rng(61)
    rho = random_state((3,), rng)
    vals = np.linalg.eigvalsh(rho.rho)
    want = -sum(v * math.log2(v) for v in vals if v > 1e-15)
    assert entropy.von_neumann(rho) == pytest.approx(want, abs=1e-10)


def test_von_neumann_reads_the_spectrum_as_eigvalsh_gives_it():
    # Bit for bit the formula on eigvalsh of rho, as it stood before the
    # State kept its spectrum, on full states and their marginals.
    def formula(state):
        vals = np.linalg.eigvalsh(state.rho)
        vals = vals[vals > matkit.SUPPORT_RTOL * max(vals.max(), 1e-300)]
        return max(float(-np.sum(vals * np.log2(vals))), 0.0)

    rng = np.random.default_rng(64)
    for full in [random_state((2, 3, 2), rng), random_pure((2, 3, 2), rng).to_state(),
                 random_state((2, 3, 2), rng, rank=2), bell_state()]:
        for keep in [range(len(full.dims)), [0], [1], [0, len(full.dims) - 1]]:
            state = full.marginal(keep)
            assert entropy.von_neumann(state) == formula(state)


def test_relative_entropy_cases():
    rng = np.random.default_rng(62)
    rho = random_state((3,), rng)
    assert entropy.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)
    d = 4
    psi = random_pure((d,), rng).to_state()
    flat = State((d,), np.eye(d) / d)
    assert entropy.relative_entropy(psi, flat) == pytest.approx(
        math.log2(d), abs=1e-9
    )
    e0 = State((2,), np.diag([1.0, 0.0]))
    e1 = State((2,), np.diag([0.0, 1.0]))
    assert entropy.relative_entropy(e0, e1) == math.inf


def test_relative_entropy_quadratic_lower_bound():
    rng = np.random.default_rng(63)
    for _ in range(20):
        rho, sigma = random_state((3,), rng), random_state((3,), rng)
        d = entropy.relative_entropy(rho, sigma)
        quad = np.real(np.trace((rho.rho - sigma.rho) @ (rho.rho - sigma.rho)))
        assert d >= quad / math.log(2) - 1e-8


def test_mutual_info_product_and_bell():
    rng = np.random.default_rng(64)
    a, b = random_state((2,), rng), random_state((3,), rng)
    prod = State((2, 3), np.kron(a.rho, b.rho))
    assert entropy.mutual_info(prod) == pytest.approx(0.0, abs=1e-9)
    assert entropy.mutual_info(bell_state()) == pytest.approx(2.0, abs=1e-12)


def test_mutual_info_equals_relative_entropy_to_marginals():
    rng = np.random.default_rng(65)
    rho = random_state((2, 2), rng)
    marg = State(
        (2, 2),
        np.kron(rho.marginal({0}).rho, rho.marginal({1}).rho),
    )
    assert entropy.mutual_info(rho) == pytest.approx(
        entropy.relative_entropy(rho, marg), abs=1e-8
    )


def test_cmi_nonnegative_monte_carlo():
    rng = np.random.default_rng(66)
    for _ in range(200):
        rho = random_state((2, 2, 2), rng)
        report = entropy.cond_mutual_info(rho)
        assert report.cmi >= -1e-8
        recomputed = report.s_ab + report.s_bc - report.s_b - report.s_abc
        assert abs(max(recomputed, 0.0) - report.cmi) <= 1e-10


# --- monotonicity ------------------------------------------------------------------

def test_relative_entropy_monotone_under_channels():
    rng = np.random.default_rng(67)
    for _ in range(50):
        rho, sigma = random_state((3,), rng), random_state((3,), rng)
        ch = random_channel(3, 3, 2, rng)
        before = entropy.relative_entropy(rho, sigma)
        after = entropy.relative_entropy(
            State((3,), ch(rho.rho)), State((3,), ch(sigma.rho))
        )
        assert before >= after - 1e-7


# --- Petz recovery -------------------------------------------------------------------

def test_petz_identity_channel():
    rng = np.random.default_rng(68)
    sigma = random_state((3,), rng)
    petz = entropy.petz_map(sigma, Channel(3, 3, (np.eye(3),)))
    x = random_state((3,), rng).rho
    assert np.linalg.norm(petz(x) - x) <= 1e-9


def test_petz_partial_trace_product():
    # For a product sigma and the partial trace channel, recovery is
    # X -> X (x) sigma_traced.
    rng = np.random.default_rng(69)
    a, b = random_state((2,), rng), random_state((2,), rng)
    sigma = State((2, 2), np.kron(a.rho, b.rho))
    kraus = tuple(
        np.kron(np.eye(2), e.reshape(1, 2))
        for e in np.eye(2)
    )
    tr_b = Channel(4, 2, kraus)
    assert np.linalg.norm(tr_b(sigma.rho) - a.rho) <= 1e-12
    petz = entropy.petz_map(sigma, tr_b)
    x = random_state((2,), rng).rho
    assert np.linalg.norm(petz(x) - np.kron(x, b.rho)) <= 1e-9


def test_petz_recovers_reference_state():
    rng = np.random.default_rng(70)
    sigma = random_state((3,), rng)
    ch = random_channel(3, 3, 2, rng)
    petz = entropy.petz_map(sigma, ch)
    back = petz(ch(sigma.rho))
    assert np.linalg.norm(back - sigma.rho) <= 1e-8
    # CP by construction; trace preserving on the support of T(sigma).
    acc = sum(dagger(k) @ k for k in petz.kraus)
    vals, vecs = np.linalg.eigh(ch(sigma.rho))
    support = vecs[:, vals > 1e-12]
    proj = support @ dagger(support)
    assert np.linalg.norm(proj @ acc @ proj - proj) <= 1e-9


def test_petz_requires_tp():
    rng = np.random.default_rng(71)
    sigma = random_state((2,), rng)
    with pytest.raises(NotTracePreserving):
        entropy.petz_map(sigma, Channel(2, 2, (0.5 * np.eye(2),)))


# --- transfer map and Markov states ----------------------------------------------------

def test_ssa_petz_map_product():
    rng = np.random.default_rng(72)
    b, c = random_state((2,), rng), random_state((3,), rng)
    rho_bc = State((2, 3), np.kron(b.rho, c.rho))
    transfer = entropy.ssa_petz_map(rho_bc, b)
    x = random_state((2,), rng).rho
    assert np.linalg.norm(transfer(x) - np.kron(x, c.rho)) <= 1e-9


def test_ssa_petz_map_reconstructs_marginal():
    rng = np.random.default_rng(73)
    rho_bc = random_state((2, 2), rng)
    rho_b = rho_bc.marginal({0})
    transfer = entropy.ssa_petz_map(rho_bc, rho_b)
    assert np.linalg.norm(transfer(rho_b.rho) - rho_bc.rho) <= 1e-9


def test_markov_state_single_product_block():
    rng = np.random.default_rng(74)
    a, bl = random_state((2,), rng), random_state((2,), rng)
    br, c = random_state((2,), rng), random_state((2,), rng)
    left = State((2, 2), np.kron(a.rho, bl.rho))
    right = State((2, 2), np.kron(br.rho, c.rho))
    rho = entropy.markov_state([(1.0, left, right)])
    assert rho.dims == (2, 4, 2)
    assert entropy.cond_mutual_info(rho).cmi <= 1e-8
    assert entropy.is_markov(rho)


def test_markov_state_two_entangled_blocks():
    rng = np.random.default_rng(75)
    spec = []
    for _ in range(2):
        left = random_state((2, 2), rng)
        right = random_state((2, 2), rng)
        spec.append((0.5, left, right))
    rho = entropy.markov_state(spec)
    assert rho.dims == (2, 8, 2)
    assert entropy.cond_mutual_info(rho).cmi <= 1e-8
    assert entropy.is_markov(rho, tol=1e-7)
    recon = entropy.markov_reconstruction(rho)
    assert matkit.norm(recon - rho.rho, "trace") <= 1e-8


def test_generic_state_not_markov():
    rng = np.random.default_rng(76)
    rho = random_state((2, 2, 2), rng)
    assert entropy.cond_mutual_info(rho).cmi > 0.01
    assert not entropy.is_markov(rho)


def test_bell_pair_with_trivial_middle_not_markov():
    bell = bell_state()
    rho = State((2, 1, 2), bell.rho)
    assert entropy.cond_mutual_info(rho).cmi == pytest.approx(2.0, abs=1e-9)
    assert not entropy.is_markov(rho)


def test_product_tripartite_is_markov():
    rng = np.random.default_rng(77)
    a, b, c = (random_state((2,), rng) for _ in range(3))
    rho = State((2, 2, 2), np.kron(np.kron(a.rho, b.rho), c.rho))
    assert entropy.is_markov(rho)


def test_is_markov_rejects_ill_conditioned_middle():
    from qinfokit.errors import IllConditioned

    rng = np.random.default_rng(81)
    a, c = random_state((2,), rng), random_state((2,), rng)
    # Middle marginal with an on-support eigenvalue ratio beyond 1e10.
    b = np.diag([1.0 - 1e-11, 1e-11])
    rho = State((2, 2, 2), np.kron(np.kron(a.rho, b), c.rho))
    with pytest.raises(IllConditioned):
        entropy.is_markov(rho)


def test_markov_state_rejects_bad_weights():
    rng = np.random.default_rng(78)
    left = random_state((2, 2), rng)
    right = random_state((2, 2), rng)
    with pytest.raises(ProbabilityError):
        entropy.markov_state([(0.7, left, right), (0.7, left, right)])


# --- commutant -----------------------------------------------------------------------

def test_commutant_identity_kraus():
    basis = entropy.kraus_commutant([np.eye(3)])
    assert len(basis) == 9


def test_commutant_matrix_units_trivial():
    units = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    basis = entropy.kraus_commutant(units)
    assert len(basis) == 1
    b = basis[0]
    assert np.linalg.norm(b - b[0, 0] * np.eye(2)) <= 1e-9


def test_commutant_block_structure():
    # Kraus supported on two diagonal blocks commute with both block
    # projectors.
    u1 = haar_unitary(2, np.random.default_rng(79))
    kraus = [np.block([
        [u1, np.zeros((2, 1))],
        [np.zeros((1, 2)), np.eye(1)],
    ])]
    basis = entropy.kraus_commutant(kraus)
    span = np.stack([b.reshape(-1) for b in basis], axis=1)
    for proj_diag in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
        p = np.diag(proj_diag).astype(complex).reshape(-1)
        resid = p - span @ (dagger(span) @ p)
        assert np.linalg.norm(resid) <= 1e-8


def test_fixed_points_of_adjoint_match_commutant():
    # Mixture of block-diagonal unitaries: fixed points of the adjoint
    # equal the commutant of the Kraus set.
    rng = np.random.default_rng(80)
    us = []
    for _ in range(2):
        u = np.zeros((3, 3), dtype=complex)
        u[:2, :2] = haar_unitary(2, rng)
        u[2, 2] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        us.append(u)
    kraus = tuple(u / np.sqrt(2) for u in us)
    ch = Channel(3, 3, kraus)
    adj = adjoint(ch)
    # Superoperator of the adjoint in the standard basis.
    sup = np.zeros((9, 9), dtype=complex)
    for k in adj.kraus:
        sup += np.kron(k, k.conj())
    # Cesaro projection onto the fixed space via eigendecomposition.
    vals, vecs = np.linalg.eig(sup)
    fixed = vecs[:, np.abs(vals - 1.0) < 1e-9]
    q_fixed, _ = np.linalg.qr(fixed)
    comm = entropy.kraus_commutant(list(kraus))
    q_comm = np.stack([b.reshape(-1) for b in comm], axis=1)
    # Same dimension and zero principal angles.
    assert q_fixed.shape[1] == q_comm.shape[1]
    sv = np.linalg.svd(dagger(q_fixed) @ q_comm, compute_uv=False)
    assert np.all(np.abs(sv - 1.0) <= 1e-6)
