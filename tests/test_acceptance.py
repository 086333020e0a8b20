"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from qinfokit import (
    channels as chan,
    entropy,
    entwit,
    matkit,
    qec,
    randkit,
    states,
    zeroerr,
)
from qinfokit.randkit import random_channel, random_pure, random_state
from qinfokit.states import State


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_transpose_norm():
    t0 = time.time()
    ok = all(
        abs(chan.transpose_channel_norm_demo(n) - n) <= 1e-9
        for n in (2, 3, 4)
    )
    _report(1, "transpose-map norm", ok, time.time() - t0, 1.0)


def test_criterion_02_choi_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(200)
    ok = True
    for _ in range(100):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        k_min = -(-din // dout)  # smallest count allowing trace preservation
        k = int(rng.integers(k_min, k_min + 3))
        ch = random_channel(din, dout, k, rng)
        j = chan.choi(ch)
        back = chan.kraus_from_choi(j)
        ok &= np.linalg.norm(chan.choi(back).j - j.j) <= 1e-8
        # Choi rank equals the rank of the Choi matrix by construction;
        # cross-check against the independent Kraus-span dimension.
        stacked = np.stack([op.reshape(-1) for op in ch.kraus])
        ok &= chan.choi_rank(j) == np.linalg.matrix_rank(stacked, tol=1e-9)
        ok &= len(back.kraus) == chan.choi_rank(j)
    _report(2, "Choi calculus", ok, time.time() - t0, 5.0)


def test_criterion_03_shor_code():
    t0 = time.time()
    code = qec.shor_code()
    paulis = qec.one_paulis(9)
    ok = qec.kl_check(code, paulis).passes
    recovery = qec.build_recovery(code, paulis)
    deviation = qec.verify_recovery(recovery, paulis, samples=50, seed=0).max_deviation
    ok &= deviation <= 1e-8
    # Dense reference: the noise channel, then the recovery channel, on the
    # first sampled state, and the Choi matrix of {K_r E_b W} minus {W}.
    w = code.isometry
    noise, dense = qec.noise_channel(paulis), recovery.channel()
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = w @ (g @ matkit.dagger(g)) @ matkit.dagger(w)
    sigma /= np.real(np.trace(sigma))
    want = matkit.norm(dense(noise(sigma)) - sigma, "trace")
    vecs = (dense.kraus[:, None] @ (noise.kraus @ w)[None]).reshape(-1, 512, 2)
    vecs = vecs.swapaxes(1, 2).reshape(len(vecs), -1)
    choi_w = w.T.reshape(-1, 1)
    choi = vecs.T @ vecs.conj() - choi_w @ choi_w.conj().T
    want_cert = float(np.abs(np.linalg.eigvalsh(choi)).sum())
    check = qec.verify_recovery(recovery, paulis, samples=1, seed=0)
    ok &= abs(check.max_deviation - want) <= 1e-12 and want <= 1e-8
    ok &= abs(check.certified_deviation - want_cert) <= 1e-12
    theta = 0.3
    rot = (math.cos(theta) * np.eye(512)
           + 1j * math.sin(theta) * qec.pauli_on(9, 4, "X"))
    ok &= qec.span_correction_check(code, paulis, [rot])
    _report(3, "Shor code pipeline", ok, time.time() - t0, 30.0)


def test_criterion_04_schmidt_suite():
    t0 = time.time()
    rng = np.random.default_rng(201)
    ok = True
    for _ in range(200):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        psi = random_pure((da, db), rng)
        form = states.schmidt_decompose(psi)
        ok &= abs(float(np.sum(form.coeffs ** 2)) - 1.0) <= 1e-10
        rho = psi.to_state()
        for keep, vecs in (({0}, form.left_vecs), ({1}, form.right_vecs)):
            marg = matkit.partial_trace(rho.rho, (da, db), keep)
            want = sum(
                lam ** 2 * np.outer(vecs[:, k], vecs[:, k].conj())
                for k, lam in enumerate(form.coeffs)
            )
            ok &= np.linalg.norm(marg - want) <= 1e-10
        sa = entropy.von_neumann(rho.marginal({0}))
        sb = entropy.von_neumann(rho.marginal({1}))
        ok &= abs(sa - sb) <= 1e-10
    _report(4, "Schmidt suite", ok, time.time() - t0, 2.0)


def test_criterion_05_werner_schmidt_numbers():
    t0 = time.time()
    d = 3
    ok = states.werner_schmidt_number(d, 1.0 / 3.0) == 1
    ok &= states.werner_schmidt_number(d, 1.0 / 3.0 + 1e-9) == 2
    ok &= states.werner_schmidt_number(d, 2.0 / 3.0) == 2
    ok &= states.werner_schmidt_number(d, 2.0 / 3.0 + 1e-9) == 3
    ok &= states.werner_schmidt_number(d, 1.0) == 3
    for k in (2, 3):
        f = (k - 1) / d + 0.02
        bound = states.schmidt_number_lower_bound(
            states.werner(d, f), restarts=6, iters=300,
            rng=np.random.default_rng(5),
        )
        ok &= bound >= k
    _report(5, "Werner Schmidt numbers", ok, time.time() - t0, 20.0)


def test_criterion_06_theta_sdp():
    t0 = time.time()
    ok = True
    worst_solve = 0.0
    for n in (2, 3):
        t1 = time.time()
        r = zeroerr.theta_tilde(
            zeroerr.graph_op_system(zeroerr.complete_graph(n))
        )
        worst_solve = max(worst_solve, time.time() - t1)
        ok &= abs(r.value - 1.0) <= 1e-4 and abs(r.gap) <= 1e-6
        t1 = time.time()
        r = zeroerr.theta_tilde(zeroerr.operator_system(n, [np.eye(n)]))
        worst_solve = max(worst_solve, time.time() - t1)
        ok &= abs(r.value - n * n) <= 1e-3 and abs(r.gap) <= 1e-6
    t1 = time.time()
    r = zeroerr.theta_tilde(zeroerr.graph_op_system(zeroerr.cycle_graph(5)))
    worst_solve = max(worst_solve, time.time() - t1)
    closed_form = 5 * math.cos(math.pi / 5) / (1 + math.cos(math.pi / 5))
    ok &= abs(r.value - closed_form) <= 1e-4 and abs(r.gap) <= 1e-6
    ok &= worst_solve < 10.0
    _report(6, "theta SDP", ok, time.time() - t0, 60.0)


def test_criterion_07_channel_distance():
    t0 = time.time()
    ok = True
    for d in (2, 3):
        swap = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                swap[d * i + j, d * j + i] = 1.0
        eye = np.eye(d * d)
        t1 = chan.kraus_from_choi(
            chan.ChoiMatrix(d, d, d * (eye - swap) / (d * (d - 1))))
        t2 = chan.kraus_from_choi(
            chan.ChoiMatrix(d, d, d * (eye + swap) / (d * (d + 1))))
        val, _ = chan.one_to_one_norm_lb(t1, t2, restarts=6, iters=60)
        ok &= abs(val - 4.0 / (d + 1)) <= 1e-5
        big1 = chan.tensor(t1, chan.identity_channel(d))
        big2 = chan.tensor(t2, chan.identity_channel(d))
        psi0 = states.max_entangled(d).vec
        rho = np.outer(psi0, psi0.conj())
        dist = matkit.norm(big1(rho) - big2(rho), "trace")
        ok &= abs(dist - 2.0) <= 1e-8
    _report(7, "channel distance example", ok, time.time() - t0, 10.0)


def test_criterion_08_entropy_suite():
    t0 = time.time()
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    bell = State((2, 2), np.outer(v, v.conj()))
    ok = abs(entropy.mutual_info(bell) - 2.0) <= 1e-9
    rng = np.random.default_rng(202)
    for _ in range(1000):
        rho = random_state((2, 2, 2), rng)
        ok &= entropy.cond_mutual_info(rho).cmi >= -1e-8
    for _ in range(1000):
        rho, sigma = random_state((3,), rng), random_state((3,), rng)
        ch = random_channel(3, 3, 2, rng)
        before = entropy.relative_entropy(rho, sigma)
        after = entropy.relative_entropy(
            State((3,), ch(rho.rho)), State((3,), ch(sigma.rho))
        )
        ok &= before - after >= -1e-7
    _report(8, "entropy suite", ok, time.time() - t0, 60.0)


def test_criterion_09_petz_markov():
    t0 = time.time()
    rng = np.random.default_rng(203)
    ok = True
    for _ in range(50):
        blocks = int(rng.integers(1, 3))
        qs = rng.dirichlet(np.ones(blocks))
        spec = []
        for b in range(blocks):
            dbl = int(rng.integers(1, 3))
            dbr = int(rng.integers(1, 3))
            spec.append((
                qs[b],
                random_state((2, dbl), rng),
                random_state((dbr, 2), rng),
            ))
        rho = entropy.markov_state(spec)
        ok &= entropy.cond_mutual_info(rho).cmi <= 1e-8
        ok &= entropy.is_markov(rho, tol=1e-7)
        recon = entropy.markov_reconstruction(rho)
        ok &= matkit.norm(recon - rho.rho, "trace") <= 1e-8
    _report(9, "Petz/Markov states", ok, time.time() - t0, 30.0)


def test_criterion_10_concentration():
    t0 = time.time()
    ok = True
    dists = {
        1: randkit.MatrixDistribution.bernoulli_projector(1, 0.5),
        2: randkit.MatrixDistribution.bernoulli_projector(2, 0.5, rank=1),
        4: randkit.MatrixDistribution.bernoulli_projector(4, 0.5, rank=2),
    }
    seed = 300
    for d, dist in dists.items():
        for n in (50, 100):
            for alpha in (0.7, 0.3):
                rng = np.random.default_rng(seed)
                seed += 1
                rep = randkit.tail_bound_experiment(dist, n, alpha, 10_000, rng)
                b = rep["aw_bound"]
                sigma = math.sqrt(min(b, 1.0) * max(1.0 - b, 0.0) / 10_000)
                ok &= rep["empirical_prob"] <= b + 3.0 * sigma
    rng = np.random.default_rng(204)
    for _ in range(1000):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs, rhs = randkit.golden_thompson_check(
            (a + a.conj().T) / 2, (b + b.conj().T) / 2
        )
        ok &= lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
    _report(10, "matrix concentration", ok, time.time() - t0, 120.0)


def test_criterion_11_destroying_correlations():
    t0 = time.time()
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    bell = State((2, 2), np.outer(v, v.conj()))
    weyl = states.unitary_error_basis(2)
    fam = randkit.RandomizingFamily((0.25,) * 4, tuple(weyl))
    dev = randkit.epsilon_randomizing_deviation(bell, fam)
    ok = dev <= 1e-12
    mixed = sum(
        0.25 * np.kron(u, np.eye(2)) @ bell.rho @ np.kron(u, np.eye(2)).conj().T
        for u in weyl
    )
    ok &= np.linalg.norm(mixed - np.eye(4) / 4) <= 1e-12
    for sampler in ("haar", "weyl"):
        for n_u in (1, 2, 3):
            for seed in range(6):
                rng = np.random.default_rng(4000 + seed)
                _, eps = randkit.sample_randomizing_family(
                    bell, n_u, rng, sampler
                )
                ok &= eps > 0.01
    rho = states.werner(2, 0.9)
    medians = []
    for n_u in (1, 2, 4, 8, 16, 32):
        vals = [
            randkit.sample_randomizing_family(
                rho, n_u, np.random.default_rng(5000 + s), "haar"
            )[1]
            for s in range(21)
        ]
        medians.append(float(np.median(vals)))
    ok &= all(b <= a + 0.01 for a, b in zip(medians, medians[1:]))
    ok &= medians[-1] < medians[0]
    _report(11, "destroying correlations", ok, time.time() - t0, 30.0)


def test_criterion_12_subspace_constructions():
    t0 = time.time()
    ok = True
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(min(m, n)):
                ok &= len(entwit.min_rank_subspace(m, n, k)) == (m - k) * (n - k)
    s = entwit.rank2_subspace(2)
    _, passes = entwit.verify_min_rank(s, 1, samples=500, seed=10)
    ok &= passes
    comp = entwit.rank2_complement(s)
    _, passes = entwit.verify_min_rank(comp, 1, samples=500, seed=11)
    ok &= passes
    l0 = entwit.min_rank_subspace(4, 4, 1)
    _, passes = entwit.verify_min_rank(l0, 1, samples=500, seed=12)
    ok &= passes
    _report(12, "minimal-rank subspaces", ok, time.time() - t0, 20.0)
