import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qinfokit import channels, randkit, states
from qinfokit.errors import (
    DimensionError,
    DomainError,
    MeanNotIsotropic,
    NotHermitian,
    ProbabilityError,
    SingularA,
)
from qinfokit.states import State


def bell_state() -> State:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return State((2, 2), np.outer(v, v.conj()))


# --- Haar sampling -------------------------------------------------------------

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(120)
    for d in (1, 2, 5):
        u = randkit.haar_unitary(d, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-12
    u1 = randkit.haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-12


def _lapack_haar(d, count, rng, cols):
    """Phase-corrected LAPACK QR on the draws haar_unitary_batch makes."""
    z = (rng.standard_normal((count, d, cols))
         + 1j * rng.standard_normal((count, d, cols)))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("d", range(1, 7))
def test_haar_batch_matches_lapack_qr(d):
    for cols in sorted({1, max(1, d // 2), d}):
        got = randkit.haar_unitary_batch(d, 500, np.random.default_rng(d), cols=cols)
        want = _lapack_haar(d, 500, np.random.default_rng(d), cols)
        assert got.shape == (500, d, cols)
        assert np.abs(got - want).max() <= 1e-12
    full = randkit.haar_unitary_batch(d, 50, np.random.default_rng(7))
    assert np.abs(full - _lapack_haar(d, 50, np.random.default_rng(7), d)).max() <= 1e-12
    one = randkit.haar_unitary(d, np.random.default_rng(8))
    assert np.abs(one - _lapack_haar(d, 1, np.random.default_rng(8), d)[0]).max() <= 1e-12
    for din, dout, k in ((3, 3, 2), (2, 3, 2), (8, 8, 4)):
        ch = randkit.random_channel(din, dout, k, np.random.default_rng(d))
        want = _lapack_haar(dout * k, 1, np.random.default_rng(d), din)[0]
        assert np.abs(channels.stinespring_isometry(ch) - want).max() <= 1e-12


def test_haar_batch_orthonormal_at_scale():
    us = randkit.haar_unitary_batch(4, 50_000, np.random.default_rng(119))
    gram = np.conj(np.swapaxes(us, -1, -2)) @ us
    assert np.abs(gram - np.eye(4)).max() <= 1e-13


def test_haar_batch_rejects_bad_columns():
    rng = np.random.default_rng(0)
    for d, cols in ((0, None), (3, 0), (3, 4), (3, 2.5), (2.5, None)):
        with pytest.raises(DimensionError):
            randkit.haar_unitary_batch(d, 5, rng, cols=cols)


@pytest.mark.parametrize("count", [-1, 2.0, 2.5, "3", None])
def test_haar_batch_rejects_bad_count(count):
    with pytest.raises(DimensionError, match="count"):
        randkit.haar_unitary_batch(3, count, np.random.default_rng(0))


def test_haar_batch_of_none_is_empty():
    us = randkit.haar_unitary_batch(3, 0, np.random.default_rng(0), cols=2)
    assert us.shape == (0, 3, 2)


def test_samplers_reject_empty_dimensions():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        randkit.haar_unitary(0, rng)
    with pytest.raises(DimensionError):
        randkit.random_channel(0, 1, 2, rng)
    with pytest.raises(DimensionError):
        randkit.random_channel(3, 1, 2, rng)


@pytest.mark.parametrize("dout, kraus_count", [
    (-1, -3), (0, 2), (2, 0), (-2, 1), (2.0, 1), (1, 1.5), (None, 2),
])
def test_random_channel_needs_positive_integer_dout_and_kraus_count(dout, kraus_count):
    # A negative pair has a positive product, which alone passed the sampler.
    with pytest.raises(DimensionError, match="dout >= 1 and kraus_count >= 1"):
        randkit.random_channel(2, dout, kraus_count, np.random.default_rng(0))


def test_haar_mean_projector_depolarizes():
    rng = np.random.default_rng(121)
    d, n = 2, 10_000
    us = randkit.haar_unitary_batch(d, n, rng)
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = 1.0
    mean = np.einsum("nij,jk,nlk->il", us, proj, us.conj()) / n
    assert np.linalg.norm(mean - np.eye(d) / d) <= 0.05


def test_haar_eigenangle_uniformity():
    rng = np.random.default_rng(122)
    us = randkit.haar_unitary_batch(3, 4000, rng)
    angles = np.angle(np.linalg.eigvals(us)).reshape(-1)
    counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    _, p = scipy_stats.chisquare(counts)
    assert p > 0.001


# --- matrix Markov -------------------------------------------------------------

def test_matrix_markov_scalar_reduces_to_classical():
    rng = np.random.default_rng(123)
    dist = randkit.MatrixDistribution.bernoulli_projector(1, 0.5)
    emp, bound = randkit.matrix_markov_check(
        dist, np.array([[2.0]]), 10_000, rng
    )
    assert bound == pytest.approx(0.25)
    sigma = math.sqrt(bound * (1 - bound) / 10_000)
    assert emp <= bound + 3 * sigma


def test_matrix_markov_projectors():
    rng = np.random.default_rng(124)
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5, rank=1)
    a = 2.0 * dist.mean() + 0.1 * np.eye(2)
    emp, bound = randkit.matrix_markov_check(dist, a, 10_000, rng)
    sigma = math.sqrt(min(bound, 1.0) * max(1 - bound, 0.0) / 10_000)
    assert emp <= bound + 3 * sigma


def test_matrix_markov_large_threshold():
    rng = np.random.default_rng(125)
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5)
    emp, _ = randkit.matrix_markov_check(dist, 10.0 * np.eye(2), 2000, rng)
    assert emp == 0.0


def test_matrix_markov_rejects_singular_threshold():
    rng = np.random.default_rng(126)
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5)
    with pytest.raises(SingularA):
        randkit.matrix_markov_check(dist, np.diag([1.0, 0.0]), 10, rng)


# --- binary divergence -----------------------------------------------------------

def test_binary_divergence_values():
    assert randkit.binary_divergence(0.5, 0.5) == 0.0
    assert randkit.binary_divergence(1.0, 0.5) == pytest.approx(math.log(2))
    a, mu = 0.7, 0.5
    want = a * math.log(a / mu) + (1 - a) * math.log((1 - a) / (1 - mu))
    assert randkit.binary_divergence(a, mu) == pytest.approx(want)


def test_binary_divergence_pinsker():
    rng = np.random.default_rng(127)
    for _ in range(50):
        mu = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.0, 1.0)
        assert randkit.binary_divergence(a, mu) >= 2 * (a - mu) ** 2 - 1e-12


def test_binary_divergence_domain():
    with pytest.raises(DomainError):
        randkit.binary_divergence(0.5, 0.0)
    with pytest.raises(DomainError):
        randkit.binary_divergence(1.5, 0.5)


# --- tail bounds ----------------------------------------------------------------

def test_tail_bound_bernoulli_d1():
    rng = np.random.default_rng(128)
    dist = randkit.MatrixDistribution.bernoulli_projector(1, 0.5)
    rep = randkit.tail_bound_experiment(dist, 50, 0.7, 10_000, rng)
    sigma = math.sqrt(min(rep["aw_bound"], 1.0)
                      * max(1 - rep["aw_bound"], 0.0) / rep["trials"])
    assert rep["empirical_prob"] <= rep["aw_bound"] + 3 * sigma


def test_tail_bound_projectors_d2():
    rng = np.random.default_rng(129)
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5, rank=1)
    rep = randkit.tail_bound_experiment(dist, 100, 0.75, 4000, rng)
    sigma = math.sqrt(min(rep["aw_bound"], 1.0)
                      * max(1 - rep["aw_bound"], 0.0) / rep["trials"])
    assert rep["empirical_prob"] <= rep["aw_bound"] + 3 * sigma


def test_tail_bound_vacuous_near_mu():
    rng = np.random.default_rng(130)
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5)
    rep = randkit.tail_bound_experiment(dist, 10, 0.5001, 200, rng)
    assert rep["aw_bound"] >= 1.9  # d * exp(-n D) with D ~ 0


def test_tail_bound_lower_tail():
    rng = np.random.default_rng(131)
    dist = randkit.MatrixDistribution.bernoulli_projector(1, 0.5)
    rep = randkit.tail_bound_experiment(dist, 50, 0.3, 10_000, rng)
    sigma = math.sqrt(min(rep["aw_bound"], 1.0)
                      * max(1 - rep["aw_bound"], 0.0) / rep["trials"])
    assert rep["empirical_prob"] <= rep["aw_bound"] + 3 * sigma


@pytest.mark.parametrize("n, trials", [(0, 10), (-3, 10), (10, 0), (10, -1)])
def test_tail_bound_rejects_empty_experiments(n, trials):
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5)
    with pytest.raises(DomainError):
        randkit.tail_bound_experiment(dist, n, 0.7, trials, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [0, -2])
def test_psd_bounded_rejects_empty_dimension(dim):
    with pytest.raises(DimensionError):
        randkit.MatrixDistribution.random_psd_bounded(dim, 0.5)


def test_matrix_markov_rejects_zero_trials():
    dist = randkit.MatrixDistribution.bernoulli_projector(2, 0.5)
    with pytest.raises(DomainError):
        randkit.matrix_markov_check(dist, np.eye(2), 0, np.random.default_rng(0))


def test_tail_bound_needs_isotropic_mean():
    mats = [np.diag([1.0, 0.0]), np.zeros((2, 2))]
    dist = randkit.MatrixDistribution.custom(mats, [0.5, 0.5])
    with pytest.raises(MeanNotIsotropic):
        randkit.tail_bound_experiment(dist, 10, 0.7, 10, np.random.default_rng(0))


_FACTORED = {
    "bernoulli": randkit.MatrixDistribution.bernoulli_projector(3, 0.5),
    "projector-1": randkit.MatrixDistribution.bernoulli_projector(3, 0.3, rank=1),
    "projector-2": randkit.MatrixDistribution.bernoulli_projector(4, 0.4, rank=2),
    "psd": randkit.MatrixDistribution.random_psd_bounded(3, 0.7),
    "custom": randkit.MatrixDistribution.custom(
        [np.diag([1.0, 0.0]), np.array([[0.5, 0.5j], [-0.5j, 0.5]]), np.zeros((2, 2))],
        [0.3, 0.5, 0.2],
    ),
}


@pytest.mark.parametrize("name", sorted(_FACTORED))
def test_fused_trial_means_match_explicit_means(name):
    dist = _FACTORED[name]
    d, n, take = dist.dim, 7, 30
    explicit = dist.sample_batch(take * n, np.random.default_rng(150)).reshape(
        take, n, d, d).mean(axis=1)
    frames, weights = dist.sample_factors(take * n, np.random.default_rng(150))
    if frames is None:
        fused = np.eye(d) * weights.reshape(take, n, d).mean(axis=1)[:, None, :]
    else:
        fused = randkit._gram_means(frames, weights, n)
    assert np.abs(fused - explicit).max() <= 1e-13
    spectra = randkit._trial_spectra(dist, n, take, np.random.default_rng(150))
    want = np.linalg.eigvalsh(explicit)
    assert np.abs(np.sort(spectra, axis=1) - want).max() <= 1e-13


_PSD3 = randkit.MatrixDistribution.random_psd_bounded(3, 0.5)
_PROJ4 = randkit.MatrixDistribution.bernoulli_projector(4, 0.4, rank=2)


def _explicit_tail_frequency(dist, n, alpha, trials, per_block, rng):
    """The tail experiment as an explicit loop: each block of trials draws
    its samples with one sample_batch call and decides on eigvalsh of the
    trial means."""
    d, hits = dist.dim, 0
    for start in range(0, trials, per_block):
        take = min(per_block, trials - start)
        xs = dist.sample_batch(take * n, rng).reshape(take, n, d, d)
        vals = np.linalg.eigvalsh(xs.mean(axis=1))
        gaps = alpha - vals if alpha > dist.mu else vals - alpha
        hits += int(np.sum(gaps.min(axis=1) < -randkit.PSD_DECISION_TOL))
    return hits / trials


@pytest.mark.parametrize("dist, n, alpha, budget, per_block", [
    # A trial of 2 samples is 18 entries at d = 3: 23 trials in blocks of 5,
    # the last of 3.
    (_PSD3, 2, 0.75, 100, 5),
    (_PSD3, 2, 0.25, 100, 5),
    # 32 entries at d = 4: blocks of 3, the last of 2.
    (_PROJ4, 2, 0.9, 100, 3),
    # n above the budget: each trial is a block of its own.
    (_PSD3, 20, 0.6, 16, 1),
    (_PROJ4, 20, 0.55, 16, 1),
], ids=["psd-upper", "psd-lower", "projector", "psd-trial-per-block",
        "projector-trial-per-block"])
def test_tail_bound_blocks_match_an_explicit_loop(monkeypatch, dist, n, alpha,
                                                  budget, per_block):
    trials = 23
    assert math.ceil(trials / per_block) >= 3
    monkeypatch.setattr(randkit, "_BLOCK_ENTRIES", budget)
    rng, oracle_rng = np.random.default_rng(160), np.random.default_rng(160)
    got = randkit.tail_bound_experiment(dist, n, alpha, trials, rng)
    want = _explicit_tail_frequency(dist, n, alpha, trials, per_block, oracle_rng)
    assert got["empirical_prob"] == want and 0 < want < 1
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("budget, per_block", [(40, 4), (8, 1)])
def test_matrix_markov_blocks_match_an_explicit_loop(monkeypatch, budget, per_block):
    trials, a = 23, 0.75 * np.eye(3)
    monkeypatch.setattr(randkit, "_BLOCK_ENTRIES", budget)
    rng, oracle_rng = np.random.default_rng(161), np.random.default_rng(161)
    got, bound = randkit.matrix_markov_check(_PSD3, a, trials, rng)
    hits = 0
    for start in range(0, trials, per_block):
        xs = _PSD3.sample_batch(min(per_block, trials - start), oracle_rng)
        hits += int(np.sum(np.linalg.eigvalsh(a - xs)[:, 0] < -randkit.PSD_DECISION_TOL))
    assert got == hits / trials and 0 < hits < trials
    assert bound == pytest.approx(2.0)
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("experiment", ["tail", "markov"])
def test_sampling_experiments_hold_one_block(experiment):
    # Drawing every trial at once peaked at 22 MB (tail, 50 000 samples) and
    # 101 MB (Markov, 100 000 samples); a block is about 1 MiB of entries.
    dist = randkit.MatrixDistribution.random_psd_bounded(4, 0.5)
    runs = {
        "tail": lambda trials, rng: randkit.tail_bound_experiment(
            dist, 100, 0.6, trials, rng),
        "markov": lambda trials, rng: randkit.matrix_markov_check(
            dist, np.eye(4), 200 * trials, rng),
    }
    # The first call sets up what it uses; keep that out of the peak.
    runs[experiment](1, np.random.default_rng(162))
    tracemalloc.start()
    try:
        runs[experiment](500, np.random.default_rng(162))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_projector_samples_are_projectors(rank):
    dist = randkit.MatrixDistribution.bernoulli_projector(3, 0.1 * rank, rank)
    xs = dist.sample_batch(2000, np.random.default_rng(151))
    vals = np.linalg.eigvalsh(xs)
    assert np.abs(vals * (1.0 - vals)).max() <= 1e-12
    ranks = np.rint(vals.sum(axis=1))
    assert set(ranks.tolist()) <= {0.0, float(rank)}
    assert np.abs(xs - np.conj(np.swapaxes(xs, -1, -2))).max() <= 1e-14


def test_psd_bounded_distribution_isotropic():
    for mu, lo, hi in ((0.4, 0.0, 0.8), (0.7, 0.4, 1.0)):
        rng = np.random.default_rng(132)
        dist = randkit.MatrixDistribution.random_psd_bounded(3, mu)
        xs = dist.sample_batch(2000, rng)
        vals = np.linalg.eigvalsh(xs)
        assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12
        assert np.linalg.norm(xs.mean(axis=0) - mu * np.eye(3)) <= 0.05


# --- Golden-Thompson ---------------------------------------------------------------

def test_golden_thompson_commuting_equality():
    a = np.diag([0.3, -0.2, 1.0])
    b = np.diag([-1.0, 0.4, 0.2])
    lhs, rhs = randkit.golden_thompson_check(a, b)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_golden_thompson_pauli_strict():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0])
    lhs, rhs = randkit.golden_thompson_check(x, z)
    assert lhs < rhs - 1e-3


def test_golden_thompson_zero_b():
    rng = np.random.default_rng(133)
    a = rng.standard_normal((3, 3))
    a = (a + a.T) / 2
    lhs, rhs = randkit.golden_thompson_check(a, np.zeros((3, 3)))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_golden_thompson_random_pairs():
    rng = np.random.default_rng(134)
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        b = (b + b.conj().T) / 2
        lhs, rhs = randkit.golden_thompson_check(a, b)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert lhs <= rhs + 1e-9 * scale


def test_golden_thompson_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        randkit.golden_thompson_check(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)
        )


# --- destroying correlations ---------------------------------------------------------

def test_bell_plus_weyl_randomizes_exactly():
    bell = bell_state()
    weyl = states.unitary_error_basis(2)
    fam = randkit.RandomizingFamily((0.25,) * 4, tuple(weyl))
    dev = randkit.epsilon_randomizing_deviation(bell, fam)
    assert dev <= 1e-12
    mixed = sum(
        0.25 * np.kron(u, np.eye(2)) @ bell.rho @ np.kron(u, np.eye(2)).conj().T
        for u in weyl
    )
    assert np.linalg.norm(mixed - np.eye(4) / 4) <= 1e-12


def test_single_unitary_cannot_decorrelate():
    bell = bell_state()
    fam = randkit.RandomizingFamily((1.0,), (np.eye(2),))
    assert randkit.epsilon_randomizing_deviation(bell, fam) > 0.5


def test_product_input_zero_for_any_family():
    rng = np.random.default_rng(135)
    a = randkit.random_state((2,), rng)
    b = randkit.random_state((2,), rng)
    rho = State((2, 2), np.kron(a.rho, b.rho))
    fam, eps = randkit.sample_randomizing_family(rho, 3, rng, sampler="haar")
    assert len(fam) == 3
    assert eps <= 1e-12


def test_weyl_family_depolarizes_average():
    rng = np.random.default_rng(136)
    d = 3
    rho = randkit.random_state((d,), rng).rho
    weyl = states.unitary_error_basis(d)
    avg = sum(u @ rho @ u.conj().T for u in weyl) / (d * d)
    assert np.linalg.norm(avg - np.eye(d) / d) <= 1e-12


def test_weyl_sampler_full_group_randomizes_bell():
    rng = np.random.default_rng(137)
    fam, eps = randkit.sample_randomizing_family(
        bell_state(), 4, rng, sampler="weyl"
    )
    assert len(fam) == 4
    assert eps <= 1e-12


def test_haar_family_is_one_batch_draw():
    rho = randkit.random_state((3, 2), np.random.default_rng(0))
    fam, _ = randkit.sample_randomizing_family(rho, 6, np.random.default_rng(140), "haar")
    want = randkit.haar_unitary_batch(3, 6, np.random.default_rng(140))
    assert np.array_equal(fam.unitaries, want)
    assert fam.probs == (1 / 6,) * 6


def test_two_haar_unitaries_insufficient():
    rng = np.random.default_rng(138)
    _, eps = randkit.sample_randomizing_family(bell_state(), 2, rng, "haar")
    assert eps > 0.2


def test_deviation_matches_the_kron_formula():
    # dA != dB and unequal weights pin every index of the contraction.
    rng = np.random.default_rng(139)
    rho = randkit.random_state((3, 2), rng)
    us = [randkit.haar_unitary(3, rng) for _ in range(5)]
    probs = (0.1, 0.3, 0.2, 0.25, 0.15)
    big = [np.kron(u, np.eye(2)) for u in us]
    mixed = sum(p * b @ rho.rho @ b.conj().T for p, b in zip(probs, big))
    rho_a = sum(p * u @ rho.marginal([0]).rho @ u.conj().T for p, u in zip(probs, us))
    want = np.abs(np.linalg.eigvalsh(mixed - np.kron(rho_a, rho.marginal([1]).rho))).sum()
    got = randkit.epsilon_randomizing_deviation(rho, randkit.RandomizingFamily(probs, us))
    assert want > 0.1 and got == pytest.approx(want, abs=1e-13)


def test_families_keep_a_complex_stack_without_a_copy():
    weyl = states.unitary_error_basis(2)
    assert randkit.RandomizingFamily((0.25,) * 4, weyl).unitaries is weyl
    support = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2]).astype(complex)
    dist = randkit.MatrixDistribution.custom(support, [0.5, 0.5])
    assert dist.support is support
    assert np.abs(dist.mean() - np.diag([0.75, 0.25])).max() <= 1e-15
    fam, _ = randkit.sample_randomizing_family(bell_state(), 3, np.random.default_rng(0),
                                               sampler="weyl")
    assert fam.unitaries.shape == (3, 2, 2)


Z = np.diag([1.0, -1.0])


@pytest.mark.parametrize("probs, unitaries, error", [
    ((1.0,), (np.eye(2), Z), ProbabilityError),
    ((0.5, 0.5), (np.eye(2),), ProbabilityError),
    ((0.5, 0.5), (np.eye(2), np.eye(3)), DimensionError),
    ((1.0,), (np.eye(2)[:, :1],), DimensionError),
    ((), (), DimensionError),
])
def test_family_refuses_members_that_do_not_fit(probs, unitaries, error):
    with pytest.raises(error):
        randkit.RandomizingFamily(probs, unitaries)


@pytest.mark.parametrize("matrices, weights, error", [
    ([np.eye(2), np.zeros((2, 2))], [0.5, 0.25, 0.25], ProbabilityError),
    ([np.eye(2), np.zeros((2, 2))], [1.0], ProbabilityError),
    ([np.eye(2), np.zeros((3, 3))], [0.5, 0.5], DimensionError),
    ([], [], DimensionError),
])
def test_custom_refuses_a_support_that_does_not_fit(matrices, weights, error):
    with pytest.raises(error):
        randkit.MatrixDistribution.custom(matrices, weights)


def test_small_families_never_beat_epsilon():
    # Lower-bound consistency: with fewer than 4 = 2^{I(A:B)} unitaries no
    # sampled family reaches epsilon 0.01 on the Bell state.
    bell = bell_state()
    for sampler in ("haar", "weyl"):
        for n_u in (1, 2, 3):
            for seed in range(6):
                rng = np.random.default_rng(1000 + seed)
                _, eps = randkit.sample_randomizing_family(
                    bell, n_u, rng, sampler
                )
                assert eps > 0.01


def test_epsilon_decreases_with_family_size():
    rho = states.werner(2, 0.9)
    sizes = (1, 2, 4, 8, 16, 32)
    medians = []
    for n_u in sizes:
        vals = []
        for seed in range(21):
            rng = np.random.default_rng(2000 + seed)
            _, eps = randkit.sample_randomizing_family(rho, n_u, rng, "haar")
            vals.append(eps)
        medians.append(float(np.median(vals)))
    for small, big in zip(medians, medians[1:]):
        assert big <= small + 0.01
    assert medians[-1] < medians[0]
