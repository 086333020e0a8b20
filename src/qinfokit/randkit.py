"""Random sampling (Haar unitaries, states, channels), matrix concentration
experiments, and epsilon-randomizing unitary families.

All samplers take an explicit numpy Generator so parallel or repeated runs
are reproducible. Tail-bound experiments report both the empirical
frequency and the analytic bound; acceptance-style checks add a 3 sigma
binomial slack so suites pass deterministically under fixed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as chan
from . import matkit
from .errors import (
    DimensionError,
    DomainError,
    MeanNotIsotropic,
    NotHermitian,
    ProbabilityError,
    SingularA,
)
from .matkit import dagger
from .states import PureState, State, unitary_error_basis

# "X not <= A" is decided by: min eigenvalue of (A - X) < -PSD_DECISION_TOL.
PSD_DECISION_TOL = 1e-10

# The sampling experiments draw whole trials in blocks of about this many
# complex matrix entries (1 MiB), so a block's frames, products and means
# stay in cache and memory does not grow with the trial count.
_BLOCK_ENTRIES = 1 << 16


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary: one draw of ``haar_unitary_batch``."""
    return haar_unitary_batch(d, 1, rng)[0]


def haar_unitary_batch(d: int, count: int, rng, cols: int | None = None
                       ) -> np.ndarray:
    """Stacked Haar unitaries of shape (count, d, d), or with ``cols=r``
    Haar isometries of shape (count, d, r): the first r columns of one.

    Each is the Q factor of a complex Ginibre draw (real parts drawn first,
    then imaginary, each as (count, d, cols)) whose R factor has a real
    positive diagonal; that phase choice makes Q Haar-distributed
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 54, 2007). Q is computed over the whole batch by
    classical Gram-Schmidt applied twice ("twice is enough"). Columns are
    laid out (cols, d, count), so every step is one array operation over
    the batch; the result is a transposed view of that.
    """
    cols = d if cols is None else cols
    if (not all(isinstance(n, (int, np.integer)) for n in (d, cols, count))
            or not 1 <= cols <= d or count < 0):
        raise DimensionError(
            "haar_unitary_batch needs integers d >= cols >= 1 and count >= 0,"
            f" got d={d!r}, cols={cols!r}, count={count!r}")
    shape = (count, d, cols)
    z = np.empty((cols, d, count), dtype=complex)
    z.real = rng.standard_normal(shape).transpose(2, 1, 0)
    z.imag = rng.standard_normal(shape).transpose(2, 1, 0)
    for j in range(cols):
        v = z[j]
        for _ in range(2 if j else 0):
            coef = [np.einsum("an,an->n", z[k].conj(), v) for k in range(j)]
            for k, c in enumerate(coef):
                v -= z[k] * c
        v /= np.linalg.norm(v, axis=0)
    return z.transpose(2, 1, 0)


def random_pure(dims, rng) -> PureState:
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, v / np.linalg.norm(v))


def random_state(dims, rng, rank: int | None = None) -> State:
    """Mixed state from a normalized Wishart factor of the given rank."""
    dims = tuple(int(d) for d in dims)
    n = math.prod(dims)
    r = n if rank is None else int(rank)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = g @ dagger(g)
    return State(dims, rho / np.real(np.trace(rho)))


def random_channel(din: int, dout: int, kraus_count: int, rng) -> chan.Channel:
    """Trace-preserving channel from a Haar-random Stinespring isometry;
    needs 1 <= din <= dout * kraus_count."""
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (dout, kraus_count)):
        raise DimensionError("random_channel needs integers dout >= 1 and kraus_count >= 1,"
                             f" got dout={dout!r}, kraus_count={kraus_count!r}")
    q = haar_unitary_batch(dout * kraus_count, 1, rng, cols=din)[0]
    # Row a * kraus_count + i of the isometry is row a of Kraus operator i.
    kraus = q.reshape(dout, kraus_count, din).swapaxes(0, 1)
    return chan.Channel(din, dout, kraus)


# ---------------------------------------------------------------------------
# Matrix distributions with samples in [0, I]
# ---------------------------------------------------------------------------


def _weighted_stack(mats, weights, member: str) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty family of d x d matrices as one complex stack
    (``matkit.asstack``) and its weights as a probability vector with one
    entry per member."""
    if not len(mats):
        raise DimensionError(f"need at least one {member}")
    d = len(matkit.asmatrix(mats[0]))
    stack = matkit.asstack(mats, (d, d), member + " {} != ({}, {})")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(stack),):
        raise ProbabilityError(f"need one weight per {member}, got {w.shape}")
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
        raise ProbabilityError("weights must be a probability vector")
    return stack, w


@dataclass(frozen=True, eq=False)
class MatrixDistribution:
    """I.i.d. source of Hermitian samples X with 0 <= X <= I.

    kind 'bernoulli_projector': a rank-r projector in a fresh Haar basis
    with probability p = mu * dim / rank, else 0; mean mu * I.
    kind 'random_psd_bounded': uniform spectrum on a clipped interval
    around mu in a fresh Haar basis; mean mu * I.
    kind 'custom': finite support, one (count, dim, dim) stack, with
    weights; mean whatever it is.
    A drawn support matrix is rebuilt from the eigendecomposition of
    its Hermitian part, so it matches the input to rounding.
    """

    kind: str
    dim: int
    mu: float = 0.0
    rank: int = 0
    support: np.ndarray | None = field(default=None, repr=False)
    weights: tuple = field(default_factory=tuple)

    @staticmethod
    def bernoulli_projector(dim: int, mu: float, rank: int | None = None
                            ) -> "MatrixDistribution":
        rank = dim if rank is None else int(rank)
        if not (1 <= rank <= dim):
            raise DimensionError("projector rank must be in [1, dim]")
        p = mu * dim / rank
        if not (0.0 <= p <= 1.0 + 1e-12):
            raise DomainError(f"mu={mu} unreachable with rank {rank}")
        return MatrixDistribution("bernoulli_projector", dim, mu, rank)

    @staticmethod
    def random_psd_bounded(dim: int, mu: float) -> "MatrixDistribution":
        if dim < 1:
            raise DimensionError("dim must be >= 1")
        if not (0.0 < mu < 1.0):
            raise DomainError("mu must be strictly inside (0, 1)")
        return MatrixDistribution("random_psd_bounded", dim, mu)

    @staticmethod
    def custom(matrices, weights) -> "MatrixDistribution":
        support, w = _weighted_stack(matrices, weights, "support matrix")
        vals = np.linalg.eigvalsh((support + dagger(support)) / 2.0)
        if vals.min() < -PSD_DECISION_TOL or vals.max() > 1.0 + PSD_DECISION_TOL:
            raise DomainError("support matrices must satisfy 0 <= X <= I")
        dim = support.shape[1]
        mu = float(np.real(np.trace(np.tensordot(w, support, axes=1)))) / dim
        return MatrixDistribution("custom", dim, mu, 0, support, tuple(w.tolist()))

    def mean(self) -> np.ndarray:
        if self.kind == "custom":
            return np.tensordot(self.weights, self.support, axes=1)
        return self.mu * np.eye(self.dim, dtype=complex)

    def is_isotropic(self, tol: float = 1e-10) -> bool:
        m = self.mean()
        return bool(np.linalg.norm(m - self.mu * np.eye(self.dim)) <= tol)

    def sample_factors(self, count: int, rng) -> tuple:
        """Factors (frames, weights) of ``count`` i.i.d. samples,
        X_i = F_i diag(w_i) F_i^dag with F_i of shape (dim, r).

        frames is (count, dim, r) and weights (count, r). frames is None
        when every F_i is the identity (the full-rank projector), so no
        Haar draw is made and each X_i is diag(w_i).
        """
        d = self.dim
        if self.kind == "bernoulli_projector":
            on = rng.random(count) < self.mu * d / self.rank
            weights = np.repeat(on.astype(float)[:, None], self.rank, axis=1)
            if self.rank == d:
                return None, weights
            return haar_unitary_batch(d, count, rng, cols=self.rank), weights
        if self.kind == "random_psd_bounded":
            lo = max(0.0, 2.0 * self.mu - 1.0)
            hi = min(1.0, 2.0 * self.mu)
            weights = rng.uniform(lo, hi, size=(count, d))
            return haar_unitary_batch(d, count, rng), weights
        if self.kind == "custom":
            idx = rng.choice(len(self.support), size=count, p=self.weights)
            vals, vecs = np.linalg.eigh((self.support + dagger(self.support)) / 2.0)
            return vecs[idx], vals[idx]
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample_batch(self, count: int, rng) -> np.ndarray:
        """(count, dim, dim) stack of i.i.d. samples: the product of
        ``sample_factors``."""
        frames, weights = self.sample_factors(count, rng)
        if frames is None:
            out = np.zeros((count, self.dim, self.dim), dtype=complex)
            idx = np.arange(self.dim)
            out[:, idx, idx] = weights
            return out
        # conj(F) diag(w) F^T is the conjugate of F diag(w) F^dag; forming it
        # reads F^T as a view, so no conjugated copy of the frames is alive
        # beside the product and the result.
        out = (np.conj(frames) * weights[:, None, :]) @ np.swapaxes(frames, -1, -2)
        return np.conj(out, out=out)


def _blocks(trials: int, entries: int):
    """Trial counts of consecutive blocks that cover ``trials``: each holds
    as many whole trials of ``entries`` matrix entries as fit in
    ``_BLOCK_ENTRIES``, and at least one; only the last may hold fewer."""
    per_block = max(1, _BLOCK_ENTRIES // entries)
    for done in range(0, trials, per_block):
        yield min(per_block, trials - done)


def _not_leq(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Batched decision of X not <= A via min eigenvalue of A - X."""
    vals = np.linalg.eigvalsh(a - x)
    return vals[..., 0] < -PSD_DECISION_TOL


def matrix_markov_check(dist: MatrixDistribution, a: np.ndarray,
                        trials: int, rng) -> tuple[float, float]:
    """Empirical frequency of {X not <= A} against the bound Tr[M A^{-1}].

    A must be positive definite; M is the distribution mean. Trials run in
    blocks of max(1, _BLOCK_ENTRIES // d^2), the last block holding the
    rest; each block is one ``sample_batch`` call, decided before the next
    is drawn.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    a = matkit.asmatrix(a)
    vals = np.linalg.eigvalsh((a + dagger(a)) / 2.0)
    if vals.min() <= 0:
        raise SingularA("threshold matrix must be positive definite")
    m = dist.mean()
    bound = float(np.real(np.trace(m @ np.linalg.inv(a))))
    hits = sum(int(np.sum(_not_leq(dist.sample_batch(take, rng), a)))
               for take in _blocks(trials, dist.dim ** 2))
    return hits / trials, bound


def binary_divergence(alpha: float, mu: float) -> float:
    """Relative entropy (nats) between Bernoulli(alpha) and Bernoulli(mu)."""
    if not (0.0 < mu < 1.0):
        raise DomainError("mu must be strictly inside (0, 1)")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must be in [0, 1]")
    val = 0.0
    if alpha > 0.0:
        val += alpha * math.log(alpha / mu)
    if alpha < 1.0:
        val += (1.0 - alpha) * math.log((1.0 - alpha) / (1.0 - mu))
    return val


def _gram_means(frames: np.ndarray, weights: np.ndarray, n: int
                ) -> np.ndarray:
    """(take, d, d) means of consecutive runs of n factored samples.

    A trial's mean sum_i F_i diag(w_i) F_i^dag / n is a Gram product over
    its n samples, one per frame column, so the (take n, d, d) stack of
    samples is never formed. Each product reads a strided view of the
    frames; one (d, n r) product would first need a copy of all of them.
    """
    count, d, r = frames.shape
    f = frames.reshape(count // n, n, d, r)
    w = weights.reshape(count // n, n, 1, r)
    total = 0
    for j in range(r):
        col = f[..., j]
        # (conj(F) w)^T F is the conjugate of this column's share of the sum.
        total = total + np.swapaxes(np.conj(col) * w[..., j], 1, 2) @ col
    return np.conj(total) / n


def _trial_spectra(dist: MatrixDistribution, n: int, take: int, rng
                   ) -> np.ndarray:
    """(take, d) eigenvalues of the means of ``take`` trials of n samples.

    With identity frames the means are diagonal and their eigenvalues are
    the averaged weights, so no matrix is formed at all.
    """
    frames, weights = dist.sample_factors(take * n, rng)
    if frames is None:
        return weights.reshape(take, n, dist.dim).mean(axis=1)
    return np.linalg.eigvalsh(_gram_means(frames, weights, n))


def tail_bound_experiment(dist: MatrixDistribution, n: int, alpha: float,
                          trials: int, rng) -> dict:
    """Ahlswede-Winter tail experiment for the empirical mean of n samples.

    For alpha > mu the monitored event is (1/n) sum X_i not <= alpha I;
    for alpha < mu it is the lower-tail event (not >=). Both are bounded
    by d * exp(-n * D(alpha || mu)). Requires E[X] = mu * I.

    Trials run in blocks of max(1, _BLOCK_ENTRIES // (n d^2)) whole trials,
    the last block holding the rest, so memory does not grow with
    ``trials``. Each block of ``take`` trials draws its ``take * n``
    samples with one ``sample_factors`` call, in the order of
    ``sample_batch(take * n, rng)``: trial t is samples t n .. (t + 1) n - 1.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not dist.is_isotropic():
        raise MeanNotIsotropic("tail bound needs an isotropic mean")
    mu = dist.mu
    if alpha == mu:
        raise DomainError("alpha must differ from mu")
    d = dist.dim
    bound = d * math.exp(-n * binary_divergence(alpha, mu))
    hits = 0
    for take in _blocks(trials, n * d * d):
        vals = _trial_spectra(dist, n, take, rng)
        gaps = alpha - vals if alpha > mu else vals - alpha
        hits += int(np.sum(gaps.min(axis=1) < -PSD_DECISION_TOL))
    return {
        "empirical_prob": hits / trials,
        "aw_bound": bound,
        "d": d,
        "n": n,
        "alpha": alpha,
        "mu": mu,
        "trials": trials,
    }


def golden_thompson_check(a, b) -> tuple[float, float]:
    """(Tr[exp(A+B)], Tr[exp(A) exp(B)]) for Hermitian A, B."""
    a = matkit.asmatrix(a)
    b = matkit.asmatrix(b)
    if not (matkit.is_hermitian(a) and matkit.is_hermitian(b)):
        raise NotHermitian("golden_thompson_check needs Hermitian inputs")
    if a.shape != b.shape:
        raise DimensionError("shapes must match")
    ea = matkit.matrix_function(a, "exp")
    eb = matkit.matrix_function(b, "exp")
    eab = matkit.matrix_function((a + b + dagger(a + b)) / 2.0, "exp")
    return float(np.real(np.trace(eab))), float(np.real(np.trace(ea @ eb)))


# ---------------------------------------------------------------------------
# Destroying correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RandomizingFamily:
    """Weighted unitaries acting on the first factor of a bipartite state,
    held as one complex (count, d, d) stack."""

    probs: tuple
    unitaries: np.ndarray = field(repr=False)

    def __post_init__(self):
        us, p = _weighted_stack(self.unitaries, self.probs, "unitary")
        gap = np.linalg.norm(dagger(us) @ us - np.eye(us.shape[1]), axis=(1, 2))
        if gap.max() > 1e-10:
            raise DimensionError("family members must be unitary")
        object.__setattr__(self, "probs", tuple(p.tolist()))
        object.__setattr__(self, "unitaries", us)

    def __len__(self) -> int:
        return len(self.unitaries)


def epsilon_randomizing_deviation(rho_ab: State, fam: RandomizingFamily) -> float:
    """Trace-norm distance between the randomized state and the matching
    product state:

        || sum_i p_i (U_i x I) rho (U_i x I)^dag  -  rho_tilde_A x rho_B ||_1

    with rho_tilde_A the same average applied to the A marginal: the A
    marginal of the average, one contraction on rho as (dA, dB, dA, dB).
    """
    if len(rho_ab.dims) != 2:
        raise DimensionError("need a bipartite state")
    da, db = rho_ab.dims
    us = fam.unitaries
    if us.shape[1:] != (da, da):
        raise DimensionError("unitaries must act on the A factor")
    rho = rho_ab.rho.reshape(da, db, da, db)
    mixed = np.einsum("k,kai,ibjc,kej->abec", fam.probs, us, rho, us.conj(),
                      optimize=True).reshape(da * db, da * db)
    rho_a_twirl = matkit.partial_trace(mixed, rho_ab.dims, {0})
    rho_b = matkit.partial_trace(rho_ab.rho, rho_ab.dims, {1})
    return matkit.norm(mixed - np.kron(rho_a_twirl, rho_b), "trace")


def sample_randomizing_family(rho_ab: State, n_unitaries: int, rng,
                              sampler: str = "haar"
                              ) -> tuple[RandomizingFamily, float]:
    """Uniform family of sampled unitaries and its achieved deviation.

    sampler 'haar' draws i.i.d. Haar unitaries, the whole family in one
    ``haar_unitary_batch`` call; 'weyl' draws distinct elements of the
    Weyl basis (all d^2 of them when n_unitaries = d^2, which randomizes
    exactly).
    """
    if n_unitaries < 1:
        raise DomainError("n_unitaries must be >= 1")
    if len(rho_ab.dims) != 2:
        raise DimensionError("need a bipartite state")
    da = rho_ab.dims[0]
    if sampler == "haar":
        us = haar_unitary_batch(da, n_unitaries, rng)
    elif sampler == "weyl":
        basis = unitary_error_basis(da)
        if n_unitaries <= len(basis):
            idx = rng.permutation(len(basis))[:n_unitaries]
        else:
            idx = rng.integers(0, len(basis), size=n_unitaries)
        us = basis[idx]
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    fam = RandomizingFamily(tuple([1.0 / n_unitaries] * n_unitaries), us)
    return fam, epsilon_randomizing_deviation(rho_ab, fam)
