"""Quantum channels as Kraus families, Choi calculus, structural checks,
and channel-distance estimation.

Choi convention: for T with input dimension n and output dimension d,

    J = sum_ij |i><j| (x) T(|i><j|)

on the (input x output) space, with the *unnormalized* maximally entangled
|Phi> = sum_i |ii>. With this normalization T is trace preserving iff
Tr_out[J] = I exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .errors import (
    ChoiTooLarge,
    DimensionError,
    NotMinimal,
    NotPSD,
    NotTracePreserving,
    NotStochastic,
)
from .matkit import dagger
from .states import PureState, State

# Largest din*dout for which a Choi matrix will be materialized.
CHOI_CAP = 4096

TP_TOL = 1e-9
CP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive map X -> sum_k K_k X K_k^dag.

    ``kraus`` is one complex (count, dout, din) array with count >= 1 and
    finite entries, checked at construction; a sequence of dout x din
    matrices is stacked, and a complex stack is kept without a copy. The
    Choi vectors, the Stinespring isometry and the complementary channel
    are reshapes of it.
    """

    din: int
    dout: int
    kraus: np.ndarray = field(repr=False)

    def __post_init__(self):
        kraus = matkit.asstack(self.kraus, (self.dout, self.din),
                               "Kraus operator {} != ({}, {})")
        if not len(kraus):
            raise DimensionError("channel needs at least one Kraus operator")
        object.__setattr__(self, "kraus", kraus)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = matkit.asmatrix(x)
        if x.shape != (self.din, self.din):
            raise DimensionError(f"input {x.shape} != ({self.din}, {self.din})")
        return np.sum(self.kraus @ x @ dagger(self.kraus), axis=0)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix on the (input x output) space; Hermitian by contract."""

    din: int
    dout: int
    j: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = matkit.asmatrix(self.j)
        n = self.din * self.dout
        if j.shape != (n, n):
            raise DimensionError(f"Choi matrix {j.shape} != ({n}, {n})")
        if not matkit.is_hermitian(j):
            raise DimensionError("Choi matrix is not Hermitian")
        object.__setattr__(self, "j", (j + dagger(j)) / 2.0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T(X) = Tr_in[(X^T (x) I) J]; works for maps without Kraus form."""
        x = matkit.asmatrix(x)
        if x.shape != (self.din, self.din):
            raise DimensionError(f"input {x.shape} != ({self.din}, {self.din})")
        op = np.kron(x.T, np.eye(self.dout)) @ self.j
        return matkit.partial_trace(op, (self.din, self.dout), {1})


def identity_channel(d: int) -> Channel:
    return Channel(d, d, np.eye(d, dtype=complex)[None])


def choi(ch: Channel) -> ChoiMatrix:
    """Choi matrix J = sum_k v_k v_k^dag with v_k the column-stacked Kraus."""
    n = ch.din * ch.dout
    if n > CHOI_CAP:
        raise ChoiTooLarge(
            f"din*dout = {n} exceeds cap {CHOI_CAP}; "
            "use Kraus-level operations instead"
        )
    # sum_i |i> (x) K|i> is the row-major flattening of K^T.
    vecs = ch.kraus.swapaxes(1, 2).reshape(len(ch.kraus), n)
    return ChoiMatrix(ch.din, ch.dout, vecs.T @ vecs.conj())


def kraus_from_choi(j: ChoiMatrix, tol: float = 1e-9) -> Channel:
    """Minimal Kraus family read off the Choi eigenvectors.

    The Kraus count equals the numerical rank of J. Each eigenvector's
    phase is fixed by making its largest-magnitude entry real positive,
    so the output is reproducible.
    """
    eig = matkit.herm_eig(j.j)
    lam_max = float(np.max(np.abs(eig.values))) if eig.values.size else 0.0
    if lam_max > 0 and np.min(eig.values) < -CP_TOL * lam_max:
        raise NotPSD(f"Choi matrix has eigenvalue {np.min(eig.values):.3e}")
    top = np.flatnonzero(eig.values > tol * lam_max)[::-1]
    if not top.size:
        return Channel(j.din, j.dout, np.zeros((1, j.dout, j.din), dtype=complex))
    vecs = eig.vectors[:, top].T  # one eigenvector per row, descending
    pivots = vecs[np.arange(top.size), np.argmax(np.abs(vecs), axis=1)]
    vecs = vecs * (np.abs(pivots) / pivots)[:, None]
    kraus = vecs.reshape(-1, j.din, j.dout).swapaxes(1, 2)
    return Channel(j.din, j.dout, np.sqrt(eig.values[top])[:, None, None] * kraus)


def is_cp(obj) -> bool:
    """CP check. A Channel is CP by its Kraus form; a ChoiMatrix is CP
    when its eigenvalues are >= -1e-9 * max(|lambda|_max, 1)."""
    if isinstance(obj, Channel):
        return True
    vals = np.linalg.eigvalsh(obj.j)
    lam_max = float(np.max(np.abs(vals))) if vals.size else 0.0
    return bool(np.min(vals) >= -CP_TOL * max(lam_max, 1.0))


def is_tp(obj) -> bool:
    if isinstance(obj, Channel):
        # sum_k K_k^dag K_k = F^dag F with F the Kraus rows stacked.
        rows = obj.kraus.reshape(-1, obj.din)
        acc = dagger(rows) @ rows
        return bool(np.linalg.norm(acc - np.eye(obj.din)) <= TP_TOL * obj.din)
    tr_out = matkit.partial_trace(obj.j, (obj.din, obj.dout), {0})
    return bool(np.linalg.norm(tr_out - np.eye(obj.din)) <= TP_TOL * obj.din)


def is_unital(obj) -> bool:
    if isinstance(obj, Channel):
        # sum_k K_k K_k^dag = F^dag F with F the rows of the K_k^dag stacked.
        rows = dagger(obj.kraus).reshape(-1, obj.dout)
        acc = dagger(rows) @ rows
        return bool(np.linalg.norm(acc - np.eye(obj.dout)) <= TP_TOL * obj.dout)
    tr_in = matkit.partial_trace(obj.j, (obj.din, obj.dout), {1})
    return bool(np.linalg.norm(tr_in - np.eye(obj.dout)) <= TP_TOL * obj.dout)


def choi_rank(obj, tol: float = 1e-9) -> int:
    """Numerical rank of the Choi matrix = minimal Kraus count: the count
    of its eigenvalues above tol times the largest. For a Channel these
    are the squared singular values of its Choi vectors (J = V V^dag),
    which are the flattened Kraus operators up to a column permutation;
    J is not built."""
    if isinstance(obj, Channel):
        flat = obj.kraus.reshape(len(obj.kraus), -1)
        vals = np.linalg.svd(flat, compute_uv=False) ** 2
    else:
        vals = np.linalg.eigvalsh(obj.j)
    lam_max = float(np.max(np.abs(vals))) if vals.size else 0.0
    if lam_max == 0.0:
        return 0
    return int(np.sum(vals > tol * lam_max))


def apply(ch: Channel, rho: State) -> State:
    """Push a state through the channel; output carries a single factor."""
    if rho.dim != ch.din:
        raise DimensionError(f"state dim {rho.dim} != channel input {ch.din}")
    return State((ch.dout,), ch(rho.rho))


def adjoint(ch: Channel) -> Channel:
    """Hilbert-Schmidt adjoint: Kraus replaced by their daggers."""
    return Channel(ch.dout, ch.din, dagger(ch.kraus))


def compose(a: Channel, b: Channel) -> Channel:
    """a after b: Kraus are the pairwise products K_a K_b, a-major."""
    if b.dout != a.din:
        raise DimensionError(f"compose: {b.dout} != {a.din}")
    kraus = a.kraus[:, None] @ b.kraus[None]
    return Channel(b.din, a.dout, kraus.reshape(-1, a.dout, b.din))


def tensor(a: Channel, b: Channel) -> Channel:
    """Parallel composition: Kraus are the pairwise Kronecker products,
    a-major."""
    din, dout = a.din * b.din, a.dout * b.dout
    kraus = np.einsum("aij,bkl->abikjl", a.kraus, b.kraus)
    return Channel(din, dout, kraus.reshape(-1, dout, din))


def complementary(ch: Channel) -> Channel:
    """Environment side of the Stinespring dilation V = sum_i E_i (x) |i>.

    Output dimension equals the Kraus count; rows of the a-th complementary
    Kraus operator collect the a-th rows of the E_i.
    """
    if not is_tp(ch):
        raise NotTracePreserving("complementary channel needs a TP input")
    return Channel(ch.din, len(ch.kraus), ch.kraus.swapaxes(0, 1))


def stinespring_isometry(ch: Channel) -> np.ndarray:
    """V with T(X) = Tr_env[V X V^dag]; rows grouped as (output, env)."""
    return ch.kraus.swapaxes(0, 1).reshape(ch.dout * len(ch.kraus), ch.din)


def classical_channel(n: np.ndarray) -> Channel:
    """Channel of a classical kernel N(y|x): Kraus sqrt(N(y|x)) |y><x|.

    Columns of N (indexed by the input x) must each sum to 1.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim != 2 or np.min(n) < 0:
        raise NotStochastic("kernel must be a nonnegative matrix")
    if np.max(np.abs(n.sum(axis=0) - 1.0)) > 1e-9:
        raise NotStochastic("kernel columns must sum to 1")
    ny, nx = n.shape
    xs, ys = np.nonzero(n.T > 0.0)  # input-major, as (x, y) pairs
    kraus = np.zeros((len(xs), ny, nx), dtype=complex)
    kraus[np.arange(len(xs)), ys, xs] = np.sqrt(n[ys, xs])
    return Channel(nx, ny, kraus)


@dataclass(frozen=True, eq=False)
class SchurMap:
    """Entrywise multiplication X -> phi * X; CP exactly when phi is PSD."""

    phi: np.ndarray = field(repr=False)

    def __post_init__(self):
        phi = matkit.asmatrix(self.phi)
        if phi.shape[0] != phi.shape[1]:
            raise DimensionError("Schur multiplier must be square")
        object.__setattr__(self, "phi", phi)

    @property
    def dim(self) -> int:
        return self.phi.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = matkit.asmatrix(x)
        if x.shape != self.phi.shape:
            raise DimensionError(f"input {x.shape} != {self.phi.shape}")
        return self.phi * x

    def choi(self) -> ChoiMatrix:
        n = self.dim
        j = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for k in range(n):
                j[i * n + i, k * n + k] = self.phi[i, k]
        return ChoiMatrix(n, n, j)

    def is_cp(self) -> bool:
        vals = np.linalg.eigvalsh((self.phi + dagger(self.phi)) / 2.0)
        lam_max = float(np.max(np.abs(vals))) if vals.size else 0.0
        herm = matkit.is_hermitian(self.phi)
        return bool(herm and np.min(vals) >= -CP_TOL * max(lam_max, 1.0))


def schur_channel(phi) -> SchurMap:
    return SchurMap(phi)


def kraus_change_of_basis(a, b, tol: float = 1e-8):
    """Isometry U with b_i = sum_j U[i, j] a_j, or None.

    ``a`` must be a minimal (linearly independent) family. Returns None
    when the two families define Choi matrices at least 1e-6 apart, i.e.
    different maps.
    """
    shape = matkit.asmatrix(a[0]).shape
    # One flattened operator per column.
    va, vb = (matkit.asstack(f, shape, "all Kraus operators must share one shape")
              .reshape(len(f), -1).T for f in (a, b))
    sing = np.linalg.svd(va, compute_uv=False)
    if sing.size and sing[-1] <= 1e-10 * sing[0]:
        raise NotMinimal("first family is linearly dependent")
    ja = va @ dagger(va)
    jb = vb @ dagger(vb)
    if np.linalg.norm(ja - jb) >= 1e-6:
        return None
    u_t, _, _, _ = np.linalg.lstsq(va, vb, rcond=None)
    resid = np.linalg.norm(va @ u_t - vb)
    u = u_t.T  # rows index the b family
    if resid > tol or np.linalg.norm(dagger(u) @ u - np.eye(u.shape[1])) > 1e-9:
        return None
    return u


def one_to_one_norm_lb(a: Channel, b: Channel, restarts: int = 16,
                       iters: int = 100, rng=None):
    """Lower bound on ||a - b||_{1->1} by alternating ascent over pure
    inputs.

    Each round computes the sign operator of the output difference, pulls
    it back through the adjoint difference, and moves the input to the top
    eigenvector of that Hermitian witness; the objective never decreases.
    Returns (value, witness) with value attained at the returned input.
    """
    if a.din != b.din or a.dout != b.dout:
        raise DimensionError("channels must share input/output dimensions")
    if rng is None:
        rng = np.random.default_rng(0)
    d = a.din
    a_adj, b_adj = adjoint(a), adjoint(b)

    def value_at(psi):
        diff = a(np.outer(psi, np.conj(psi))) - b(np.outer(psi, np.conj(psi)))
        return matkit.norm(diff, "trace")

    best_val, best_psi = -np.inf, None
    for attempt in range(restarts):
        if attempt == 0:
            psi = np.zeros(d, dtype=complex)
            psi[0] = 1.0
        else:
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
        val = value_at(psi)
        for _ in range(iters):
            proj = np.outer(psi, np.conj(psi))
            delta = a(proj) - b(proj)
            eig = matkit.herm_eig(delta)
            sign_op = (eig.vectors * np.sign(eig.values)) @ dagger(eig.vectors)
            witness = a_adj(sign_op) - b_adj(sign_op)
            weig = matkit.herm_eig(witness)
            psi_new = weig.vectors[:, -1]
            new_val = value_at(psi_new)
            if new_val <= val + 1e-14:
                break
            psi, val = psi_new, new_val
        if val > best_val:
            best_val, best_psi = val, psi
    return best_val, PureState((d,), best_psi)


def transpose_channel_norm_demo(n: int) -> float:
    """Operator-norm blowup of the blockwise transpose on M_n(M_n).

    Builds a = sum_ij e_ij (x) e_ji (unitary, norm 1), transposes every
    block, and returns ||T_n(a)|| / ||a||, which equals n.
    """
    if n < 1:
        raise DimensionError("n must be >= 1")
    a = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e_ij = np.zeros((n, n))
            e_ij[i, j] = 1.0
            a += np.kron(e_ij, e_ij.T)
    ta = matkit.partial_transpose(a, (n, n), 1)
    return matkit.norm(ta, "operator") / matkit.norm(a, "operator")
