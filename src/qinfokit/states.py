"""Quantum states: Schmidt analysis, the Werner family, fidelity, and the
unitary-error / EPR bases.

States carry an explicit tuple of subsystem dimensions; subsystem 0 is the
slowest tensor index throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import matkit
from .errors import (
    BelowValidRange,
    CutOutOfRange,
    DimensionError,
    FOutOfRange,
)
from .matkit import dagger

STATE_TOL = 1e-10


def _checked_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions {dims} must be positive")
    return dims


@dataclass(frozen=True, eq=False)
class State:
    """Density matrix with an ordered list of subsystem dimensions.

    ``rho`` is stored Hermitian-symmetrized and read-only, and
    ``spectrum`` holds its eigenvalues in ascending order (``eigvalsh``,
    also read-only), computed once by the positivity check.
    """

    dims: tuple
    rho: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        rho = matkit.asmatrix(self.rho)
        total = math.prod(dims)
        if rho.shape != (total, total):
            raise DimensionError(
                f"rho is {rho.shape} but dims {dims} need ({total}, {total})"
            )
        if not matkit.is_hermitian(rho):
            raise DimensionError("rho is not Hermitian within tolerance")
        rho = (rho + dagger(rho)) / 2.0
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -STATE_TOL:
            raise DimensionError(f"rho has negative eigenvalue {eigs.min():.3e}")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > STATE_TOL:
            raise DimensionError(f"rho trace {tr} != 1")
        rho.flags.writeable = eigs.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", eigs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def marginal(self, keep) -> "State":
        keep = sorted(set(keep))
        sub = matkit.partial_trace(self.rho, self.dims, keep)
        return State(tuple(self.dims[k] for k in keep), sub)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with an ordered list of subsystem dimensions."""

    dims: tuple
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        total = math.prod(dims)
        if v.shape != (total,):
            raise DimensionError(f"vector length {v.shape[0]} != {total}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-12:
            raise DimensionError(f"vector norm {nrm} != 1")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def to_state(self) -> State:
        return State(self.dims, np.outer(self.vec, np.conj(self.vec)))


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a bipartite pure state at a given cut.

    ``coeffs`` descend and satisfy sum(coeffs^2) = 1; the columns of
    ``left_vecs`` / ``right_vecs`` are the orthonormal Schmidt vectors.
    """

    coeffs: np.ndarray
    left_vecs: np.ndarray
    right_vecs: np.ndarray
    cut: int


def _split_dims(dims: Sequence[int], cut: int):
    if cut < 1 or cut >= len(dims):
        raise CutOutOfRange(f"cut={cut} must split {len(dims)} factors")
    da = math.prod(dims[:cut])
    db = math.prod(dims[cut:])
    return da, db


def schmidt_decompose(psi: PureState, cut: int = 1) -> SchmidtForm:
    """Schmidt decomposition across the bipartition [0:cut) | [cut:).

    The coefficients are the singular values of the dA x dB coefficient
    matrix obtained by reshaping the state vector.
    """
    da, db = _split_dims(psi.dims, cut)
    coeff = psi.vec.reshape(da, db)
    u, s, vh = np.linalg.svd(coeff, full_matrices=False)
    # Columns of vh.T (not its conjugate) make psi = sum_k s_k u_k (x) r_k
    # hold literally.
    return SchmidtForm(s, u, vh.T, cut)


def schmidt_rank(psi: PureState, cut: int = 1, tol: float = 1e-10) -> int:
    """Number of Schmidt coefficients above tol * largest."""
    s = schmidt_decompose(psi, cut).coeffs
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def purify(rho: State) -> PureState:
    """Pure state on (system x auxiliary) whose first marginal is rho.

    The auxiliary dimension equals the numerical rank of rho.
    """
    eig = matkit.herm_eig(rho.rho)
    vals = np.clip(eig.values, 0.0, None)
    cutoff = matkit.SUPPORT_RTOL * (vals.max() if vals.size else 0.0)
    idx = np.flatnonzero(vals > cutoff)
    # sum_a sqrt(lambda_a) |v_a> (x) |a>: row i of the d x r array is the
    # auxiliary part of system index i.
    v = (eig.vectors[:, idx] * np.sqrt(vals[idx])).reshape(-1)
    return PureState((rho.dim, len(idx)), v)


def max_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on d x d."""
    if d < 2:
        raise DimensionError("max_entangled needs d >= 2")
    v = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    return PureState((d, d), v)


def werner(d: int, F: float) -> State:
    """Werner state F |psi0><psi0| + (1-F) (I - |psi0><psi0|)/(d^2-1).

    The unique U (x) conj(U) invariant family on d x d; <psi0|rho_F|psi0> = F.
    """
    if d < 2:
        raise DimensionError("werner needs d >= 2")
    if not (0.0 <= F <= 1.0):
        raise FOutOfRange(f"F={F} outside [0, 1]")
    psi0 = max_entangled(d).vec
    p0 = np.outer(psi0, np.conj(psi0))
    rho = F * p0 + (1.0 - F) * (np.eye(d * d) - p0) / (d * d - 1)
    return State((d, d), rho)


def werner_schmidt_number(d: int, F: float) -> int:
    """Schmidt number of werner(d, F): the unique k with
    (k-1)/d <= F <= k/d, boundaries assigned to the smaller k.

    The regime F < 1/d^2 is refused: no value is established there.
    """
    if not (0.0 <= F <= 1.0):
        raise FOutOfRange(f"F={F} outside [0, 1]")
    if F < 1.0 / (d * d) - 1e-12:
        raise BelowValidRange(
            f"F={F} < 1/d^2 = {1.0 / (d * d)}: Schmidt number not established"
        )
    k = math.ceil(F * d - 1e-12)
    return max(1, min(k, d))


def fidelity(rho: State, sigma: State) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2 (squared convention)."""
    if rho.dims != sigma.dims:
        raise DimensionError(f"dims {rho.dims} vs {sigma.dims}")
    a = matkit.matrix_function(rho.rho, "sqrt")
    b = matkit.matrix_function(sigma.rho, "sqrt")
    val = matkit.norm(a @ b, "trace") ** 2
    return float(min(max(val, 0.0), 1.0))


def trace_distance(rho: State, sigma: State) -> float:
    """||rho - sigma||_1 (ranges over [0, 2])."""
    if rho.dims != sigma.dims:
        raise DimensionError(f"dims {rho.dims} vs {sigma.dims}")
    return matkit.norm(rho.rho - sigma.rho, "trace")


def max_overlap_maxent(rho: State, restarts: int = 20, iters: int = 200,
                       rng=None) -> tuple[float, np.ndarray]:
    """Best overlap <psi_U| rho |psi_U> over maximally entangled states
    |psi_U> = (U x I)|psi0>, by seeded polar-decomposition ascent.

    Returns (value, U). The value is a certified lower bound on the true
    maximum (it is attained by the returned U) and ascends monotonically
    within each restart. For a pure input with Schmidt coefficients l_j the
    maximum is (sum_j l_j)^2 / d.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DimensionError("max_overlap_maxent needs a d x d bipartite state")
    d = rho.dims[0]
    if rng is None:
        rng = np.random.default_rng(0)
    r = rho.rho

    def objective(u):
        # |psi_U> reshapes to U / sqrt(d), so no Kronecker product needed.
        psi = u.reshape(-1) / math.sqrt(d)
        return float(np.real(np.conj(psi) @ r @ psi))

    best_val, best_u = -np.inf, np.eye(d, dtype=complex)
    for attempt in range(restarts):
        if attempt == 0:
            u = np.eye(d, dtype=complex)
        else:
            from .randkit import haar_unitary

            u = haar_unitary(d, rng)
        val = objective(u)
        for _ in range(iters):
            # Environment matrix: gradient of the PSD quadratic form in U;
            # the polar factor maximizes the linear minorant, so the
            # objective never decreases.
            g = (r @ u.reshape(-1)).reshape(d, d)
            uu, _, vvh = np.linalg.svd(g)
            u = uu @ vvh
            new_val = objective(u)
            if new_val <= val + 1e-15:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_val, best_u = val, u
    return best_val, best_u


def schmidt_number_lower_bound(rho: State, restarts: int = 20,
                               iters: int = 200, rng=None) -> int:
    """Largest k+1 with max_overlap > k/d; a valid Schmidt number lower
    bound because states of Schmidt number k never exceed overlap k/d."""
    d = rho.dims[0]
    val, _ = max_overlap_maxent(rho, restarts=restarts, iters=iters, rng=rng)
    k = 0
    while k + 1 < d and val > (k + 1) / d + 1e-9:
        k += 1
    return k + 1


def unitary_error_basis(d: int) -> np.ndarray:
    """Weyl basis U_a V_b as one (d^2, d, d) stack, element a d + b: d^2
    unitaries with Tr[W_a^dag W_b] = d delta_ab.

    U_a shifts the computational basis by a; V_b multiplies entry x by
    exp(2 pi i b x / d).
    """
    if d < 2:
        raise DimensionError("unitary_error_basis needs d >= 2")
    omega = np.exp(2j * np.pi / d)
    x = np.arange(d)
    shifts = ((x[:, None] - x) % d == x[:, None, None]).astype(complex)
    phases = np.zeros((d, d, d), dtype=complex)
    phases[:, x, x] = omega ** np.multiply.outer(x, x)
    return (shifts[:, None] @ phases).reshape(d * d, d, d)


def epr_basis(d: int) -> list[PureState]:
    """d^2 orthonormal maximally entangled states (W_a x I)|psi0>."""
    psi0 = max_entangled(d).vec
    eye = np.eye(d)
    return [
        PureState((d, d), np.kron(w, eye) @ psi0)
        for w in unitary_error_basis(d)
    ]
