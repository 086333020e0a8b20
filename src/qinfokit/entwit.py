"""Entanglement witnesses and subspaces of guaranteed minimal rank.

The rank-two construction places blocks [[A, Phi(B)], [B, A]] inside
M_{2n}, with Phi a positive map whose eigenvectors are the Weyl unitaries;
the general construction fills matrix diagonals with polynomial values at
distinct integer nodes and reaches the maximal dimension (m-k)(n-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .errors import DimensionError, EigsNotDistinct, KOutOfRange
from .states import State, unitary_error_basis

# Singular values below RANK_RTOL * largest count as zero everywhere in
# this module (shared with verify_min_rank).
RANK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """Subspace of M(m, n) carried as an HS-orthonormal basis, one complex
    (dim, m, n) stack (``matkit.asstack``, kept without a copy if it is
    one already)."""

    ambient: tuple
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (int(self.ambient[0]), int(self.ambient[1]))
        basis = matkit.asstack(self.basis, shape, "basis element {} != ({}, {})")
        flat = basis.reshape(len(basis), -1)
        if np.linalg.norm(flat.conj() @ flat.T - np.eye(len(basis))) > 1e-10:
            raise DimensionError("basis is not HS-orthonormal")
        object.__setattr__(self, "ambient", shape)
        object.__setattr__(self, "basis", basis)

    def __len__(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (len(self.basis),):
            raise DimensionError("one coefficient per basis element")
        return np.tensordot(coeffs, self.basis, axes=1)


def _orthonormalize(mats: np.ndarray) -> MatrixSubspace:
    """The span of a (count, m, n) stack, by one SVD."""
    q = matkit.orthonormal_basis(mats.reshape(len(mats), -1).T)
    return MatrixSubspace(mats.shape[1:], q.T.reshape(-1, *mats.shape[1:]))


def matrix_rank(x, tol: float = RANK_RTOL) -> int:
    s = np.linalg.svd(matkit.asmatrix(x), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def ppt_test(rho: State, cut: int = 1) -> bool:
    """Peres criterion: True iff the partial transpose stays PSD.

    Necessary for separability; a False answer witnesses entanglement.
    """
    if len(rho.dims) < 2:
        raise DimensionError("need a multipartite state")
    da = math.prod(rho.dims[:cut])
    db = math.prod(rho.dims[cut:])
    pt = matkit.partial_transpose(rho.rho, (da, db), 1)
    return bool(np.linalg.eigvalsh(pt).min() >= -1e-9)


def _phi_superop(n: int, phi_eigs) -> callable:
    """Phi(B) = sum_k p_k Tr[W_k^dag B] W_k / n over the Weyl basis W_k,
    for a stack of n x n matrices B; ``phi_eigs`` p_k default to
    ``default_phi_eigs``."""
    weyl = unitary_error_basis(n)
    eigs = np.asarray(default_phi_eigs(n) if phi_eigs is None else phi_eigs,
                      dtype=float)
    if eigs.shape != (n * n,):
        raise DimensionError(f"need {n * n} eigenvalues")
    if eigs.min() <= 0:
        raise EigsNotDistinct("eigenvalues must be positive")
    if np.min(np.diff(np.sort(eigs))) < 1e-12:
        raise EigsNotDistinct("eigenvalues must be distinct")

    def phi(b):
        coeffs = np.tensordot(b, weyl.conj(), axes=([-2, -1], [1, 2]))
        return np.tensordot(coeffs * eigs, weyl, axes=1) / n

    return phi


def default_phi_eigs(n: int) -> np.ndarray:
    """Distinct positive spectrum 1 + alpha / n^2 used when the caller
    does not supply one."""
    return 1.0 + np.arange(n * n) / float(n * n)


def rank2_subspace(n: int, phi_eigs=None) -> MatrixSubspace:
    """2n^2-dimensional subspace of M_{2n} whose nonzero elements all have
    rank >= 2: blocks [[A, Phi(B)], [B, A]] over all A, B."""
    phi = _phi_superop(n, phi_eigs)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij at i n + j
    mats = np.zeros((n * n, 2, 2 * n, 2 * n), dtype=complex)  # member 2(i n + j) + t
    mats[:, 0, :n, :n] = mats[:, 0, n:, n:] = units
    mats[:, 1, n:, :n] = units
    mats[:, 1, :n, n:] = phi(units)
    return _orthonormalize(mats.reshape(-1, 2 * n, 2 * n))


def rank2_complement(s: MatrixSubspace, phi_eigs=None) -> MatrixSubspace:
    """Orthogonal complement of rank2_subspace: blocks
    [[K, L], [-Phi(L), -K]], again free of rank-one elements."""
    n = s.ambient[0] // 2
    if s.ambient != (2 * n, 2 * n) or len(s) != 2 * n * n:
        raise DimensionError("input must come from rank2_subspace")
    phi = _phi_superop(n, phi_eigs)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij at i n + j
    mats = np.zeros((n * n, 2, 2 * n, 2 * n), dtype=complex)  # member 2(i n + j) + t
    mats[:, 0, :n, :n] = units
    mats[:, 0, n:, n:] = -units
    mats[:, 1, :n, n:] = units
    mats[:, 1, n:, :n] = -phi(units)
    return _orthonormalize(mats.reshape(-1, 2 * n, 2 * n))


def min_rank_subspace(m: int, n: int, k: int) -> MatrixSubspace:
    """Subspace of M(m, n) of the maximal dimension (m-k)(n-k) whose
    nonzero elements all have rank >= k+1.

    Diagonals of length <= k stay zero; a diagonal of length p > k holds
    the values of a polynomial of degree <= p-k-1 at the distinct integer
    nodes 1..p, so at most p-k-1 of its entries can vanish.
    """
    if not (0 <= k < min(m, n)):
        raise KOutOfRange(f"need 0 <= k < min({m}, {n})")
    mats = []
    for offset in range(-(m - 1), n):
        rows = np.arange(max(0, -offset), min(m, n - offset))
        p = len(rows)
        if p <= k:
            continue
        nodes = np.arange(1, p + 1, dtype=float)
        for degree in range(p - k):
            mat = np.zeros((m, n), dtype=complex)
            mat[rows, rows + offset] = nodes ** degree
            mats.append(mat)
    return _orthonormalize(np.array(mats))


def verify_min_rank(s: MatrixSubspace, k: int, samples: int = 500,
                    seed: int = 0) -> tuple[int, bool]:
    """Sampled check that subspace elements have rank >= k+1.

    Observes every basis element plus ``samples`` random combinations;
    deterministic for a given seed. Returns (min observed rank, passes).
    """
    rng = np.random.default_rng(seed)
    dim = len(s)
    min_rank = min(s.ambient)
    for bmat in s.basis:
        min_rank = min(min_rank, matrix_rank(bmat))
    for _ in range(samples):
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = s.element(coeffs)
        min_rank = min(min_rank, matrix_rank(x))
    return min_rank, min_rank >= k + 1
