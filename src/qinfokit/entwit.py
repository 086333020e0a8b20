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
from .matkit import dagger
from .states import State, unitary_error_basis

# Singular values below RANK_RTOL * largest count as zero everywhere in
# this module (shared with verify_min_rank).
RANK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """Subspace of M(m, n) carried as an HS-orthonormal basis list."""

    ambient: tuple
    basis: tuple = field(repr=False)

    def __post_init__(self):
        shape = (int(self.ambient[0]), int(self.ambient[1]))
        ops = tuple(matkit.asmatrix(bmat) for bmat in self.basis)
        for bmat in ops:
            if bmat.shape != shape:
                raise DimensionError(f"basis element {bmat.shape} != {shape}")
        stack = np.stack([bmat.reshape(-1) for bmat in ops], axis=1)
        gram = dagger(stack) @ stack
        if np.linalg.norm(gram - np.eye(len(ops))) > 1e-10:
            raise DimensionError("basis is not HS-orthonormal")
        object.__setattr__(self, "ambient", shape)
        object.__setattr__(self, "basis", ops)

    def __len__(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (len(self.basis),):
            raise DimensionError("one coefficient per basis element")
        out = np.zeros(self.ambient, dtype=complex)
        for c, bmat in zip(coeffs, self.basis):
            out += c * bmat
        return out


def _orthonormalize(mats, shape) -> MatrixSubspace:
    stack = np.stack([m.reshape(-1) for m in mats], axis=1)
    q = matkit.orthonormal_basis(stack)
    return MatrixSubspace(shape, tuple(
        q[:, k].reshape(shape) for k in range(q.shape[1])
    ))


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
    eigs = np.asarray(phi_eigs, dtype=float)
    if eigs.shape != (n * n,):
        raise DimensionError(f"need {n * n} eigenvalues")
    if eigs.min() <= 0:
        raise EigsNotDistinct("eigenvalues must be positive")
    if np.min(np.diff(np.sort(eigs))) < 1e-12:
        raise EigsNotDistinct("eigenvalues must be distinct")
    weyl = [w / math.sqrt(n) for w in unitary_error_basis(n)]

    def phi(b):
        out = np.zeros((n, n), dtype=complex)
        for p, w in zip(eigs, weyl):
            out += p * matkit.hs_inner(w, b) * w
        return out

    return phi


def default_phi_eigs(n: int) -> np.ndarray:
    """Distinct positive spectrum 1 + alpha / n^2 used when the caller
    does not supply one."""
    return 1.0 + np.arange(n * n) / float(n * n)


def rank2_subspace(n: int, phi_eigs=None) -> MatrixSubspace:
    """2n^2-dimensional subspace of M_{2n} whose nonzero elements all have
    rank >= 2: blocks [[A, Phi(B)], [B, A]] over all A, B."""
    if phi_eigs is None:
        phi_eigs = default_phi_eigs(n)
    phi = _phi_superop(n, phi_eigs)
    mats = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            a_block = np.zeros((2 * n, 2 * n), dtype=complex)
            a_block[:n, :n] = e
            a_block[n:, n:] = e
            mats.append(a_block)
            b_block = np.zeros((2 * n, 2 * n), dtype=complex)
            b_block[n:, :n] = e
            b_block[:n, n:] = phi(e)
            mats.append(b_block)
    return _orthonormalize(mats, (2 * n, 2 * n))


def rank2_complement(s: MatrixSubspace, phi_eigs=None) -> MatrixSubspace:
    """Orthogonal complement of rank2_subspace: blocks
    [[K, L], [-Phi(L), -K]], again free of rank-one elements."""
    n = s.ambient[0] // 2
    if s.ambient != (2 * n, 2 * n) or len(s) != 2 * n * n:
        raise DimensionError("input must come from rank2_subspace")
    if phi_eigs is None:
        phi_eigs = default_phi_eigs(n)
    phi = _phi_superop(n, phi_eigs)
    mats = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            k_block = np.zeros((2 * n, 2 * n), dtype=complex)
            k_block[:n, :n] = e
            k_block[n:, n:] = -e
            mats.append(k_block)
            l_block = np.zeros((2 * n, 2 * n), dtype=complex)
            l_block[:n, n:] = e
            l_block[n:, :n] = -phi(e)
            mats.append(l_block)
    return _orthonormalize(mats, (2 * n, 2 * n))


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
        cells = [
            (i, i + offset)
            for i in range(m)
            if 0 <= i + offset < n
        ]
        p = len(cells)
        if p <= k:
            continue
        nodes = np.arange(1, p + 1, dtype=float)
        for degree in range(p - k):
            mat = np.zeros((m, n), dtype=complex)
            for (i, j), z in zip(cells, nodes):
                mat[i, j] = z ** degree
            mats.append(mat)
    return _orthonormalize(mats, (m, n))


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
