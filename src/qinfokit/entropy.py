"""Entropic quantities, strong subadditivity, Petz recovery, and quantum
Markov states.

All entropies are in bits (log base 2); the tail-bound divergence in
randkit stays in nats, and the two never mix. Support-restricted inverses
share matkit's relative cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matkit
from .channels import Channel, is_tp
from .errors import (
    DimensionError,
    IllConditioned,
    NotTracePreserving,
    ProbabilityError,
)
from .matkit import dagger
from .states import State

# Conditional mutual information within this of zero is clipped to zero.
CMI_FLOOR = 1e-8
# is_markov refuses marginals whose support condition number exceeds this.
COND_GUARD = 1e10


def von_neumann(rho: State) -> float:
    """S(rho) = -Tr[rho log2 rho]; zero for pure states. Reads the
    spectrum the State computed when it was made."""
    vals = rho.spectrum
    vals = vals[vals > matkit.SUPPORT_RTOL * max(vals.max(), 1e-300)]
    s = float(-np.sum(vals * np.log2(vals)))
    return max(s, 0.0)


def _support_log2(rho: np.ndarray):
    eig = matkit.herm_eig(rho)
    vals = np.clip(eig.values, 0.0, None)
    lam_max = vals.max() if vals.size else 0.0
    on = vals > matkit.SUPPORT_RTOL * lam_max
    logs = np.zeros_like(vals)
    logs[on] = np.log2(vals[on])
    mat = (eig.vectors * logs) @ dagger(eig.vectors)
    proj = (eig.vectors * on.astype(float)) @ dagger(eig.vectors)
    return mat, proj


def relative_entropy(rho: State, sigma: State) -> float:
    """D(rho || sigma) = Tr[rho (log rho - log sigma)] in bits.

    Returns inf when the support of rho is not contained in the support of
    sigma (decided at tolerance 1e-9).
    """
    if rho.dims != sigma.dims:
        raise DimensionError(f"dims {rho.dims} vs {sigma.dims}")
    log_sigma, proj = _support_log2(sigma.rho)
    leak = np.real(np.trace(rho.rho @ (np.eye(rho.dim) - proj)))
    if leak > 1e-9:
        return math.inf
    log_rho, _ = _support_log2(rho.rho)
    val = float(np.real(np.trace(rho.rho @ (log_rho - log_sigma))))
    return max(val, 0.0)


def mutual_info(rho: State) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) for a bipartite state."""
    if len(rho.dims) != 2:
        raise DimensionError("mutual_info needs exactly two factors")
    sa = von_neumann(rho.marginal({0}))
    sb = von_neumann(rho.marginal({1}))
    sab = von_neumann(rho)
    return sa + sb - sab


@dataclass(frozen=True)
class EntropyReport:
    """Tripartite entropies (bits) and the conditional mutual information
    I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC), clipped at the numerical
    floor."""

    s_ab: float
    s_bc: float
    s_b: float
    s_abc: float
    cmi: float


def cond_mutual_info(rho: State) -> EntropyReport:
    if len(rho.dims) != 3:
        raise DimensionError("cond_mutual_info needs exactly three factors")
    s_ab = von_neumann(rho.marginal({0, 1}))
    s_bc = von_neumann(rho.marginal({1, 2}))
    s_b = von_neumann(rho.marginal({1}))
    s_abc = von_neumann(rho)
    cmi = s_ab + s_bc - s_b - s_abc
    if -CMI_FLOOR <= cmi < 0.0:
        cmi = 0.0
    return EntropyReport(s_ab, s_bc, s_b, s_abc, cmi)


def petz_map(sigma: State, ch: Channel) -> Channel:
    """Canonical recovery sqrt(sigma) T^dag(T(sigma)^{-1/2} X T(sigma)^{-1/2}) sqrt(sigma).

    Kraus operators are sqrt(sigma) E_i^dag T(sigma)^{-1/2}; the map is CP,
    recovers sigma exactly, and is trace preserving on the support of
    T(sigma).
    """
    if not is_tp(ch):
        raise NotTracePreserving("Petz recovery needs a TP channel")
    if sigma.dim != ch.din:
        raise DimensionError("sigma must live on the channel input")
    t_sigma = ch(sigma.rho)
    t_half_inv = matkit.matrix_function(t_sigma, "pinv_sqrt_inv")
    sig_half = matkit.matrix_function(sigma.rho, "sqrt")
    return Channel(ch.dout, ch.din, sig_half @ dagger(ch.kraus) @ t_half_inv)


def ssa_petz_map(rho_bc: State, rho_b: State) -> Channel:
    """Petz transfer map B -> BC built from a joint state and its marginal:

        X -> sqrt(rho_BC) (rho_B^{-1/2} X rho_B^{-1/2} (x) I_C) sqrt(rho_BC)

    It maps rho_B back to rho_BC exactly and is CP.
    """
    if len(rho_bc.dims) != 2:
        raise DimensionError("rho_bc must carry (B, C) factors")
    db, dc = rho_bc.dims
    if rho_b.dim != db:
        raise DimensionError(f"rho_b dim {rho_b.dim} != B factor {db}")
    bc_half = matkit.matrix_function(rho_bc.rho, "sqrt")
    b_half_inv = matkit.matrix_function(rho_b.rho, "pinv_sqrt_inv")
    # Slice a of the stack is rho_B^{-1/2} (x) |a>, which is db*dc x db.
    lifts = np.einsum("ij,ab->aibj", b_half_inv, np.eye(dc))
    return Channel(db, db * dc, bc_half @ lifts.reshape(dc, db * dc, db))


def markov_state(spec) -> State:
    """Tripartite state assembled from Markov blocks.

    ``spec`` is a list of (q_j, rho_AbL_j, rho_bRC_j) with weights q_j a
    probability vector, rho_AbL_j a bipartite State on A x bL_j and
    rho_bRC_j a bipartite State on bR_j x C. The middle factor becomes the
    direct sum of the bL_j x bR_j blocks, and the result has vanishing
    conditional mutual information across A : B : C.
    """
    if not spec:
        raise ProbabilityError("need at least one block")
    qs = np.array([float(q) for q, _, _ in spec])
    if qs.min() < 0 or abs(qs.sum() - 1.0) > 1e-10:
        raise ProbabilityError("block weights must form a probability vector")
    da = spec[0][1].dims[0]
    dc = spec[0][2].dims[1]
    block_dims = []
    for _, left, right in spec:
        if len(left.dims) != 2 or len(right.dims) != 2:
            raise DimensionError("block states must be bipartite")
        if left.dims[0] != da or right.dims[1] != dc:
            raise DimensionError("blocks must share the A and C dimensions")
        block_dims.append(left.dims[1] * right.dims[0])
    db = sum(block_dims)
    rho = np.zeros((da * db * dc, da * db * dc), dtype=complex)
    offset = 0
    for (q, left, right), dblk in zip(spec, block_dims):
        embed = np.zeros((db, dblk))
        embed[offset:offset + dblk, :] = np.eye(dblk)
        lift = np.kron(np.kron(np.eye(da), embed), np.eye(dc))
        local = np.kron(left.rho, right.rho)  # ordered A, bL, bR, C
        rho += q * (lift @ local @ dagger(lift))
        offset += dblk
    return State((da, db, dc), rho)


def markov_reconstruction(rho_abc: State) -> np.ndarray:
    """(I_A (x) T'')(rho_AB) for the transfer map built from the BC and B
    marginals; equals rho_ABC exactly on Markov states."""
    da, db, dc = rho_abc.dims
    rho_bc = rho_abc.marginal({1, 2})
    rho_b = rho_abc.marginal({1})
    transfer = ssa_petz_map(rho_bc, rho_b)
    rho_ab = matkit.partial_trace(rho_abc.rho, rho_abc.dims, {0, 1})
    # Slice k of the stack is I_A (x) K_k.
    big = np.einsum("xy,kij->kxiyj", np.eye(da), transfer.kraus)
    big = big.reshape(len(transfer.kraus), da * db * dc, da * db)
    return np.sum(big @ rho_ab @ dagger(big), axis=0)


def is_markov(rho_abc: State, tol: float = 1e-7) -> bool:
    """Double certificate: the Petz reconstruction from rho_AB matches
    rho_ABC in trace norm AND the conditional mutual information vanishes,
    both at ``tol``."""
    if len(rho_abc.dims) != 3:
        raise DimensionError("is_markov needs exactly three factors")
    rho_b = rho_abc.marginal({1}).rho
    vals = np.linalg.eigvalsh(rho_b)
    support = vals[vals > matkit.SUPPORT_RTOL * vals.max()]
    if support.size and support.max() / support.min() > COND_GUARD:
        raise IllConditioned("B marginal too ill-conditioned on its support")
    recon = markov_reconstruction(rho_abc)
    dist = matkit.norm(recon - rho_abc.rho, "trace")
    if dist > tol:
        return False
    return cond_mutual_info(rho_abc).cmi <= tol


def kraus_commutant(kraus, tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of {X : [X, B_i] = [X, B_i^dag] = 0 for all i}.

    Computed as the null space of the stacked commutator superoperators;
    with row-major vectorization [X, B] maps to (I (x) B^T - B (x) I) vec X.
    """
    n = matkit.asmatrix(kraus[0]).shape[0]
    ops = matkit.asstack(kraus, (n, n), "commutant needs square operators")
    both = np.stack([ops, dagger(ops)], axis=1).reshape(-1, n, n)  # B_0, B_0^dag, ...
    eye = np.eye(n)
    rows = (np.einsum("ij,bkl->bikjl", eye, both.swapaxes(1, 2))
            - np.einsum("bij,kl->bikjl", both, eye))
    stacked = rows.reshape(-1, n * n)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    s_max = s[0] if s.size and s[0] > 0 else 1.0
    return [
        vh[i].conj().reshape(n, n)
        for i in range(len(s))
        if s[i] <= tol * s_max
    ]
