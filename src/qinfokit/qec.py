"""Knill-Laflamme verification, recovery-channel synthesis, and the Shor
code corpus.

Codes are carried as isometries W (physical_dim x logical_dim), never as
full projectors, so Shor-scale checks cost O(m^2 n^2 k) with k the logical
dimension: every heavy product has an n x (multiple of k) factor, and no
two n x n matrices are ever multiplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .channels import Channel
from .errors import DimensionError, KLViolated
from .matkit import dagger

# Branches of the recovery with weight d_ii below this are dropped
# (the construction sets V_i = 0 when d_ii = 0).
BRANCH_CUTOFF = 1e-12


@dataclass(frozen=True)
class Code:
    """Protected subspace held as an isometry from logical to physical."""

    physical_dim: int
    logical_dim: int
    isometry: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = matkit.asmatrix(self.isometry)
        if w.shape != (self.physical_dim, self.logical_dim):
            raise DimensionError(
                f"isometry {w.shape} != ({self.physical_dim}, {self.logical_dim})"
            )
        gram = dagger(w) @ w
        if np.linalg.norm(gram - np.eye(self.logical_dim)) > 1e-10:
            raise DimensionError("isometry columns are not orthonormal")
        object.__setattr__(self, "isometry", w)

    def projector(self) -> np.ndarray:
        w = self.isometry
        return w @ dagger(w)


@dataclass(frozen=True)
class KLReport:
    """Outcome of a correctability check.

    When ``passes``, ``alpha`` is the Hermitian PSD unit-trace matrix with
    P E_i^dag E_j P = alpha_ij P on the code space.
    """

    passes: bool
    alpha: np.ndarray = field(repr=False)
    max_residual: float


def _error_list(errors) -> list[np.ndarray]:
    ops = [matkit.asmatrix(e) for e in errors]
    if not ops:
        raise DimensionError("need at least one error operator")
    return ops


def _family_scale(ops, n: int) -> float:
    """Tr[sum E_i^dag E_i] / n: 1 for a Kraus family of a channel, m for a
    list of m raw unitaries; dividing by it makes either convention yield
    the proof's trace-one alpha matrix."""
    total = sum(float(np.vdot(e, e).real) for e in ops)  # Tr E^dag E
    return total / n


def _code_images(code: Code, ops) -> np.ndarray:
    """E_i W for the normalized error family, stacked as m x n x k."""
    w = code.isometry
    n = code.physical_dim
    for e in ops:
        if e.shape != (n, n):
            raise DimensionError(f"error operator {e.shape} != ({n}, {n})")
    scale = _family_scale(ops, n)
    return np.stack([e @ w / math.sqrt(scale) for e in ops])


def _kl_report(ews: np.ndarray, tol: float) -> KLReport:
    m, _, k = ews.shape
    alpha = np.zeros((m, m), dtype=complex)
    max_resid = 0.0
    eye = np.eye(k)
    for i in range(m):
        for j in range(m):
            blk = dagger(ews[i]) @ ews[j]
            alpha[i, j] = np.trace(blk) / k
            resid = np.linalg.norm(blk - alpha[i, j] * eye)
            max_resid = max(max_resid, float(resid))
    return KLReport(max_resid <= tol, alpha, max_resid)


def kl_check(code: Code, errors, tol: float = 1e-8) -> KLReport:
    """Check P E_i^dag E_j P = alpha_ij P on the code space.

    alpha_ij = Tr[W^dag E_i^dag E_j W] / logical_dim after the error list
    is normalized into a trace-preserving family (raw unitary lists get
    uniform weights); the residual is
    max_ij || W^dag E_i^dag E_j W - alpha_ij I ||.
    """
    return _kl_report(_code_images(code, _error_list(errors)), tol)


def build_recovery(code: Code, errors, tol: float = 1e-8) -> Channel:
    """Recovery channel from the constructive correctability proof.

    Diagonalizes alpha as U alpha U^dag = D, forms F_i = sum_j conj(U)_ij E_j
    and partial isometries V_i = F_i P / sqrt(d_ii) on the branches with
    d_ii > 0, and returns the trace-preserving channel with Kraus
    {V_i^dag} plus the completion Q = I - sum V_i V_i^dag.
    """
    ews = _code_images(code, _error_list(errors))
    report = _kl_report(ews, tol)
    if not report.passes:
        raise KLViolated(
            f"correctability residual {report.max_residual:.3e} > {tol:.1e}"
        )
    w = code.isometry
    n = code.physical_dim
    # Descending eigenvalue order with a deterministic phase fix keeps the
    # branch layout reproducible under degeneracies.
    vals, vecs = np.linalg.eigh((report.alpha + dagger(report.alpha)) / 2.0)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    for c in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, c]))
        if np.abs(vecs[pivot, c]) > 0:
            vecs[:, c] *= np.abs(vecs[pivot, c]) / vecs[pivot, c]
    u = dagger(vecs)  # rows satisfy U alpha U^dag = diag(vals)
    keep = vals > BRANCH_CUTOFF
    # F_i W / sqrt(d_ii) = V_i W on every kept branch, m' x n x k.
    vws = np.tensordot(np.conj(u[keep]), ews, axes=1)
    vws /= np.sqrt(vals[keep])[:, None, None]
    # V_i^dag = P F_i^dag / sqrt(d_ii) = W (V_i W)^dag.
    kraus = [w @ dagger(vw) for vw in vws]
    # sum V_i V_i^dag = sum (V_i W)(V_i W)^dag as one n x (m' k) product.
    vw_cols = vws.transpose(1, 0, 2).reshape(n, -1)
    q = np.eye(n) - vw_cols @ dagger(vw_cols)
    kraus.append((q + dagger(q)) / 2.0)
    return Channel(n, n, tuple(kraus))


def _uniform_probs(errors, probs):
    m = len(errors)
    if probs is None:
        return np.full(m, 1.0 / m)
    p = np.asarray(probs, dtype=float)
    if p.shape != (m,) or p.min() < 0:
        raise DimensionError("probabilities must match the error list")
    return p / p.sum()


def noise_channel(errors, probs=None) -> Channel:
    """CPTP noise sum_i p_i E_i X E_i^dag for unitary-like error lists.

    Probabilities default to uniform 1/m.
    """
    ops = _error_list(errors)
    p = _uniform_probs(ops, probs)
    n = ops[0].shape[0]
    kraus = tuple(math.sqrt(pi) * e for pi, e in zip(p, ops))
    return Channel(n, n, kraus)


def verify_recovery(recovery: Channel, noise, code: Code,
                    samples: int = 50, seed: int = 0,
                    probs=None) -> float:
    """Max over sampled logical states of || (R o E)(W rho W^dag) - W rho W^dag ||_1.

    ``noise`` is a Kraus list (probabilities optional) or a Channel. The
    computation is compressed onto the subspace actually reachable from
    the code space, so it never touches full physical-dimension products
    beyond an initial O(m^2 n^2 k) setup.
    """
    if isinstance(noise, Channel):
        noise_kraus = list(noise.kraus)
    else:
        ops = _error_list(noise)
        p = _uniform_probs(ops, probs)
        noise_kraus = [math.sqrt(pi) * e for pi, e in zip(p, ops)]
    w = code.isometry
    n, k = code.physical_dim, code.logical_dim
    if recovery.din != n or recovery.dout != n:
        raise DimensionError("recovery must act on the physical space")
    for e in noise_kraus:
        if e.shape != (n, n):
            raise DimensionError("noise must act on the physical space")

    # Columns reachable by (recovery o noise) from the code space: one
    # n x (m k) product per recovery Kraus operator.
    ew = np.hstack([e @ w for e in noise_kraus])  # n x (m k)
    stack = np.hstack([w] + [r @ ew for r in recovery.kraus])
    basis = matkit.orthonormal_basis(stack)  # n x r
    w_c = dagger(basis) @ w  # r x k
    # Each k-column block of comp is one composed Kraus operator R_a E_b,
    # compressed to r x k.
    comp = dagger(basis) @ stack[:, k:]
    blocks = comp.reshape(len(comp), -1, k)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        rho = g @ dagger(g)
        rho /= np.real(np.trace(rho))
        sigma = w_c @ rho @ dagger(w_c)
        # sum_c C_c rho C_c^dag over all blocks in one product.
        out = (blocks @ rho).reshape(comp.shape) @ dagger(comp)
        worst = max(worst, matkit.norm(out - sigma, "trace"))
    return worst


def span_correction_check(code: Code, base_errors, new_errors,
                          tol: float = 1e-8) -> bool:
    """True when every new error lies in span{base errors} and the
    recovery built from the base set still corrects the new noise.

    Membership is decided by least-squares projection residual; the new
    operators are combined with uniform weights into a noise channel for
    the recovery simulation.
    """
    base = _error_list(base_errors)
    new = _error_list(new_errors)
    basis = np.stack([e.reshape(-1) for e in base], axis=1)
    for e in new:
        coeff, _, _, _ = np.linalg.lstsq(basis, e.reshape(-1), rcond=None)
        resid = np.linalg.norm(basis @ coeff - e.reshape(-1))
        if resid > tol * max(1.0, np.linalg.norm(e)):
            return False
    recovery = build_recovery(code, base)
    deviation = verify_recovery(recovery, noise_channel(new), code, samples=16)
    return deviation <= 1e-7


# ---------------------------------------------------------------------------
# Shor code corpus
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_on(n: int, site: int, which: str) -> np.ndarray:
    """Single-site Pauli on an n-qubit register (site is 0-based)."""
    op = np.array([[1.0 + 0j]])
    for q in range(n):
        op = np.kron(op, _PAULI[which if q == site else "I"])
    return op


def one_paulis(n: int) -> list[np.ndarray]:
    """Identity plus every single-site X, Y, Z on n qubits (3n + 1 ops)."""
    ops = [np.eye(2 ** n, dtype=complex)]
    for which in ("X", "Y", "Z"):
        for site in range(n):
            ops.append(pauli_on(n, site, which))
    return ops


def shor_code() -> Code:
    """Nine-qubit code spanned by the usual GHZ-of-GHZ logical states."""
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    ghz_plus = (_kron3(zero) + _kron3(one)) / math.sqrt(2.0)
    ghz_minus = (_kron3(zero) - _kron3(one)) / math.sqrt(2.0)
    logical0 = np.kron(np.kron(ghz_plus, ghz_plus), ghz_plus)
    logical1 = np.kron(np.kron(ghz_minus, ghz_minus), ghz_minus)
    w = np.stack([logical0, logical1], axis=1)
    return Code(512, 2, w)


def _kron3(v: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(v, v), v)
