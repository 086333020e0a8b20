"""Knill-Laflamme verification, recovery-channel synthesis, and the Shor
code corpus.

Codes are carried as isometries W (physical_dim x logical_dim), never as
full projectors, so Shor-scale checks cost O(m^2 n^2 k) with k the logical
dimension: every heavy product has an n x (multiple of k) factor, and no
two n x n matrices are ever multiplied. A recovery is carried the same
way, as W and the n x k images V_i W of its branches (``Recovery``), and
verified without forming an n x n matrix: the sampled deviations and
their sample-free certificate are read off one small Choi matrix of the
deviation map. Its dense Kraus operators are written out only on request.

A noise has one form, an error list E_b with optional weights p_b; a
Channel is passed as its Kraus stack ``ch.kraus``, which stands for the
channel itself when it is trace preserving. The list is read once, each
operator at its own scale (``_traces``), and normalized on m scalars
alone (``_noise_factors``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import matkit
from .channels import Channel
from .errors import DimensionError, DomainError, KLViolated, ProbabilityError
from .matkit import dagger

# Branches of the recovery with weight d_ii below this are dropped
# (the construction sets V_i = 0 when d_ii = 0).
BRANCH_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class KLReport:
    """Outcome of a correctability check.

    When ``passes``, ``alpha`` is the Hermitian PSD unit-trace matrix with
    P E_i^dag E_j P = alpha_ij P on the code space.
    """

    passes: bool
    alpha: np.ndarray = field(repr=False)
    max_residual: float


def _error_list(errors) -> Sequence:
    """The error operators E_b as given, not yet converted or checked: a
    sequence (a list, a stacked array, or the lazy list a document reader
    returns) is kept, and any other iterable is read into a list; the one
    pass over it (``_traces``) holds one converted operator at a time.
    Anything else, a Channel included, raises DimensionError."""
    try:
        ops = errors if isinstance(errors, (Sequence, np.ndarray)) else list(errors)
    except TypeError:
        raise DimensionError("errors must be a sequence of matrices") from None
    if not len(ops):
        raise DimensionError("need at least one error operator")
    return ops


def _refuse(ops: Sequence, n: int):
    """Raise the DimensionError for ``ops``, a list a pass found at fault,
    that checking each operator with ``asmatrix`` in list order, then
    n >= 1, then each one's shape against n x n, raises first: a
    non-finite entry anywhere is reported before a shape mismatch. Only
    this error path scans the list again."""
    for e in ops:
        matkit.asmatrix(e)
    if not n:
        raise DimensionError("error operators must be n x n with n >= 1")
    for e in ops:
        if np.shape(e) != (n, n):
            raise DimensionError(f"error operator {np.shape(e)} != ({n}, {n})")


def _traces(ops: Sequence, n: int | None, image) -> tuple[np.ndarray, np.ndarray]:
    """(Tr F_b^dag F_b, s_b) of F_b = E_b / s_b for the n x n operators
    E_b of ``ops`` (n is the first one's when None), in the one pass over
    the list: each E_b is converted, checked, scaled and traced in turn,
    and handed to ``image(b, F_b)`` while still in cache. s_b is 1 when
    Tr E_b^dag E_b lies in [n tiny, max / m], and otherwise the largest
    real or imaginary part of E_b (0 for a zero operator), divided part
    by part, as a complex division by a subnormal s_b overflows. Only a
    non-finite trace looks at the entries. Raises as ``_refuse``."""
    traces, scales = np.empty(len(ops)), np.ones(len(ops))
    tiny, high = np.finfo(float).tiny, np.finfo(float).max / len(ops)
    for b, op in enumerate(ops):
        e = np.asarray(op, dtype=complex)
        if n is None:
            n = len(e) if e.ndim else 0  # n = 0 is refused below
        if e.shape != (n, n) or not n:
            _refuse(ops, n)
        trace = np.vdot(e, e).real
        if not n * tiny <= trace <= high:
            if not (math.isfinite(trace) or np.isfinite(e).all()):
                _refuse(ops, n)
            scales[b] = max(np.abs(e.real).max(), np.abs(e.imag).max())
            if scales[b]:
                e = e.real / scales[b] + 1j * (e.imag / scales[b])
                trace = np.vdot(e, e).real
        traces[b] = trace
        image(b, e)
    return traces, scales


_OUT_OF_RANGE = "noise: its weight on the code space is zero or out of floating-point range"


def _noise_factors(traces: np.ndarray, scales: np.ndarray, n: int,
                   probs) -> tuple[np.ndarray, float]:
    """(a_b, c) for an error list E_b read by ``_traces``, with weights p_b
    (1 each when ``probs`` is None). Its noise
    sum_b p_b E_b rho E_b^dag / c0, c0 = Tr[sum_b p_b E_b^dag E_b] / n (1
    for a channel's Kraus operators, sum p for unitaries), is
    sum_b a_b^2 F_b rho F_b^dag / c with c = Tr[sum_b a_b^2 F_b^dag F_b] / n
    and a_b = sqrt(p_b / p_max) (s_b / s_max) / 2^k, s_max the largest s_b
    of positive weight. Ratios of mantissas and differences of integer
    exponents neither under- nor overflow, and give 1 for equal values;
    2^k changes no digit and brings the largest a_b^2 Tr F_b^dag F_b near
    1. Raises ProbabilityError or DimensionError for probs that do not fit
    the list, and DomainError when no operator of positive weight is
    nonzero."""
    m = len(traces)
    if probs is None:
        p = np.ones(m)
    else:
        p = np.asarray(probs, dtype=float)
        if p.shape != (m,):
            raise DimensionError("probabilities must match the error list")
        if np.any(p < 0):
            raise ProbabilityError("probabilities must be nonnegative")
        if not (np.isfinite(p).all() and p.max() > 0):
            raise ProbabilityError("probabilities must have a positive finite sum")
    if not scales.any():
        raise DomainError("errors: every error operator is zero")
    weighted = (p > 0) & (scales > 0)
    if not weighted.any():
        raise DomainError(_OUT_OF_RANGE)
    pf, pe = np.frexp(p)
    sf, se = np.frexp(scales)
    top_p, top_s = np.argmax(p), np.argmax(np.where(weighted, scales, 0.0))
    # sqrt(p_b / p_max): an odd exponent moves one factor 2 into the mantissa.
    pe = pe - pe[top_p]
    root = np.sqrt(np.ldexp(pf / pf[top_p], pe % 2))
    mantissas = root * (sf / sf[top_s])
    exponents = pe // 2 + se - se[top_s]
    k = (2 * exponents + np.frexp(traces)[1])[weighted].max() // 2
    # Members of zero weight have a zero mantissa, whatever their scale.
    amps = np.ldexp(mantissas, exponents - k)
    # a_b Tr F_b^dag F_b first: a_b^2 alone may underflow for a member
    # whose small amplitude comes with a large trace.
    return amps, float((amps * traces) @ amps) / n


class _ImagedErrors:
    """An error list read once under one isometry W: the F_b W, stacked as
    m x n x k, with ``_traces``, which ``build_recovery`` and
    ``verify_recovery`` take for that W without reading the list again."""

    def __init__(self, w: np.ndarray, errors):
        ops = _error_list(errors)
        self.isometry = w
        self.images = np.empty((len(ops), *w.shape), dtype=complex)
        self.traces, self.scales = _traces(
            ops, len(w), lambda b, e: np.matmul(e, w, out=self.images[b]))


def _normalized_images(w: np.ndarray, errors, probs=None) -> np.ndarray:
    """E_b W sqrt(p_b / c0) (``_noise_factors``) as a new m x n x k array,
    for a list or an ``_ImagedErrors`` read under ``w``."""
    imaged = errors if isinstance(errors, _ImagedErrors) else _ImagedErrors(w, errors)
    amps, scale = _noise_factors(imaged.traces, imaged.scales, len(w), probs)
    ews = imaged.images / math.sqrt(scale)
    ews *= amps[:, None, None]
    return ews


def _kl_report(ews: np.ndarray, tol: float) -> KLReport:
    m, n, k = ews.shape
    # One Gram product of all m k columns; block (i, j) of the (m, k, m, k)
    # view is W^dag E_i^dag E_j W.
    cols = ews.transpose(1, 0, 2).reshape(n, m * k)
    blocks = (dagger(cols) @ cols).reshape(m, k, m, k)
    alpha = np.einsum("iaja->ij", blocks) / k
    for a in range(k):
        blocks[:, a, :, a] -= alpha
    max_resid = float(np.linalg.norm(blocks, axis=(1, 3)).max())
    return KLReport(max_resid <= tol, alpha, max_resid)


def kl_check(code: Code, errors, tol: float = 1e-8) -> KLReport:
    """Check P E_i^dag E_j P = alpha_ij P on the code space.

    alpha_ij = Tr[W^dag E_i^dag E_j W] / logical_dim after the error list
    is normalized into a trace-preserving family, divided by
    sqrt(Tr[sum E_b^dag E_b] / n) as in ``verify_recovery`` (raw unitary
    lists get uniform weights), so the verdict does not depend on the
    scale of any operator (``_traces``); the residual is
    max_ij || W^dag E_i^dag E_j W - alpha_ij I ||. Raises DomainError when
    every error operator is zero.
    """
    return _kl_report(_normalized_images(code.isometry, errors), tol)


@dataclass(frozen=True, eq=False)
class Recovery:
    """Recovery channel of ``build_recovery``, held in factored form.

    With C = [V_1 W, ..., V_m' W] (n x m'k, orthonormal columns), its Kraus
    operators are the branches V_i^dag = W (V_i W)^dag, each of rank k,
    and the completion Q = I - C C^dag. ``channel()`` writes them out as
    m' + 1 dense n x n matrices.
    """

    isometry: np.ndarray = field(repr=False)  # W, n x k
    branch_images: np.ndarray = field(repr=False)  # C, n x m'k
    branches: int

    @property
    def kraus_count(self) -> int:
        return self.branches + 1

    def channel(self) -> Channel:
        w, c = self.isometry, self.branch_images
        n, k = w.shape
        vws = c.reshape(n, self.branches, k).swapaxes(0, 1)  # V_i W
        kraus = np.empty((self.kraus_count, n, n), dtype=complex)
        np.matmul(w, dagger(vws), out=kraus[:-1])
        q = np.eye(n) - c @ dagger(c)
        kraus[-1] = (q + dagger(q)) / 2.0
        return Channel(n, n, kraus)


def build_recovery(code: Code, errors, tol: float = 1e-8) -> Recovery:
    """Recovery channel from the constructive correctability proof.

    Diagonalizes alpha as U alpha U^dag = D, forms F_i = sum_j conj(U)_ij E_j
    and partial isometries V_i = F_i P / sqrt(d_ii) on the branches with
    d_ii > 0, and returns the trace-preserving channel with Kraus
    {V_i^dag} plus the completion Q = I - sum V_i V_i^dag, as a Recovery
    that holds only W and the V_i W: no n x n matrix is formed.
    """
    ews = _normalized_images(code.isometry, errors)
    report = _kl_report(ews, tol)
    if not report.passes:
        raise KLViolated(
            f"correctability residual {report.max_residual:.3e} > {tol:.1e}"
        )
    n = code.physical_dim
    # Descending eigenvalue order with a deterministic phase fix keeps the
    # branch layout reproducible under degeneracies.
    vals, vecs = np.linalg.eigh((report.alpha + dagger(report.alpha)) / 2.0)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    vecs *= np.abs(pivots) / pivots
    u = dagger(vecs)  # rows satisfy U alpha U^dag = diag(vals)
    keep = vals > BRANCH_CUTOFF
    # F_i W / sqrt(d_ii) = V_i W on every kept branch, m' x n x k.
    vws = np.tensordot(np.conj(u[keep]), ews, axes=1)
    vws /= np.sqrt(vals[keep])[:, None, None]
    return Recovery(code.isometry, vws.swapaxes(0, 1).reshape(n, -1),
                    len(vws))


def noise_channel(errors, probs=None) -> Channel:
    """The CPTP noise sum_b p_b E_b X E_b^dag / c of an error list, with
    c = Tr[sum_b p_b E_b^dag E_b] / n and p_b = 1 when ``probs`` is None
    (``_noise_factors``): a channel's own Kraus operators, or unitaries
    with probabilities p_b / sum p, each operator at its own scale, read
    once (``_traces``) into the Kraus stack. Raises DomainError when every
    error operator is zero, or when the probs weigh only zero operators."""
    ops = _error_list(errors)
    kraus = None  # made when the first operator read gives n

    def keep(b, e):
        nonlocal kraus
        if kraus is None:
            # Written in place: an error list can be hundreds of megabytes.
            kraus = np.empty((len(ops), *e.shape), dtype=complex)
        kraus[b] = e

    traces, scales = _traces(ops, None, keep)
    n = kraus.shape[1]
    amps, scale = _noise_factors(traces, scales, n, probs)
    kraus *= (amps / math.sqrt(scale))[:, None, None]
    return Channel(n, n, kraus)


@dataclass(frozen=True)
class RecoveryCheck:
    """Outcome of ``verify_recovery``: the largest sampled deviation and
    the sample-free bound on every one of them."""

    max_deviation: float
    certified_deviation: float


def _compressed_map(recovery: Recovery, noise, probs) -> np.ndarray:
    """J = J_c - J_0, the unnormalized Choi matrix (input x output) of the
    deviation map rho -> (R o N)(W rho W^dag) - W rho W^dag compressed onto
    an orthonormal basis B of the subspace reachable from the code space,
    as a (k, r, k, r) array: the deviation of rho is
    sum_ij rho_ij J[i, :, j, :]. ``noise`` and ``probs`` are as in
    ``verify_recovery``.
    """
    w, c = recovery.isometry, recovery.branch_images
    n, k = w.shape
    images = _normalized_images(w, noise, probs)
    # sum_b ||K_b W||_F^2, k for a trace-preserving noise, bounds every
    # entry of J_c; out of range, J_c under- or overflows.
    if not np.finfo(float).tiny <= np.vdot(images, images).real < math.inf:
        raise DomainError(_OUT_OF_RANGE)

    ew = images.swapaxes(0, 1).reshape(n, -1)  # [E_b W], n x mk
    # R_a E_b W = W (V_a W)^dag E_b W: the k x k core (V_a W)^dag E_b W is
    # block (a, b) of C^dag [E_b W], and Q E_b W = E_b W - C C^dag E_b W.
    cores = dagger(c) @ ew
    completion = ew - c @ cores
    # Every R_a E_b W lies in the span of W, so [W, Q E_b W] spans the
    # reachable subspace.
    basis = matkit.orthonormal_basis(np.hstack([w, completion]))  # n x r
    w_c = dagger(basis) @ w
    # The composed Kraus operators compressed to r x k blocks side by
    # side: the branches w_c (V_a W)^dag E_b W, then B^dag Q E_b W.
    kraus = np.hstack([*w_c @ cores.reshape(recovery.branches, k, ew.shape[1]),
                       dagger(basis) @ completion]).reshape(len(w_c), -1, k)
    return (np.einsum("xci,ycj->ixjy", kraus, kraus.conj())
            - np.einsum("xi,yj->ixjy", w_c, w_c.conj()))


def verify_recovery(recovery: Recovery, noise, samples: int = 50,
                    seed: int = 0, probs=None) -> RecoveryCheck:
    """Deviations || (R o N)(W rho W^dag) - W rho W^dag ||_1 of the
    recovery R after the noise N, with W the recovery's code isometry.

    ``max_deviation`` is the largest over ``samples`` random logical
    states; ``certified_deviation`` is the trace norm of the Choi matrix
    of the deviation map, which bounds its diamond norm (Watrous, The
    Theory of Quantum Information, ch. 3) and so every sampled deviation.
    Both are read off one Choi matrix on the subspace reachable from the
    code space (``_compressed_map``), of size (k r)^2, built from the
    factored recovery with no n x n matrix; for a correcting recovery
    that subspace is the code space itself (r = k).

    ``noise`` is an error list E_b with weights p_b (``probs``, 1 each by
    default) that stands for the noise sum_b p_b E_b rho E_b^dag / c with
    c = Tr[sum_b p_b E_b^dag E_b] / n, the normalization ``kl_check``
    applies: a channel's own Kraus operators, or unitaries with
    probabilities p_b / sum p. A Channel is passed as its Kraus stack
    ``ch.kraus``; for a trace-preserving one c = 1. Only the
    sqrt(p_b / c) E_b W are formed (``_normalized_images``), each
    operator at its own scale, so no scale of an operator or of the probs
    matters. Raises DomainError for samples < 1, where nothing would be
    sampled, for an error list of zero operators only, or whose probs
    weigh only zero operators, and for a noise whose weight
    sum_b ||K_b W||_F^2 on the code space is zero or out of
    floating-point range, where the deviations would under- or overflow.
    """
    if samples < 1:
        raise DomainError(f"verification needs samples >= 1, got {samples}")
    j = _compressed_map(recovery, noise, probs)
    k, r = j.shape[:2]
    # Each sample draws its real parts, then its imaginary parts.
    g = np.random.default_rng(seed).standard_normal((samples, 2, k, k))
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ dagger(g)
    rho /= np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]
    # One 1 x k^2 row per sample against J as k^2 x r^2: the product one
    # sample's tensordot forms, so every deviation keeps its bits.
    deltas = rho.reshape(samples, 1, k * k) @ j.transpose(0, 2, 1, 3).reshape(k * k, -1)
    singulars = np.linalg.svd(deltas.reshape(samples, r, r), compute_uv=False)
    return RecoveryCheck(float(singulars.sum(axis=1).max()), _certificate(j))


def _certificate(j: np.ndarray) -> float:
    """``certified_deviation`` of the J of ``_compressed_map``."""
    k, r = j.shape[:2]
    return matkit.norm(j.reshape(k * r, k * r), "trace")


def span_correction_check(code: Code, base_errors, new_errors,
                          tol: float = 1e-8) -> bool:
    """True when every new error lies in span{base errors} and the
    recovery built from the base set still corrects the new noise.

    Membership is decided by least-squares projection residual, for all
    new errors in one solve; the new operators, normalized as in
    ``verify_recovery``, are the noise whose deviation map must have a
    certificate (``_certificate``) of at most 1e-7. Nothing is sampled.
    """
    base, new = _error_list(base_errors), _error_list(new_errors)
    basis = np.stack([matkit.asmatrix(e).reshape(-1) for e in base], axis=1)
    targets = np.stack([matkit.asmatrix(e).reshape(-1) for e in new], axis=1)
    coeff = np.linalg.lstsq(basis, targets, rcond=None)[0]
    resid = np.linalg.norm(basis @ coeff - targets, axis=0)
    if (resid > tol * np.maximum(1.0, np.linalg.norm(targets, axis=0))).any():
        return False
    return _certificate(_compressed_map(build_recovery(code, base), new, None)) <= 1e-7


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
