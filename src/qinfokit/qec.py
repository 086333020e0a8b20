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

    def projector(self) -> np.ndarray:
        w = self.isometry
        return w @ dagger(w)


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
    returns) is kept, and any other iterable is read into a list. Each
    operator is converted to a complex array, and checked, each time a
    pass reads it (``_traces``), so a pass holds one at a time."""
    ops = errors if isinstance(errors, (Sequence, np.ndarray)) else list(errors)
    if not len(ops):
        raise DimensionError("need at least one error operator")
    return ops


def _refuse(ops: Sequence, n: int):
    """Raise the DimensionError for ``ops``, a list a pass found at fault,
    that checking each operator with ``asmatrix`` in list order, then each
    one's shape against n x n, raises first: a non-finite entry anywhere
    is reported before a shape mismatch. Only this error path scans the
    list again."""
    for e in ops:
        matkit.asmatrix(e)
    for e in ops:
        if np.shape(e) != (n, n):
            raise DimensionError(f"error operator {np.shape(e)} != ({n}, {n})")


def _traces(ops: Sequence, n: int, image=None) -> np.ndarray:
    """Tr E_b^dag E_b of the n x n operators E_b of ``ops``, in one pass in
    list order that converts each E_b to a complex array, checks it and
    then, if given, hands it to ``image(b, E_b)`` while it is still in
    cache; no E_b is kept. A finite trace proves finite entries; only a
    non-finite one (from a NaN or inf entry, or from finite entries whose
    squares overflow, which ``_normalized_images`` scales) looks at the
    entries. Raises as ``_refuse`` for a list with a wrong shape or a
    non-finite entry."""
    traces = np.empty(len(ops))
    for b, op in enumerate(ops):
        e = np.asarray(op, dtype=complex)
        if e.shape != (n, n):
            _refuse(ops, n)
        traces[b] = np.vdot(e, e).real
        if not math.isfinite(traces[b]) and not np.isfinite(e).all():
            _refuse(ops, n)
        if image is not None:
            image(b, e)
    return traces


def _noise_scale(traces: np.ndarray, n: int, probs) -> tuple[np.ndarray, float]:
    """(sqrt(p_b), c) for an error list E_b whose traces Tr E_b^dag E_b are
    ``traces``, which stands for the noise sum_b p_b E_b rho E_b^dag / c
    with c = Tr[sum_b p_b E_b^dag E_b] / n and p_b = 1 when ``probs`` is
    None. c is 1 for the Kraus operators of a channel and sum_b p_b for
    unitaries, so either reads as a trace-preserving noise; the p_b are
    divided by their largest first, which leaves the noise as it is.
    Raises DimensionError or ProbabilityError for probabilities that do not
    fit the list."""
    m = len(traces)
    if probs is None:
        p = np.ones(m)
    else:
        p = np.asarray(probs, dtype=float)
        if p.shape != (m,):
            raise DimensionError("probabilities must match the error list")
        if np.any(p < 0):
            raise ProbabilityError("probabilities must be nonnegative")
        # Relative weights: divided by the largest before they are summed.
        if not (np.isfinite(p).all() and p.max() > 0):
            raise ProbabilityError("probabilities must have a positive finite sum")
        p = p / p.max()
    # For a list too large to square, c overflows or reads NaN (0 * inf);
    # out of range, the caller divides the list by its peak.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(p), float(p @ traces) / n


_OUT_OF_RANGE = "noise: its weight on the code space is zero or out of floating-point range"


def _in_range(scale: float) -> bool:
    return np.finfo(float).tiny <= scale < math.inf


def _code_images(w: np.ndarray, ops: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """E_b W, stacked as m x n x k, and the traces Tr E_b^dag E_b of the
    operators ``ops`` (``_error_list``), each checked, traced and imaged in
    turn in one pass (``_traces``)."""
    n, k = w.shape
    images = np.empty((len(ops), n, k), dtype=complex)
    traces = _traces(ops, n, lambda b, e: np.matmul(e, w, out=images[b]))
    return images, traces


class _ImagedErrors:
    """A checked error list with its traces Tr E_b^dag E_b and its images
    E_b W under one isometry W, which ``build_recovery`` and
    ``verify_recovery`` take for that W without checking or imaging the
    errors again. The list is kept as given (``_error_list``) and each
    operator converted and passed over once (``_code_images``); no
    operator is kept. Only a list whose scale is out of range is read
    again, once for each set of members that weights make count
    (``rescaled``)."""

    def __init__(self, w: np.ndarray, errors):
        self.errors = _error_list(errors)
        self.images, self.traces = _code_images(w, self.errors)
        self.isometry = w
        self._rescaled = {}

    def rescaled(self, weighted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(images, traces) of the list divided by the peak of its members
        that ``weighted`` marks (``_peak_scaled``), made on first use."""
        key = tuple(weighted.tolist())
        if key not in self._rescaled:
            self._rescaled[key] = _code_images(
                self.isometry, _peak_scaled(self.errors, weighted))
        return self._rescaled[key]


def _imaged(w: np.ndarray, errors) -> _ImagedErrors:
    if isinstance(errors, _ImagedErrors):
        if errors.isometry is w:
            return errors
        errors = errors.errors
    return _ImagedErrors(w, errors)


def _peak_scaled(ops: Sequence, weighted: np.ndarray) -> _Divided:
    """``ops`` divided by the largest real or imaginary part of the members
    that ``weighted`` marks, which leaves the noise they stand for as it
    is (``_Divided``); the peak is found in one pass that converts one
    operator at a time. Raises DomainError when every error operator is
    zero."""
    peaks = np.array([max(np.abs(e.real).max(), np.abs(e.imag).max())
                      for e in (np.asarray(op, dtype=complex) for op in ops)])
    if not peaks.any():
        raise DomainError("errors: every error operator is zero")
    return _Divided(ops, peaks[weighted].max(), weighted)


class _Divided(Sequence):
    """The operators of ``ops`` divided by ``peak`` as each is read; the
    parts are divided one by one, as a complex division by a subnormal
    peak overflows. The members ``weighted`` does not mark, which weigh
    nothing in the noise and may overflow when divided, read as zeros, as
    every member does when the peak is zero."""

    def __init__(self, ops: Sequence, peak: float, weighted: np.ndarray):
        self.ops, self.peak, self.weighted = ops, peak, weighted

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, b):
        e = np.asarray(self.ops[b], dtype=complex)
        if not (self.weighted[b] and self.peak):
            return np.zeros_like(e)
        return e.real / self.peak + 1j * (e.imag / self.peak)


def _normalized_images(w: np.ndarray, errors, probs=None) -> np.ndarray:
    """E_b W sqrt(p_b / c) for the error family normalized as in
    ``_noise_scale``, as a new m x n x k array. When c under- or
    overflows, the family is divided by the peak of its members of
    positive weight first (``_peak_scaled``). Raises DomainError when
    every error operator is zero, or when c is still zero or out of range:
    the probs weigh only zero operators."""
    imaged = _imaged(w, errors)
    images, traces = imaged.images, imaged.traces
    roots, scale = _noise_scale(traces, len(w), probs)
    if not _in_range(scale):
        images, traces = imaged.rescaled(roots > 0)
        roots, scale = _noise_scale(traces, len(w), probs)
        if not _in_range(scale):
            raise DomainError(_OUT_OF_RANGE)
    if probs is None:
        return images / math.sqrt(scale)
    return images * (roots / math.sqrt(scale))[:, None, None]


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
    scale of the list; the residual is
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
    for c in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, c]))
        if np.abs(vecs[pivot, c]) > 0:
            vecs[:, c] *= np.abs(vecs[pivot, c]) / vecs[pivot, c]
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
    (``_noise_scale``): a channel's own Kraus operators, or unitaries with
    probabilities p_b / sum p. It does not depend on the scale of the list:
    when c under- or overflows, the list is divided by the peak of its
    members of positive weight first (``_peak_scaled``). Raises DomainError
    when every error operator is zero, or when c is still zero or out of
    range, as when the probs weigh only zero operators."""
    ops = _error_list(errors)
    first = np.asarray(ops[0], dtype=complex)
    n = len(first) if first.ndim else 0  # _traces refuses a 0-d first operator
    roots, scale = _noise_scale(_traces(ops, n), n, probs)
    if not _in_range(scale):
        ops = _peak_scaled(ops, roots > 0)
        roots, scale = _noise_scale(_traces(ops, n), n, probs)
        if not _in_range(scale):
            raise DomainError("noise: Tr[sum_b p_b E_b^dag E_b] / n is zero or out "
                              "of floating-point range")
    # Written in place: an error list can be hundreds of megabytes.
    kraus = np.empty((len(ops), n, n), dtype=complex)
    for i, e in enumerate(ops):
        np.multiply(roots[i] / math.sqrt(scale), e, out=kraus[i])
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
    if isinstance(noise, Channel):
        if probs is not None:
            raise DomainError("probs weight an error list, not a Channel")
        if noise.din != n or noise.dout != n:
            raise DimensionError("noise must act on the physical space")
        images = noise.kraus @ w
    else:
        images = _normalized_images(w, noise, probs)
    # sum_b ||K_b W||_F^2, k for a trace-preserving noise, bounds every
    # entry of J_c; out of range, J_c under- or overflows.
    if not _in_range(float(np.vdot(images, images).real)):
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

    ``noise`` is a Channel, taken as given, or an error list E_b with
    weights p_b (``probs``, 1 each by default) that stands for the noise
    sum_b p_b E_b rho E_b^dag / c with c = Tr[sum_b p_b E_b^dag E_b] / n,
    the normalization ``kl_check`` applies: a channel's own Kraus
    operators, or unitaries with probabilities p_b / sum p. Only the
    sqrt(p_b / c) E_b W are formed (``_normalized_images``), so the scale
    of the list does not matter. Raises DomainError for samples < 1,
    where nothing would be sampled, for probs given with a Channel, for
    an error list of zero operators only, or whose probs weigh only zero
    operators, and for a noise whose weight sum_b ||K_b W||_F^2 on the
    code space is zero or out of floating-point range, where the
    deviations would under- or overflow.
    """
    if samples < 1:
        raise DomainError(f"verification needs samples >= 1, got {samples}")
    j = _compressed_map(recovery, noise, probs)
    k, r = j.shape[:2]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        rho = g @ dagger(g)
        rho /= np.real(np.trace(rho))
        delta = np.tensordot(rho, j, axes=([0, 1], [0, 2]))
        worst = max(worst, matkit.norm(delta, "trace"))
    return RecoveryCheck(worst, matkit.norm(j.reshape(k * r, k * r), "trace"))


def span_correction_check(code: Code, base_errors, new_errors,
                          tol: float = 1e-8) -> bool:
    """True when every new error lies in span{base errors} and the
    recovery built from the base set still corrects the new noise.

    Membership is decided by least-squares projection residual; the new
    operators, normalized as in ``verify_recovery``, are the noise for the
    recovery simulation.
    """
    base, new = _error_list(base_errors), _error_list(new_errors)
    basis = np.stack([matkit.asmatrix(e).reshape(-1) for e in base], axis=1)
    for op in new:
        e = matkit.asmatrix(op)
        coeff, _, _, _ = np.linalg.lstsq(basis, e.reshape(-1), rcond=None)
        resid = np.linalg.norm(basis @ coeff - e.reshape(-1))
        if resid > tol * max(1.0, np.linalg.norm(e)):
            return False
    check = verify_recovery(build_recovery(code, base), new, samples=16)
    return check.max_deviation <= 1e-7


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
