"""Dense complex linear-algebra kernel used by every other module.

Conventions fixed here and relied on everywhere else:

* matrices are complex ``numpy.ndarray`` in row-major order;
* in a tensor product, subsystem 0 is the slowest-varying index, so
  ``kron(A, B)`` puts the first factor on the outer (block) level;
* Hermitian eigenvalues are returned ascending, singular values descending;
* the support cutoff for pseudo-inverses and logarithms is the single
  relative constant ``SUPPORT_RTOL`` shared with the entropy and Petz code.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, NegativeEigenvalue, NotHermitian

# Relative hermiticity tolerance; inputs within it are symmetrized.
HERM_RTOL = 1e-10
# Eigenvalues below SUPPORT_RTOL * lambda_max count as exactly zero.
SUPPORT_RTOL = 1e-12


class HermEigen(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``values`` ascend; the columns of ``vectors`` are the matching
    orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


class SvdResult(NamedTuple):
    """Singular value decomposition ``A = left @ diag(singulars) @ right^H``.

    ``left`` and ``right`` have orthonormal columns; ``singulars`` descend.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray


def asmatrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix has non-finite entries")
    return a


def asstack(mats, shape: tuple, mismatch: str) -> np.ndarray:
    """Coerce a family of ``shape`` matrices (a sequence, or one stacked
    array, kept without a copy if complex) to a complex (count, *shape)
    array. A member of another shape raises DimensionError with
    ``mismatch.format(member_shape, *shape)``; other members and
    non-finite entries fail as in asmatrix."""
    try:
        stack = np.asarray(mats, dtype=complex)
    except ValueError:  # ragged: members of different shapes
        stack = None
    if stack is None or stack.shape[1:] != tuple(shape):
        # Name the member at fault; only an empty family gets through.
        for m in mats:
            m = asmatrix(m)
            if m.shape != tuple(shape):
                raise DimensionError(mismatch.format(m.shape, *shape))
        return np.zeros((0, *shape), dtype=complex)
    if not np.all(np.isfinite(stack)):
        raise DimensionError("matrix has non-finite entries")
    return stack


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the block (slow) level."""
    return np.kron(asmatrix(a), asmatrix(b))


def _check_square_dims(m: np.ndarray, dims: Sequence[int]) -> None:
    total = math.prod(dims)
    if m.shape != (total, total):
        raise DimensionError(
            f"matrix is {m.shape}, but subsystem dims {tuple(dims)} need "
            f"({total}, {total})"
        )


def partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every factor not in ``keep``; kept factors stay in order.

    The result acts on the tensor product of the kept subsystems and has
    the same trace as the input.
    """
    m = asmatrix(m)
    dims = tuple(int(d) for d in dims)
    _check_square_dims(m, dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} factors")
    t = m.reshape(dims + dims)
    # Repeated einsum index on (row, col) of each traced factor contracts it.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    t = np.einsum(t, row + col, out_idx)
    dkeep = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(dkeep, dkeep)


def partial_transpose(m, dims: Sequence[int], sys: int) -> np.ndarray:
    """Transpose the single factor ``sys``, leaving the others alone."""
    m = asmatrix(m)
    dims = tuple(int(d) for d in dims)
    _check_square_dims(m, dims)
    n = len(dims)
    if sys < 0 or sys >= n:
        raise DimensionError(f"sys={sys} out of range for {n} factors")
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, sys, n + sys)
    total = math.prod(dims)
    return t.reshape(total, total)


def is_hermitian(m, rtol: float = HERM_RTOL) -> bool:
    m = asmatrix(m)
    return np.linalg.norm(m - dagger(m)) <= rtol * (1.0 + np.linalg.norm(m))


def herm_eig(h) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Inputs within the hermiticity tolerance are symmetrized first, which
    stabilizes the entropy code downstream.
    """
    h = asmatrix(h)
    if not is_hermitian(h):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    h = (h + dagger(h)) / 2.0
    values, vectors = np.linalg.eigh(h)
    return HermEigen(values, vectors)


def svd(m) -> SvdResult:
    """SVD with singular values descending (numpy's native order)."""
    m = asmatrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u, s, dagger(vh))


def matrix_function(h, f: str) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix on its support.

    Supported ``f``: ``sqrt``, ``log2``, ``ln``, ``exp``, ``pinv_sqrt_inv``
    (pseudo-inverse square root). Eigenvalues below the support cutoff are
    treated as exactly zero: logs contribute nothing (the 0 log 0 = 0
    convention) and pinv variants invert only the support. ``sqrt`` and the
    logs require a PSD input up to -1e-10 * lambda_max.
    """
    eig = herm_eig(h)
    vals, vecs = eig.values, eig.vectors
    lam_max = float(np.max(np.abs(vals))) if vals.size else 0.0
    cutoff = SUPPORT_RTOL * lam_max
    on_support = np.abs(vals) > cutoff

    if f in ("sqrt", "log2", "ln", "pinv_sqrt_inv"):
        if lam_max > 0 and np.min(vals) < -1e-10 * lam_max:
            raise NegativeEigenvalue(
                f"matrix_function({f!r}) needs a PSD input; "
                f"min eigenvalue {np.min(vals):.3e}"
            )
        vals = np.clip(vals, 0.0, None)

    out = np.zeros_like(vals)
    if f == "sqrt":
        out[on_support] = np.sqrt(vals[on_support])
    elif f == "ln":
        out[on_support] = np.log(vals[on_support])
    elif f == "log2":
        out[on_support] = np.log2(vals[on_support])
    elif f == "exp":
        out = np.exp(vals)
    elif f == "pinv_sqrt_inv":
        out[on_support] = 1.0 / np.sqrt(vals[on_support])
    else:
        raise ValueError(f"unknown matrix function {f!r}")
    return (vecs * out) @ dagger(vecs)


def norm(m, kind: str = "operator") -> float:
    """Matrix norm: ``trace`` (sum of singulars), ``operator`` (max
    singular), or ``frobenius`` (entrywise l2)."""
    m = asmatrix(m)
    if kind == "frobenius":
        return float(np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    if kind == "trace":
        return float(np.sum(s))
    if kind == "operator":
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b]."""
    a = asmatrix(a)
    b = asmatrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"hs_inner shapes {a.shape} vs {b.shape}")
    return complex(np.sum(np.conj(a) * b))


def orthonormal_basis(vectors: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (as columns) for the numerical span of the columns
    of ``vectors``: its left singular vectors whose singular values exceed
    ``tol`` times the largest."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.size == 0:
        return vectors.reshape(vectors.shape[0], 0)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, :int(np.sum(s > tol * s[0]))]
