"""Small dense semidefinite-program solver.

Standard form used throughout:

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i   (i = 1..m)
                X_b >= 0                  (block diagonal)

with the dual

    minimize    b^T y
    subject to  Z_b := sum_i y_i A_ib - C_b >= 0,

so weak duality reads primal <= dual. The algorithm is primal-dual
path-following with Nesterov-Todd scaling and a predictor-corrector step
(the corrector recentres at sigma * mu without a second-order term).

An ``SDPProblem`` holds C_b, the (m, n_b, n_b) stack of the A_ib and
the vector b. A block is iterated as complex Hermitian matrices when its
data has an imaginary part, else as real symmetric ones; the problem
decides this once and stores the block as complex128 or float64, with
the constraints packed once for ``solve`` and ``value_enclosure``
(``SDPProblem.packed``). The Schur complement is
formed in packed Hermitian coordinates (where the trace inner product is
the dot product) and factored once per iteration: by Cholesky when its
pivots put it inside SCHUR_COND_LIMIT, else by a symmetric eigensolve
that drops eigen-directions below 1e-14 of the largest, so redundant
constraints need no special handling and conditioning alone never stops
a solve. A solve either ends optimal or raises. Only the SDPA export
embeds complex blocks as real ones of twice the size (``_embed``).

``value_enclosure`` turns one solve's primal and dual iterates into an
interval [lower, upper] that holds the optimal value, for problems whose
constraints fix the trace, so a program needs no second solve of its
dual to be certified; ``certified_enclosure`` does both steps and
rejects an enclosure wider than ENCLOSURE_REL_WIDTH.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    Infeasible,
    NumericalBreakdown,
    SolverFailure,
    ToolkitError,
)

SCHUR_COND_LIMIT = 1e14
STALL_LIMIT = 30
STALL_RESIDUAL = 1e-6
# Widest value enclosure, relative to 1 + |upper end|, that the theta
# functions accept as the optimum.
ENCLOSURE_REL_WIDTH = 1e-6


@dataclass(frozen=True, eq=False)
class SDPProblem:
    """Block-diagonal standard-form SDP (see module docstring).

    ``objective``: one Hermitian (n_b, n_b) matrix C_b per block.
    ``constraints``: one (m, n_b, n_b) stack per block, whose i-th matrix
    is A_ib. ``rhs``: the (m,) vector b. ``block_sizes`` and ``m`` follow
    from these shapes.

    Construction checks shapes, finiteness and Hermiticity once and
    decides once per block whether it is complex: a block whose objective
    or constraints have an imaginary part is stored as complex128, any
    other as float64, so the dtype of a stored block says how it is
    iterated. A stack already of that dtype and C-contiguous is kept
    without a copy.
    """

    objective: tuple
    constraints: tuple
    rhs: np.ndarray

    def __post_init__(self):
        rhs = np.asarray(self.rhs)
        if rhs.ndim != 1 or np.iscomplexobj(rhs) or not np.all(np.isfinite(rhs)):
            raise DimensionError("rhs must be a real vector with finite entries")
        rhs = rhs.astype(float)
        if not 0 < len(self.objective) == len(self.constraints):
            raise DimensionError("need blocks, each with an objective and a stack")
        obj, cons = [], []
        for c, stack in zip(self.objective, self.constraints):
            dtype = complex if np.iscomplexobj(c) or np.iscomplexobj(stack) else float
            c, stack = np.ascontiguousarray(c, dtype), np.ascontiguousarray(stack, dtype)
            if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.shape[0]:
                raise DimensionError(f"objective block {c.shape} is not n x n, n >= 1")
            n = c.shape[0]
            if stack.ndim != 3 or stack.shape[1:] != (n, n):
                raise DimensionError(f"constraint block {stack.shape[1:]} != ({n},{n})")
            if len(stack) != len(rhs):
                raise DimensionError(f"{len(stack)} constraint operators, {len(rhs)} rhs")
            # A list, not `or`: both checks must run.
            if not any([_check_operators(c[None], "objective"),
                        _check_operators(stack, "constraint operators")]):
                c, stack = np.ascontiguousarray(c.real), np.ascontiguousarray(stack.real)
            obj.append(c)
            cons.append(stack)
        object.__setattr__(self, "objective", tuple(obj))
        object.__setattr__(self, "constraints", tuple(cons))
        object.__setattr__(self, "rhs", rhs)

    @property
    def block_sizes(self) -> tuple:
        return tuple(len(c) for c in self.objective)

    @property
    def m(self) -> int:
        return len(self.rhs)

    @property
    def complex_blocks(self) -> tuple:
        return tuple(np.iscomplexobj(c) for c in self.objective)

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """The constraints in packed coordinates, one row per A_i."""
        return _pack_all(self.constraints, self.complex_blocks)


@dataclass(frozen=True, eq=False)
class SDPSolution:
    """Solver output; gap is reported signed as dual - primal."""

    primal: float
    dual: float
    x_blocks: tuple = field(repr=False)
    y: np.ndarray = field(repr=False)
    z_blocks: tuple = field(repr=False)
    gap: float
    iterations: int
    status: str
    history: tuple = field(repr=False, default=())


def _embed(h: np.ndarray) -> np.ndarray:
    """Real symmetric image of a Hermitian matrix, scaled so that
    <embed(A), 2 embed(X)> = <A, X> for Hermitian A, X."""
    re, im = np.real(h), np.imag(h)
    return 0.5 * np.block([[re, -im], [im, re]])


def _check_operators(stack: np.ndarray, what: str) -> bool:
    """Whether an operator of the (k, n, n) float64 or complex128 stack
    has an imaginary part, |Im A|_F > 1e-14.

    Raises DimensionError for a non-finite entry, or an operator that is
    not Hermitian: |A - A^H|_F > 1e-10 (1 + |A|_F), per operator.
    """
    has_imag = False
    # Checked 32 operators at a time, while they are in cache; on real
    # views, |A - A^H|_F^2 = |Re A - Re A^T|_F^2 + |Im A + Im A^T|_F^2.
    for lo in range(0, len(stack), 32):
        chunk = stack[lo:lo + 32]
        parts = chunk.view(float).reshape(*chunk.shape, -1)
        sq = _sq_norms(parts)
        # A finite entry can still overflow the sum of squares.
        if not np.all(np.isfinite(sq)) and not np.all(np.isfinite(parts)):
            raise DimensionError(f"{what} must have finite entries")
        re = parts[..., 0]
        skew = _sq_norms(re - re.transpose(0, 2, 1))
        if parts.shape[-1] == 2:
            im = parts[..., 1]
            skew += _sq_norms(im + im.transpose(0, 2, 1))
            has_imag = has_imag or bool(np.any(_sq_norms(im) > 1e-28))
        if np.any(skew > (1e-10 * (1 + np.sqrt(sq))) ** 2):
            raise DimensionError(f"{what} must be Hermitian")
    return has_imag


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each x[k] (x real)."""
    flat = x.reshape(len(x), -1)
    return np.einsum("ki,ki->k", flat, flat)


@functools.lru_cache(maxsize=64)
def _upper(n: int) -> tuple:
    return np.triu_indices(n, 1)


def _pack(h: np.ndarray, cplx: bool) -> np.ndarray:
    """Real coordinates of Hermitian matrices h[..., n, n] in which the
    trace inner product is the dot product: the diagonal, then sqrt(2) Re
    and (complex blocks only) sqrt(2) Im of the strict upper triangle."""
    i, j = _upper(h.shape[-1])
    upper = math.sqrt(2.0) * h[..., i, j]
    parts = [np.diagonal(h, axis1=-2, axis2=-1).real, upper.real]
    return np.concatenate(parts + [upper.imag] if cplx else parts, axis=-1)


def _unpack(v: np.ndarray, n: int, cplx: bool) -> np.ndarray:
    """The Hermitian n x n matrix whose packed coordinates are v."""
    i, j = _upper(n)
    upper = (v[n:n + len(i)] + 1j * v[n + len(i):] if cplx else v[n:]) / math.sqrt(2.0)
    h = np.zeros((n, n), dtype=upper.dtype)
    h[i, j] = upper
    h[j, i] = h[i, j].conj()
    h[np.arange(n), np.arange(n)] = v[:n]
    return h


def _pack_all(blocks, cplx) -> np.ndarray:
    """Packed coordinates of a block-diagonal matrix (or, for (m, n, n)
    stacks, of m of them), the blocks' coordinates concatenated."""
    return np.concatenate([_pack(h, cp) for h, cp in zip(blocks, cplx)], axis=-1)


def _unpack_all(v: np.ndarray, sizes, cplx) -> list:
    """The blocks whose concatenated packed coordinates are v."""
    out, lo = [], 0
    for n, cp in zip(sizes, cplx):
        hi = lo + (n * n if cp else n * (n + 1) // 2)
        out.append(_unpack(v[lo:hi], n, cp))
        lo = hi
    return out


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _chol(x: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"iterate lost positivity: {exc}") from exc


def _nt_scaling(lx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R with W = R R^H the Nesterov-Todd scaling point (W Z W = X):
    W = L (L^H Z L)^(-1/2) L^H for X = L L^H, so R = L V diag(lam^(-1/4))
    from the eigendecomposition V diag(lam) V^H of L^H Z L."""
    vals, vecs = np.linalg.eigh(_herm(lx.conj().T @ z @ lx))
    return lx @ (vecs / np.clip(vals, 1e-300, None) ** 0.25)


def _max_step(lx: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx >= 0 (inf if dx >= 0), x = lx lx^H."""
    s = np.linalg.solve(lx, dx)                 # L^-1 dX
    s = np.linalg.solve(lx, s.conj().T)         # L^-1 dX L^-H
    lam = float(np.linalg.eigvalsh(_herm(s))[0])
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


def _triangular_solve(t: np.ndarray, r: np.ndarray, lower: bool) -> np.ndarray:
    """t^-1 r for triangular t by blocked substitution (numpy has no
    triangular solver, and a general solve would refactor t)."""
    x = np.empty_like(r)
    starts = range(0, t.shape[0], 64)
    for s in starts if lower else reversed(starts):
        blk, done = slice(s, s + 64), slice(0, s) if lower else slice(s + 64, None)
        x[blk] = np.linalg.solve(t[blk, blk], r[blk] - t[blk, done] @ x[done])
    return x


def _schur_solver(schur: np.ndarray):
    """(solve, path) for the Schur system M dy = rhs (rhs columns).

    Cholesky when its pivots put M inside SCHUR_COND_LIMIT; otherwise a
    truncated eigendecomposition that drops the eigen-directions below
    1/SCHUR_COND_LIMIT of the largest (a redundant constraint makes M
    singular, and Cholesky may still succeed on it with a tiny pivot).
    """
    try:
        chol = np.linalg.cholesky(schur)
        piv = np.diag(chol)
        if not piv.size or (piv.min() / piv.max()) ** 2 > 1.0 / SCHUR_COND_LIMIT:
            return (lambda rhs: _triangular_solve(
                chol.T, _triangular_solve(chol, rhs, True), False)), "cholesky"
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(schur)
    keep = vals > vals[-1] / SCHUR_COND_LIMIT
    vals, vecs = vals[keep], vecs[:, keep]
    return (lambda rhs: vecs @ ((vecs.T @ rhs) / vals[:, None])), "eig"


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(problem: SDPProblem, tol: float = 1e-7, max_iter: int = 200
          ) -> SDPSolution:
    """Interior-point solve of the standard-form problem.

    Complex blocks are iterated natively (see the module docstring). The
    predictor and corrector directions share one factorization of the
    Schur complement per iteration. Each ``history`` record holds the
    residuals, mu, sigma, the step lengths and the Schur path
    (``"cholesky"`` or ``"eig"``; None on the final record, which takes no
    step). Deterministic: identical inputs produce identical
    iterates. Returns only an optimal solution. Raises
    Infeasible when the primal residual stalls above 1e-6 for 30
    consecutive iterations (or the iterates diverge with the residual
    stuck), NumericalBreakdown when an iterate loses positivity or the
    iterates diverge otherwise, and SolverFailure carrying the last
    iterate as ``.solution`` when ``max_iter`` runs out first. Non-finite
    iterates are checked for explicitly, so numpy's transient overflow
    warnings are silenced here.
    """
    sizes, m, cplx = problem.block_sizes, problem.m, problem.complex_blocks
    b, c_blocks, a_dense = problem.rhs, problem.objective, problem.constraints
    a_packed = problem.packed

    def apply_a(blocks):
        # W Rd W is Hermitian only up to rounding of order |W|^2; one
        # triangle of it alone stalled tight solves, so symmetrize first.
        return a_packed @ _pack_all([_herm(blk) for blk in blocks], cplx)

    def apply_at(y):
        return _unpack_all(y @ a_packed, sizes, cplx)

    eta = max(10.0, float(np.max(np.abs(b))) if m else 0.0,
              max(float(np.linalg.norm(c)) for c in c_blocks))
    x = [eta * np.eye(n, dtype=c.dtype) for n, c in zip(sizes, c_blocks)]
    z = [xb.copy() for xb in x]
    y = np.zeros(m)
    total_dim = sum(sizes)
    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + math.sqrt(sum(float(np.linalg.norm(c)) ** 2 for c in c_blocks))

    history = []
    status = "max_iter"
    best_pinf = math.inf
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        pval = sum(np.vdot(cb, xb).real for cb, xb in zip(c_blocks, x))
        dval = float(b @ y)
        rp = b - apply_a(x)
        rd = [cb - ab + zb for cb, ab, zb in zip(c_blocks, apply_at(y), z)]
        mu = sum(np.vdot(xb, zb).real for xb, zb in zip(x, z)) / total_dim
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = math.sqrt(sum(float(np.linalg.norm(r)) ** 2 for r in rd)) / cnorm
        relgap = abs(dval - pval) / (1.0 + abs(pval) + abs(dval))
        record = {
            "iter": it, "primal": float(pval), "dual": dval,
            "pinf": pinf, "dinf": dinf, "mu": float(mu), "sigma": None,
            "step_primal": None, "step_dual": None, "schur": None,
        }
        history.append(record)
        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            break
        if not all(math.isfinite(v) for v in (pval, dval, pinf, dinf, mu)):
            # Divergence while the primal residual never came down is the
            # usual numerical signature of an infeasible problem.
            if best_pinf > STALL_RESIDUAL:
                raise Infeasible(
                    f"iterates diverged with primal residual stuck at "
                    f"{best_pinf:.3e} after {it} iterations"
                )
            raise NumericalBreakdown(f"iterates diverged at iteration {it}")
        stalled = pinf > STALL_RESIDUAL and pinf >= best_pinf * (1.0 - 1e-3)
        stall = stall + 1 if stalled else 0
        best_pinf = min(best_pinf, pinf)
        if stall >= STALL_LIMIT:
            raise Infeasible(
                f"primal residual stalled at {pinf:.3e} after {it} iterations"
            )

        lx, lz = [_chol(xb) for xb in x], [_chol(zb) for zb in z]
        r = [_nt_scaling(lb, zb) for lb, zb in zip(lx, z)]
        w = [_herm(rb @ rb.conj().T) for rb in r]
        z_inv = []
        for zb in z:
            vals, vecs = np.linalg.eigh(zb)
            z_inv.append((vecs / np.clip(vals, 1e-300, None)) @ vecs.conj().T)

        # Schur complement M_ij = sum_b <A_i, W A_j W> = <B_i, B_j> with
        # B_j = R^H A_j R: one Gram product over the packed coordinates.
        rar = _pack_all([rb.conj().T @ a @ rb for rb, a in zip(r, a_dense)], cplx)
        schur_solve, path = _schur_solver(rar @ rar.T)

        # The corrector's right-hand side is the predictor's plus
        # sigma mu A(Z^-1), so one solve with two columns serves both.
        rhs_aff = apply_a([wb @ rdb @ wb - xb for wb, rdb, xb in zip(w, rd, x)]) - rp
        dy_aff, dy_cen = schur_solve(np.stack([rhs_aff, apply_a(z_inv)], axis=1)).T

        def direction(rc_blocks, dy):
            dz = [_herm(ady - rdb) for ady, rdb in zip(apply_at(dy), rd)]
            dx = [_herm(rc - wb @ dzb @ wb)
                  for rc, wb, dzb in zip(rc_blocks, w, dz)]
            return dx, dz

        def max_steps(dx, dz):
            return (min(_max_step(lb, d) for lb, d in zip(lx, dx)),
                    min(_max_step(lb, d) for lb, d in zip(lz, dz)))

        # Predictor (affine scaling).
        dx_a, dz_a = direction([-xb for xb in x], dy_aff)
        ap, ad = (min(1.0, step) for step in max_steps(dx_a, dz_a))
        mu_aff = sum(
            np.vdot(xb + ap * dxb, zb + ad * dzb).real
            for xb, dxb, zb, dzb in zip(x, dx_a, z, dz_a)
        ) / total_dim
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # Corrector: recentre at sigma * mu.
        dy = dy_aff + sigma * mu * dy_cen
        dx, dz = direction(
            [sigma * mu * zib - xb for xb, zib in zip(x, z_inv)], dy)
        step_x, step_z = max_steps(dx, dz)
        ap, ad = min(1.0, 0.98 * step_x), min(1.0, 0.98 * step_z)
        x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
        z = [zb + ad * dzb for zb, dzb in zip(z, dz)]
        y = y + ad * dy
        record.update(sigma=float(sigma), step_primal=float(ap),
                      step_dual=float(ad), schur=path)

    pval = sum(np.vdot(cb, xb).real for cb, xb in zip(c_blocks, x))
    dval = float(b @ y)
    sol = SDPSolution(
        primal=float(pval), dual=dval,
        x_blocks=tuple(xb.astype(complex) for xb in x), y=y.copy(),
        z_blocks=tuple(zb.astype(complex) for zb in z),
        gap=dval - float(pval), iterations=it, status=status,
        history=tuple(history),
    )
    if status != "optimal":
        raise SolverFailure(
            f"status {status} after {it} iterations at tol {tol:g} "
            f"(last iterate {history[-1] if history else None})",
            solution=sol,
        )
    return sol


def value_enclosure(problem: SDPProblem, solution: SDPSolution) -> tuple:
    """(lower, upper) around the optimal value, from one solve's iterates.

    Needs constraints that fix the trace: the identity lies in their span,
    so Tr X = t on the feasible set, and W0 = (t/N) I (N the total block
    size) satisfies every constraint. Raises ToolkitError otherwise, so
    no bound leaves here unchecked.

    Upper end (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007):
    for any y and feasible X, <C, X> = b^T y - <Z, X> with
    Z = sum_i y_i A_i - C, and <Z, X> >= t lambda_min(Z), so
    u = b^T y - t min(0, lambda_min(Z) - margin) bounds the optimum. The
    margin covers the rounding in forming Z and in its eigenvalues,
    eps (m (sum_i |y_i| |A_i|_F + |C|_F) + N |Z|_F); b^T y is raised by
    m eps sum_i |b_i y_i|.

    Lower end: X is projected onto the affine constraints (least squares,
    through the Gram matrix of the A_i) and mixed with W0 just enough to
    be PSD, with a margin of N eps |X|_F on its smallest eigenvalue; the
    objective at that feasible point bounds the optimum from below.
    """
    sizes, m = problem.block_sizes, problem.m
    total = sum(sizes)
    eps = np.finfo(float).eps
    cplx = problem.complex_blocks
    a, b = problem.packed, problem.rhs
    c = _pack_all([_herm(cb) for cb in problem.objective], cplx)
    eye = _pack_all([np.eye(n) for n in sizes], cplx)
    gram_solve, _ = _schur_solver(a @ a.T)

    def least_squares(v):  # coefficients of the A_i closest to v
        return gram_solve(v[:, None])[:, 0]

    def min_eig(v):
        return min(np.linalg.eigvalsh(blk)[0] for blk in _unpack_all(v, sizes, cplx))

    coef = least_squares(a @ eye)
    if np.linalg.norm(eye - coef @ a) > 1e-9 * math.sqrt(total):
        raise ToolkitError("value enclosure needs constraints that fix Tr X")
    trace = float(coef @ b)
    w0 = trace / total * eye
    if not trace > 0 or np.max(np.abs(a @ w0 - b)) > 1e-9 * (1 + np.max(np.abs(b))):
        raise ToolkitError(
            f"value enclosure needs (Tr X / N) I = ({trace:.6g} / {total}) I "
            "to satisfy every constraint")

    x = _pack_all([_herm(xb) for xb in solution.x_blocks], cplx)
    x = x + least_squares(b - a @ x) @ a
    neg = max(0.0, total * eps * float(np.linalg.norm(x)) - min_eig(x))
    mix = neg / (trace / total + neg)
    lower = (1.0 - mix) * (c @ x) + mix * (c @ w0)

    y = solution.y
    z = y @ a - c
    margin = eps * (m * (np.abs(y) @ np.linalg.norm(a, axis=1) + np.linalg.norm(c))
                    + total * np.linalg.norm(z))
    upper = (b @ y + m * eps * (np.abs(b) @ np.abs(y))
             - trace * min(0.0, min_eig(z) - margin))
    return float(lower), float(upper)


def certified_enclosure(problem: SDPProblem, tol: float = 1e-8) -> tuple:
    """(lower, upper) of ``value_enclosure`` after one ``solve``.

    Raises SolverFailure carrying the solution when the enclosure is
    wider than ENCLOSURE_REL_WIDTH relative to 1 + |upper|.
    """
    sol = solve(problem, tol=tol)
    lower, upper = value_enclosure(problem, sol)
    if not upper - lower <= ENCLOSURE_REL_WIDTH * (1.0 + abs(upper)):
        raise SolverFailure(
            f"theta enclosure [{lower:.9f}, {upper:.9f}] too wide", solution=sol)
    return lower, upper


def export_sdpa(problem: SDPProblem) -> str:
    """SDPA sparse initial-format text for external cross-checking.

    Our standard form is SDPA's dual side, so the export uses F0 = C,
    F_i = A_i and c = b; complex blocks are exported in their real
    embedding. Reals are printed as %.16e.
    """
    cplx = problem.complex_blocks
    lines = [
        f"{problem.m}", f"{len(cplx)}",
        " ".join(str(2 * n if cp else n) for n, cp in zip(problem.block_sizes, cplx)),
        " ".join("%.16e" % rhs for rhs in problem.rhs),
    ]

    def emit(mat_no, blocks):
        for blk_no, (mat, cp) in enumerate(zip(blocks, cplx), start=1):
            mat = _embed(mat) if cp else np.real(mat)
            n = mat.shape[0]
            for i in range(n):
                for j in range(i, n):
                    v = mat[i, j]
                    if v != 0.0:
                        lines.append(
                            f"{mat_no} {blk_no} {i + 1} {j + 1} " + "%.16e" % v
                        )

    emit(0, problem.objective)
    for i in range(problem.m):
        emit(i + 1, [stack[i] for stack in problem.constraints])
    return "\n".join(lines) + "\n"


def lovasz_theta_problem(n_vertices: int, edges) -> SDPProblem:
    """Classical Lovasz theta SDP: max <J, X>, Tr X = 1, X_ij = 0 on edges.

    Used both as a solver example and as the independent classical oracle
    for graph operator systems. Loops and repeated edges are skipped; no
    vertex, or an edge outside range(n_vertices), raises DimensionError.
    """
    n = int(n_vertices)
    if n < 1:
        raise DimensionError("need at least one vertex")
    pairs = {}  # first occurrence of each edge, in input order
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise DimensionError(f"edge ({u},{v}) outside {n} vertices")
        if u != v:
            pairs.setdefault((min(u, v), max(u, v)), None)
    stack = np.zeros((1 + len(pairs), n, n))
    stack[0] = np.eye(n)
    for k, (u, v) in enumerate(pairs, start=1):
        stack[k, u, v] = stack[k, v, u] = 0.5
    return SDPProblem((np.ones((n, n)),), (stack,), [1.0] + [0.0] * len(pairs))


def lovasz_theta(n_vertices: int, edges, tol: float = 1e-8) -> float:
    """Upper end of the value enclosure of the classical theta SDP.

    Raises SolverFailure when the enclosure is wider than
    ENCLOSURE_REL_WIDTH relative to the value.
    """
    return certified_enclosure(lovasz_theta_problem(n_vertices, edges), tol)[1]
