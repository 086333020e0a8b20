"""Small dense semidefinite-program solver.

Standard form used throughout:

    maximize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m)
                X >= 0

with the dual

    minimize    b^T y
    subject to  Z := sum_i y_i A_i - C >= 0,

so weak duality reads primal <= dual. The algorithm is primal-dual
path-following with Nesterov-Todd scaling and a predictor-corrector step
(the corrector recentres at sigma * mu without a second-order term).

An ``SDPProblem`` holds C, the (m, n, n) stack of the A_i and b, as
complex128 (iterated as Hermitian matrices) when its data has an
imaginary part, else as float64. A(H) and A^T(y) read all n^2 entries
through a float view of the stack (``SDPProblem.flat``), with no copy;
``solve`` carries A^T(y) of its iterate along with the steps of y.
Packed Hermitian coordinates, in which the trace inner product is the dot
product of n^2 reals, remain where they halve the work: the Schur Gram
product, m^2 n^2 per iteration, and ``value_enclosure``. Each iterate is
factored once: a stacked Cholesky of [X, Z] and a stacked inverse of the
factors give Z^-1 = L_Z^-H L_Z^-1 and, from L^-1 [dX, dZ] L^-H, both step
lengths. The Schur complement is factored by Cholesky when its pivots put
it inside SCHUR_COND_LIMIT, else by a symmetric eigensolve that drops
eigen-directions below 1e-14 of the largest, so redundant constraints
need no special handling and conditioning alone never stops a solve.
Only the SDPA export embeds a complex problem as a real one.

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
    """Standard-form SDP (see module docstring).

    ``objective``: the Hermitian (n, n) matrix C. ``constraints``: the
    (m, n, n) stack whose i-th matrix is A_i. ``rhs``: the (m,) vector b.
    ``n`` and ``m`` follow from these shapes.

    Construction checks shapes, finiteness and Hermiticity once and
    decides once whether the problem is complex: when its objective or
    constraints have an imaginary part both are stored as complex128,
    else as float64, so the stored dtype says how it is iterated. A stack
    already of that dtype and C-contiguous is kept without a copy.
    """

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        rhs = np.asarray(self.rhs)
        if rhs.ndim != 1 or np.iscomplexobj(rhs) or not np.all(np.isfinite(rhs)):
            raise DimensionError("rhs must be a real vector with finite entries")
        c, stack = self.objective, self.constraints
        dtype = complex if np.iscomplexobj(c) or np.iscomplexobj(stack) else float
        c, stack = np.ascontiguousarray(c, dtype), np.ascontiguousarray(stack, dtype)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.shape[0]:
            raise DimensionError(f"objective {c.shape} is not n x n, n >= 1")
        n = c.shape[0]
        if stack.ndim != 3 or stack.shape[1:] != (n, n):
            raise DimensionError(f"constraint operators {stack.shape[1:]} != ({n},{n})")
        if len(stack) != len(rhs):
            raise DimensionError(f"{len(stack)} constraint operators, {len(rhs)} rhs")
        # A list, not `or`: both checks must run.
        if not any([_check_operators(c[None], "objective"),
                    _check_operators(stack, "constraint operators")]):
            c, stack = np.ascontiguousarray(c.real), np.ascontiguousarray(stack.real)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", stack)
        object.__setattr__(self, "rhs", rhs.astype(float))

    @property
    def n(self) -> int:
        return len(self.objective)

    @property
    def m(self) -> int:
        return len(self.rhs)

    @functools.cached_property
    def flat(self) -> np.ndarray:
        """The constraints as an (m, n^2) float view, (m, 2 n^2) if complex."""
        width = self.objective.view(float).size
        return self.constraints.view(float).reshape(self.m, width)


@dataclass(frozen=True, eq=False)
class SDPSolution:
    """Solver output; gap is reported signed as dual - primal."""

    primal: float
    dual: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
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
def _packing(n: int, cplx: bool) -> tuple:
    """(index, weight): the packed coordinates of h[..., n, n] are its float
    view's entries at index, times weight (sqrt(2) off the diagonal)."""
    i, j = np.triu_indices(n, 1)
    diag, upper = (n + 1) * np.arange(n), n * i + j
    # Complex: the real, then the imaginary float of each upper entry.
    index = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1] if cplx else [diag, upper])
    return index, np.concatenate([np.ones(n), np.full(len(index) - n, math.sqrt(2.0))])


def _pack(h: np.ndarray, cplx: bool) -> np.ndarray:
    """Real coordinates of Hermitian matrices h[..., n, n] in which the
    trace inner product is the dot product: the diagonal, then sqrt(2) Re
    and (complex problems only) sqrt(2) Im of the strict upper triangle."""
    index, weight = _packing(h.shape[-1], cplx)
    v = np.ascontiguousarray(h if cplx else h.real, complex if cplx else float).view(float)
    out = v.reshape(*v.shape[:-2], v.shape[-2] * v.shape[-1])[..., index]
    out *= weight
    return out


def _unpack(v: np.ndarray, n: int, cplx: bool) -> np.ndarray:
    """The Hermitian n x n matrix whose packed coordinates are v."""
    index, weight = _packing(n, cplx)
    h = np.zeros((n, n), complex if cplx else float)
    h.view(float).reshape(-1)[index] = v / weight
    return h + np.triu(h, 1).conj().T


def _apply_a(problem: SDPProblem, h: np.ndarray) -> np.ndarray:
    """A(H) = (<A_i, H>)_i over all n^2 entries (so H is read as its Hermitian
    part), for H of the problem's dtype; (m, k) for a stack of k matrices."""
    return problem.flat @ h.view(float).reshape(*h.shape[:-2], -1).T


def _apply_at(problem: SDPProblem, y: np.ndarray) -> np.ndarray:
    """A^T(y) = sum_i y_i A_i, of the problem's dtype; (k, n, n) for (k, m) y."""
    return (y @ problem.flat).view(problem.objective.dtype).reshape(
        *y.shape[:-1], problem.n, problem.n)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _nt_scaling(lx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R with W = R R^H the Nesterov-Todd scaling point (W Z W = X):
    W = L (L^H Z L)^(-1/2) L^H for X = L L^H, so R = L V diag(lam^(-1/4))
    from the eigendecomposition V diag(lam) V^H of L^H Z L."""
    vals, vecs = np.linalg.eigh(_herm(lx.conj().T @ z @ lx))
    return lx @ (vecs / np.clip(vals, 1e-300, None) ** 0.25)


def _step_lengths(l_inv: np.ndarray, d: np.ndarray) -> list:
    """[largest alpha with l_k l_k^H + alpha d_k >= 0] over the stacks
    l_inv = [l_k^-1] and d: -1 / lambda_min(l_k^-1 d_k l_k^-H), inf if d_k >= 0."""
    lam = np.linalg.eigvalsh(_herm(l_inv @ d @ l_inv.conj().swapaxes(-1, -2)))
    return [math.inf if v >= -1e-14 else -1.0 / v for v in lam[:, 0]]


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
    """(solve, path, ratio) for the Schur system M dy = rhs (rhs columns).

    Cholesky when its pivots put M inside SCHUR_COND_LIMIT; otherwise a
    truncated eigendecomposition that drops the eigen-directions below
    1/SCHUR_COND_LIMIT of the largest (a redundant constraint makes M
    singular, and Cholesky may still succeed on it with a tiny pivot).
    ratio is (min/max pivot)^2, or min/max of the kept eigenvalues.
    """
    try:
        chol = np.linalg.cholesky(schur)
        piv = np.diag(chol)
        ratio = float((piv.min() / piv.max()) ** 2) if piv.size else 1.0
        if ratio > 1.0 / SCHUR_COND_LIMIT:
            return (lambda rhs: _triangular_solve(
                chol.T, _triangular_solve(chol, rhs, True), False)), "cholesky", ratio
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(schur)
    keep = vals > vals[-1] / SCHUR_COND_LIMIT
    vals, vecs = vals[keep], vecs[:, keep]
    ratio = float(vals[0] / vals[-1]) if vals.size else 0.0
    return (lambda rhs: vecs @ ((vecs.T @ rhs) / vals[:, None])), "eig", ratio


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(problem: SDPProblem, tol: float = 1e-7, max_iter: int = 200
          ) -> SDPSolution:
    """Interior-point solve of the standard-form problem.

    Complex problems are iterated natively (see the module docstring). The
    predictor and corrector directions share one factorization of the
    Schur complement per iteration. Each ``history`` record holds the
    residuals, mu, sigma, the step lengths, the Schur path (``"cholesky"``
    or ``"eig"``) and ``schur_ratio`` (``_schur_solver``); the last five
    are None on the final record, which takes no step. Deterministic:
    identical inputs produce identical iterates. Returns only an optimal
    solution. Raises Infeasible when the primal residual stalls above 1e-6
    for 30 consecutive iterations (or the iterates diverge with the
    residual stuck), NumericalBreakdown when an iterate loses positivity
    or the iterates diverge otherwise, and SolverFailure carrying the last
    iterate as ``.solution`` when ``max_iter`` runs out first. Non-finite
    iterates are checked for explicitly, so numpy's transient overflow
    warnings are silenced here.
    """
    n, m, cplx = problem.n, problem.m, np.iscomplexobj(problem.objective)
    b, c = problem.rhs, problem.objective

    eta = max(10.0, float(np.max(np.abs(b))) if m else 0.0, float(np.linalg.norm(c)))
    x = eta * np.eye(n, dtype=c.dtype)
    z = x.copy()
    y, at_y = np.zeros(m), np.zeros_like(x)  # at_y = A^T(y), kept by its steps
    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(c))

    # The Schur build's work space: fresh (m, n, n) temporaries would be
    # mapped and faulted in anew every iteration.
    left, right = np.empty((2, m, n, n), c.dtype)
    history = []
    status = "max_iter"
    best_pinf = math.inf
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        pval = np.vdot(c, x).real
        dval = float(b @ y)
        rp = b - _apply_a(problem, x)
        rd = c - at_y + z
        mu = np.vdot(x, z).real / n
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = float(np.linalg.norm(rd)) / cnorm
        relgap = abs(dval - pval) / (1.0 + abs(pval) + abs(dval))
        record = {"iter": it, "primal": float(pval), "dual": dval, "pinf": pinf,
                  "dinf": dinf, "mu": float(mu), **dict.fromkeys(
                      ("sigma", "step_primal", "step_dual", "schur", "schur_ratio"))}
        history.append(record)
        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            break
        if not all(math.isfinite(v) for v in (pval, dval, pinf, dinf, mu)):
            # Divergence while the primal residual never came down is the
            # usual numerical signature of an infeasible problem.
            if best_pinf > STALL_RESIDUAL:
                raise Infeasible(f"iterates diverged with primal residual stuck at "
                                 f"{best_pinf:.3e} after {it} iterations")
            raise NumericalBreakdown(f"iterates diverged at iteration {it}")
        stalled = pinf > STALL_RESIDUAL and pinf >= best_pinf * (1.0 - 1e-3)
        stall = stall + 1 if stalled else 0
        best_pinf = min(best_pinf, pinf)
        if stall >= STALL_LIMIT:
            raise Infeasible(f"primal residual stalled at {pinf:.3e} after {it} iterations")

        try:  # the one factorization of the iterate, [L_X, L_Z]
            lxz = np.linalg.cholesky(np.array([x, z]))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"iterate lost positivity: {exc}") from exc
        l_inv = np.linalg.inv(lxz)
        r = _nt_scaling(lxz[0], z)
        w = _herm(r @ r.conj().T)
        z_inv = l_inv[1].conj().T @ l_inv[1]

        # Schur complement M_ij = <A_i, W A_j W> = <B_i, B_j> with
        # B_j = R^H A_j R: one Gram product over the packed coordinates.
        np.matmul(r.conj().T, problem.constraints, out=left)
        rar = _pack(np.matmul(left, r, out=right), cplx)
        schur_solve, path, ratio = _schur_solver(rar @ rar.T)

        # The corrector's right-hand side is the predictor's plus sigma mu
        # A(Z^-1): one pass of A, one solve and one pass of A^T serve both.
        # A reads W Rd W, Hermitian only up to rounding, as its Hermitian part.
        rhs = _apply_a(problem, np.array([w @ rd @ w - x, z_inv]))
        rhs[:, 0] -= rp
        dy_aff, dy_cen = schur_solve(rhs).T
        at_aff, at_cen = _apply_at(problem, np.array([dy_aff, dy_cen]))

        def direction(rc, at_dy):  # the stack [dX, dZ]
            dz = _herm(at_dy - rd)
            return np.array([_herm(rc - w @ dz @ w), dz])

        # Predictor (affine scaling).
        dx_a, dz_a = d = direction(-x, at_aff)
        ap, ad = (min(1.0, step) for step in _step_lengths(l_inv, d))
        mu_aff = np.vdot(x + ap * dx_a, z + ad * dz_a).real / n
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # Corrector: recentre at sigma * mu.
        dy, at_dy = dy_aff + sigma * mu * dy_cen, at_aff + sigma * mu * at_cen
        dx, dz = d = direction(sigma * mu * z_inv - x, at_dy)
        ap, ad = (min(1.0, 0.98 * step) for step in _step_lengths(l_inv, d))
        x, z, y, at_y = x + ap * dx, z + ad * dz, y + ad * dy, at_y + ad * at_dy
        record.update(sigma=float(sigma), step_primal=float(ap),
                      step_dual=float(ad), schur=path, schur_ratio=ratio)

    pval = np.vdot(c, x).real
    dval = float(b @ y)
    # y is rebound, never written in place, so the solution may hold it.
    sol = SDPSolution(
        primal=float(pval), dual=dval, x=x.astype(complex), y=y, z=z.astype(complex),
        gap=dval - float(pval), iterations=it, status=status, history=tuple(history))
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
    so Tr X = t on the feasible set, and W0 = (t/n) I satisfies every
    constraint. Raises ToolkitError otherwise, so no bound leaves here
    unchecked.

    Upper end (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46, 2007):
    for any y and feasible X, <C, X> = b^T y - <Z, X> with
    Z = sum_i y_i A_i - C, and <Z, X> >= t lambda_min(Z), so
    u = b^T y - t min(0, lambda_min(Z) - margin) bounds the optimum. The
    margin covers the rounding in forming Z and in its eigenvalues,
    eps (m (sum_i |y_i| |A_i|_F + |C|_F) + n |Z|_F); b^T y is raised by
    m eps sum_i |b_i y_i|.

    Lower end: X is projected onto the affine constraints (least squares,
    through the Gram matrix of the A_i) and mixed with W0 just enough to
    be PSD, with a margin of n eps |X|_F on its smallest eigenvalue; the
    objective at that feasible point bounds the optimum from below.
    """
    n, m, cplx = problem.n, problem.m, np.iscomplexobj(problem.objective)
    eps = np.finfo(float).eps
    a, b = _pack(problem.constraints, cplx), problem.rhs
    c = _pack(_herm(problem.objective), cplx)
    eye = _pack(np.eye(n), cplx)
    gram_solve = _schur_solver(a @ a.T)[0]

    def least_squares(v):  # coefficients of the A_i closest to v
        return gram_solve(v[:, None])[:, 0]

    def min_eig(v):
        return np.linalg.eigvalsh(_unpack(v, n, cplx))[0]

    coef = least_squares(a @ eye)
    if np.linalg.norm(eye - coef @ a) > 1e-9 * math.sqrt(n):
        raise ToolkitError("value enclosure needs constraints that fix Tr X")
    trace = float(coef @ b)
    w0 = trace / n * eye
    if not trace > 0 or np.max(np.abs(a @ w0 - b)) > 1e-9 * (1 + np.max(np.abs(b))):
        raise ToolkitError(
            f"value enclosure needs (Tr X / n) I = ({trace:.6g} / {n}) I "
            "to satisfy every constraint")

    x = _pack(_herm(solution.x), cplx)
    x = x + least_squares(b - a @ x) @ a
    neg = max(0.0, n * eps * float(np.linalg.norm(x)) - min_eig(x))
    mix = neg / (trace / n + neg)
    lower = (1.0 - mix) * (c @ x) + mix * (c @ w0)

    y = solution.y
    z = y @ a - c
    margin = eps * (m * (np.abs(y) @ np.linalg.norm(a, axis=1) + np.linalg.norm(c))
                    + n * np.linalg.norm(z))
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
    F_i = A_i and c = b, in one block; a complex problem is exported in
    its real embedding, of size 2n. Reals are printed as %.16e.
    """
    cplx = np.iscomplexobj(problem.objective)
    lines = [
        f"{problem.m}", "1", str(2 * problem.n if cplx else problem.n),
        " ".join("%.16e" % rhs for rhs in problem.rhs),
    ]
    for mat_no, mat in enumerate([problem.objective, *problem.constraints]):
        mat = _embed(mat) if cplx else mat
        for i, j in zip(*np.triu_indices(len(mat))):
            if mat[i, j] != 0.0:
                lines.append(f"{mat_no} 1 {i + 1} {j + 1} " + "%.16e" % mat[i, j])
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
    return SDPProblem(np.ones((n, n)), stack, [1.0] + [0.0] * len(pairs))


def lovasz_theta(n_vertices: int, edges, tol: float = 1e-8) -> float:
    """Upper end of the value enclosure of the classical theta SDP.

    Raises SolverFailure when the enclosure is wider than
    ENCLOSURE_REL_WIDTH relative to the value.
    """
    return certified_enclosure(lovasz_theta_problem(n_vertices, edges), tol)[1]
