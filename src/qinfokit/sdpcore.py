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
(the corrector recentres at sigma * mu without a second-order term). The
Schur complement is formed densely and solved by a truncated symmetric
eigendecomposition: eigen-directions below 1e-14 of the largest
eigenvalue are dropped, so redundant constraints need no special
handling and conditioning alone never stops a solve (problem sizes here
stay in the hundreds). A solve either ends optimal or raises.

Complex Hermitian data is embedded blockwise as real symmetric matrices of
twice the size via H -> [[Re H, -Im H], [Im H, Re H]] scaled by 1/2, which
preserves objective values and inner products exactly; solutions are
mapped back before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, Infeasible, NumericalBreakdown, SolverFailure

SCHUR_COND_LIMIT = 1e14
STALL_LIMIT = 30
STALL_RESIDUAL = 1e-6


@dataclass(frozen=True)
class SDPProblem:
    """Block-diagonal standard-form SDP (see module docstring).

    ``objective``: one Hermitian (or real symmetric) matrix per block.
    ``constraints``: list of (ops, rhs) with ops one matrix per block.
    """

    block_sizes: tuple
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.block_sizes)
        if any(n <= 0 for n in sizes):
            raise DimensionError("block sizes must be positive")
        obj = tuple(np.asarray(c, dtype=complex) for c in self.objective)
        if len(obj) != len(sizes):
            raise DimensionError("objective needs one matrix per block")
        cons = []
        for ops, rhs in self.constraints:
            ops = tuple(np.asarray(a, dtype=complex) for a in ops)
            if len(ops) != len(sizes):
                raise DimensionError("constraint needs one matrix per block")
            for a, n in zip(ops, sizes):
                if a.shape != (n, n):
                    raise DimensionError(f"constraint block {a.shape} != ({n},{n})")
                if np.linalg.norm(a - a.conj().T) > 1e-10 * (1 + np.linalg.norm(a)):
                    raise DimensionError("constraint operators must be Hermitian")
            cons.append((ops, float(rhs)))
        for c, n in zip(obj, sizes):
            if c.shape != (n, n):
                raise DimensionError(f"objective block {c.shape} != ({n},{n})")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(cons))

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
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
    <embed(A), embed(X)> = <A, X> for Hermitian A, X."""
    re, im = np.real(h), np.imag(h)
    return 0.5 * np.block([[re, -im], [im, re]])


def _unembed(y: np.ndarray) -> np.ndarray:
    """Left inverse of the (unscaled) embedding on symmetric matrices."""
    n = y.shape[0] // 2
    a11, a12 = y[:n, :n], y[:n, n:]
    a21, a22 = y[n:, :n], y[n:, n:]
    return 0.5 * (a11 + a22) + 0.5j * (a21 - a12)


class _RealForm:
    """Realified copy of an SDPProblem plus the back-maps."""

    def __init__(self, prob: SDPProblem):
        self.prob = prob
        self.complex_block = []
        for b, n in enumerate(prob.block_sizes):
            mats = [prob.objective[b]] + [ops[b] for ops, _ in prob.constraints]
            is_cplx = any(np.linalg.norm(np.imag(m)) > 1e-14 for m in mats)
            self.complex_block.append(is_cplx)
        self.sizes = tuple(
            2 * n if c else n
            for n, c in zip(prob.block_sizes, self.complex_block)
        )
        self.c_blocks = [
            _embed(c) if cplx else np.real(c).copy()
            for c, cplx in zip(prob.objective, self.complex_block)
        ]
        self.a_ops = []
        self.b = np.array([rhs for _, rhs in prob.constraints])
        for ops, _ in prob.constraints:
            self.a_ops.append([
                _embed(a) if cplx else np.real(a).copy()
                for a, cplx in zip(ops, self.complex_block)
            ])

    def back(self, blocks):
        # _unembed projects onto the embedded structure, so any
        # antisymmetric drift in the real iterate is averaged away.
        return tuple(
            _unembed(x) if cplx else x.astype(complex)
            for x, cplx in zip(blocks, self.complex_block)
        )


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """W > 0 with W Z W = X (the Nesterov-Todd scaling point)."""
    try:
        lx = np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"iterate lost positivity: {exc}") from exc
    mid = lx.T @ z @ lx
    vals, vecs = np.linalg.eigh((mid + mid.T) / 2.0)
    vals = np.clip(vals, 1e-300, None)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    w = lx @ inv_sqrt @ lx.T
    return (w + w.T) / 2.0


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha dx >= 0 (inf if dx >= 0)."""
    try:
        lx = np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"iterate lost positivity: {exc}") from exc
    s = np.linalg.solve(lx, dx)
    s = np.linalg.solve(lx, s.T).T
    lam = float(np.linalg.eigvalsh((s + s.T) / 2.0)[0])
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve(problem: SDPProblem, tol: float = 1e-7, max_iter: int = 200
          ) -> SDPSolution:
    """Interior-point solve of the standard-form problem.

    Predictor-corrector without a second-order term; the Schur system is
    solved on its eigen-directions above 1e-14 of the largest, with no
    condition-number stop. Deterministic: identical inputs produce
    identical iterates. Returns only an optimal solution. Raises
    Infeasible when the primal residual stalls above 1e-6 for 30
    consecutive iterations (or the iterates diverge with the residual
    stuck), NumericalBreakdown when an iterate loses positivity or the
    iterates diverge otherwise, and SolverFailure carrying the last
    iterate as ``.solution`` when ``max_iter`` runs out first. Non-finite
    iterates are checked for explicitly, so numpy's transient overflow
    warnings are silenced here.
    """
    rf = _RealForm(problem)
    sizes = rf.sizes
    nb = len(sizes)
    m = problem.m
    b = rf.b
    c_blocks = rf.c_blocks
    a_flat = np.stack([
        np.concatenate([rf.a_ops[i][k].reshape(-1) for k in range(nb)])
        for i in range(m)
    ]) if m else np.zeros((0, sum(n * n for n in sizes)))

    def apply_a(blocks):
        if m == 0:
            return np.zeros(0)
        v = np.concatenate([blk.reshape(-1) for blk in blocks])
        return a_flat @ v

    def apply_at(y):
        out = []
        offset = 0
        for n in sizes:
            seg = a_flat[:, offset:offset + n * n]
            out.append((y @ seg).reshape(n, n) if m else np.zeros((n, n)))
            offset += n * n
        return out

    eta = max(
        10.0,
        float(np.max(np.abs(b))) if m else 0.0,
        max(float(np.linalg.norm(c)) for c in c_blocks),
    )
    x = [eta * np.eye(n) for n in sizes]
    z = [eta * np.eye(n) for n in sizes]
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
        pval = sum(float(np.sum(cb * xb)) for cb, xb in zip(c_blocks, x))
        dval = float(b @ y)
        rp = b - apply_a(x)
        at_y = apply_at(y)
        rd = [cb - ab + zb for cb, ab, zb in zip(c_blocks, at_y, z)]
        mu = sum(float(np.sum(xb * zb)) for xb, zb in zip(x, z)) / total_dim
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = math.sqrt(sum(float(np.linalg.norm(r)) ** 2 for r in rd)) / cnorm
        relgap = abs(dval - pval) / (1.0 + abs(pval) + abs(dval))
        history.append({
            "iter": it, "primal": pval, "dual": dval,
            "pinf": pinf, "dinf": dinf, "mu": mu,
        })
        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            break
        finite = all(
            math.isfinite(v) for v in (pval, dval, pinf, dinf, mu)
        )
        if not finite:
            # Divergence while the primal residual never came down is the
            # usual numerical signature of an infeasible problem.
            if best_pinf > STALL_RESIDUAL:
                raise Infeasible(
                    f"iterates diverged with primal residual stuck at "
                    f"{best_pinf:.3e} after {it} iterations"
                )
            raise NumericalBreakdown(f"iterates diverged at iteration {it}")
        if pinf > STALL_RESIDUAL:
            if pinf >= best_pinf * (1.0 - 1e-3):
                stall += 1
            else:
                stall = 0
        else:
            stall = 0
        best_pinf = min(best_pinf, pinf)
        if stall >= STALL_LIMIT:
            raise Infeasible(
                f"primal residual stalled at {pinf:.3e} after {it} iterations"
            )

        w = [_nt_scaling(xb, zb) for xb, zb in zip(x, z)]
        z_inv = []
        for zb in z:
            vals, vecs = np.linalg.eigh(zb)
            z_inv.append((vecs / np.clip(vals, 1e-300, None)) @ vecs.T)

        # Schur complement M_ij = sum_b <A_i, W A_j W>.
        schur = np.zeros((m, m))
        waw_flat = []
        offset = 0
        for k, n in enumerate(sizes):
            seg = a_flat[:, offset:offset + n * n].reshape(m, n, n)
            waw = w[k] @ seg @ w[k]
            waw_flat.append(waw.reshape(m, n * n))
            offset += n * n
        if m:
            schur = sum(
                a_flat[:, o:o + blk.shape[1]] @ blk.T
                for o, blk in zip(
                    np.cumsum([0] + [n * n for n in sizes[:-1]]), waw_flat)
            )
            schur = (schur + schur.T) / 2.0
            svals, svecs = np.linalg.eigh(schur)
            keep = svals > svals[-1] / SCHUR_COND_LIMIT
            svals, svecs = svals[keep], svecs[:, keep]

        def schur_solve(rhs):
            if m == 0:
                return np.zeros(0)
            return svecs @ ((svecs.T @ rhs) / svals)

        def direction(rc_blocks):
            rhs = apply_a([
                rc + wb @ rdb @ wb
                for rc, wb, rdb in zip(rc_blocks, w, rd)
            ]) - rp
            dy = schur_solve(rhs)
            at_dy = apply_at(dy)
            dz = [ady - rdb for ady, rdb in zip(at_dy, rd)]
            dx = [
                rc - wb @ dzb @ wb
                for rc, wb, dzb in zip(rc_blocks, w, dz)
            ]
            dx = [(d + d.T) / 2.0 for d in dx]
            dz = [(d + d.T) / 2.0 for d in dz]
            return dx, dy, dz

        # Predictor (affine scaling).
        rc_aff = [-xb for xb in x]
        dx_a, dy_a, dz_a = direction(rc_aff)
        ap = min([1.0] + [_max_step(xb, d) for xb, d in zip(x, dx_a)])
        ad = min([1.0] + [_max_step(zb, d) for zb, d in zip(z, dz_a)])
        mu_aff = sum(
            float(np.sum((xb + ap * dxb) * (zb + ad * dzb)))
            for xb, dxb, zb, dzb in zip(x, dx_a, z, dz_a)
        ) / total_dim
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # Corrector: recentre at sigma * mu.
        rc = [sigma * mu * zib - xb for xb, zib in zip(x, z_inv)]
        dx, dy, dz = direction(rc)
        ap = min([1.0] + [0.98 * _max_step(xb, d) for xb, d in zip(x, dx)])
        ad = min([1.0] + [0.98 * _max_step(zb, d) for zb, d in zip(z, dz)])
        if not (np.isfinite(ap) and np.isfinite(ad)) or min(ap, ad) <= 1e-12:
            # Vanishing step: back off further from the boundary.
            ap = min([1.0] + [0.9 * _max_step(xb, d) for xb, d in zip(x, dx)])
            ad = min([1.0] + [0.9 * _max_step(zb, d) for zb, d in zip(z, dz)])
        x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
        z = [zb + ad * dzb for zb, dzb in zip(z, dz)]
        y = y + ad * dy

    pval = sum(float(np.sum(cb * xb)) for cb, xb in zip(c_blocks, x))
    dval = float(b @ y)
    sol = SDPSolution(
        primal=pval,
        dual=dval,
        x_blocks=rf.back(x),
        y=y.copy(),
        z_blocks=rf.back(z),
        gap=dval - pval,
        iterations=it,
        status=status,
        history=tuple(history),
    )
    if status != "optimal":
        raise SolverFailure(
            f"status {status} after {it} iterations at tol {tol:g} "
            f"(last iterate {history[-1] if history else None})",
            solution=sol,
        )
    return sol


def export_sdpa(problem: SDPProblem) -> str:
    """SDPA sparse initial-format text for external cross-checking.

    Our standard form is SDPA's dual side, so the export uses F0 = C,
    F_i = A_i and c = b; complex blocks are exported in their real
    embedding. Reals are printed as %.16e.
    """
    rf = _RealForm(problem)
    lines = []
    lines.append(f"{problem.m}")
    lines.append(f"{len(rf.sizes)}")
    lines.append(" ".join(str(n) for n in rf.sizes))
    lines.append(" ".join("%.16e" % v for v in rf.b))

    def emit(mat_no, blocks):
        for blk_no, mat in enumerate(blocks, start=1):
            n = mat.shape[0]
            for i in range(n):
                for j in range(i, n):
                    v = mat[i, j]
                    if v != 0.0:
                        lines.append(
                            f"{mat_no} {blk_no} {i + 1} {j + 1} " + "%.16e" % v
                        )

    emit(0, rf.c_blocks)
    for i in range(problem.m):
        emit(i + 1, rf.a_ops[i])
    return "\n".join(lines) + "\n"


def lovasz_theta_problem(n_vertices: int, edges) -> SDPProblem:
    """Classical Lovasz theta SDP: max <J, X>, Tr X = 1, X_ij = 0 on edges.

    Used both as a solver example and as the independent classical oracle
    for graph operator systems.
    """
    n = int(n_vertices)
    c = np.ones((n, n))
    cons = [((np.eye(n),), 1.0)]
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        op = np.zeros((n, n))
        op[u, v] = 0.5
        op[v, u] = 0.5
        cons.append(((op,), 0.0))
    return SDPProblem((n,), (c,), tuple(cons))


def lovasz_theta(n_vertices: int, edges, tol: float = 1e-8) -> float:
    """Dual optimum of the classical theta SDP (raises unless optimal)."""
    return solve(lovasz_theta_problem(n_vertices, edges), tol=tol).dual
