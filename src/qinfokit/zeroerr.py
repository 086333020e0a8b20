"""Operator systems, confusability graphs, independence numbers, and the
quantum Lovasz theta machinery.

The entanglement-assisted theta of an operator system S in M_n is the SDP

    max <Phi| I (x) rho + M' |Phi>,  I (x) rho + M' >= 0,
    M' in S_perp (x) M_dc,  rho a density matrix on C^dc

with the unnormalized |Phi> = sum_i |ii> and dc = n by default. It is
solved once; the solve's primal and dual iterates give a value enclosure
[lower, upper] (``sdpcore.value_enclosure``), and the upper end is
reported as the value.

When dc = n and S is a graph system S_G, which ``theta_tilde`` reads off
the basis, the program collapses by torus symmetry to the n x n Lovasz
program of G (theta~(S_G) = theta(G), Duan-Severini-Winter), and that is
what is solved. Every other system, and every dc != n, takes the full
(n dc)^2 program of ``theta_tilde_problems``.

An ``OperatorSystem`` is held as one (k, n, n) stack of Hermitian
matrices, HS-orthonormal: I/sqrt(n) first, then a basis of the traceless
Hermitian part of S, which the theta program takes as its constraint
operators without further work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matkit, sdpcore
from .channels import Channel, is_tp
from .errors import (
    DimensionError,
    NotFeasibleWitness,
    NotStochastic,
    NotTracePreserving,
    TooLarge,
)
from .matkit import dagger

INDEPENDENCE_VERTEX_CAP = 30
# Most constraint data theta_tilde_problems, or basis data
# graph_op_system, will allocate, in bytes.
THETA_STACK_BYTES_CAP = 2 ** 30
# Relative rank tolerance of operator_system.
_RANK_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class OperatorSystem:
    """Self-adjoint unital matrix subspace S of M_dim, held as an
    HS-orthonormal basis of Hermitian matrices in one complex
    (len(S), dim, dim) array: ``basis[0]`` is I/sqrt(dim) and
    ``basis[1:]`` span the traceless Hermitian part of S.

    Construction checks that layout (within 1e-10) and finite entries; a
    sequence of matrices is stacked, and a complex stack is kept without
    a copy. ``operator_system`` builds it from any spanning list,
    ``graph_op_system`` writes that of a graph system directly.
    """

    dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.dim
        basis = matkit.asstack(self.basis, (n, n), "basis element {} != ({},{})")
        if (not len(basis)
                or np.linalg.norm(basis[0] - np.eye(n) / math.sqrt(n)) > 1e-10):
            raise DimensionError("basis[0] must be I/sqrt(dim)")
        flat = basis.reshape(len(basis), -1)
        if np.linalg.norm(flat.conj() @ flat.T - np.eye(len(basis))) > 1e-10:
            raise DimensionError("basis is not HS-orthonormal")
        if np.linalg.norm(basis - dagger(basis)) > 1e-10:
            raise DimensionError("basis elements must be Hermitian")
        object.__setattr__(self, "basis", basis)

    def __len__(self) -> int:
        return len(self.basis)

    def contains(self, x, tol: float = 1e-9) -> bool:
        v = matkit.asmatrix(x).reshape(-1)
        flat = self.basis.reshape(len(self), -1)
        return bool(np.linalg.norm(v - flat.T @ (flat.conj() @ v)) <= tol)


def operator_system(dim: int, spanning) -> OperatorSystem:
    """The operator system spanned by ``spanning``, in its Hermitian basis.

    The traceless elements come from one real orthonormalization of the
    Hermitian and anti-Hermitian parts of the spanning matrices, less
    their trace parts. With I they span span(spanning) + its adjoint + C I,
    which equals span(spanning) exactly when that span contains I and is
    self-adjoint; DimensionError names the condition that fails. Singular
    values below _RANK_RTOL times the largest of ``spanning`` count as zero.
    """
    n = dim
    if n < 1 or not len(spanning):
        raise DimensionError("need dim >= 1 and at least one spanning matrix")
    mats = matkit.asstack(spanning, (n, n), "spanning matrix {} != ({},{})")
    u, sv, _ = np.linalg.svd(mats.reshape(len(mats), -1).T, full_matrices=False)
    cut = _RANK_RTOL * sv[0]
    span = u[:, sv > cut]
    eye = np.eye(n, dtype=complex) / math.sqrt(n)
    v = eye.reshape(-1)
    if np.linalg.norm(v - span @ (dagger(span) @ v)) > _RANK_RTOL:
        raise DimensionError("operator system must contain the identity")
    adj = mats.conj().transpose(0, 2, 1)
    parts = np.concatenate([(mats + adj) / 2.0, 1j * (mats - adj) / 2.0])
    diag = np.arange(n)
    parts[:, diag, diag] -= np.trace(parts, axis1=1, axis2=2)[:, None] / n
    # For Hermitian A, B the HS inner product is the dot product of their
    # (re, im) embeddings, so a real SVD keeps the basis Hermitian.
    _, sv_h, vt = np.linalg.svd(parts.view(float).reshape(len(parts), -1),
                                full_matrices=False)
    traceless = vt[sv_h > cut].view(complex).reshape(-1, n, n)
    if 1 + len(traceless) != span.shape[1]:
        raise DimensionError("operator system must be self-adjoint")
    basis = np.empty((1 + len(traceless), n, n), dtype=complex)
    basis[0] = eye
    basis[1:] = (traceless + dagger(traceless)) / 2.0
    return OperatorSystem(n, basis)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a loop-free edge set."""

    vertices: int
    edges: frozenset

    def __post_init__(self):
        n = self.vertices
        norm_edges = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise DimensionError("graphs are loop-free")
            if not (0 <= u < n and 0 <= v < n):
                raise DimensionError(f"edge ({u},{v}) outside {n} vertices")
            norm_edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm_edges))

    def neighbors(self, u: int) -> set:
        return {
            b if a == u else a
            for a, b in self.edges
            if u in (a, b)
        }


def cycle_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n)
    ))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def op_system_from_channel(ch: Channel) -> OperatorSystem:
    """span{E_i^dag E_j} of a trace-preserving channel (contains I)."""
    if not is_tp(ch):
        raise NotTracePreserving("operator system needs a TP channel")
    spanning = dagger(ch.kraus)[:, None] @ ch.kraus[None]  # [i, j] = E_i^dag E_j
    return operator_system(ch.din, spanning.reshape(-1, ch.din, ch.din))


def graph_op_system(g: Graph) -> OperatorSystem:
    """S_G = span{E_ii} + span{E_uv, E_vu : uv an edge}, of dimension
    vertices + 2 |edges|, with its basis written directly: I/sqrt(n), the
    traceless diagonals (sum_{i<k} E_ii - k E_kk)/sqrt(k(k+1)) for
    k = 1..n-1, then (E_uv + E_vu)/sqrt2 and i(E_uv - E_vu)/sqrt2 for each
    edge u < v in sorted order.

    Raises DimensionError for a graph without vertices and TooLarge,
    before allocating, when the basis would exceed THETA_STACK_BYTES_CAP
    bytes; the Lovasz program of G is smaller.
    """
    n = g.vertices
    if n < 1:
        raise DimensionError("graph system needs at least one vertex")
    size = n + 2 * len(g.edges)
    nbytes = size * n * n * np.dtype(complex).itemsize
    if nbytes > THETA_STACK_BYTES_CAP:
        raise TooLarge(f"graph system of {n} vertices and {len(g.edges)} edges "
                       f"needs {nbytes} bytes of basis data "
                       f"(cap {THETA_STACK_BYTES_CAP})")
    basis = np.zeros((size, n, n), dtype=complex)
    diag = np.arange(n)
    basis[0, diag, diag] = 1.0 / math.sqrt(n)
    for k in range(1, n):
        basis[k, diag[:k], diag[:k]] = 1.0 / math.sqrt(k * (k + 1))
        basis[k, k, k] = -k / math.sqrt(k * (k + 1))
    for p, (u, v) in enumerate(sorted(g.edges)):
        sym, asym = basis[n + 2 * p], basis[n + 2 * p + 1]
        sym[u, v] = sym[v, u] = 1.0 / math.sqrt(2.0)
        asym[u, v], asym[v, u] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
    return OperatorSystem(n, basis)


def confusability_graph(kernel) -> Graph:
    """Edges between inputs that can produce a common output.

    The kernel is column stochastic (columns indexed by the input); zeros
    are taken literally, with no tolerance.
    """
    kern = np.asarray(kernel, dtype=float)
    if kern.ndim != 2 or kern.min() < 0:
        raise NotStochastic("kernel must be a nonnegative matrix")
    if np.max(np.abs(kern.sum(axis=0) - 1.0)) > 1e-9:
        raise NotStochastic("kernel columns must sum to 1")
    nx = kern.shape[1]
    edges = set()
    for x in range(nx):
        for xp in range(x + 1, nx):
            if np.any((kern[:, x] > 0.0) & (kern[:, xp] > 0.0)):
                edges.add((x, xp))
    return Graph(nx, frozenset(edges))


def graph_independence(g: Graph) -> int:
    """Exact independence number by branch and bound.

    Vertices are explored max-degree-first; a greedy remaining-count bound
    prunes. Guarded at 30 vertices.
    """
    if g.vertices > INDEPENDENCE_VERTEX_CAP:
        raise TooLarge(f"exact search capped at {INDEPENDENCE_VERTEX_CAP} vertices")
    adj = {u: g.neighbors(u) for u in range(g.vertices)}
    order = sorted(range(g.vertices), key=lambda u: -len(adj[u]))
    best = 0

    def expand(candidates, size):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        u = next(v for v in order if v in candidates)
        # Branch 1: take u.
        expand(candidates - adj[u] - {u}, size + 1)
        # Branch 2: skip u.
        expand(candidates - {u}, size)

    expand(set(range(g.vertices)), 0)
    return best


def verify_independent_states(s: OperatorSystem, psis) -> bool:
    """True iff |psi_m'><psi_m| is HS-orthogonal to S for every m != m'."""
    vecs = [np.asarray(p.vec if hasattr(p, "vec") else p, dtype=complex)
            for p in psis]
    for v in vecs:
        if v.shape != (s.dim,):
            raise DimensionError("states must live on the system's space")
    # <psi_b| B |psi_a> = Tr[(|psi_b><psi_a|)^dag B] for every basis element B.
    vecs = np.reshape(vecs, (-1, s.dim))
    overlaps = np.einsum("bi,pij,aj->pba", vecs.conj(), s.basis, vecs)
    off = ~np.eye(len(vecs), dtype=bool)
    return not np.any(np.abs(overlaps[:, off]) > 1e-9)


@dataclass(frozen=True)
class ThetaResult:
    """Value enclosure of the theta SDP: primal and dual are its lower and
    upper ends, gap its width, and value the upper end. program is
    "graph" when the Lovasz program of the system's graph was solved and
    "full" for the (n dc)^2 program."""

    primal: float
    dual: float
    gap: float
    program: str

    @property
    def value(self) -> float:
        return self.dual


def _phi_projector(n: int, dc: int) -> np.ndarray:
    phi = np.zeros(n * dc, dtype=complex)
    for i in range(min(n, dc)):
        phi[i * dc + i] = 1.0
    return np.outer(phi, np.conj(phi))


def _unit_hermitian_basis(n: int) -> np.ndarray:
    """Canonical HS-orthonormal Hermitian basis of M_n, stacked: E_ii,
    then (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2 for i < j."""
    i, j = np.triu_indices(n, 1)
    k = np.arange(len(i))
    out = np.zeros((n * n, n, n), dtype=complex)
    out[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    out[n + k, i, j] = out[n + k, j, i] = 1.0 / math.sqrt(2.0)
    out[n + len(k) + k, i, j] = 1j / math.sqrt(2.0)
    out[n + len(k) + k, j, i] = -1j / math.sqrt(2.0)
    return out


def _resolve_dc(s: OperatorSystem, dc) -> int:
    dc = s.dim if dc is None else int(dc)
    if dc < 1:
        raise DimensionError("dc must be >= 1")
    return dc


def theta_tilde_problems(s: OperatorSystem, dc: int | None = None):
    """The theta SDP of S as an SDPProblem, in the variable
    W = I (x) rho + M' (see the module docstring).

    Raises TooLarge, before allocating, when the constraint stack and the
    M_dc basis would exceed THETA_STACK_BYTES_CAP bytes.
    """
    n = s.dim
    dc = _resolve_dc(s, dc)
    # The feasible span is (C I (+) S_perp) (x) M_dc, encoded as
    # orthogonality to the traceless part of S tensored with M_dc, plus
    # Tr W = n.
    traceless = s.basis[1:]
    k, size = len(traceless), n * dc
    # The stack and the M_dc basis it is built from, which is the larger
    # of the two only when S = C I and dc > n.
    entries = (1 + k * dc * dc) * size * size + dc ** 4
    nbytes = entries * np.dtype(complex).itemsize
    if nbytes > THETA_STACK_BYTES_CAP:
        raise TooLarge(f"theta program of a {len(s)}-dimensional system in "
                       f"M_{n} with dc = {dc} needs {nbytes} bytes of "
                       f"constraint data (cap {THETA_STACK_BYTES_CAP})")
    # Row 0 is I; row 1 + p dc^2 + q is kron(traceless[p], hs[q]), written
    # in place so the problem keeps this one stack.
    hs = _unit_hermitian_basis(dc)
    stack = np.empty((1 + k * dc * dc, size, size), dtype=complex)
    stack[0] = np.eye(size)
    np.einsum("pij,qab->pqiajb", traceless, hs,
              out=stack[1:].reshape(k, dc * dc, n, dc, n, dc))
    rhs = [float(n)] + [0.0] * (len(stack) - 1)
    return sdpcore.SDPProblem(_phi_projector(n, dc), stack, rhs)


def _graph_of(s: OperatorSystem):
    """The edges of G if S = S_G, else None.

    P is the set of off-diagonal positions where some basis element has an
    entry above _RANK_RTOL times the largest entry of the basis. S lies in
    (span of the basis' diagonal parts) + span{E_ij : (i, j) in P}, whose
    dimension is at most n + |P|, with equality exactly when it holds
    every diagonal matrix and every E_ij on P; so len(S) == n + |P| iff
    S = S_G with G = {(i, j) in P : i < j}. P is symmetric because the
    basis is Hermitian.
    """
    mag = np.abs(s.basis)
    off = (mag > _RANK_RTOL * mag.max()).any(axis=0)
    np.fill_diagonal(off, False)
    rows, cols = np.nonzero(off)
    if len(s) != s.dim + len(rows):
        return None
    return [(int(i), int(j)) for i, j in zip(rows, cols) if i < j]


def theta_tilde(s: OperatorSystem, dc: int | None = None,
                tol: float = 1e-8) -> ThetaResult:
    """Entanglement-assisted Lovasz number of the operator system.

    One SDP solve; its iterates give the value enclosure, whose upper end
    is the value. Raises DimensionError for dc < 1, TooLarge when the
    full program is over THETA_STACK_BYTES_CAP, and SolverFailure when the
    enclosure is wider than sdpcore.ENCLOSURE_REL_WIDTH relative to the
    value.

    With dc = n and S = S_G the n x n Lovasz program of G is solved
    instead of the full one (``program`` "graph"); it has the same
    optimum. Conjugation by D (x) conj(D), D a diagonal unitary, fixes
    Phi, Tr W and (traceless S_G) (x) M_n, so averaging an optimal W over
    these unitaries keeps it optimal and puts it in their commutant: one
    n x n block B on span{|ii>} plus the n(n-1) scalars W_(ia),(ia), a != i.
    S_G holds every diagonal matrix, so orthogonality to (traceless
    diagonal) (x) E_aa pins each W_(ia),(ia) to B_aa; then Tr W = n reads
    Tr B = 1, orthogonality to E_ij (x) E_ij reads B_ij = 0 on the edges,
    and the objective is <J, B>. That is ``sdpcore.lovasz_theta_problem``
    (Gatermann-Parrilo for the symmetry reduction), and its value
    enclosure encloses theta~(S_G) because the optimum is the same.
    """
    dc = _resolve_dc(s, dc)
    edges = _graph_of(s) if dc == s.dim else None
    if edges is None:
        problem, program = theta_tilde_problems(s, dc), "full"
    else:
        problem, program = sdpcore.lovasz_theta_problem(s.dim, edges), "graph"
    lower, upper = sdpcore.certified_enclosure(problem, tol)
    return ThetaResult(primal=lower, dual=upper, gap=upper - lower,
                       program=program)


def theta_lower_from_witness(s: OperatorSystem, m) -> float:
    """||I + M|| for a feasible witness M: M orthogonal to S and I + M >= 0.

    Any feasible witness certifies theta(S) >= ||I + M||.
    """
    mm = matkit.asmatrix(m)
    n = s.dim
    if mm.shape != (n, n):
        raise DimensionError(f"witness {mm.shape} != ({n},{n})")
    # Tr[B^dag M] for every basis element B.
    overlaps = s.basis.reshape(len(s), -1).conj() @ mm.reshape(-1)
    if np.max(np.abs(overlaps)) > 1e-8:
        raise NotFeasibleWitness("witness is not orthogonal to S")
    vals = np.linalg.eigvalsh((mm + dagger(mm)) / 2.0 + np.eye(n))
    if vals.min() < -1e-9:
        raise NotFeasibleWitness("I + M is not PSD")
    return matkit.norm(np.eye(n) + mm, "operator")
