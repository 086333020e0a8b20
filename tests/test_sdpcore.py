import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinfokit import sdpcore
from qinfokit.errors import DimensionError


def odd_cycle_theta(n: int) -> float:
    # Closed form for the Lovasz number of an odd cycle.
    return n * math.cos(math.pi / n) / (1.0 + math.cos(math.pi / n))


def brute_force_alpha(n: int, edges) -> int:
    edge_set = {frozenset(e) for e in edges}
    for r in range(n, 0, -1):
        for subset in itertools.combinations(range(n), r):
            if not any(frozenset(p) in edge_set
                       for p in itertools.combinations(subset, 2)):
                return r
    return 0


def test_scalar_bound_problem():
    # min lambda s.t. lambda >= 1, written as max -lambda with
    # lambda - s = 1 on the diagonal of X = [[lambda, .], [., s]] >= 0.
    prob = sdpcore.SDPProblem(np.diag([-1.0, 0.0]), np.diag([1.0, -1.0])[None], [1.0])
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    assert -sol.primal == pytest.approx(1.0, abs=1e-6)


def test_lovasz_theta_complete_graph():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert sdpcore.lovasz_theta(4, edges) == pytest.approx(1.0, abs=1e-6)


def test_lovasz_theta_odd_cycles_closed_form():
    for n in (5, 7, 9, 11):
        edges = [(i, (i + 1) % n) for i in range(n)]
        got = sdpcore.lovasz_theta(n, edges)
        assert got == pytest.approx(odd_cycle_theta(n), abs=1e-6)
        prob = sdpcore.lovasz_theta_problem(n, edges)
        lower, upper = sdpcore.value_enclosure(prob, sdpcore.solve(prob, tol=1e-8))
        assert lower <= odd_cycle_theta(n) <= upper == got
        assert upper - lower <= 1e-6 * (1 + upper)


def test_value_enclosure_needs_fixed_trace():
    from qinfokit.errors import ToolkitError

    # max X_00 with X_01 = 0 alone leaves Tr X free (unbounded above).
    free = sdpcore.SDPProblem(
        np.diag([1.0, 0.0]), np.array([[[0.0, 0.5], [0.5, 0.0]]]), [0.0])
    sol = sdpcore.SDPSolution(0.0, 0.0, np.eye(2), np.zeros(1),
                              np.eye(2), 0.0, 1, "optimal")
    with pytest.raises(ToolkitError, match="fix Tr X"):
        sdpcore.value_enclosure(free, sol)
    # Tr X = 1 with X_00 = 1: the trace is fixed, but I / 2 is infeasible,
    # so there is no interior point to mix with.
    pinned = sdpcore.SDPProblem(
        np.eye(2), np.stack([np.eye(2), np.diag([1.0, 0.0])]), [1.0, 1.0])
    with pytest.raises(ToolkitError, match="satisfy every constraint"):
        sdpcore.value_enclosure(pinned, sdpcore.solve(pinned))


def test_empty_graph_theta_is_n():
    assert sdpcore.lovasz_theta(4, []) == pytest.approx(4.0, abs=1e-6)


def test_weak_duality_along_iterates():
    # Once the iterates are (near) feasible, primal <= dual + 1e-8.
    prob = sdpcore.lovasz_theta_problem(5, [(i, (i + 1) % 5) for i in range(5)])
    sol = sdpcore.solve(prob)
    assert sol.status == "optimal"
    for rec in sol.history:
        if rec["pinf"] <= 1e-9 and rec["dinf"] <= 1e-9:
            assert rec["primal"] <= rec["dual"] + 1e-8
    assert sol.gap == sol.dual - sol.primal


def test_kkt_residuals_at_optimum():
    prob = sdpcore.lovasz_theta_problem(5, [(i, (i + 1) % 5) for i in range(5)])
    sol = sdpcore.solve(prob, tol=1e-8)
    x = np.real(sol.x)
    resid = np.einsum("kij,ij->k", prob.constraints, x) - prob.rhs
    assert np.max(np.abs(resid)) <= 1e-7
    # Complementarity Tr[XZ] small relative to scale.
    z = np.real(sol.z)
    assert abs(float(np.sum(x * z))) <= 1e-6 * (1 + abs(sol.primal))


def test_deterministic_across_runs():
    prob = sdpcore.lovasz_theta_problem(5, [(i, (i + 1) % 5) for i in range(5)])
    a = sdpcore.solve(prob)
    b = sdpcore.solve(prob)
    assert a.primal == b.primal and a.dual == b.dual
    assert a.iterations == b.iterations


def test_hermitian_embedding_roundtrip():
    # A genuinely complex objective C = U diag(d) U^dag (U a complex
    # unitary) under Tr X = 1: the optimum is max d, attained at the
    # projector onto U's column for it.
    rng = np.random.default_rng(90)
    for _ in range(5):
        d = rng.standard_normal(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        c = u @ np.diag(d) @ u.conj().T
        assert np.linalg.norm(c.imag) > 1e-3
        sol = sdpcore.solve(
            sdpcore.SDPProblem(c, np.eye(3)[None], [1.0]), tol=1e-9
        )
        assert sol.status == "optimal"
        assert sol.primal == pytest.approx(float(np.max(d)), abs=1e-7)
        x = sol.x
        assert np.linalg.norm(x - x.conj().T) <= 1e-10
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        top = u[:, np.argmax(d)]
        assert np.vdot(top, x @ top).real == pytest.approx(1.0, abs=1e-6)


def random_feasible_complex_sdp(seed: int, n: int, k: int):
    # Strictly feasible on both sides, so the optimum is attained with no
    # duality gap: b = A(X0) for X0 > 0 and C = A^T(y0) - Z0 for Z0 > 0.
    # Tr X = 1 among the constraints keeps the feasible set bounded.
    rng = np.random.default_rng(seed)

    def herm():
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (g + g.conj().T) / 2.0

    def pos():
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.eye(n) + g @ g.conj().T / n

    ops = [np.eye(n)] + [herm() for _ in range(k)]
    x0 = pos()
    x0 /= np.trace(x0).real
    y0 = rng.standard_normal(len(ops))
    c = sum(yi * a for yi, a in zip(y0, ops)) - pos()
    rhs = [np.vdot(a, x0).real for a in ops]
    return c, np.stack(ops), rhs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       k=st.integers(0, 4))
def test_native_complex_solve_matches_real_embedding(seed, n, k):
    c, ops, rhs = random_feasible_complex_sdp(seed, n, k)
    native = sdpcore.solve(sdpcore.SDPProblem(c, ops, rhs), tol=1e-9)
    embedded = sdpcore.solve(sdpcore.SDPProblem(
        sdpcore._embed(c), np.stack([sdpcore._embed(a) for a in ops]), rhs,
    ), tol=1e-9)
    scale = 1.0 + abs(embedded.primal)
    assert abs(native.primal - embedded.primal) <= 1e-6 * scale
    assert abs(native.dual - embedded.dual) <= 1e-6 * scale
    # Weak duality at the returned point and along the near-feasible
    # iterates.
    assert native.primal <= native.dual + 1e-8 * scale
    for rec in native.history:
        if rec["pinf"] <= 1e-9 and rec["dinf"] <= 1e-9:
            assert rec["primal"] <= rec["dual"] + 1e-8 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       k=st.integers(0, 4))
def test_carried_dual_residual_matches_a_fresh_one(seed, n, k):
    # solve updates A^T(y) with each step of y instead of applying A^T to
    # y again; the final record's dinf must be that of the returned y, Z.
    c, ops, rhs = random_feasible_complex_sdp(seed, n, k)
    sol = sdpcore.solve(sdpcore.SDPProblem(c, ops, rhs), tol=1e-9)
    fresh = c - np.einsum("i,ijk->jk", sol.y, ops) + sol.z
    cnorm = 1.0 + np.linalg.norm(c)
    scale = 1.0 + np.linalg.norm(sol.y) * np.linalg.norm(ops) / cnorm
    assert abs(sol.history[-1]["dinf"] - np.linalg.norm(fresh) / cnorm) <= 1e-12 * scale


def test_solve_complex_rank_one_objective():
    # max <vv*, X> s.t. Tr X = 1 equals |v|^2 with X the unit projector.
    v = np.array([1.0, 1.0j, 0.5 - 0.5j])
    c = np.outer(v, v.conj())
    prob = sdpcore.SDPProblem(c, np.eye(3)[None], [1.0])
    sol = sdpcore.solve(prob)
    assert sol.primal == pytest.approx(float(np.vdot(v, v).real), rel=1e-7)


def test_problem_validation():
    eye2 = np.eye(2)[None]
    with pytest.raises(DimensionError, match=r"\(2, 2\) != \(3,3\)"):
        sdpcore.SDPProblem(np.eye(3), eye2, [1.0])
    with pytest.raises(DimensionError, match="Hermitian"):
        sdpcore.SDPProblem(np.eye(2), np.array([[[0.0, 1.0], [0.0, 0.0]]]), [0.0])
    # One bad operator in the middle of a stack is still found, with the
    # per-operator message.
    good = [np.diag([1.0, -1.0]) * k for k in range(1, 7)]
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DimensionError, match="Hermitian"):
        sdpcore.SDPProblem(np.eye(2), np.stack(good[:3] + [skew] + good[3:]),
                           np.zeros(7))
    # Wrong-shape stacks: a bare matrix, and a stack whose length is not m.
    with pytest.raises(DimensionError, match=r"\(2,\) != \(2,2\)"):
        sdpcore.SDPProblem(np.eye(2), np.eye(2), [1.0])
    with pytest.raises(DimensionError, match="6 constraint operators, 7 rhs"):
        sdpcore.SDPProblem(np.eye(2), np.stack(good), np.zeros(7))
    # A complex rhs is refused, not cut to its real part.
    with pytest.raises(DimensionError, match="real vector"):
        sdpcore.SDPProblem(np.eye(2), eye2, np.array([1.0 + 1j]))
    # n and m follow from the data; rhs is a float vector.
    prob = sdpcore.SDPProblem(np.eye(2), eye2, [3])
    assert prob.n == 2 and prob.m == 1
    assert prob.rhs.dtype == float and prob.rhs.tolist() == [3.0]


def test_problem_rejects_per_block_tuples():
    # The (objective,), (stack,) form of a one-block problem is a shape
    # error naming the stacked shape, not a silently reshaped problem.
    with pytest.raises(DimensionError, match=r"objective \(1, 2, 2\) is not n x n"):
        sdpcore.SDPProblem((np.eye(2),), (np.eye(2)[None],), [1.0])


def test_problem_block_dtype_says_complex():
    # A problem is complex iff its objective or a constraint has an
    # imaginary part; complex-typed but real data is stored as float64.
    herm = np.array([[0.0, 1j], [-1j, 0.0]])
    real = sdpcore.SDPProblem(np.eye(2, dtype=complex),
                              np.eye(2, dtype=complex)[None], [1.0])
    assert real.objective.dtype == real.constraints.dtype == float
    for c, ops in ((herm, np.eye(2)[None]), (np.eye(2), herm[None])):
        prob = sdpcore.SDPProblem(c, ops, [1.0])
        assert prob.objective.dtype == prob.constraints.dtype == complex
    # A stack already of the problem's dtype is kept, not copied.
    stack = np.stack([np.eye(2), herm]).astype(complex)
    prob = sdpcore.SDPProblem(np.eye(2), stack, [2.0, 0.0])
    assert prob.constraints is stack


def _with_entry(a, index, value):
    a = np.array(a, dtype=float)
    a[index] = value
    return a


TWO_OPS = np.stack([np.eye(2), np.diag([1.0, -1.0])])


@pytest.mark.parametrize("objective, stack, rhs", [
    (np.eye(2), _with_entry(TWO_OPS, (1, 0, 0), np.nan), [1.0, 0.0]),
    (np.eye(2), _with_entry(TWO_OPS, (1, 1, 1), -np.inf), [1.0, 0.0]),
    (np.eye(2), TWO_OPS, [1.0, np.nan]),
    (_with_entry(np.eye(2), (0, 0), np.nan), TWO_OPS, [1.0, 0.0]),
], ids=["nan-constraint", "inf-constraint", "nan-rhs", "nan-objective"])
def test_problem_rejects_non_finite_data(objective, stack, rhs):
    # Unchecked, each of these ended as a spurious Infeasible in solve.
    with pytest.raises(DimensionError, match="finite"):
        sdpcore.SDPProblem(objective, stack, rhs)


def test_problem_accepts_finite_data_with_overflowing_norm():
    assert sdpcore.SDPProblem(np.eye(2), 1e200 * TWO_OPS, [1e200, 0.0]).m == 2


def test_problem_rejects_non_hermitian_objective():
    # Unchecked, the real one ran to max_iter and the complex one broke
    # down numerically.
    for c in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 1j], [0.0, 0.0]])):
        with pytest.raises(DimensionError, match="objective must be Hermitian"):
            sdpcore.SDPProblem(c, np.eye(2)[None], [1.0])


def test_infeasible_problem_raises():
    from qinfokit.errors import Infeasible

    # A PSD scalar with a negative trace target: the primal residual can
    # never vanish, so the stall guard trips.
    prob = sdpcore.SDPProblem(np.zeros((1, 1)), np.ones((1, 1, 1)), [-1.0])
    with pytest.raises(Infeasible):
        sdpcore.solve(prob)


def test_redundant_constraints():
    from qinfokit.errors import Infeasible

    # Consistent duplicates (Tr X = 1 twice) make the Schur complement
    # singular; the truncated eigen-solve drops the null direction.
    dup = sdpcore.SDPProblem(np.eye(2), np.stack([np.eye(2)] * 2), [1.0, 1.0])
    sol = sdpcore.solve(dup)
    assert sol.status == "optimal"
    assert sol.primal == pytest.approx(1.0, abs=1e-6)
    # Cholesky may succeed on the singular matrix with a tiny pivot; the
    # pivot test sends every iteration to the eigensolve.
    assert [rec["schur"] for rec in sol.history[:-1]] == \
        ["eig"] * (sol.iterations - 1)
    # One eigenvalue is dropped, so the kept spectrum is the other one.
    assert all(rec["schur_ratio"] == 1.0 for rec in sol.history[:-1])
    # Inconsistent duplicates (Tr X = 1 and Tr X = 2) admit no X.
    clash = sdpcore.SDPProblem(np.eye(2), np.stack([np.eye(2)] * 2), [1.0, 2.0])
    with pytest.raises(Infeasible):
        sdpcore.solve(clash)


def test_history_records_each_step():
    sol = sdpcore.solve(
        sdpcore.lovasz_theta_problem(5, [(i, (i + 1) % 5) for i in range(5)]))
    *steps, last = sol.history
    assert steps and all(rec["schur"] == "cholesky" for rec in steps)
    for rec in steps:
        assert 0.0 < rec["sigma"] <= 1.0
        assert 0.0 < rec["step_primal"] <= 1.0
        assert 0.0 < rec["step_dual"] <= 1.0
        # The Cholesky path is taken only inside the conditioning limit.
        assert 1.0 / sdpcore.SCHUR_COND_LIMIT < rec["schur_ratio"] <= 1.0
    # The Schur complement grows worse conditioned as mu falls.
    assert steps[-1]["schur_ratio"] < steps[0]["schur_ratio"]
    # The final record is the convergence check: no step is taken.
    assert (last["sigma"], last["step_primal"], last["step_dual"],
            last["schur"], last["schur_ratio"]) == (None,) * 5
    # Every record has the same keys, in this order.
    assert list(last) == ["iter", "primal", "dual", "pinf", "dinf", "mu", "sigma",
                          "step_primal", "step_dual", "schur", "schur_ratio"]


def random_matrix(rng, n, cplx):
    g = rng.standard_normal((n, n))
    return g + 1j * rng.standard_normal((n, n)) if cplx else g


# Eigenvalues of a direction: zero, or at least 0.01 away from it, so
# that a negative one bounds the step well inside double range.
direction_eigenvalues = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01)),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cplx=st.booleans(),
       eigs=direction_eigenvalues)
def test_step_lengths_reach_the_boundary(seed, cplx, eigs):
    rng = np.random.default_rng(seed)
    n = len(eigs)
    g = random_matrix(rng, n, cplx)
    x = np.eye(n) + g @ g.conj().T / n
    u, _ = np.linalg.qr(random_matrix(rng, n, cplx))
    dx = (u * eigs) @ u.conj().T
    dx = (dx + dx.conj().T) / 2.0
    # The same pair twice, as solve stacks [X, Z].
    l_inv = np.linalg.inv(np.linalg.cholesky(np.stack([x, x])))
    steps = sdpcore._step_lengths(l_inv, np.stack([dx, dx]))
    assert steps[0] == steps[1]
    alpha = steps[0]

    def least(a):
        return np.linalg.eigvalsh(x + a * dx)[0]

    if min(eigs) >= 0.0:
        assert alpha == math.inf
        return
    scale = np.linalg.norm(x, 2)
    assert math.isfinite(alpha) and alpha > 0.0
    assert least(alpha) >= -1e-10 * scale
    # Largest: a little further leaves the cone.
    assert least(alpha * (1.0 + 1e-3)) < -1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
       m=st.integers(0, 6), cplx=st.booleans())
def test_unpacked_operators_are_adjoint_and_match_packed(seed, n, m, cplx):
    rng = np.random.default_rng(seed)
    cplx = cplx and n > 1  # a 1 x 1 Hermitian matrix is real

    def herm():
        g = random_matrix(rng, n, cplx)
        return (g + g.conj().T) / 2.0

    stack = np.stack([herm() for _ in range(m)]) if m else np.zeros((0, n, n))
    prob = sdpcore.SDPProblem(herm(), stack, rng.standard_normal(m))
    assert prob.constraints.dtype == (complex if cplx else float)
    assert not m or np.shares_memory(prob.flat, prob.constraints)
    h, y = herm(), rng.standard_normal(m)
    a_h, at_y = sdpcore._apply_a(prob, h), sdpcore._apply_at(prob, y)
    assert at_y.dtype == prob.constraints.dtype and at_y.shape == (n, n)
    scale = 1.0 + np.linalg.norm(h) * np.linalg.norm(stack) * (1.0 + np.linalg.norm(y))
    assert abs(a_h @ y - np.vdot(h, at_y).real) <= 1e-12 * scale
    packed = sdpcore._pack(prob.constraints, cplx)
    assert np.allclose(a_h, packed @ sdpcore._pack(h, cplx), rtol=0, atol=1e-12 * scale)
    assert np.allclose(at_y, sdpcore._unpack(y @ packed, n, cplx), rtol=0,
                       atol=1e-12 * scale)
    assert np.allclose(sdpcore._unpack(sdpcore._pack(h, cplx), n, cplx), h, rtol=0,
                       atol=1e-15 * (1.0 + np.linalg.norm(h)))
    # A non-Hermitian H is read as its Hermitian part.
    k = random_matrix(rng, n, cplx)
    assert np.allclose(sdpcore._apply_a(prob, k),
                       sdpcore._apply_a(prob, (k + k.conj().T) / 2.0),
                       rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(k) * np.linalg.norm(stack)))
    # A stack is read in one pass, one column or matrix per member.
    assert np.allclose(sdpcore._apply_a(prob, np.array([h, k])).T,
                       [a_h, sdpcore._apply_a(prob, k)], rtol=0,
                       atol=1e-12 * (1.0 + np.linalg.norm(k) * np.linalg.norm(stack)))
    y2 = rng.standard_normal(m)
    assert np.allclose(sdpcore._apply_at(prob, np.array([y, y2])),
                       [at_y, sdpcore._apply_at(prob, y2)], rtol=0, atol=1e-12 * scale)


def test_max_iter_raises_solver_failure():
    from qinfokit.errors import SolverFailure

    prob = sdpcore.lovasz_theta_problem(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(SolverFailure) as info:
        sdpcore.solve(prob, max_iter=2)
    assert info.value.solution.status == "max_iter"
    assert info.value.solution.iterations == 2


def test_lovasz_theta_every_small_graph_is_alpha():
    # Every graph on at most 4 vertices is perfect, so theta = alpha. The
    # sweep includes P4 (theta 2) and edges {01, 02} (theta 3).
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            got = sdpcore.lovasz_theta(n, edges)
            assert got == pytest.approx(brute_force_alpha(n, edges), abs=1e-6), edges


def test_lovasz_theta_rejects_edges_outside_vertices():
    # (0, -1) used to index vertex 4 silently; (0, 7) raised IndexError.
    for edges in ([(0, -1)], [(0, 7)], [(5, 0)]):
        with pytest.raises(DimensionError, match="outside 5 vertices"):
            sdpcore.lovasz_theta(5, edges)
    for n in (0, -1):
        with pytest.raises(DimensionError, match="at least one vertex"):
            sdpcore.lovasz_theta(n, [])


def test_lovasz_theta_even_cycles():
    for n in (4, 8, 10):
        edges = [(i, (i + 1) % n) for i in range(n)]
        assert sdpcore.lovasz_theta(n, edges) == pytest.approx(n / 2, abs=1e-6)


def test_export_sdpa_format():
    prob = sdpcore.lovasz_theta_problem(3, [(0, 1)])
    text = sdpcore.export_sdpa(prob)
    lines = text.strip().splitlines()
    assert lines[0] == "2"          # constraints
    assert lines[1] == "1"          # one block
    assert lines[2] == "3"          # block size
    rhs = [float(v) for v in lines[3].split()]
    assert rhs == [1.0, 0.0]
    # Entry lines: matno blkno i j value with 1-based upper triangle.
    for line in lines[4:]:
        parts = line.split()
        assert len(parts) == 5
        assert int(parts[2]) <= int(parts[3])
    # Objective (matno 0) carries the all-ones matrix: 6 upper entries.
    zero_lines = [l for l in lines[4:] if l.split()[0] == "0"]
    assert len(zero_lines) == 6


def test_export_sdpa_complex_problem():
    # A complex problem is written as one real block of size 2n whose
    # entries are those of the real embedding _embed.
    c = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0 - 1j], [1.0 + 1j, 0.0]])])
    prob = sdpcore.SDPProblem(c, stack, [1.0, 0.0])
    lines = sdpcore.export_sdpa(prob).strip().splitlines()
    assert lines[:3] == ["2", "1", "4"]
    got = np.zeros((3, 4, 4))
    for line in lines[4:]:
        mat_no, blk_no, i, j, v = line.split()
        assert blk_no == "1" and int(i) <= int(j)
        got[int(mat_no), int(i) - 1, int(j) - 1] = float(v)
    for k, mat in enumerate([c, *stack]):
        assert np.array_equal(got[k], np.triu(sdpcore._embed(mat)))
