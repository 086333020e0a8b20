import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinfokit import sdpcore, zeroerr
from qinfokit.channels import Channel, classical_channel
from qinfokit.errors import (
    DimensionError,
    NotFeasibleWitness,
    NotStochastic,
    TooLarge,
)
from qinfokit.matkit import dagger
from qinfokit.randkit import haar_unitary


def pentagon_kernel() -> np.ndarray:
    # Input x goes to output x or x+1 (mod 5), each with probability 1/2.
    n = np.zeros((5, 5))
    for x in range(5):
        n[x, x] = 0.5
        n[(x + 1) % 5, x] = 0.5
    return n


def brute_force_independence(g: zeroerr.Graph) -> int:
    best = 0
    for r in range(g.vertices, 0, -1):
        for subset in itertools.combinations(range(g.vertices), r):
            chosen = set(subset)
            if all((min(u, v), max(u, v)) not in g.edges
                   for u, v in itertools.combinations(chosen, 2)):
                return r
    return best


# --- operator systems -----------------------------------------------------------

def test_op_system_from_unitary_channel():
    u = haar_unitary(3, np.random.default_rng(100))
    s = zeroerr.op_system_from_channel(Channel(3, 3, (u,)))
    assert len(s) == 1
    assert s.contains(np.eye(3))


def test_op_system_full_kraus_span():
    # Kraus spanning all of M_2 gives S = M_2.
    kraus = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1 / np.sqrt(2)
            kraus.append(e)
    s = zeroerr.op_system_from_channel(Channel(2, 2, tuple(kraus)))
    assert len(s) == 4


def test_op_system_classical_channel_span():
    # The span matches {|x><x'| : x = x' or x ~ x'} for the kernel's
    # confusability graph.
    ch = classical_channel(pentagon_kernel())
    s = zeroerr.op_system_from_channel(ch)
    g = zeroerr.confusability_graph(pentagon_kernel())
    want = zeroerr.graph_op_system(g)
    assert len(s) == len(want)
    for bmat in want.basis:
        assert s.contains(bmat)


def test_graph_op_system_dimensions():
    assert len(zeroerr.graph_op_system(zeroerr.empty_graph(4))) == 4
    assert len(zeroerr.graph_op_system(zeroerr.complete_graph(3))) == 9
    p3 = zeroerr.Graph(3, frozenset({(0, 1), (1, 2)}))
    s = zeroerr.graph_op_system(p3)
    assert len(s) == 7  # tridiagonal matrices


def unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


@pytest.mark.parametrize("g", [
    zeroerr.cycle_graph(5), zeroerr.complete_graph(4), zeroerr.empty_graph(3),
    zeroerr.Graph(4, frozenset({(0, 1), (0, 2), (1, 3)})),
], ids=["C5", "K4", "3K1", "P4"])
def test_graph_op_system_spans_graph_matrices(g):
    # The basis written directly spans what operator_system makes of the
    # E_ii and the E_uv, E_vu on edges: equal orthogonal projectors.
    n = g.vertices
    spanning = [unit(n, i, i) for i in range(n)]
    spanning += [unit(n, a, b) for u, v in g.edges for a, b in ((u, v), (v, u))]
    direct = zeroerr.graph_op_system(g)
    via_svd = zeroerr.operator_system(n, spanning)

    def projector(s):
        flat = np.stack(s.basis).reshape(len(s), -1)
        return flat.T @ flat.conj()

    assert len(direct) == len(via_svd) == n + 2 * len(g.edges)
    assert np.linalg.norm(projector(direct) - projector(via_svd)) <= 1e-10


def test_graph_op_system_size_guard():
    # K200's basis would be 40 000 complex 200 x 200 matrices, 25.6 GB; it
    # must be refused before anything that size exists.
    g = zeroerr.complete_graph(200)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="bytes of basis data"):
            zeroerr.graph_op_system(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with pytest.raises(DimensionError, match="at least one vertex"):
        zeroerr.graph_op_system(zeroerr.empty_graph(0))


def spanning_lists() -> dict:
    kraus = haar_unitary(4, np.random.default_rng(102))[:, :2]
    return {
        "C I": [2.0 * np.eye(2)],
        "P3": [unit(3, i, i) for i in range(3)]
              + [unit(3, 0, 1), unit(3, 1, 0), unit(3, 1, 2), unit(3, 2, 1)],
        "channel": [dagger(a) @ b for a in (kraus[:2], kraus[2:])
                    for b in (kraus[:2], kraus[2:])],
    }


@pytest.mark.parametrize("name", sorted(spanning_lists()))
def test_operator_system_basis_layout(name):
    # basis[0] = I/sqrt(n), then traceless Hermitian elements, all
    # HS-orthonormal, spanning the same space as the spanning list.
    spanning = spanning_lists()[name]
    s = zeroerr.operator_system(len(spanning[0]), spanning)
    n = s.dim
    assert np.linalg.norm(s.basis[0] - np.eye(n) / math.sqrt(n)) <= 1e-10
    flat = np.stack(s.basis).reshape(len(s), -1)
    assert np.linalg.norm(flat.conj() @ flat.T - np.eye(len(s))) <= 1e-10
    for bmat in s.basis:
        assert np.linalg.norm(bmat - dagger(bmat)) <= 1e-10
    for bmat in s.basis[1:]:
        assert abs(np.trace(bmat)) <= 1e-10
    flat = np.stack(spanning).reshape(len(spanning), -1)
    assert len(s) == np.linalg.matrix_rank(flat)
    assert all(s.contains(x) for x in spanning)


@pytest.mark.parametrize("name", sorted(spanning_lists()))
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_operator_system_scale_free(name, scale):
    spanning = spanning_lists()[name]
    n = len(spanning[0])
    s = zeroerr.operator_system(n, spanning)
    scaled = zeroerr.operator_system(n, [scale * x for x in spanning])
    assert len(scaled) == len(s)
    assert zeroerr.theta_tilde(scaled).value == pytest.approx(
        zeroerr.theta_tilde(s).value, rel=1e-9)


@pytest.mark.parametrize("dim, spanning, message", [
    (2, [unit(2, 0, 0)], "operator system must contain the identity"),
    (2, [np.zeros((2, 2))], "operator system must contain the identity"),
    (2, [np.eye(2), unit(2, 0, 1)], "operator system must be self-adjoint"),
    (2, [np.eye(3)], r"spanning matrix \(3, 3\) != \(2,2\)"),
    (2, [], "at least one spanning matrix"),
    (0, [np.zeros((0, 0))], "need dim >= 1"),
    (2, [np.eye(2), np.eye(3)], r"spanning matrix \(3, 3\) != \(2,2\)"),
    (2, [np.eye(2), np.diag([np.nan, 1.0])], "matrix has non-finite entries"),
])
def test_operator_system_rejections(dim, spanning, message):
    with pytest.raises(DimensionError, match=message):
        zeroerr.operator_system(dim, spanning)


@pytest.mark.parametrize("basis, message", [
    ((), r"basis\[0\] must be I/sqrt\(dim\)"),
    (np.zeros((0, 2, 2)), r"basis\[0\] must be I/sqrt\(dim\)"),
    ((np.eye(2) / math.sqrt(2), np.eye(3)), r"basis element \(3, 3\) != \(2,2\)"),
    (np.zeros((1, 3, 3)), r"basis element \(3, 3\) != \(2,2\)"),
    ((np.eye(2) / math.sqrt(2), np.diag([np.inf, 0.0])),
     "matrix has non-finite entries"),
])
def test_operator_system_basis_rejections(basis, message):
    with pytest.raises(DimensionError, match=message):
        zeroerr.OperatorSystem(2, basis)


def test_operator_system_holds_one_basis_stack():
    s = zeroerr.graph_op_system(zeroerr.cycle_graph(5))
    assert isinstance(s.basis, np.ndarray) and s.basis.shape == (15, 5, 5)
    assert zeroerr.OperatorSystem(5, s.basis).basis is s.basis


def test_operator_system_rejects_non_hermitian_basis():
    # The same space as span{I, E_01, E_10}, in a non-Hermitian basis.
    basis = (np.eye(2) / math.sqrt(2), unit(2, 0, 1), unit(2, 1, 0))
    with pytest.raises(DimensionError, match="must be Hermitian"):
        zeroerr.OperatorSystem(2, basis)


# --- confusability ---------------------------------------------------------------

def test_confusability_identity_and_uniform():
    assert zeroerr.confusability_graph(np.eye(4)).edges == frozenset()
    uniform = np.full((3, 3), 1.0 / 3.0)
    g = zeroerr.confusability_graph(uniform)
    assert g.edges == zeroerr.complete_graph(3).edges


def test_confusability_pentagon():
    g = zeroerr.confusability_graph(pentagon_kernel())
    assert g.edges == zeroerr.cycle_graph(5).edges


def test_confusability_rejects_nonstochastic():
    with pytest.raises(NotStochastic):
        zeroerr.confusability_graph(np.array([[0.5], [0.4]]))


# --- independence numbers ----------------------------------------------------------

def test_independence_empty_and_complete():
    assert zeroerr.graph_independence(zeroerr.empty_graph(6)) == 6
    assert zeroerr.graph_independence(zeroerr.complete_graph(6)) == 1


def test_independence_c5_brute_force_oracle():
    g = zeroerr.cycle_graph(5)
    assert zeroerr.graph_independence(g) == brute_force_independence(g) == 2


def test_independence_random_graphs_match_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(5):
        n = 8
        edges = {
            (i, j)
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        g = zeroerr.Graph(n, frozenset(edges))
        assert zeroerr.graph_independence(g) == brute_force_independence(g)


def test_independence_cap():
    with pytest.raises(TooLarge):
        zeroerr.graph_independence(zeroerr.empty_graph(31))


def test_verify_independent_states():
    g = zeroerr.cycle_graph(5)
    s = zeroerr.graph_op_system(g)
    # {0, 2} is an independent set; vertex basis states witness it.
    e = np.eye(5)
    assert zeroerr.verify_independent_states(s, [e[:, 0]])
    assert zeroerr.verify_independent_states(s, [e[:, 0], e[:, 2]])
    assert not zeroerr.verify_independent_states(s, [e[:, 0], e[:, 1]])
    # Against S = M_n only a single state passes.
    full = zeroerr.graph_op_system(zeroerr.complete_graph(2))
    v = np.eye(2)
    assert zeroerr.verify_independent_states(full, [v[:, 0]])
    assert not zeroerr.verify_independent_states(full, [v[:, 0], v[:, 1]])


def test_alpha_of_graph_system_matches_graph():
    g = zeroerr.cycle_graph(5)
    s = zeroerr.graph_op_system(g)
    alpha = zeroerr.graph_independence(g)
    # Brute-force independent set realizes alpha(S) = alpha(G) through
    # vertex-basis witness states.
    best = None
    for subset in itertools.combinations(range(5), alpha):
        vecs = [np.eye(5)[:, i] for i in subset]
        if zeroerr.verify_independent_states(s, vecs):
            best = subset
            break
    assert best is not None


# --- theta ---------------------------------------------------------------------------

def assert_encloses(r: zeroerr.ThetaResult, truth: float):
    # The value enclosure [primal, dual] holds the exact value, is tight,
    # and its upper end is the reported value.
    assert r.primal <= truth <= r.dual == r.value
    assert r.gap == r.dual - r.primal <= 1e-6 * (1 + abs(r.value))


def test_theta_full_matrix_algebra():
    for n in (2, 3):
        s = zeroerr.graph_op_system(zeroerr.complete_graph(n))
        assert_encloses(zeroerr.theta_tilde(s), 1.0)


def test_theta_identity_system_dense_coding():
    # span{I} is not a graph system for n >= 2: it keeps the full program.
    for n in (2, 3):
        s = zeroerr.operator_system(n, [np.eye(n)])
        r = zeroerr.theta_tilde(s)
        assert r.program == "full"
        assert_encloses(r, float(n * n))


def test_theta_c5_matches_classical_lovasz():
    # The full (n dc)^2 program against the classical n x n one.
    s = zeroerr.graph_op_system(zeroerr.cycle_graph(5))
    lower, upper = sdpcore.certified_enclosure(zeroerr.theta_tilde_problems(s))
    classical = sdpcore.lovasz_theta(5, [(i, (i + 1) % 5) for i in range(5)])
    assert upper == pytest.approx(classical, abs=1e-6)
    assert lower <= math.sqrt(5.0) <= upper


def test_theta_c6_is_alpha():
    # C6 is bipartite, hence perfect: theta = alpha = 3.
    r = zeroerr.theta_tilde(zeroerr.graph_op_system(zeroerr.cycle_graph(6)))
    assert_encloses(r, 3.0)


def test_theta_tilde_solves_once(monkeypatch):
    calls = []
    real_solve = sdpcore.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(sdpcore, "solve", counting_solve)
    zeroerr.theta_tilde(zeroerr.graph_op_system(zeroerr.cycle_graph(5)))
    assert len(calls) == 1


@functools.cache
def c5_theta_solution():
    prob = zeroerr.theta_tilde_problems(
        zeroerr.graph_op_system(zeroerr.cycle_graph(5)))
    return prob, sdpcore.solve(prob, tol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-10, 1e-7, 1e-4, 1e-2, 1.0]))
def test_enclosure_bounds_hold_off_the_optimum(seed, scale):
    # Whatever the iterates, the upper end is a dual bound and the lower
    # end the value of a feasible point: perturb y and X and both must
    # still bracket theta~(S_C5) = sqrt 5.
    prob, sol = c5_theta_solution()
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 25, 25))
    noise = scale * (g[0] + 1j * g[1]) / 25
    moved = dataclasses.replace(
        sol, y=sol.y + scale * rng.standard_normal(prob.m),
        x=sol.x + noise + noise.conj().T)
    lower, upper = sdpcore.value_enclosure(prob, moved)
    assert lower <= math.sqrt(5.0) + 1e-12
    assert upper >= math.sqrt(5.0) - 1e-12


def test_theta_monotone_under_inclusion():
    diag3 = zeroerr.graph_op_system(zeroerr.empty_graph(3))
    p3 = zeroerr.graph_op_system(zeroerr.Graph(3, frozenset({(0, 1), (1, 2)})))
    full = zeroerr.graph_op_system(zeroerr.complete_graph(3))
    t_diag = zeroerr.theta_tilde(diag3).value
    t_p3 = zeroerr.theta_tilde(p3).value
    t_full = zeroerr.theta_tilde(full).value
    assert t_diag >= t_p3 - 1e-4
    assert t_p3 >= t_full - 1e-4
    assert t_diag == pytest.approx(3.0, abs=1e-3)
    assert t_p3 == pytest.approx(2.0, abs=1e-3)


def test_theta_multiplicative_on_tensor():
    s2 = zeroerr.graph_op_system(zeroerr.empty_graph(2))
    prod_basis = [
        np.kron(a, b) for a in s2.basis for b in s2.basis
    ]
    s22 = zeroerr.operator_system(4, prod_basis)
    t = zeroerr.theta_tilde(s22).value
    t2 = zeroerr.theta_tilde(s2).value
    assert t >= t2 ** 2 - 1e-4
    assert t == pytest.approx(t2 ** 2, abs=1e-3)


def test_theta_dc_override():
    s = zeroerr.operator_system(2, [np.eye(2)])
    r = zeroerr.theta_tilde(s, dc=3)
    # dc larger than n changes nothing: dc = n already reaches the sup.
    assert_encloses(r, 4.0)
    # A graph system with dc != n keeps the full program.
    r = zeroerr.theta_tilde(zeroerr.graph_op_system(zeroerr.cycle_graph(4)), dc=3)
    assert r.program == "full"
    assert_encloses(r, 2.0)


@pytest.mark.parametrize("dc", [0, -1])
def test_theta_rejects_dc_below_one(dc, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a program")

    monkeypatch.setattr(zeroerr, "theta_tilde_problems", no_build)
    monkeypatch.setattr(sdpcore, "lovasz_theta_problem", no_build)
    for g in (zeroerr.empty_graph(1), zeroerr.cycle_graph(3)):
        with pytest.raises(DimensionError, match="dc must be >= 1"):
            zeroerr.theta_tilde(zeroerr.graph_op_system(g), dc=dc)


def test_theta_full_program_size_guard():
    # A random channel on C^10 with nine Kraus operators spans an
    # 81-dimensional system that is no graph system: the full program
    # would need (1 + 80 * 100) * 100^2 complex entries, about 1.3 GB. It
    # must be refused before anything that size exists.
    iso = haar_unitary(90, np.random.default_rng(103))[:, :10]
    ch = Channel(10, 10, tuple(iso[10 * i:10 * i + 10] for i in range(9)))
    s = zeroerr.op_system_from_channel(ch)
    assert len(s) == 81
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="bytes of constraint data"):
            zeroerr.theta_tilde(s)
        with pytest.raises(TooLarge):
            zeroerr.theta_tilde_problems(s, dc=10)
        # For S = C I the stack is small, but the M_dc basis of dc = 100
        # alone would take 1.6 GB.
        with pytest.raises(TooLarge):
            zeroerr.theta_tilde(zeroerr.operator_system(2, [np.eye(2)]), dc=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # The same system with a smaller dc is still built.
    assert zeroerr.theta_tilde_problems(s, dc=2).m == 1 + 80 * 4


def test_weak_duality_inside_theta_solve():
    s = zeroerr.graph_op_system(zeroerr.empty_graph(3))
    sol = sdpcore.solve(zeroerr.theta_tilde_problems(s), tol=1e-8)
    for rec in sol.history:
        if rec["pinf"] <= 1e-9 and rec["dinf"] <= 1e-9:
            assert rec["primal"] <= rec["dual"] + 1e-8


# The ten non-empty 4-vertex graphs up to isomorphism, one labelling each.
FOUR_VERTEX_GRAPHS = {
    "K2+2K1": [(0, 3)],
    "2K2": [(0, 1), (2, 3)],
    "P3+K1": [(0, 1), (0, 3)],
    "P4": [(0, 1), (0, 2), (1, 3)],
    "K13": [(0, 1), (0, 2), (0, 3)],
    "K3+K1": [(0, 1), (0, 3), (1, 3)],
    "C4": [(0, 1), (0, 2), (1, 3), (2, 3)],
    "paw": [(0, 1), (0, 2), (0, 3), (1, 2)],
    "diamond": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


def all_labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield [p for b, p in enumerate(pairs) if mask >> b & 1]


def assert_same_value(r: zeroerr.ThetaResult, lower: float, upper: float):
    # Two enclosures of one optimum overlap.
    assert r.primal <= upper and lower <= r.dual


def test_theta_graph_program_matches_full_on_every_4_vertex_graph():
    graphs = list(all_labelled_graphs(4))
    assert len(graphs) == 64
    for edges in graphs:
        s = zeroerr.graph_op_system(zeroerr.Graph(4, frozenset(edges)))
        r = zeroerr.theta_tilde(s)
        assert r.program == "graph"
        assert_same_value(
            r, *sdpcore.certified_enclosure(zeroerr.theta_tilde_problems(s)))


@pytest.mark.parametrize("n, edges", [
    (5, [(i, (i + 1) % 5) for i in range(5)]),
    (4, FOUR_VERTEX_GRAPHS["P4"]),
])
def test_theta_rotated_graph_system_takes_full_program(n, edges):
    # theta~ is unitarily invariant, but U S_G U^dag is no graph system.
    s = zeroerr.graph_op_system(zeroerr.Graph(n, frozenset(edges)))
    u = haar_unitary(n, np.random.default_rng(104))
    rotated = zeroerr.operator_system(n, [u @ b @ dagger(u) for b in s.basis])
    r_graph, r_full = zeroerr.theta_tilde(s), zeroerr.theta_tilde(rotated)
    assert (r_graph.program, r_full.program) == ("graph", "full")
    assert_same_value(r_full, r_graph.primal, r_graph.dual)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 13])
def test_theta_cycles_closed_form(n):
    # theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd n, n/2 for even n.
    c = math.cos(math.pi / n)
    r = zeroerr.theta_tilde(zeroerr.graph_op_system(zeroerr.cycle_graph(n)))
    assert r.program == "graph"
    assert_encloses(r, n * c / (1 + c) if n % 2 else n / 2)


@pytest.mark.parametrize("name", sorted(FOUR_VERTEX_GRAPHS))
def test_theta_four_vertex_graphs_equal_alpha(name):
    # theta~(S_G) = theta(G) (Duan-Severini-Winter), and theta = alpha on
    # perfect graphs, which every 4-vertex graph is.
    g = zeroerr.Graph(4, frozenset(FOUR_VERTEX_GRAPHS[name]))
    r = zeroerr.theta_tilde(zeroerr.graph_op_system(g))
    assert_encloses(r, float(brute_force_independence(g)))


# --- witness evaluation -----------------------------------------------------------

def test_witness_zero_gives_one():
    s = zeroerr.graph_op_system(zeroerr.complete_graph(3))
    assert zeroerr.theta_lower_from_witness(s, np.zeros((3, 3))) == pytest.approx(1.0)


def test_witness_identity_system():
    n = 4
    s = zeroerr.operator_system(n, [np.eye(n)])
    m = np.diag([n - 1.0] + [-1.0] * (n - 1))
    assert zeroerr.theta_lower_from_witness(s, m) == pytest.approx(float(n))


def test_witness_consistency_with_theta():
    g = zeroerr.cycle_graph(5)
    s = zeroerr.graph_op_system(g)
    # Feasible witness supported on a non-edge pair.
    m = np.zeros((5, 5))
    m[0, 2] = m[2, 0] = 1.0
    val = zeroerr.theta_lower_from_witness(s, m)
    theta = zeroerr.theta_tilde(s).value
    assert val <= theta + 1e-6


def test_witness_rejects_infeasible():
    s = zeroerr.operator_system(2, [np.eye(2)])
    with pytest.raises(NotFeasibleWitness):
        zeroerr.theta_lower_from_witness(s, np.eye(2))  # not orthogonal
    with pytest.raises(NotFeasibleWitness):
        zeroerr.theta_lower_from_witness(s, np.diag([1.0, -3.0]))  # I+M not PSD


def test_theta_problem_shares_kron_stack(monkeypatch):
    # The kron stack is written in place and becomes the problem's
    # constraint stack without a copy.
    filled = []
    real_einsum = np.einsum

    def recording_einsum(*args, **kwargs):
        if kwargs.get("out") is not None:
            filled.append(kwargs["out"])
        return real_einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording_einsum)
    prob = zeroerr.theta_tilde_problems(
        zeroerr.graph_op_system(zeroerr.cycle_graph(5)))
    monkeypatch.undo()
    stack = prob.constraints
    assert filled and all(np.shares_memory(stack, buf) for buf in filled)
    assert np.array_equal(stack[0], np.eye(25)) and stack.dtype == complex
