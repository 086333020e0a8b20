"""Answer checks that do not depend on the package under test.

Each check takes the request's ``expect`` data and the parsed JSON report
and returns an empty string when the answer holds, else the reason it
does not. The references are exhaustive search, closed forms and
invariants that hold for every valid input:

* theta: theta(G) = alpha(G) on perfect graphs (every graph on at most
  four vertices, every bipartite graph) and n cos(pi/n) / (1 + cos(pi/n))
  on odd cycles; theta~(S_G) = theta(G) (Duan-Severini-Winter,
  arXiv:1002.2514). alpha is found by brute force on the graph as the
  edge-list format defines it (vertex count = 1 + largest label).
* qec recover: the Shor code corrects every one-qubit Pauli.
* tailbound: the Ahlswede-Winter bound d exp(-n D(alpha || mu)) holds up
  to three binomial standard deviations.
* analyses: CPTP channels, zero CMI on Markov-block states, exact Petz
  recovery for full-rank sigma, exact twirl by the full Weyl basis, the
  Werner Schmidt-number closed form and Schmidt normalization.
"""

from __future__ import annotations

import itertools
import math

THETA_TOL = 1e-5


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def parse_edge_list(text: str):
    """(vertex count, edge set) under the documented edge-list format:
    one 'u v' pair per line, '#' starts a comment, vertex count is one
    more than the largest label."""
    edges = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            u, v = (int(x) for x in line.split())
            edges.add((min(u, v), max(u, v)))
    n = 1 + max(max(e) for e in edges)
    return n, frozenset(edges)


def independence_number(n: int, edges) -> int:
    """Largest edge-free vertex subset, by trying every subset."""
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if not any(u in chosen and v in chosen for u, v in edges):
                return size
    return 0


def is_cycle(n: int, edges) -> bool:
    if len(edges) != n or n < 3:
        return False
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def is_bipartite(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = {}
    for start in range(n):
        if start in colour:
            continue
        colour[start] = 0
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    frontier.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def expected_theta(n: int, edges) -> float:
    """Lovasz theta of the graph from a closed form or from alpha."""
    if n % 2 == 1 and n >= 5 and is_cycle(n, edges):
        return odd_cycle_theta(n)
    if n <= 4 or is_bipartite(n, edges):
        return float(independence_number(n, edges))
    raise ValueError("no independent reference for this graph")


# ---------------------------------------------------------------------------
# Checks per request kind
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_qec_recover(expect, rep) -> str:
    if rep["samples"] != expect["samples"]:
        return f"samples {rep['samples']} != {expect['samples']}"
    if not rep["max_deviation"] <= expect["max_deviation"]:
        return f"max_deviation {rep['max_deviation']:.3e}"
    return ""


def check_theta(expect, rep) -> str:
    with open(expect["path"], "r", encoding="utf-8") as fh:
        n, edges = parse_edge_list(fh.read())
    want = expected_theta(n, edges)
    if rep["system_dim"] != n:
        return f"system_dim {rep['system_dim']} != {n}"
    if not _close(rep["theta"], want, THETA_TOL):
        return f"theta {rep['theta']!r} != {want!r}"
    return ""


def aw_bound(d: int, n: int, alpha: float, mu: float) -> float:
    div = 0.0
    if alpha > 0.0:
        div += alpha * math.log(alpha / mu)
    if alpha < 1.0:
        div += (1.0 - alpha) * math.log((1.0 - alpha) / (1.0 - mu))
    return d * math.exp(-n * div)


def check_tailbound(expect, rep) -> str:
    for key in ("d", "n", "trials", "alpha", "mu"):
        if rep[key] != expect[key]:
            return f"{key} {rep[key]!r} != {expect[key]!r}"
    bound = aw_bound(expect["d"], expect["n"], expect["alpha"], expect["mu"])
    if not _close(rep["bound"], bound, 1e-9):
        return f"bound {rep['bound']!r} != {bound!r}"
    b = min(bound, 1.0)
    slack = 3.0 * math.sqrt(b * (1.0 - b) / expect["trials"])
    if not 0.0 <= rep["empirical"] <= bound + slack:
        return f"empirical {rep['empirical']!r} above {bound!r} + 3 sigma"
    return ""


def check_channel(expect, rep) -> str:
    if not (rep["is_cp"] and rep["is_tp"]):
        return f"is_cp {rep['is_cp']} is_tp {rep['is_tp']} on a CPTP channel"
    if rep["kraus_count"] != expect["kraus_count"]:
        return f"kraus_count {rep['kraus_count']} != {expect['kraus_count']}"
    if not 1 <= rep["choi_rank"] <= rep["kraus_count"]:
        return f"choi_rank {rep['choi_rank']} > kraus_count {rep['kraus_count']}"
    return ""


def check_ssa(expect, rep) -> str:
    cmi = rep["cmi"]
    combo = rep["s_ab"] + rep["s_bc"] - rep["s_b"] - rep["s_abc"]
    if not _close(cmi, max(combo, 0.0), 1e-7):
        return f"cmi {cmi!r} != S(AB)+S(BC)-S(B)-S(ABC) = {combo!r}"
    if expect["markov"]:
        if not (rep["markov"] and 0.0 <= cmi <= 1e-8):
            return f"Markov-block state: markov {rep['markov']}, cmi {cmi!r}"
    elif cmi < 0.0 or rep["markov"]:
        return f"generic state: markov {rep['markov']}, cmi {cmi!r}"
    return ""


def check_petz(expect, rep) -> str:
    if rep["kraus_count"] != expect["kraus_count"]:
        return f"kraus_count {rep['kraus_count']} != {expect['kraus_count']}"
    if not (rep["exact"] and rep["recovery_deviation"] <= 1e-8):
        return f"full-rank sigma not recovered: {rep['recovery_deviation']!r}"
    return ""


def check_randomize(expect, rep) -> str:
    if rep["sampler"] != expect["sampler"] or rep["n_unitaries"] != expect["n_unitaries"]:
        return f"family {rep['sampler']}/{rep['n_unitaries']} != request"
    eps = rep["achieved_epsilon"]
    limit = 1e-9 if expect["exact"] else 2.0 + 1e-9
    if not 0.0 <= eps <= limit:
        return f"epsilon {eps!r} outside [0, {limit}]"
    return ""


def check_schmidt(expect, rep) -> str:
    coeffs = rep["coefficients"]
    if len(coeffs) != expect["terms"]:
        return f"{len(coeffs)} coefficients, expected {expect['terms']}"
    if any(a < b for a, b in zip(coeffs, coeffs[1:])) or coeffs[-1] < 0.0:
        return "coefficients not descending and non-negative"
    if abs(sum(c * c for c in coeffs) - 1.0) > 1e-9:
        return f"squared coefficients sum to {sum(c * c for c in coeffs)!r}"
    if rep["rank"] != expect["rank"]:
        return f"rank {rep['rank']} != {expect['rank']}"
    return ""


def check_werner(expect, rep) -> str:
    d, f = expect["d"], expect["f"]
    if abs(rep["maxent_overlap"] - f) > 1e-9:
        return f"overlap {rep['maxent_overlap']!r} != F {f!r}"
    if rep["ppt"] != (f <= 1.0 / d):
        return f"ppt {rep['ppt']} at F = {f!r}, d = {d}"
    k = max(1, min(d, math.ceil(f * d)))
    if rep["schmidt_number"] != k:
        return f"schmidt_number {rep['schmidt_number']} != {k}"
    return ""


CHECKS = {
    "qec-recover": check_qec_recover,
    "theta": check_theta,
    "tailbound": check_tailbound,
    "channel": check_channel,
    "ssa": check_ssa,
    "petz": check_petz,
    "randomize": check_randomize,
    "schmidt": check_schmidt,
    "werner": check_werner,
}


def check(kind: str, expect: dict, rep: dict) -> str:
    """Reason the answer is wrong, or '' when it holds."""
    try:
        return CHECKS[kind](expect, rep)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
