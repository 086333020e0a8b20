"""Batch command-line front end.

Subcommands cover the main analyses: Schmidt data, channel structure,
code checking and recovery, Werner states, the theta SDP, strong
subadditivity, Petz recovery, correlation destruction, and tail-bound
experiments. Reports go to stdout (text, or canonical JSON under
``--json``); diagnostics go to stderr. Exit codes: 0 success, 1 analysis
failure with a machine-readable reason, 2 malformed input.

All randomness flows from the single ``--seed`` through a named-stream
splitter keyed by subcommand and purpose, so adding new experiments never
perturbs existing outputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys

import numpy as np

from . import channels as chan
from . import entropy, entwit, matkit, qec, randkit, serialize, states, zeroerr
from .errors import FormatError, ToolkitError


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible generator for (seed, stream name)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[4 * i:4 * i + 4], "little") for i in range(4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


def _emit(report: dict, args) -> None:
    if args.json:
        sys.stdout.write(serialize.canonical_dumps(report))
        return
    for key in sorted(report):
        value = report[key]
        if isinstance(value, float):
            sys.stdout.write(f"{key}: {value:.12g}\n")
        else:
            sys.stdout.write(f"{key}: {value}\n")


def _cmd_schmidt(args) -> dict:
    state = serialize.state_from_doc(serialize.load_document(args.state))
    if isinstance(state, states.State):
        vals, vecs = np.linalg.eigh(state.rho)
        if vals[-1] < 1.0 - 1e-9:
            raise ToolkitError("schmidt needs a pure state (rank-1 rho or vec)")
        state = states.PureState(state.dims, vecs[:, -1])
    form = states.schmidt_decompose(state, cut=args.cut)
    rank = states.schmidt_rank(state, cut=args.cut, tol=args.tol)
    p = form.coeffs ** 2
    p = p[p > 1e-15]
    return {
        "kind": "report",
        "analysis": "schmidt",
        "cut": args.cut,
        "coefficients": [float(c) for c in form.coeffs],
        "rank": rank,
        "entanglement_entropy_bits": float(-np.sum(p * np.log2(p))),
    }


def _cmd_channel_analyze(args) -> dict:
    ch = serialize.channel_from_doc(serialize.load_document(args.channel))
    return {
        "kind": "report",
        "analysis": "channel",
        "din": ch.din,
        "dout": ch.dout,
        "kraus_count": len(ch.kraus),
        "is_cp": chan.is_cp(ch),
        "is_tp": chan.is_tp(ch),
        "is_unital": chan.is_unital(ch),
        "choi_rank": chan.choi_rank(ch),
        "complementary_dout": len(ch.kraus),
    }


def _cmd_qec_check(args) -> dict:
    code = serialize.code_from_doc(serialize.load_document(args.code))
    errors, _ = serialize.error_list_from_doc(serialize.load_document(args.errors))
    report = qec.kl_check(code, errors, tol=args.tol)
    return {
        "kind": "report",
        "analysis": "qec-check",
        "passes": report.passes,
        "max_residual": float(report.max_residual),
        "error_count": len(errors),
        "alpha_trace": float(np.real(np.trace(report.alpha))),
    }


def _cmd_qec_recover(args) -> dict:
    code = serialize.code_from_doc(serialize.load_document(args.code))
    errors, probs = serialize.error_list_from_doc(
        serialize.load_document(args.errors))
    # Checked and imaged once for both calls below.
    errors = qec._ImagedErrors(code.isometry, errors)
    recovery = qec.build_recovery(code, errors)
    seed_rng = stream(args.seed, "qec-recover/logical-samples")
    check = qec.verify_recovery(
        recovery, errors, samples=args.verify,
        seed=int(seed_rng.integers(2 ** 31)), probs=probs,
    )
    return {
        "kind": "report",
        "analysis": "qec-recover",
        "recovery_kraus_count": recovery.kraus_count,
        "samples": args.verify,
        "max_deviation": float(check.max_deviation),
        "certified_deviation": float(check.certified_deviation),
        "recovered": bool(check.max_deviation <= max(args.tol, 1e-8)),
    }


def _cmd_werner(args) -> dict:
    rho = states.werner(args.d, args.f)
    psi0 = states.max_entangled(args.d).vec
    report = {
        "kind": "report",
        "analysis": "werner",
        "d": args.d,
        "f": args.f,
        "maxent_overlap": float(np.real(np.conj(psi0) @ rho.rho @ psi0)),
        "ppt": entwit.ppt_test(rho),
    }
    try:
        report["schmidt_number"] = states.werner_schmidt_number(args.d, args.f)
    except ToolkitError as exc:
        report["schmidt_number"] = None
        report["schmidt_number_note"] = str(exc)
    return report


def _cmd_theta(args) -> dict:
    if args.input.endswith(".json"):
        dim, spanning = serialize.system_from_doc(
            serialize.load_document(args.input))
        system = zeroerr.operator_system(dim, spanning)
        source = "system"
    else:
        graph = serialize.graph_from_edge_list(
            serialize.read_bytes(args.input).decode("utf-8"))
        system = zeroerr.graph_op_system(graph)
        source = "graph"
    result = zeroerr.theta_tilde(system, dc=args.dc)
    return {
        "kind": "report",
        "analysis": "theta",
        "source": source,
        "system_dim": system.dim,
        "system_size": len(system),
        "program": result.program,
        "theta": float(result.value),
        "primal": float(result.primal),
        "dual": float(result.dual),
        "gap": float(result.gap),
    }


def _cmd_ssa(args) -> dict:
    state = serialize.state_from_doc(serialize.load_document(args.state))
    if isinstance(state, states.PureState):
        state = state.to_state()
    report = entropy.cond_mutual_info(state)
    return {
        "kind": "report",
        "analysis": "ssa",
        "s_ab": report.s_ab,
        "s_bc": report.s_bc,
        "s_b": report.s_b,
        "s_abc": report.s_abc,
        "cmi": report.cmi,
        "markov": bool(entropy.is_markov(state, tol=max(args.tol, 1e-7))),
    }


def _cmd_petz(args) -> dict:
    state = serialize.state_from_doc(serialize.load_document(args.state))
    if isinstance(state, states.PureState):
        state = state.to_state()
    ch = serialize.channel_from_doc(serialize.load_document(args.channel))
    recovery = entropy.petz_map(state, ch)
    pushed = ch(state.rho)
    recovered = recovery(pushed)
    deviation = matkit.norm(recovered - state.rho, "trace")
    return {
        "kind": "report",
        "analysis": "petz",
        "kraus_count": len(recovery.kraus),
        "recovery_deviation": deviation,
        "exact": bool(deviation <= max(args.tol, 1e-8)),
    }


def _cmd_randomize(args) -> dict:
    state = serialize.state_from_doc(serialize.load_document(args.state))
    if isinstance(state, states.PureState):
        state = state.to_state()
    rng = stream(args.seed, f"randomize/{args.sampler}")
    fam, eps = randkit.sample_randomizing_family(
        state, args.n_unitaries, rng, sampler=args.sampler
    )
    return {
        "kind": "report",
        "analysis": "randomize",
        "sampler": args.sampler,
        "n_unitaries": len(fam),
        "achieved_epsilon": float(eps),
    }


def _cmd_tailbound(args) -> dict:
    if args.rank is not None and args.dist != "projector":
        raise FormatError(f"--rank applies only to --dist projector, not {args.dist}")
    if args.dist == "bernoulli":
        dist = randkit.MatrixDistribution.bernoulli_projector(args.d, args.mu)
    elif args.dist == "projector":
        rank = max(1, round(args.mu * args.d)) if args.rank is None else args.rank
        dist = randkit.MatrixDistribution.bernoulli_projector(args.d, args.mu, rank)
    else:  # psd, the last of the parser's --dist choices
        dist = randkit.MatrixDistribution.random_psd_bounded(args.d, args.mu)
    rng = stream(args.seed, f"tailbound/{args.dist}")
    report = randkit.tail_bound_experiment(dist, args.n, args.alpha,
                                           args.trials, rng)
    return {
        "kind": "report",
        "analysis": "tailbound",
        "seed": args.seed,
        "n": report["n"],
        "trials": report["trials"],
        "alpha": report["alpha"],
        "mu": report["mu"],
        "d": report["d"],
        "empirical": report["empirical_prob"],
        "bound": report["aw_bound"],
        "within_bound": bool(
            report["empirical_prob"]
            <= report["aw_bound"]
            + 3.0 * (min(report["aw_bound"], 1.0)
                     * max(1.0 - report["aw_bound"], 0.0)
                     / report["trials"]) ** 0.5
        ),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged, so in-process callers of ``run`` share it)."""
    parser = argparse.ArgumentParser(
        prog="qinfokit",
        description="Batch analyses for finite-dimensional quantum information",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for every stochastic subcommand")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="generic numerical tolerance")
    parser.add_argument("--json", action="store_true",
                        help="emit a canonical JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt data of a pure state")
    p.add_argument("state")
    p.add_argument("--cut", type=int, default=1)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("channel", help="channel analyses")
    chan_sub = p.add_subparsers(dest="channel_command", required=True)
    pa = chan_sub.add_parser("analyze", help="CP/TP/unital/Choi-rank report")
    pa.add_argument("channel")
    pa.set_defaults(func=_cmd_channel_analyze)

    p = sub.add_parser("qec", help="code checks and recovery")
    qec_sub = p.add_subparsers(dest="qec_command", required=True)
    pc = qec_sub.add_parser("check", help="correctability condition")
    pc.add_argument("code")
    pc.add_argument("errors")
    pc.set_defaults(func=_cmd_qec_check)
    pr = qec_sub.add_parser("recover", help="build and verify recovery")
    pr.add_argument("code")
    pr.add_argument("errors")
    pr.add_argument("--verify", type=int, default=50)
    pr.set_defaults(func=_cmd_qec_recover)

    p = sub.add_parser("werner", help="Werner state report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", type=float, required=True)
    p.set_defaults(func=_cmd_werner)

    p = sub.add_parser("theta", help="theta of a graph or operator system")
    p.add_argument("input", help="edge-list file or system.json")
    p.add_argument("--dc", type=int, default=None)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("ssa", help="tripartite entropy report")
    p.add_argument("state")
    p.set_defaults(func=_cmd_ssa)

    p = sub.add_parser("petz", help="Petz recovery of a state through a channel")
    p.add_argument("state")
    p.add_argument("channel")
    p.set_defaults(func=_cmd_petz)

    p = sub.add_parser("randomize", help="sample an epsilon-randomizing family")
    p.add_argument("state")
    p.add_argument("--n-unitaries", type=int, required=True)
    p.add_argument("--sampler", choices=("haar", "weyl"), default="haar")
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("tailbound", help="matrix tail-bound experiment")
    p.add_argument("--dist", choices=("bernoulli", "projector", "psd"),
                   required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--rank", type=int, default=None,
                   help="projector rank (default round(mu * d), at least 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_tailbound)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0.0 <= args.tol < np.inf:
            parser.error(f"argument --tol: must be finite and >= 0, got {args.tol}")
        if args.seed < 0:
            parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ToolkitError as exc:
        sys.stderr.write(serialize.canonical_dumps({
            "error": type(exc).__name__,
            "reason": str(exc),
        }))
        return 1
    _emit(report, args)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
