"""Outside-in tracer for the package under test.

The tracer wraps public functions of the package's modules from outside,
so the program's source is never changed. A function is replaced at
every module binding that refers to it (``from .channels import is_tp``
makes copies in ``entropy`` and ``zeroerr``); a method is replaced on its
class. Spans (name, start, end, parent, request id, failed) are held in
memory and written out by the caller when the run ends. ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "qinfokit"


def _bytes_in_file(counters, args, kwargs, result):
    counters["serialize.bytes_in"] += os.path.getsize(args[0])


def _bytes_in_text(counters, args, kwargs, result):
    counters["serialize.bytes_in"] += len(args[0].encode("utf-8"))


def _bytes_out(counters, args, kwargs, result):
    counters["serialize.bytes_out"] += len(result.encode("utf-8"))


def _solve_outcome(counters, args, kwargs, result):
    counters["sdpcore.solve.iterations"] += result.iterations
    counters["sdpcore.solve.optimal"] += result.status == "optimal"


def _samples_drawn(counters, args, kwargs, result):
    counters["randkit.samples"] += len(result)


@dataclass(frozen=True)
class Layer:
    """A traced function, the end-to-end metric it should move and where,
    whether its failures are reported, and an optional counter hook."""

    name: str
    moves: str
    report_failed: bool = True
    count: object = None


LAYERS = (
    Layer("cli.run", "req_p50_ms on analyses (argparse, handler glue, emit)"),
    Layer("serialize.load_document", "wall_s, peak_rss_mb on qec-shor9",
          count=_bytes_in_file),
    Layer("serialize.error_list_from_doc", "wall_s, peak_rss_mb on qec-shor9"),
    Layer("serialize.matrix_from_doc", "wall_s, peak_rss_mb on qec-shor9"),
    Layer("serialize.code_from_doc", "wall_s, peak_rss_mb on qec-shor9"),
    Layer("serialize.state_from_doc", "req_p50_ms on analyses"),
    Layer("serialize.channel_from_doc", "req_p50_ms on analyses"),
    Layer("serialize.canonical_dumps", "req_p50_ms on analyses",
          count=_bytes_out),
    Layer("serialize.graph_from_edge_list", "control on theta, near zero",
          count=_bytes_in_text),
    Layer("qec.kl_check", "wall_s on qec-shor9"),
    Layer("qec.build_recovery", "wall_s on qec-shor9"),
    Layer("qec.noise_channel", "wall_s on qec-shor9"),
    Layer("qec.verify_recovery", "wall_s on qec-shor9"),
    Layer("zeroerr.graph_op_system", "wall_s, success_ratio on theta"),
    Layer("zeroerr.theta_tilde_problems", "wall_s, success_ratio on theta"),
    Layer("zeroerr.theta_tilde", "wall_s, success_ratio on theta"),
    Layer("sdpcore.solve", "wall_s, success_ratio on theta",
          count=_solve_outcome),
    Layer("randkit.MatrixDistribution.sample_batch", "wall_s on tailbound",
          count=_samples_drawn),
    Layer("randkit.haar_unitary_batch", "wall_s on tailbound"),
    Layer("randkit.tail_bound_experiment",
          "wall_s on tailbound (self time: means and PSD decisions)"),
    Layer("randkit.haar_unitary", "req_p50_ms on analyses"),
    Layer("randkit.sample_randomizing_family", "req_p50_ms on analyses"),
    Layer("randkit.epsilon_randomizing_deviation", "req_p50_ms on analyses"),
    Layer("entropy.von_neumann", "req_p90_ms on analyses"),
    Layer("entropy.cond_mutual_info", "req_p90_ms on analyses"),
    Layer("entropy.is_markov", "req_p90_ms on analyses"),
    Layer("entropy.markov_reconstruction", "req_p90_ms on analyses"),
    Layer("entropy.petz_map", "req_p90_ms on analyses"),
    Layer("channels.choi", "req_p50_ms on analyses"),
    Layer("channels.is_cp", "req_p50_ms on analyses"),
    Layer("channels.is_tp", "req_p50_ms on analyses"),
    Layer("channels.is_unital", "req_p50_ms on analyses"),
    Layer("channels.choi_rank", "req_p50_ms on analyses"),
    Layer("channels.Channel.__call__", "req_p50_ms on analyses",
          report_failed=False),
    Layer("states.schmidt_decompose", "req_p50_ms on analyses"),
    Layer("states.schmidt_rank", "req_p50_ms on analyses"),
    Layer("states.werner", "req_p50_ms on analyses", report_failed=False),
    Layer("states.werner_schmidt_number", "req_p50_ms on analyses"),
    # The kernels are shared: analyses, qec-shor9 verification and the
    # operator-system bases of theta all call them.
    Layer("matkit.herm_eig", "shared kernel", report_failed=False),
    Layer("matkit.matrix_function", "shared kernel", report_failed=False),
    Layer("matkit.partial_trace", "shared kernel", report_failed=False),
    Layer("matkit.norm", "shared kernel", report_failed=False),
    Layer("matkit.orthonormal_basis", "shared kernel", report_failed=False),
)

# Counters computed at the traced boundaries, with the metric they inform.
COUNTERS = {
    "serialize.bytes_in": "wall_s on qec-shor9 (bytes parsed)",
    "serialize.bytes_out": "req_p50_ms on analyses (bytes emitted)",
    "sdpcore.solve.iterations": "wall_s on theta (summed over returned solves)",
    "sdpcore.solve.useful_ratio": "wall_s, success_ratio on theta "
                                  "(optimal solves over solve attempts)",
    "randkit.samples": "wall_s on tailbound (matrices drawn)",
}


def moves() -> dict:
    """Per-layer metric name -> the end-to-end metric it should move."""
    out = dict(COUNTERS)
    for layer in LAYERS:
        for key in ("calls", "self_s", "failed"):
            out[f"{layer.name}.{key}"] = layer.moves
    out["trace.overhead_ratio"] = "traced wall_s / untraced wall_s - 1"
    return out


def per_layer_names() -> list:
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.self_s", "s", "lower"))
        if layer.report_failed:
            out.append((f"{layer.name}.failed", "count", "lower"))
    out += [
        ("serialize.bytes_in", "bytes", "lower"),
        ("serialize.bytes_out", "bytes", "lower"),
        ("sdpcore.solve.iterations", "count", "lower"),
        ("sdpcore.solve.useful_ratio", "ratio", "higher"),
        ("randkit.samples", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Span recorder that patches the package's functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request, failed]
        self.counters = defaultdict(float)
        self.request = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped so every call records a span under ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.request, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module_name, *path = layer.name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(layer.name, original, layer.count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer.name, original, layer.count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, counters) -> dict:
    """Per-function calls, self seconds and failures, plus the counters."""
    stats = {layer.name: {"calls": 0, "self_s": 0.0, "failed": 0}
             for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[0], {"calls": 0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["failed"] += int(span[5])
    out = {}
    for name, entry in stats.items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value
    for key in ("serialize.bytes_in", "serialize.bytes_out",
                "sdpcore.solve.iterations", "randkit.samples"):
        out[key] = counters.get(key, 0.0)
    attempts = stats["sdpcore.solve"]["calls"]
    out["sdpcore.solve.useful_ratio"] = (
        counters.get("sdpcore.solve.optimal", 0.0) / attempts if attempts else 0.0
    )
    return out
