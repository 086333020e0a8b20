"""One benchmark worker process.

``--mode setup`` imports the package under test, writes the workload's
inputs for the seed into the work directory together with its request
list, and reports the moment it is ready to send the first request and
the time of the calibration loop it runs right after.

``--mode measure`` imports the package, reads the request list and runs
it as a closed loop with one client: each request is a call of
``qinfokit.cli.run(argv)`` issued after the previous one returned. Whole
passes over the list repeat while, at the mean pass time so far, one more
would end within ``--seconds`` (at least one pass), so a workload whose
pass takes about ``--seconds`` runs one pass, not two. Every request's
latency is kept per pass, and right after each pass the worker times a
fixed pure-Python loop (``calibrate``), which gauges how fast the shared
host runs at that moment. The peak RSS is the one after the first pass,
whatever the number of passes. Every answer is checked against its oracle
after its pass.
With ``--trace 1`` the public functions of the package are wrapped from
outside while measuring, and the spans are written to the work
directory when the run ends.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402


def blas_info() -> dict:
    """numpy and BLAS versions and the BLAS thread count actually in use."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({tok for tok in fh.read().split()
                       if "blas" in os.path.basename(tok) and ".so" in tok})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def run_request(cli, argv):
    """(exit code, stdout text, stderr text, seconds) of one CLI call. An
    exception escaping the CLI is reported as exit code -1 with its
    traceback, so the remaining requests still run and it counts as wrong."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception:  # noqa: BLE001 - boundary of the closed loop
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def judge(request, code: int, out: str, err: str) -> tuple:
    """(failed, wrong reason). A refusal (exit 1 with a machine-readable
    reason) is a failure; a wrong answer or any other exit is also wrong."""
    if code == 0:
        try:
            reason = oracles.check(request.kind, request.expect, json.loads(out))
        except json.JSONDecodeError as exc:
            reason = f"unparsable report: {exc}"
        return bool(reason), reason
    if code == 1:
        try:
            report = json.loads(err)
        except json.JSONDecodeError:
            report = {}
        if "error" in report and "reason" in report:
            return True, ""
    return True, f"exit {code}: {err.strip()[-300:]}"


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop (~45 ms on an idle 2-core
    x86-64 VM). It touches nothing of the package, so only the host's
    speed moves it."""
    start = time.perf_counter()
    counts = {}
    for i in range(300_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


def measure(workdir: str, seconds: float, traced: bool) -> dict:
    from qinfokit import cli

    requests = inputs.load_requests(os.path.join(workdir, "requests.json"))
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    latencies, calibration, wrong = [], [], []
    attempted = failed = 0
    peak_rss_mb = 0.0
    begin = time.perf_counter()
    try:
        while (not latencies or (time.perf_counter() - begin)
               * (len(latencies) + 1) / len(latencies) <= seconds):
            results = []
            for i, request in enumerate(requests):
                if tracer is not None:
                    tracer.request = attempted + i
                results.append(run_request(cli, request.argv))
            calibration.append(calibrate())
            latencies.append([r[3] * 1e3 for r in results])
            if len(latencies) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for request, (code, out, err, _) in zip(requests, results):
                bad, reason = judge(request, code, out, err)
                attempted += 1
                failed += bad
                if reason:
                    wrong.append(f"{request.kind} {request.argv}: {reason}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "latencies_ms": latencies,
        "calibration_s": calibration,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb,
        "machine": blas_info(),
    }
    if tracer is not None:
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["layers"] = spans.summarize(tracer.spans, tracer.counters)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        import qinfokit.cli  # noqa: F401  (the import is part of set-up)

        requests = inputs.generate(args.workload, args.seed, args.workdir)
        inputs.save_requests(os.path.join(args.workdir, "requests.json"), requests)
        ready = time.perf_counter()
        result = {"ready": ready, "requests": len(requests),
                  "calibration_s": calibrate()}
    else:
        result = measure(args.workdir, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
