"""lpopa benchmark: time the CLI requests users make, check every answer.

    python3 perfbench/run.py --workload sweep_large_n --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory; the lpopa source tree is ``src/`` next to this
directory.  Each run starts fresh worker processes (worker.py) and drives
them as a closed loop: one client sends a request, waits for the reply, and
sends the next.  ``--trace 0`` reports the end-to-end metrics from untraced
workers; ``--trace 1`` reports the per-layer metrics, running every pass
once untraced and once traced to measure the tracer's overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
times as measured before scaling, the calibration kernel's times, per-request
latencies, pass times, failures, machine facts) go to
``.perfbench_out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

import common

common.pin_threads()

import check  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SPAWNS = 5           # fresh workers per run; setup_s is their median
IMPORT_RUNS = 3            # -X importtime runs; the import metrics are medians
TAIL_SHARE = 0.1           # op_tail_ms: mean of this slowest share of a block
CALIBRATE_EVERY_S = 0.25   # time the worker's calibration kernel this often
# The time metrics are scaled to a host that runs the calibration kernel in
# this time, about its median in the worker on the 2-core x86_64 VM the
# benchmark was defined on.  Keep it fixed: it sets the scale of every time.
REFERENCE_KERNEL_S = 0.0058
REPLY_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics: counts and self times are per request of the traced
# passes, iterations per call, *_frac shares of calls, ops.* whole requests.
PER_LAYER = {
    "import.numpy_ms": "ms", "import.scipy_linalg_ms": "ms",
    "import.scipy_optimize_ms": "ms", "import.lpopa_ms": "ms",
    "cli.main.calls": "calls/req", "cli.self_ms": "ms/req",
    "rates.run_sweep.self_ms": "ms/req", "rates.dispatch.self_ms": "ms/req",
    "rates.lower_bound.calls": "calls/req", "rates.lower_bound.self_ms": "ms/req",
    "rates.fit_rates.self_ms": "ms/req",
    "opa.solve_hilbert.calls": "calls/req", "opa.solve_hilbert.self_ms": "ms/req",
    "opa.solve_hilbert.raised": "calls/req", "opa.solve_hilbert.seed_calls": "calls/req",
    "opa.closed_form_one_minus_zd.calls": "calls/req",
    "opa.closed_form_one_minus_zd.self_ms": "ms/req",
    "scipy.cholesky_banded.self_ms": "ms/req",
    "opa.solve_convex.calls": "calls/req", "opa.solve_convex.self_ms": "ms/req",
    "opa.solve_convex.iterations": "iter/call", "opa.solve_convex.unconverged": "calls/req",
    "opa.solve_convex.budget_hit_frac": "share", "scipy.minimize.self_ms": "ms/req",
    "opa.solve_flat.calls": "calls/req", "opa.solve_flat.self_ms": "ms/req",
    "opa.solve_flat.iterations": "iter/call", "opa.solve_flat.unconverged": "calls/req",
    "opa.solve_flat.budget_hit_frac": "share",
    "opa.solve_structural.calls": "calls/req", "opa.solve_structural.self_ms": "ms/req",
    "opa.solve_structural.iterations": "iter/call",
    "opa.solve_structural.unconverged": "calls/req",
    "opa.solve_structural.fallback_frac": "share",
    "opa.bj_certificate.self_ms": "ms/req",
    "space.norm.calls": "calls/req", "space.norm.self_ms": "ms/req",
    "space.multiplication_bound_check.self_ms": "ms/req",
    "poly.Poly.mul.calls": "calls/req", "poly.Poly.mul.self_ms": "ms/req",
    "poly.signed_powers.calls": "calls/req", "poly.signed_powers.self_ms": "ms/req",
    "poly.exact_div.self_ms": "ms/req", "poly.expand.self_ms": "ms/req",
    "weights.values_up_to.calls": "calls/req", "weights.values_up_to.self_ms": "ms/req",
    "verification.run_verification.self_ms": "ms/req",
    "ops.raised": "count", "ops.unconverged": "count", "ops.wrong": "count",
    "trace.overhead_frac": "share",
}


class WorkerError(RuntimeError):
    """The worker process ended without answering."""


class Worker:
    """A fresh worker process; ``started`` is taken just before the spawn."""

    def __init__(self, log):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER], cwd=common.ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=log, text=True, bufsize=1)

    def ask(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait(REPLY_TIMEOUT_S)}")
        return json.loads(line)

    def finish(self, spans_path: str | None = None, traced_requests: int = 0) -> dict:
        reply = self.ask({"finish": spans_path, "traced_requests": traced_requests})
        self.close()
        return reply

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        try:
            self.proc.wait(REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    """Requests sent, their replies and latencies, and the whole passes."""

    def __init__(self):
        self.records = []          # (request, reply, seconds, traced)
        self.passes = []           # seconds of each whole untraced pass
        self.pairs = []            # (untraced, traced) seconds of one pass list
        self.kernel_times = []     # seconds of each calibration kernel run
        self.next_id = 0

    def send(self, worker: Worker, req, traced: bool = False) -> None:
        t0 = time.perf_counter()
        reply = worker.ask({"id": self.next_id, "argv": list(req.argv)})
        self.records.append((req, reply, time.perf_counter() - t0, traced))
        self.next_id += 1

    def timed_passes(self, worker: Worker, stream, seconds: float,
                     paired_trace: bool = False) -> None:
        """Send whole passes until ``seconds`` have elapsed.

        With ``paired_trace`` each pass is sent twice, untraced then traced.
        A pass cut by the deadline keeps its requests but is not a whole pass.
        """
        deadline = time.perf_counter() + seconds
        calibrated = -math.inf
        while time.perf_counter() < deadline:
            reqs = stream.next_pass()
            times = {}
            for traced in ((False, True) if paired_trace else (False,)):
                if paired_trace:
                    worker.ask({"trace": traced})
                elapsed = 0.0
                for req in reqs:
                    if time.perf_counter() >= deadline:
                        break
                    if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                        self.kernel_times.append(worker.ask({"calibrate": True})["calibrate"])
                        calibrated = time.perf_counter()
                    self.send(worker, req, traced)
                    elapsed += self.records[-1][2]
                else:
                    times[traced] = elapsed
            if False in times:
                self.passes.append(times[False])
            if len(times) == 2:
                self.pairs.append((times[False], times[True]))
        if paired_trace:
            worker.ask({"trace": False})


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the largest ``share`` of ``values``, at least one of them."""
    xs = sorted(values, reverse=True)
    return statistics.fmean(xs[:max(math.ceil(share * len(xs)), 1)])


def import_breakdown() -> dict[str, float]:
    """``-X importtime`` of ``import lpopa.cli`` in fresh interpreters (medians).

    Third-party packages report the cumulative time of the line where they
    were first imported (the sum of the self times of their subtree);
    ``import.lpopa_ms`` sums the self times of lpopa's own modules.
    """
    env = dict(os.environ, PYTHONPATH=common.SRC)
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lpopa.cli"],
                              cwd=common.ROOT, env=env, capture_output=True, text=True,
                              timeout=REPLY_TIMEOUT_S, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    cumulative, lpopa_us = {}, 0
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        cumulative.setdefault(name, cum_us)
        if name.split(".")[0] == "lpopa":
            lpopa_us += self_us
    return {"import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
            "import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0) / 1e3,
            "import.scipy_optimize_ms": cumulative.get("scipy.optimize", 0) / 1e3,
            "import.lpopa_ms": lpopa_us / 1e3}


def _drive(stream, seconds: float, trace: bool, log) -> tuple[Run, list[float], dict]:
    """Start the workers, time their first requests, run the passes.

    Returns the run, the set-up times and the measured worker's final report.
    """
    run = Run()
    setup_times = []
    spawns = 1 if trace else SETUP_SPAWNS
    for i in range(spawns):
        worker = Worker(log)
        try:
            run.send(worker, stream.setup_request())
            setup_times.append(time.perf_counter() - worker.started)
            if i < spawns - 1:
                worker.finish()
                continue
            run.timed_passes(worker, stream, seconds, paired_trace=trace)
            traced = sum(1 for r in run.records if r[3])
            spans = os.path.join(common.OUT_DIR, _stem(stream, trace) + ".spans.jsonl")
            final = worker.finish(spans if trace else None, traced)
        except BaseException:
            worker.proc.kill()
            worker.close()
            raise
    return run, setup_times, final


def _end_to_end(run: Run, stream, setup_times: list[float], final: dict) -> tuple[dict, dict]:
    """End-to-end metric values and the details behind them.

    The host's speed shifts for seconds at a time within a run, so each
    request's latency is the median of its repetitions in the run, which
    fall in different blocks.  The time metrics are figures of one block of
    the workload's requests at those latencies, so they do not depend on
    the seed's request order.  The host's speed also drifts by a third and
    more over minutes, so every time is scaled by the reference kernel time
    over the median time of the kernel runs interleaved with the requests.
    """
    by_request = _by_request(run.records[len(setup_times):])
    block = [" ".join(r.argv) for r in stream.block_requests()]
    missing = [k for k in block if k not in by_request]
    if missing:
        raise SystemExit(f"perfbench: --seconds too short; {len(missing)} requests of a "
                         f"block never ran, first: lpopa {missing[0]}")
    median_ms = {k: statistics.median(v) for k, v in by_request.items()}
    block_ms = [median_ms[k] for k in block]
    tail_ms = tail_mean(block_ms, TAIL_SHARE)
    measured = {"setup_s": statistics.median(setup_times),
                "wall_s": sum(block_ms) / 1e3 / stream.block,
                "op_p50_ms": statistics.median(block_ms), "op_tail_ms": tail_ms}
    kernel_s = statistics.median(run.kernel_times)
    values = {k: v * REFERENCE_KERNEL_S / kernel_s for k, v in measured.items()}
    values["peak_rss_mb"] = final["peak_rss_mb"]
    details = {"measured": measured,
               "kernel": {"median_s": kernel_s, "runs": len(run.kernel_times),
                          "times_s": run.kernel_times},
               "passes_per_block": stream.block, "block_requests": len(block_ms),
               "tail": {"share": TAIL_SHARE,
                        "requests": max(math.ceil(TAIL_SHARE * len(block_ms)), 1)},
               "repetitions": {"min": min(len(v) for v in by_request.values()),
                               "max": max(len(v) for v in by_request.values())},
               "pass_times_s": run.passes,
               "median_ms_by_request": median_ms,
               "latency_ms_by_request": by_request}
    return values, details


def _per_layer(run: Run, final: dict, failures: Counter) -> dict:
    values = dict(final["layers"])
    values.update(import_breakdown())
    for cls in ("raised", "unconverged", "wrong"):
        values[f"ops.{cls}"] = failures[cls]
    values["trace.overhead_frac"] = (
        sum(t for _, t in run.pairs) / sum(t for t, _ in run.pairs) - 1.0
        if run.pairs else 0.0)
    return values


def _stem(stream, trace: bool) -> str:
    return f"{stream.workload}-seed{stream.seed}-trace{int(trace)}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line and the details."""
    stream = workloads.RequestStream(workload, seed)
    references = check.load_references()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    stem = os.path.join(common.OUT_DIR, _stem(stream, trace))
    with open(stem + ".worker.log", "w", encoding="utf-8") as log:
        run, setup_times, final = _drive(stream, seconds, trace, log)

    failures = Counter()
    failed_requests = []
    for req, reply, _, _ in run.records:
        failure = check.check_reply(req, reply["code"], reply["stdout"], reply["stderr"],
                                    references)
        if failure:
            failures[failure[0]] += 1
            failed_requests.append({"argv": list(req.argv), "class": failure[0],
                                    "detail": failure[1]})
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "setup_times_s": setup_times, "failures": dict(failures),
               "failed_requests": failed_requests[:20],
               "wrappers_left": final["wrappers"], "facts": final["facts"]}
    if trace:
        values, units = _per_layer(run, final, failures), PER_LAYER
        details["traced_pairs"] = len(run.pairs)
    else:
        (values, more), units = _end_to_end(run, stream, setup_times, final), END_TO_END
        details.update(more)
    failed = sum(failures.values())
    result = {"correct": failed == 0 and final["wrappers"] == 0,
              "attempted": len(run.records), "failed": failed,
              "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    return {"result": result, "details": details}


def _by_request(records) -> dict[str, list[float]]:
    out = {}
    for req, _, seconds, _ in records:
        out.setdefault(" ".join(req.argv), []).append(seconds * 1e3)
    return out


def _print_summary(out: dict) -> None:
    res, det = out["result"], out["details"]
    print(f"# {det['workload']} seed={det['seed']} trace={int(det['trace'])}: "
          f"{res['attempted']} requests, {res['failed']} failed {det['failures'] or ''}")
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    if not det["trace"]:
        t, reps, kernel = det["tail"], det["repetitions"], det["kernel"]
        print(f"  (blocks of {det['passes_per_block']} passes, {det['block_requests']} requests; "
              f"{reps['min']}-{reps['max']} repetitions of each; "
              f"op_tail_ms is the mean of the slowest {t['requests']})")
        print(f"  (times scaled by {REFERENCE_KERNEL_S * 1e3:g} ms over the kernel's median "
              f"{kernel['median_s'] * 1e3:.4g} ms of {kernel['runs']} runs; as measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in det["measured"].items()) + ")")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    common.use_source_tree()
    if args.workload == "all":
        for workload in workloads.WORKLOADS:
            _print_summary(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
