"""Benchmark worker: runs lpopa requests one at a time, in-process.

run.py starts one worker per measured process and talks to it over a pipe,
one JSON object per line each way:

* ``{"id": k, "argv": [...]}`` runs ``lpopa.cli.main(argv)`` and replies
  ``{"id": k, "code": ..., "stdout": ..., "stderr": ...}``;
* ``{"trace": true}`` / ``{"trace": false}`` installs or removes the tracer;
* ``{"calibrate": true}`` runs the calibration kernel and replies with its
  time in seconds;
* ``{"finish": spans_path_or_null, "traced_requests": m}`` replies with the
  peak RSS, the number of tracer wrappers still bound, the machine facts and
  the per-layer metrics, writes the spans, and exits.

The worker pins BLAS to one thread in its own environment before numpy is
imported.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_threads()


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and LAPACK work.

    run.py times it between requests to follow the host's speed.  It calls
    no lpopa code, so a change to lpopa cannot change its time.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 500)
    m = 4.0 * np.eye(120) + np.outer(x[:120], x[:120])
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    for _ in range(150):
        x = np.sqrt(np.abs(x) + 1.0)
    for _ in range(10):
        np.linalg.solve(m, x[:120])
    return time.perf_counter() - t0


def main() -> int:
    common.use_source_tree()
    channel = sys.stdout
    # lpopa.cli.main configures logging on its first call; doing it here
    # first keeps log records on the worker's stderr instead of binding them
    # to the first request's captured stderr.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        if "argv" in msg:
            if tracer is not None:
                tracer.request = msg["id"]
            code, out, err = common.call_cli(msg["argv"])
            reply = {"id": msg["id"], "code": code, "stdout": out, "stderr": err}
        elif "calibrate" in msg:
            reply = {"calibrate": calibration_kernel()}
        elif "trace" in msg:
            from tracer import Tracer

            tracer = tracer or Tracer()
            if msg["trace"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply = {"trace": msg["trace"]}
        elif "finish" in msg:
            from tracer import installed_wrappers

            reply = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "wrappers": installed_wrappers(),
                "facts": common.machine_facts(),
                "layers": (tracer.metrics(msg["traced_requests"])
                           if tracer is not None else None),
            }
            if tracer is not None and msg["finish"]:
                tracer.write_spans(msg["finish"])
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
            return 0
        else:
            raise ValueError(f"unknown worker command {msg!r}")
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
