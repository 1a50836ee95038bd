"""Self-test of the benchmark's checker and tracer.

    python3 perfbench/selftest.py            # a few seconds; exit 1 on failure

Checker: a known-wrong answer must fail (lpopa 0.1.0's flat p = 1 norm of
1.47 for (z-1)^2(z+1) at n = 16, whose LP optimum is 1.0, and its p = inf
norm of 0.167, whose LP optimum is 0.129), and closed-form answers must pass.

Tracer: the self times of a span and of all its descendants must add up to
the span's duration, a function that calls itself records one span, and once
the tracer is removed no wrapper is bound anywhere.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict

import common

common.pin_threads()

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILED.append(what)


def _fake_compute_reply(n: int, norm: float) -> str:
    return json.dumps({"n": n, "optimal_norm": norm, "converged": True})


def test_checker(references: dict) -> None:
    wrong_p1 = workloads.make_request("flat_endpoints", "z1sq_zp1", "1", "0", 16)
    failure = check.check_reply(wrong_p1, 0, _fake_compute_reply(16, 1.473359653756799),
                                "", references)
    expect(failure is not None and failure[0] == "wrong",
           f"seed flat p=1 norm 1.47 against LP optimum 1.0 fails: {failure}")
    wrong_inf = workloads.make_request("flat_endpoints", "z1sq_zp1", "inf", "0", 16)
    failure = check.check_reply(wrong_inf, 0, _fake_compute_reply(16, 0.16666156046196523),
                                "", references)
    expect(failure is not None and "lp reference" in failure[1],
           f"seed flat p=inf norm 0.167 fails on the LP reference alone: {failure}")
    for req in (workloads.make_request("smooth_mid_n", "1-z", "1.5", "0.5", 64),
                workloads.make_request("sweep_large_n", "1-z", "3", "-0.5", None)):
        code, out, err = common.call_cli(req.argv)
        failure = check.check_reply(req, code, out, err, references)
        expect(failure is None, f"closed-form answer passes: {' '.join(req.argv)}")
    expect(check.check_reply(req, 3, "", "error: solver failed to converge", references)[0]
           == "unconverged", "exit 3 from a non-converged sweep is 'unconverged'")


def test_tracer() -> None:
    import lpopa.cli
    import lpopa.opa
    import lpopa.rates
    import lpopa.space

    originals = (lpopa.space.norm, lpopa.rates.solve_convex, lpopa.cli._dispatch)
    expect(tracing.installed_wrappers() == 0, "no wrapper is bound before install")
    tr = tracing.Tracer()
    tr.install()
    try:
        expect(all(hasattr(f, tracing.MARK) for f in
                   (lpopa.opa.norm, lpopa.rates.solve_convex, lpopa.cli._dispatch)),
               "imported aliases lpopa.opa.norm, rates.solve_convex, cli._dispatch are wrapped")
        tr.request = 0
        code, _, _ = common.call_cli(workloads.make_request(
            "smooth_mid_n", "three", "1.5", "0", 16).argv)
    finally:
        tr.uninstall()
    expect(code == 0, "traced request succeeds")
    own = tr.self_times()
    subtree = defaultdict(float)
    for i in range(len(tr.spans) - 1, -1, -1):     # children come after parents
        subtree[i] += own[i]
        parent = tr.spans[i][3]
        if parent is not None:
            subtree[parent] += subtree[i]
    worst = max(abs(subtree[i] - (s[2] - s[1])) for i, s in enumerate(tr.spans))
    expect(worst < 1e-9, f"self times add up to each span's duration (worst {worst:.1e} s)")
    names = {s[0] for s in tr.spans}
    expect({"cli.main", "rates.dispatch", "opa.solve_convex", "scipy.minimize",
            "opa.solve_hilbert", "space.norm"} <= names, "the call tree reaches every layer")
    layers = tr.metrics(requests=1)
    expect(layers["cli.main.calls"] == 1 and layers["opa.solve_hilbert.seed_calls"] == 1,
           "solve_convex's warm start counts as a seed call of solve_hilbert")
    expect(tracing.installed_wrappers() == 0
           and (lpopa.space.norm, lpopa.rates.solve_convex, lpopa.cli._dispatch) == originals
           and lpopa.opa.norm is lpopa.space.norm,
           "uninstall restores every original")

    rec = tracing.Tracer()

    def countdown(k):
        return 0 if k == 0 else wrapped(k - 1)

    wrapped = rec._wrap("countdown", countdown)
    wrapped(5)
    expect(len(rec.spans) == 1, "a recursive function records its outermost call only")


def test_helpers() -> None:
    expect(run.tail_mean([float(i) for i in range(100)], 0.1) == 94.5
           and run.tail_mean([1.0, 3.0], 0.1) == 3.0,
           "the tail mean averages the slowest tenth, at least one value")
    for workload in workloads.WORKLOADS:
        stream = workloads.RequestStream(workload, 5)
        sent = Counter(r.argv for _ in range(stream.block) for r in stream.next_pass())
        expect(sent == Counter(r.argv for r in stream.block_requests()),
               f"a block of {workload} passes sends exactly its block requests")
    sample = ("import time: self [us] | cumulative | imported package\n"
              "import time:       500 |       9000 |   numpy\n"
              "import time:       300 |        300 |     lpopa.poly\n"
              "import time:       100 |      20000 | lpopa\n")
    parsed = run.parse_importtime(sample)
    expect(parsed["import.numpy_ms"] == 9.0 and parsed["import.lpopa_ms"] == 0.4,
           "-X importtime parsing")


def main() -> int:
    common.use_source_tree()
    test_checker(check.load_references())
    test_tracer()
    test_helpers()
    print(f"{len(FAILED)} self-test failures" if FAILED else "benchmark self-test passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
