"""Correctness checks for the answers of benchmark requests.

A request fails when any of these hold:

* ``raised``: its exit code is not 0 and it reports no unconverged result;
* ``unconverged``: its exit code is 3 because a solve did not converge;
* ``wrong``: one of its norms is above the zero approximant's norm (1 for
  power weights), below the universal lower bound computed here, or more
  than ``REF_RTOL`` away from the pinned reference optimum.

The lower bound and the reference table are computed without lpopa.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from workloads import COEFFS

REF_RTOL = 1e-8
ZERO_NORM = 1.0                 # norm of the residual 1 of the zero approximant
SLACK = 1e-12                   # float slack on the two bound checks

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json")


def load_references() -> dict:
    """Reference optima keyed by 'f|p|alpha|n', each {'norm', 'source'}."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["references"]


def parse_p(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def power_weights(alpha: float, m: int) -> np.ndarray:
    """w_t = (t+1)^alpha for t = 0..m-1."""
    return np.arange(1, m + 1, dtype=float) ** alpha


def lower_bound(p: float, alpha: float, n: int, d: int) -> float:
    """(sum_{t<=n+d} w_t^{-q/p})^{-1/q} for w_t = (t+1)^alpha, with its limits.

    The dual vector y_t = conj(zeta)^t of a circle zero zeta of f annihilates
    every z^j f, which gives this bound for any f with a zero on the circle.
    At p = 1 it is min_t w_t; at p = inf (sup norm of w_t a_t) it is
    1 / sum_t w_t^{-1}.
    """
    w = power_weights(alpha, n + d + 1)
    if p == 1.0:
        return float(w.min())
    if p == math.inf:
        return float(1.0 / (1.0 / w).sum())
    q = p / (p - 1.0)
    return float((w ** (-q / p)).sum() ** (-1.0 / q))


def parse_norms(argv, stdout: str) -> dict[int, float] | None:
    """Map order -> optimal norm from a compute JSON or sweep CSV reply."""
    try:
        if argv[0] == "compute":
            payload = json.loads(stdout)
            return {int(payload["n"]): float(payload["optimal_norm"])}
        rows = list(csv.DictReader(io.StringIO(stdout)))
        return {int(r["n"]): float(r["optimal_norm"]) for r in rows}
    except (ValueError, KeyError, TypeError):
        return None


def check_reply(req, code: int, stdout: str, stderr: str,
                references: dict) -> tuple[str, str] | None:
    """(failure class, detail) of a reply, or None when it passes.

    The class is 'raised', 'unconverged' or 'wrong'.
    """
    if req.argv[0] == "verify":
        lines = stdout.strip().splitlines()
        if code != 0 or not lines or lines[-1] != "all checks passed" \
                or any(not ln.startswith("PASS") for ln in lines[:-1]):
            return ("wrong" if code in (0, 4) else "raised"), f"exit {code}"
        return None
    norms = parse_norms(req.argv, stdout)
    wrong = _wrong_norm(req, norms, references)
    if code != 0:
        wrong = wrong if norms is not None else None
        message = (stderr.strip().splitlines() or [""])[-1]
        if code == 3 and ("failed to converge" in stderr
                          or '"converged": false' in stdout):
            cls, detail = "unconverged", _unconverged_detail(req, stdout) or message
        else:
            cls, detail = "raised", message
        detail = f"exit {code}: {detail}" + (f"; {wrong}" if wrong else "")
        return cls, detail
    return ("wrong", wrong) if wrong else None


def _unconverged_detail(req, stdout: str) -> str:
    if req.argv[0] != "compute":
        return ""
    try:
        return f"converged false after {json.loads(stdout)['iterations']} iterations"
    except (ValueError, KeyError):
        return ""


def _wrong_norm(req, norms: dict | None, references: dict) -> str | None:
    """Why the norms are wrong, or None when every check passes."""
    if norms is None or set(norms) != set(req.orders):
        return "unreadable output or missing orders"
    p, alpha = parse_p(req.p), float(req.alpha)
    d = len(COEFFS[req.f]) - 1
    for n, value in sorted(norms.items()):
        if not math.isfinite(value) or value > ZERO_NORM * (1 + SLACK):
            return f"n={n}: norm {value:.10g} above the zero approximant's 1"
        bound = lower_bound(p, alpha, n, d)
        if value < bound * (1 - SLACK):
            return f"n={n}: norm {value:.6g} below the lower bound {bound:.6g}"
        ref = references.get(f"{req.f}|{req.p}|{req.alpha}|{n}")
        if ref is not None and abs(value - ref["norm"]) > REF_RTOL * ref["norm"]:
            return (f"n={n}: norm {value:.10g} misses the {ref['source']} "
                    f"reference {ref['norm']:.10g}")
    return None
