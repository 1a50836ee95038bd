"""Generate references.json, the reference optimal norms of every grid request.

    python3 perfbench/make_references.py        # a few minutes on one core

Each entry records its source, chosen in this order:

* ``formula``: f = 1 - z at 1 < p < inf, norm = s_{n+1}^{(1-p)/p} with
  s_k = sum_{t<=k} w_t^{-q/p} (the closed-form delta sums);
* ``lp``: real f at p in {1, inf}, solved as a linear program by HiGHS (dual
  simplex); the norm is recomputed from the minimizer, so it is attained;
* ``qr_lstsq``: p = 2, the least-squares residual norm from a Householder
  QR of W^{1/2} F in band storage; for n <= DENSE_MAX it must agree with
  a dense QR to QR_AGREE, or that f and alpha get no reference at this or
  any larger n;
* ``routes:convex+structural``: two lpopa routes that agreed to ROUTE_RTOL
  when the table was made, the structural one without its fallback to the
  convex route.

The first three never call lpopa.  A request with no source gets no entry
and only the bound checks.
"""

from __future__ import annotations

import json
import math
import sys

import common

common.pin_threads()

import numpy as np                                   # noqa: E402
import scipy.optimize                                # noqa: E402
import scipy.sparse as sps                           # noqa: E402

import check                                         # noqa: E402
import workloads                                     # noqa: E402

DENSE_MAX = 2048        # a dense QR cross-checks the banded QR up to here
QR_AGREE = 1e-10
_QR_DISAGREED = set()   # (f, alpha) whose QRs disagreed at a smaller n
ROUTE_RTOL = 1e-8


def _conv_matrix(coeffs, n: int) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    d = c.size - 1
    out = np.zeros((n + d + 1, n + 1), dtype=np.complex128)
    for j in range(n + 1):
        out[j: j + d + 1, j] = c
    return out


def formula_norm(p: float, alpha: float, n: int) -> float:
    q = p / (p - 1.0)
    s = np.cumsum(check.power_weights(alpha, n + 2) ** (-q / p))
    return float(s[n + 1] ** ((1.0 - p) / p))


def lp_norm(coeffs, p: float, alpha: float, n: int) -> float:
    """Optimum over real approximants; some optimum is real when f is real."""
    F = _conv_matrix(coeffs, n).real
    m = F.shape[0]
    w = check.power_weights(alpha, m)
    e0 = np.zeros(m)
    e0[0] = 1.0
    Fs = sps.csr_matrix(F)
    if p == 1.0:
        # minimize sum w_t s_t subject to -s <= e0 - F c <= s
        eye = sps.identity(m, format="csr")
        a_ub = sps.vstack([sps.hstack([-Fs, -eye]), sps.hstack([Fs, -eye])])
        b_ub = np.concatenate([-e0, e0])
        cost = np.concatenate([np.zeros(n + 1), w])
        bounds = [(None, None)] * (n + 1) + [(0, None)] * m
    else:
        # minimize s subject to |w_t (e0 - F c)_t| <= s
        WF = sps.diags(w) @ Fs
        ones = sps.csr_matrix(np.ones((m, 1)))
        a_ub = sps.vstack([sps.hstack([-WF, -ones]), sps.hstack([WF, -ones])])
        b_ub = np.concatenate([-w * e0, w * e0])
        cost = np.concatenate([np.zeros(n + 1), [1.0]])
        bounds = [(None, None)] * (n + 1) + [(0, None)]
    res = scipy.optimize.linprog(
        cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    r = np.abs(e0 - F @ res.x[: n + 1]) * w
    value = float(r.sum() if p == 1.0 else r.max())
    if abs(value - res.fun) > 1e-9 * value:
        raise RuntimeError(f"LP objective {res.fun!r} differs from its point {value!r}")
    return value


def dense_lstsq_norm(coeffs, alpha: float, n: int) -> float:
    """Least-squares residual norm from the QR factor of [W^{1/2} F | e_0]."""
    F = _conv_matrix(coeffs, n)
    m = F.shape[0]
    e0 = np.zeros(m, dtype=np.complex128)
    e0[0] = 1.0
    a = np.sqrt(check.power_weights(alpha, m))[:, None] * F
    r = np.linalg.qr(np.column_stack([a, e0]), mode="r")
    return float(abs(r[n + 1, n + 1]))


def banded_lstsq_norm(coeffs, alpha: float, n: int) -> float:
    """The same least-squares residual norm by Householder QR in band storage.

    Column j of A = W^{1/2} F is nonzero in rows j..j+d only, so step j
    reflects rows j..j+d and touches columns j..j+d; memory is O(n d).
    After the last step the residual is rows n+1.. of Q^H e_0.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    d = c.size - 1
    m = n + d + 1
    sw = np.sqrt(check.power_weights(alpha, m))
    band = np.zeros((m, 2 * d + 1), dtype=np.complex128)   # band[i, k] = A[i, i-d+k]
    for k in range(d + 1):
        rows = np.arange(k, k + n + 1)                      # A[j+k, j] = c_k
        band[rows, d - k] = c[k] * sw[rows]
    rhs = np.zeros(m, dtype=np.complex128)
    rhs[0] = 1.0
    for j in range(n + 1):
        rows = np.arange(j, j + d + 1)
        cols = np.arange(j, min(j + d, n) + 1)
        idx = (rows[:, None], cols[None, :] - rows[:, None] + d)
        block = band[idx]
        x = block[:, 0]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v = x.copy()
        v[0] += phase * norm_x
        v /= np.linalg.norm(v)
        block -= 2.0 * np.outer(v, v.conj() @ block)
        band[idx] = block
        rhs[rows] -= 2.0 * v * (v.conj() @ rhs[rows])
    return float(np.linalg.norm(rhs[n + 1:]))


class _Fallback(Exception):
    pass


def route_norm(f: str, p: float, alpha: float, n: int):
    """(norm, source) when the convex and structural routes agree, else None."""
    from lpopa import opa
    from lpopa.errors import LpopaError
    from lpopa.cli import _parse_roots
    from lpopa.poly import expand
    from lpopa.space import SpaceParams

    spec = _parse_roots(workloads.POLYS[f][1])
    poly = expand(spec)
    sp = SpaceParams.power(p, alpha)
    original = opa.solve_convex

    def refuse_fallback(*args, **kwargs):
        # the structural route falls back to convex when Newton stalls; that
        # result is not a second route, and at large n it costs minutes
        raise _Fallback

    try:
        first = opa.solve_convex(poly, n, sp)
        opa.solve_convex = refuse_fallback
        second, _ = opa.solve_structural(spec, n, sp)
    except (LpopaError, _Fallback):
        return None
    finally:
        opa.solve_convex = original
    a, b = first.optimal_norm, second.optimal_norm
    if first.converged and second.converged and abs(a - b) <= ROUTE_RTOL * min(a, b):
        return 0.5 * (a + b), "routes:convex+structural"
    return None


def reference(f: str, p_text: str, alpha_text: str, n: int):
    p, alpha = check.parse_p(p_text), float(alpha_text)
    coeffs = workloads.COEFFS[f]
    real = all(complex(c).imag == 0 for c in coeffs)
    if f == "1-z" and 1.0 < p < math.inf:
        return formula_norm(p, alpha, n), "formula"
    if p in (1.0, math.inf):
        return (lp_norm(coeffs, p, alpha, n), "lp") if real else None
    if p == 2.0:
        value = banded_lstsq_norm(coeffs, alpha, n)
        if n > DENSE_MAX:
            return (value, "qr_lstsq") if (f, alpha) not in _QR_DISAGREED else None
        dense = dense_lstsq_norm(coeffs, alpha, n)
        if abs(value - dense) > QR_AGREE * dense:
            _QR_DISAGREED.add((f, alpha))       # too ill-conditioned to trust
            return None
        return value, "qr_lstsq"
    if workloads.POLYS[f][0] == "--roots":      # structural needs the circle zeros
        return route_norm(f, p, alpha, n)
    return None


def main() -> int:
    common.use_source_tree()
    table = {}
    for workload in workloads.FULL_GRIDS:
        for req in workloads.full_grid_requests(workload):
            for n in req.orders:
                key = f"{req.f}|{req.p}|{req.alpha}|{n}"
                if key in table:
                    continue
                found = reference(req.f, req.p, req.alpha, n)
                if found is None:
                    print(f"{key}: no reference", flush=True)
                    continue
                table[key] = {"norm": found[0], "source": found[1]}
                print(f"{key}: {found[0]!r} ({found[1]})", flush=True)
    doc = {"note": "written by perfbench/make_references.py; do not edit",
           "facts": common.machine_facts(),
           "references": dict(sorted(table.items()))}
    with open(check.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(table)} references written to {check.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
