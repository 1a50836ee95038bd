"""Command-line front end.

Subcommands: ``compute`` (one approximant as JSON), ``sweep`` (decay CSV),
``classify`` (cyclicity verdict) and ``verify`` (cross-oracle battery).
``compute`` and ``sweep`` solve on the auto route, which answers c*(1 - z^d)
by its closed form, or on an oracle named by ``--solver convex|hilbert``.
The ``OPA_LOG`` environment variable sets diagnostic verbosity
(debug/info/warning).  Exit codes: 0 success, 2 invalid configuration
(malformed or non-finite input, an order past the degree cap), 3 a solve
left uncertified or ended by an ill-conditioned problem, such as p near 1
or a zero of f or P out of the float range (partial artifacts are still
written), 4 internal inconsistency.  Any other input never exits 2.

Given identical configuration the emitted JSON/CSV is byte-identical apart
from the wall-clock timing column of sweeps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys

import numpy as np

from .errors import (IllConditionedError, InternalConsistencyError, LpopaError,
                     SweepError, UnsupportedExponentError)
from .opa import OpaResult
from .poly import CircleZeroSpec, Poly, parse_angle
from .rates import (SOLVER_CHOICES, classify, fit_rates, geometric_grid,
                    log_band_ratio, lower_bound, run_sweep, _dispatch)
from .space import SpaceParams
from .verification import run_verification
from .weights import power_weight, weight_from_config

# --------------------------------------------------------------------------
# Deterministic serialization (floats with 17 significant digits)
# --------------------------------------------------------------------------

def _fmt_float(x) -> str:
    """A float with 17 significant digits; null for NaN and +-inf."""
    return format(float(x), ".17g") if math.isfinite(x) else "null"


class _Pairs(list):
    """A list of [re, im] float pairs, such as a polynomial's coefficients, which
    :func:`render_json` renders in one pass: each pair inline, as it would any."""


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON; a list is inline under 60 characters, its floats formatted in place."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, _Pairs):
        # two formatted floats never reach 60 characters, so a pair is inline; a
        # finite float's digits hold no "n", those of nan and inf do
        items = [f"[{re:.17g}, {im:.17g}]" for re, im in obj]
        if any("n" in s for s in items):
            items = [f"[{_fmt_float(re)}, {_fmt_float(im)}]" for re, im in obj]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_fmt_float(v) if isinstance(v, float) else render_json(v, indent + 1)
                 for v in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if sum(map(len, items)) < 60 and not any("\n" in s for s in items):
        return "[" + ", ".join(items) + "]"
    inner = ",\n".join(pad + "  " + s for s in items)
    return "[\n" + inner + "\n" + pad + "]"


def _pairs(p: Poly) -> _Pairs:
    return _Pairs(p.coeffs.view(np.float64).reshape(-1, 2).tolist())


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf"
        return format(v, ".17g")
    return str(v)


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    p = float(text)
    if p < 1:
        raise ValueError("p must be >= 1")
    return p


def _parse_roots(text: str) -> CircleZeroSpec:
    """Parse "angle:mult,angle:mult,..." into a spec normalized to f(0) = 1.

    Angles are rational multiples of pi (e.g. ``0``, ``pi/2``, ``3pi/4``).
    The polynomial is prod (1 - exp(-i theta) z)^mult so that f(0) = 1; this
    keeps every zero exactly on the unit circle.
    """
    roots = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            angle_s, mult_s = part.rsplit(":", 1)
            mult = int(mult_s)
        else:
            angle_s, mult = part, 1
        roots.append((parse_angle(angle_s), mult))
    if not roots:
        raise ValueError("empty root list")
    lead = 1.0 + 0j
    for angle, mult in roots:
        lead *= (-np.exp(-1j * angle)) ** mult
    return CircleZeroSpec(tuple(roots), leading_coefficient=lead)


def _parse_coeffs(text: str) -> Poly:
    try:
        return Poly([complex(tok.strip().replace("i", "j"))
                     for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ValueError(f"cannot parse coefficients {text!r}: {exc}") from None


def _parse_n_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    if not _:
        raise ValueError("sweep range must look like 64..1024")
    return geometric_grid(int(lo), int(hi))


def _space_from_args(args) -> SpaceParams:
    p = _parse_p(args.p)
    if getattr(args, "weight_file", None):
        with open(args.weight_file, encoding="utf-8") as fh:
            w = weight_from_config(json.load(fh))
    else:
        w = power_weight(args.alpha)
    return SpaceParams(p, w)


def _problem_from_args(args):
    if bool(args.roots) == bool(args.coeffs):
        raise ValueError("exactly one of --roots / --coeffs is required")
    return _parse_roots(args.roots) if args.roots else _parse_coeffs(args.coeffs)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _weight_payload(args) -> dict:
    if getattr(args, "weight_file", None):
        return {"kind": "file", "path": args.weight_file}
    return {"kind": "power", "alpha": float(args.alpha)}


def _result_payload(problem, res: OpaResult, args) -> dict:
    """JSON payload of one ``compute`` solve; ``problem`` is a Poly or a CircleZeroSpec.

    The lower bound is taken from the spec when there is one, because the
    roots of an expanded multiple zero no longer lie on the circle.
    """
    sp, n = res.sp, res.n
    try:
        bound = lower_bound(problem, n, sp)
    except ValueError:
        bound = None
    p_out = "inf" if sp.p == math.inf else sp.p
    npow = res.optimal_norm if sp.p == math.inf else res.optimal_norm ** sp.p
    return {
        "command": "compute",
        "p": p_out,
        "weight": _weight_payload(args),
        "n": n,
        "f": _pairs(res.f),
        "solver": res.solver,
        "coefficients": _pairs(res.approximant),
        "residual": _pairs(res.residual),
        "optimal_norm": res.optimal_norm,
        "norm_power": npow,
        "ortho_residual_max": res.ortho_residual_max,
        "lower_bound": bound,
        "iterations": res.iterations,
        "converged": res.converged,
    }


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    sp = _space_from_args(args)
    problem = _problem_from_args(args)
    res = _dispatch(problem, args.n, sp, args.solver)
    payload = _result_payload(problem, res, args)
    _emit(render_json(payload) + "\n", args.out)
    return 0 if res.converged else 3


def _cmd_classify(args) -> int:
    pred = classify(_parse_p(args.p), args.alpha)
    print("cyclic" if pred.cyclic else "not cyclic")
    scope = "norm" if _parse_p(args.p) == math.inf else "norm^p"
    if pred.regime == "power":
        print(f"regime: power decay of {scope}, exponent {pred.exponent:g}")
    elif pred.regime == "log":
        print(f"regime: logarithmic decay of {scope}, exponent {pred.exponent:g}")
    else:
        print(f"regime: stagnation of {scope}")
    if pred.note:
        print(f"note: {pred.note}")
    return 0


_CSV_COLUMNS = ["n", "d", "p", "alpha", "optimal_norm", "norm_p_power",
                "lower_bound", "predicted_value", "solver", "converged",
                "iterations", "wall_ms"]


def _cmd_sweep(args) -> int:
    sp = _space_from_args(args)
    problem = _problem_from_args(args)
    grid = _parse_n_range(args.n)
    try:
        points = run_sweep(problem, sp, grid, solver=args.solver)
    except SweepError as exc:
        # write the partial artifact: every row, converged=false on failures
        print(f"error: {exc}", file=sys.stderr)
        points, failed = exc.points, True
    else:
        failed = False
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for pt in points:
        writer.writerow([_fmt_cell(getattr(pt, col)) for col in _CSV_COLUMNS])
    _emit(buf.getvalue(), args.out)
    if failed:
        return 3
    try:
        fit = fit_rates(points, sp, fit_min_n=args.fit_min_n)
        print(f"fitted exponent: {fit.fitted_exponent:.6f} "
              f"(r^2 = {fit.r_squared:.6f})", file=sys.stderr)
        alpha = points[0].alpha
        if not math.isnan(alpha) and classify(sp.p, alpha).regime == "log":
            print(f"log-regime band ratio: "
                  f"{log_band_ratio(points, sp, args.fit_min_n):.4f}",
                  file=sys.stderr)
    except ValueError as exc:
        print(f"fit skipped: {exc}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(seed=args.seed, quick=args.quick)
    for r in results:
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: max deviation {r.max_dev:.3e}, "
              f"tol {r.tol:g}{detail}")
    all_pass = all(r.passed for r in results)
    print(("all checks passed" if all_pass else "SOME CHECKS FAILED"))
    if args.out:
        payload = {"passed": all_pass,
                   "checks": [{"name": r.name, "passed": r.passed,
                               "max_dev": r.max_dev, "tol": r.tol,
                               "detail": r.detail} for r in results]}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(payload) + "\n")
    return 0 if all_pass else 4


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _add_space_args(sub, with_weight_file: bool = True) -> None:
    sub.add_argument("--p", required=True,
                     help="exponent p in [1, inf]; use 'inf' for the sup norm")
    sub.add_argument("--alpha", type=float, default=0.0,
                     help="power-weight exponent (w_k = (k+1)^alpha)")
    if with_weight_file:
        sub.add_argument("--weight-file", help="JSON weight spec overriding --alpha")


def _add_problem_args(sub) -> None:
    sub.add_argument("--roots",
                     help="circle zeros 'angle:mult,...' with angles as rational "
                          "multiples of pi; builds f with f(0) = 1")
    sub.add_argument("--coeffs", help="comma-separated complex coefficients of f")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lpopa`` parser, built once; each parse_args gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lpopa",
        description="Optimal polynomial approximants in weighted l^p spaces")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("compute", help="compute one approximant, emit JSON")
    _add_space_args(sc)
    _add_problem_args(sc)
    sc.add_argument("--solver", default="auto", choices=SOLVER_CHOICES)
    sc.add_argument("--n", type=int, required=True, help="approximant order")
    sc.add_argument("--out", help="output path (stdout when omitted)")
    sc.set_defaults(func=_cmd_compute)

    sw = subs.add_parser("sweep", help="sweep orders and emit a decay CSV")
    _add_space_args(sw)
    _add_problem_args(sw)
    sw.add_argument("--solver", default="auto", choices=SOLVER_CHOICES)
    sw.add_argument("--n", required=True,
                    help="order range a..b, expanded to the doubling grid a,2a,...,b")
    sw.add_argument("--fit-min-n", type=int, default=32, dest="fit_min_n")
    sw.add_argument("--out", help="CSV path (stdout when omitted)")
    sw.set_defaults(func=_cmd_sweep)

    cl = subs.add_parser("classify", help="cyclicity / decay-regime verdict")
    _add_space_args(cl, with_weight_file=False)
    cl.set_defaults(func=_cmd_classify)

    vf = subs.add_parser("verify", help="run the cross-oracle verification battery")
    vf.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized property checks")
    vf.add_argument("--quick", action="store_true", help="reduced trial counts")
    vf.add_argument("--out", help="optional JSON report path")
    vf.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("OPA_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IllConditionedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalConsistencyError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, UnsupportedExponentError, OSError, json.JSONDecodeError,
            LpopaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
