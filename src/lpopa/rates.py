"""Cyclicity classification and optimal-norm decay rates.

For power weights w_k = (k+1)**alpha the decay of the optimal norms is a
trichotomy in (p, alpha): power decay of norm**p with exponent alpha+1-p
below the critical line alpha = p-1, logarithmic decay on it, and stagnation
above it (the norm itself, with exponent alpha-1 and critical line alpha = 1,
at p = inf).  Cyclicity of circle-zero polynomials is equivalent to decay,
with a strict boundary at p = 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (IllConditionedError, InternalConsistencyError, SweepError,
                     UnsupportedExponentError)
from .opa import (OpaResult, _binary_scale, _zeros, check_degree_cap, delta_sums,
                  detect_one_minus_zd, prepare_closed_form, prepare_residual_qr,
                  solve_convex, solve_flat, solve_hilbert, solve_structural)
from .poly import CircleZeroSpec, Poly, expand
from .space import SpaceParams

SOLVER_CHOICES = ("auto", "convex", "hilbert")


@dataclass(frozen=True)
class RatePrediction:
    """Predicted decay regime and cyclicity verdict.

    The regime describes norm**p for finite p and the norm itself at
    p = inf.  ``exponent`` is the power-law exponent for the power regime and
    the log-power for the log regime; stagnation carries exponent 0.
    """

    regime: str                 # "power" | "log" | "stagnation"
    exponent: float
    cyclic: bool
    note: str = ""


@dataclass
class RateFit:
    """Least-squares decay fit of a sweep.

    ``fitted_exponent`` is the slope of log(norm**p) (log norm at p = inf)
    against log(n+d+1) over the fit window; ``fitted_log_exponent`` is the
    slope against log log(n+d+2), only fitted in the log regime.
    """

    samples: list[tuple[int, float]]
    fitted_exponent: float
    fitted_log_exponent: float | None
    r_squared: float


@dataclass
class SweepPoint:
    n: int
    d: int
    p: float
    alpha: float
    optimal_norm: float
    norm_p_power: float
    lower_bound: float
    predicted_value: float
    solver: str
    converged: bool
    iterations: int
    wall_ms: float


def classify(p: float, alpha: float) -> RatePrediction:
    """Decay regime and cyclicity for the power weight (k+1)**alpha."""
    if not p >= 1:
        raise ValueError("p must satisfy p >= 1")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if p == math.inf:
        if alpha < 1:
            return RatePrediction("power", alpha - 1.0, cyclic=True)
        if alpha == 1:
            return RatePrediction("log", -1.0, cyclic=True)
        return RatePrediction("stagnation", 0.0, cyclic=False)
    if alpha < p - 1:
        return RatePrediction("power", alpha + 1.0 - p, cyclic=(p > 1 or alpha < 0))
    if alpha == p - 1:
        if p == 1:
            # boundary case: the norm does not tend to 0 even though the
            # log regime formula degenerates to a constant
            return RatePrediction("log", 0.0, cyclic=False,
                                  note="p=1 boundary: norm -> 0 predicted false")
        return RatePrediction("log", 1.0 - p, cyclic=True)
    return RatePrediction("stagnation", 0.0, cyclic=False)


def delta(k: int, sp: SpaceParams) -> float:
    """delta_k = (sum_{t<=k} w_t**(-q/p))**(1/q)."""
    if sp.is_flat:
        raise UnsupportedExponentError("delta needs 1 < p < inf")
    return float(delta_sums(sp, k)[k] ** (1.0 / sp.q))


def _degree_with_circle_zero(problem) -> int:
    """Degree of the problem polynomial, requiring a zero on the unit circle."""
    if isinstance(problem, CircleZeroSpec):
        if not problem.roots:
            raise ValueError("circle zero set is empty")
        return problem.degree
    if not isinstance(problem, Poly) or problem.is_zero or problem.degree == 0:
        raise ValueError("need a nonconstant polynomial or a circle zero spec")
    # f at a zero of _zeros, a b-fold one that np.roots moved ~eps**(1/b) off the
    # circle, projected back; f scaled as _zeros scales it, as its sum may
    # overflow.  A zero out of the float range (f = 1 + 1e-320 z) is refused.
    try:
        zeros = _zeros(problem, problem)
    except IllConditionedError as exc:
        raise ValueError(f"no zero of f is representable: {exc}") from None
    unit = _binary_scale(problem.coeffs)[0]
    on_circle = np.exp(1j * np.array([angle for modulus, angle, _ in zeros if modulus]))
    if not (np.abs(np.polyval(unit[::-1], on_circle)) <= 1e-10 * np.abs(unit).sum()).any():
        raise ValueError("the lower bound applies only to f with a zero on the circle")
    return problem.degree


def lower_bound(problem, n: int, sp: SpaceParams) -> float:
    """Universal lower bound (sum_{t<=n+d} w_t**(-q/p))**(-1/q) on the optimal norm.

    Its limits are min_{t<=n+d} w_t at p = 1 and (sum_{t<=n+d} 1/w_t)**-1 at
    p = inf: the dual vector y_t = conj(zeta)**t of a circle zero zeta gives all three.
    """
    return lower_bounds(problem, [n], sp)[0]


def lower_bounds(problem, orders, sp: SpaceParams) -> list[float]:
    """:func:`lower_bound` at each of ``orders`` (nonempty) from one weight table.

    For 1 < p < inf one cumulative sum to the largest order serves all:
    np.cumsum adds in sequence, so each bound has the bits of its own.  At
    p in {1, inf} each order takes the min or the sum of its own slice,
    because numpy sums pairwise and a cumulative sum would change the bits.
    """
    d = _degree_with_circle_zero(problem)
    last = [n + d for n in orders]
    if not sp.is_flat:
        s = delta_sums(sp, max(last))
        return [1.0 / float(s[k] ** (1.0 / sp.q)) for k in last]
    w = sp.weight.values_up_to(max(last))
    if sp.p == 1.0:
        return [float(w[: k + 1].min()) for k in last]
    inv = 1.0 / w
    return [float(1.0 / inv[: k + 1].sum()) for k in last]


def predicted_value(p: float, alpha: float, n: int, d: int) -> float:
    """Model decay value (unscaled) for norm**p, or the norm itself at p = inf."""
    pred = classify(p, alpha)
    if pred.regime == "power":
        return float((n + d + 1) ** pred.exponent)
    if pred.regime == "log":
        return float(math.log(n + d + 2) ** pred.exponent)
    return 1.0


def _prepare(problem, n_max: int, sp: SpaceParams, solver: str):
    """The solve of every order n <= n_max on the route ``solver`` picks.

    ``solver`` is one of :data:`SOLVER_CHOICES`.  ``auto`` picks, from f
    expanded once: the flat residual form at p in {1, inf}, the closed form
    for c*(1 - z^d), the prefix QR of the residual form (``residual-qr``) at
    p = 2 and the structural dual Newton at every other 1 < p < inf.
    ``convex`` and ``hilbert`` name the two oracles, which run only when
    named.  The closed form and the p = 2 residual form prepare once at
    n_max and each order reads the leading part (see
    :func:`prepare_closed_form` and :func:`prepare_residual_qr`, which takes
    the exact zeros of a spec); the other routes have no such prefix and
    solve each order on its own.
    """
    if solver not in SOLVER_CHOICES:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVER_CHOICES}")
    if isinstance(problem, CircleZeroSpec):     # the cap before the O(d^2) expansion
        check_degree_cap(n_max, problem.degree)
    f = expand(problem) if isinstance(problem, CircleZeroSpec) else problem
    if solver == "hilbert":
        if sp.p != 2.0:
            raise ValueError("the hilbert solver applies only at p = 2")
        return lambda n: solve_hilbert(f, n, sp.weight)
    if solver == "convex":
        return lambda n: solve_convex(f, n, sp)
    if sp.is_flat:
        return lambda n: solve_flat(problem, n, sp)[0]
    if detect_one_minus_zd(f) is not None:
        return prepare_closed_form(f, n_max, sp)
    if sp.p == 2.0:
        return prepare_residual_qr(problem, n_max, sp.weight)
    return lambda n: solve_structural(problem, n, sp)[0]


def _dispatch(problem, n: int, sp: SpaceParams, solver: str) -> OpaResult:
    """The order-n solve on the route ``solver`` picks: the one-order :func:`_prepare`."""
    return _prepare(problem, n, sp, solver)(n)


def run_sweep(problem, sp: SpaceParams, n_grid, solver: str = "auto") -> list[SweepPoint]:
    """Solve at every order in n_grid and assemble per-point records.

    The lower bounds come from one weight table, and the solves from one
    :func:`_prepare` at the largest order: on the closed-form and p = 2
    residual-form routes that is the one set of cumulative sums or row table
    of the sweep, and its time counts in the ``wall_ms`` of the largest
    order, whose own solve it is.  Raises SweepError listing the failing
    orders, and carrying every point, if any solve does not converge; a solve that
    raises IllConditionedError ends the sweep there, with a SweepError of
    its message that lists that order after any unconverged ones and
    carries the points before it (the cause is the IllConditionedError).
    Raises InternalConsistencyError if a computed norm undercuts the
    universal lower bound.  A grid with orders past the degree cap raises
    DegreeCapError for the first of them before any bound or preparation.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    d = (problem.degree if isinstance(problem, (CircleZeroSpec, Poly)) else None)
    if d is None or d == 0:
        raise ValueError("problem must be a nonconstant polynomial or root spec")
    for n in n_grid:        # a capped order fails before any bound or solve
        check_degree_cap(n, d)
    if not n_grid:
        return []
    alpha = sp.alpha if sp.alpha is not None else math.nan
    try:
        bounds = lower_bounds(problem, n_grid, sp)
    except ValueError:
        bounds = [math.nan] * len(n_grid)

    t0 = time.perf_counter()
    solve = _prepare(problem, n_grid[-1], sp, solver)
    shared = time.perf_counter() - t0
    points: list[SweepPoint] = []
    failed = []
    for n, bound in zip(n_grid, bounds):
        t0 = time.perf_counter()
        try:
            res = solve(n)
        except IllConditionedError as exc:     # keep the orders already solved
            raise SweepError(str(exc), (*failed, n), points) from exc
        wall = (time.perf_counter() - t0 + (shared if n == n_grid[-1] else 0.0)) * 1e3
        if not res.converged:
            failed.append(n)
        if math.isfinite(bound) and res.optimal_norm < bound * (1 - 1e-12) - 1e-15:
            raise InternalConsistencyError(
                f"optimal norm {res.optimal_norm!r} violates the lower bound "
                f"{bound!r} at n={n}")
        npow = res.optimal_norm if sp.p == math.inf else res.optimal_norm ** sp.p
        points.append(SweepPoint(
            n=n, d=d, p=sp.p, alpha=alpha, optimal_norm=res.optimal_norm,
            norm_p_power=npow, lower_bound=bound,
            predicted_value=(predicted_value(sp.p, alpha, n, d)
                             if not math.isnan(alpha) else math.nan),
            solver=res.solver, converged=res.converged,
            iterations=res.iterations, wall_ms=wall))
    if failed:
        raise SweepError(f"solver failed to converge at n in {failed}", failed, points)
    return points


def fit_rates(points: list[SweepPoint], sp: SpaceParams, fit_min_n: int = 32) -> RateFit:
    """Log-log least squares on a sweep, restricted to orders >= fit_min_n.

    Small orders are excluded by default because the decay laws are
    asymptotic and preasymptotic samples bias the slope.
    """
    window = [pt for pt in points if pt.n >= fit_min_n and pt.optimal_norm > 0]
    if len(window) < 2:
        raise ValueError("need at least two sweep points with n >= fit_min_n")
    d = window[0].d
    x = np.log([pt.n + d + 1 for pt in window])
    y = np.log([pt.norm_p_power for pt in window])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(fitted @ fitted) / denom if denom > 0 else 1.0

    log_slope = None
    alpha = window[0].alpha
    if not math.isnan(alpha) and classify(sp.p, alpha).regime == "log":
        xl = np.log(np.log([pt.n + d + 2 for pt in window]))
        log_slope = float(np.polyfit(xl, y, 1)[0])
    return RateFit(samples=[(pt.n, pt.optimal_norm) for pt in window],
                   fitted_exponent=float(slope), fitted_log_exponent=log_slope,
                   r_squared=r2)


def log_band_ratio(points: list[SweepPoint], sp: SpaceParams,
                   fit_min_n: int = 32) -> float:
    """Spread of norm**p * log(n+d+2)**(p-1) across the window.

    In the log regime this product should be bounded above and below, so the
    returned max/min ratio staying inside a modest band verifies the
    two-sided estimate without fitting an ill-conditioned triple logarithm.
    """
    window = [pt for pt in points if pt.n >= fit_min_n]
    if not window:
        raise ValueError("empty fit window")
    exponent = 1.0 if sp.p == math.inf else sp.p - 1.0
    vals = [pt.norm_p_power * math.log(pt.n + pt.d + 2) ** exponent for pt in window]
    return max(vals) / min(vals)


def geometric_grid(lo: int, hi: int) -> list[int]:
    """Doubling grid {lo, 2lo, 4lo, ...} capped at hi (hi always included)."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    grid = []
    n = lo
    while n < hi:
        grid.append(n)
        n *= 2
    grid.append(hi)
    return grid
