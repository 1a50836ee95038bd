"""Optimal polynomial approximant solvers.

An optimal approximant of order n for a polynomial f is the p_n in the
degree-n polynomials minimizing the weighted norm of 1 - p_n f.  Routes:

* :func:`solve_structural` Newton's method on the dual of the residual form,
                           d or 2d unknowns whatever n is, certified by its
                           duality gap (1 < p < inf; auto route for p != 2),
* :func:`prepare_residual_qr`  the p = 2 optimum of the residual form from a
                           QR factor of its d rows, extended block by block
                           over the orders and certified by its duality gap
                           (auto route at p = 2),
* :func:`solve_convex`     damped Newton descent on the p-th power objective
                           (1 < p < inf) with a banded Hessian, started from
                           the banded p = 2 coefficients and certified by its
                           duality gap; the oracle of ``lpopa verify`` and of
                           ``--solver convex``, never picked by auto,
* :func:`solve_hilbert`    direct normal equations at p = 2; the oracle of
                           ``--solver hilbert``, ``lpopa verify`` and
                           :func:`composite_construction`,
* :func:`prepare_closed_form`  exact formulas for f = c(1 - z^d),
* :func:`solve_flat`       the linear programs of the endpoints p in {1, inf},
                           solved exactly and certified by a dual bound,

plus the :func:`composite_construction` of near-optimal approximants for
repeated circle zeros out of a simple-zero Hilbert solve.  The Gram and
convex routes end in one :func:`_finalize`, which forms the residual and its
norm from a single weight table; every route returns one :class:`OpaResult`
holding the problem (f, n, sp) as given, with its answer.  ``converged`` has
one rule on every route, the duality gap of :func:`_gap_rule`.  The
orthogonality pairing and the structure constants (:class:`ExpPolyFit`) are
formed from those when read, and so is the p = 2 residual-form approximant.

The p = 2 residual form and the closed form prepare for every order up to
a largest one (one row table and one QR factor per block of rows, one set
of cumulative sums), and each order reads the part it needs, with the bits
of a solve at that order alone.  :func:`cholesky_banded` factors the Gram and
convex Newton bands, and it alone imports scipy.linalg, at its first call.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegreeCapError, IllConditionedError, UnsupportedExponentError
from .poly import (MAX_DEGREE, ONE, CircleZeroSpec, Poly, expand, lstsq_div,
                   signed_powers)
from .space import SpaceParams, _row_norms, norm
from .weights import Weight

log = logging.getLogger(__name__)

# Newton line searches: the Armijo fraction of the predicted decrease; solve_convex:
# the rounding level of phi below which a decrease does not count, the norm's
# stationarity at which it stops, and max_j |(F^H y)_j| / (max |y| ||f||_1) above
# which its dual vector y bounds nothing; _flat_linf: the stalls that end a stage
_ARMIJO = 0.25
_PHI_NOISE, _STATIONARY, _ANNIHILATED = 1e-15, 1e-12, 1e-12
_STALL_STEPS = 3
_GAP_TOL = 1e-9         # solve_flat: |relative duality gap| of a converged solve
_DUAL_GAP_TOL = 1e-10   # 1 < p < inf: |relative duality gap| of a converged solve
_ROUNDING = 1e-12       # solve_flat: relative agreement that counts as exact
_CLUSTER = 1e-2         # np.roots zeros this close (relative) may be one multiple zero
_PIVOT_TOL = 1e-11      # simplex: entering-column entries below this (relative) are 0
_FREE_TOL = 1e-6        # p = inf: dual entries below this (relative) vanish
_EPS_FALL = 0.01        # p = inf: a smoothing stage's eps over the previous stage's
# budgets; a solve that exhausts one reports the gap it reached
_MAX_PIVOTS, _NEWTON_STEPS, _SMOOTHING_STAGES, _DUAL_STEPS = 5000, 50, 6, 200
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_EXP_FLOOR = math.log(_TINY)    # exp below this is not a normal float


@dataclass
class SolverOpts:
    """The Newton step limit of :func:`solve_convex`, its own parameter.

    The default is the dual Newton's 200 steps.  No other route and no CLI
    option takes it, and no option sets when a solve converges: every
    route is certified by its duality gap (:func:`_gap_rule`).
    Construction raises ValueError unless ``max_iters`` is an integer >= 1.
    """

    max_iters: int = _DUAL_STEPS

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class OpaResult:
    """The order-n approximant of f in the space sp, plus diagnostics.

    ``f``, ``n`` and ``sp`` are the problem solved: f the polynomial (a
    CircleZeroSpec expanded), n the order of ``approximant``.
    ``optimal_norm`` is the weighted norm of the residual 1 - p_n f (on the
    p = 2 residual form, of its optimal r, from which p_n = (1 - r) / f);
    ``ortho_residual_max`` is the largest orthogonality pairing of the
    residual against z^j f for j <= n, evaluated with f scaled to unit norm
    (None at the flat endpoints, which the pairing does not cover).  It is
    formed from the fields each time it is read, and a sweep never reads it.
    ``dual`` (a lower bound on the optimum) and ``rel_gap``, (optimal_norm -
    dual) / optimal_norm or 0 when both vanish, give ``converged`` on every
    route (:func:`_gap_rule`), None where the dual vector bounds nothing.
    """

    f: Poly
    n: int
    sp: SpaceParams
    approximant: Poly
    residual: Poly
    optimal_norm: float
    iterations: int
    converged: bool
    solver: str
    dual: float | None = None
    rel_gap: float | None = None

    @property
    def ortho_residual_max(self) -> float | None:
        """max_j |sum_t w_t r_t^<p-1> conj(z^j f / norm(f))_t| over j <= n."""
        if self.sp.is_flat:
            return None
        wv = self.sp.weight.values_up_to(self.n + self.f.degree)
        dv = signed_powers(self.residual.padded(wv.size), self.sp.p - 1.0) * wv
        unit = _unit_and_norm(self.f, self.sp)[0]
        return float(np.abs(np.correlate(dv, np.conj(unit), mode="valid")).max())


def _validate(f: Poly, n: int) -> None:
    if not isinstance(f, Poly):
        raise TypeError("f must be a Poly")
    if f.is_zero:
        raise ValueError("f must not be the zero polynomial")
    if int(n) != n or n < 0:
        raise ValueError("order n must be a nonnegative integer")
    check_degree_cap(n, f.degree)


def check_degree_cap(n: int, d: int) -> None:
    """Raise DegreeCapError if order n of a degree-d problem passes the cap."""
    if n + d > MAX_DEGREE:
        raise DegreeCapError(f"order n = {n} plus deg f = {d} exceeds "
                             f"the degree cap {MAX_DEGREE}")


def _table_norm(c: np.ndarray, wv: np.ndarray, p: float) -> float:
    """:func:`space.norm` of coefficients c against a weight table wv from
    index 0 on, at least as long as c: the same formula, so the same bits."""
    return float(_row_norms(np.abs(c), wv[: c.size], p)) if c.size else 0.0


def _decay(x: np.ndarray) -> np.ndarray:
    """exp(x), x <= 0, and 0 where that is below the normal range, where np.exp is slow."""
    return np.exp(x, where=x > _EXP_FLOOR, out=np.zeros_like(x))


def _phases(angle: float, size: int) -> np.ndarray:
    """exp(-i angle t) for t < size, as exp(-i angle 64 b) exp(-i angle u) with
    t = 64 b + u: size / 64 + 64 sines and cosines, which are slow, for one
    rounding more."""
    u, b = np.arange(64.0) * angle, np.arange(-(-size // 64)) * (64.0 * angle)
    return np.outer(np.cos(b) - 1j * np.sin(b), np.cos(u) - 1j * np.sin(u)).ravel()[:size]


def _binary_scale(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(c / 2^k, k), 2^k the power of two at the largest modulus of c (math.frexp):
    exact for a normal c, and a subnormal c is taken into the normal range."""
    k = math.frexp(float(np.abs(c).max()))[1]
    return np.ldexp(np.ascontiguousarray(c).view(np.float64), -k).view(np.complex128), k


def _unit_and_norm(f: Poly, sp: SpaceParams) -> tuple[np.ndarray, float]:
    """The coefficients of f / norm(f), and norm(f), from f divided by its largest
    coefficient modulus first (|f_k|^p overflows at a high multiplicity), both
    scaled by 2^-k (:func:`_binary_scale`): the division forms 1 / top."""
    top = float(np.abs(f.coeffs).max())
    scaled, k = _binary_scale(f.coeffs)
    fc = scaled / math.ldexp(top, -k)
    size = norm(Poly(fc), sp)
    return fc / size, top * size


def _finalize(f: Poly, c: np.ndarray, sp: SpaceParams, iterations: int,
              solver: str, wv: np.ndarray) -> OpaResult:
    """The uncertified result of approximant coefficients c (of order len(c) - 1).

    The residual 1 - P f comes from one convolution, and its norm reads
    ``wv``, the caller's weight table from index 0 up to at least n + deg f,
    by :func:`_table_norm`, so it has the bits :func:`space.norm` gives.
    The warm start of :func:`solve_convex` does not pass through here: it
    takes the banded p = 2 coefficients alone.
    """
    approx = Poly(c)
    if approx.is_zero:
        residual = ONE
    else:
        conv = np.convolve(approx.coeffs, f.coeffs)
        # 1 - conv entrywise, as ONE - approx * f forms it: -conv with 1
        # added to entry 0 would turn +0.0 entries into -0.0
        r = np.zeros(conv.size, dtype=np.complex128)
        r[0] = 1.0
        r -= conv
        residual = Poly(r)
    size = _table_norm(residual.coeffs, wv, sp.p)
    return OpaResult(f, len(c) - 1, sp, approx, residual, size, iterations, False, solver)


# ---------------------------------------------------------------------------
# p = 2: normal equations
# ---------------------------------------------------------------------------

def cholesky_banded(ab: np.ndarray):
    """Factor a Hermitian band by LAPACK pbtrf: (solve, info).

    ab is the upper band, real or complex: entry (i, k), i <= k, at
    ``ab[h + i - k, k]``.  solve(rhs) runs pbtrs on the factor; info is 0,
    or k > 0 when the k-th leading minor is not positive definite.  No
    finiteness check: the caller checks the band it factors.  Module-level
    so perfbench/tracer.py can wrap it; scipy is imported at the first call.
    """
    from scipy.linalg import get_lapack_funcs
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    cb, info = pbtrf(ab, lower=0)
    return (lambda rhs: pbtrs(cb, rhs, lower=0)[0]), info


def _gram_band(fc: np.ndarray, gc: np.ndarray, wt: np.ndarray, n: int) -> np.ndarray:
    """The upper band of sum_t wt_t conj(f_{t-j}) g_{t-k} over j, k <= n (f, g of
    degree d, wt real or complex at indices 0 .. n + d): entry (j, j + o) at
    ``ab[u - o, j + o]``, u = min(d, n); g = f and wt = w give the Gram band."""
    d = fc.size - 1
    u = min(d, n)
    ab = np.zeros((u + 1, n + 1), dtype=np.complex128)
    for o in range(u + 1):
        prods = gc[: d - o + 1] * np.conj(fc[o:])
        corr = (np.correlate(wt, prods.real, mode="valid")
                + 1j * np.correlate(wt, prods.imag, mode="valid"))
        ab[u - o, o:] = corr[o: n + 1]
    return ab


def _hilbert_factor(fc: np.ndarray, n: int, wv: np.ndarray):
    """The weighted Gram solve of order n, and the p = 2 approximant's coefficients.

    fc are the coefficients of f and wv its weight table, indices 0 ..
    n + deg f.  The Gram matrix G of z^j f (j <= n) is assembled in band form
    and factored once; the returned function solves G x = rhs, and the
    coefficients solve it for conj(f_0) e_0.  ValueError for a band that is
    not finite (as scipy checks a Gram matrix), IllConditionedError where
    the factorization fails; :func:`_gram_certify` finds a solve too
    ill-conditioned to hold.
    """
    with np.errstate(over="ignore", invalid="ignore"):      # refused below
        ab = _gram_band(fc, fc, wv, n)
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    solve, info = cholesky_banded(ab)
    if info > 0:
        raise IllConditionedError("Gram factorization failed: "
                                  f"{info}-th leading minor not positive definite")
    rhs = np.zeros(n + 1, dtype=np.complex128)
    rhs[0] = np.conj(fc[0])
    return solve, solve(rhs)


def _live(a: np.ndarray, p: float) -> np.ndarray:
    """The residual moduli a above convolution-noise level: entries at it are exact
    zeros of the minimizer, whose terms drop out of the gradient and the Hessian."""
    return a > (1e-14 if p < 2 else 1e-18) * max(1.0, float(a.max()))


def _signed_data(r: np.ndarray, wv: np.ndarray, p: float):
    """conj(w_t |r_t|^(p-2) r_t), 0 at noise-level entries (:func:`_live`), and |r|."""
    a = np.abs(r)
    s = signed_powers(r, p - 1.0)
    s[~_live(a, p)] = 0.0
    return s * wv, a


def _gram_certify(result: OpaResult, gram, wv: np.ndarray) -> OpaResult:
    """Certify a Gram-factored result (:func:`_certify`) by y = d - W F G^-1 F^H d:
    d the dual data w |r|^(p-2) r of its residual, F the columns z^j f, W the
    weights wv, G = F^H W F the band ``gram`` solves (:func:`_hilbert_factor`).
    F^H y = 0 unless G is too ill-conditioned for that to hold to rounding
    (max_j |(F^H y)_j| above 1e-12 max |y| ||f||_1); then y bounds nothing."""
    fc = result.f.coeffs
    d = np.conj(_signed_data(result.residual.padded(wv.size), wv, result.sp.p)[0])
    y = d - wv * np.convolve(gram(np.correlate(d, fc, mode="valid")), fc)
    leak = np.abs(np.correlate(y, fc, mode="valid")).max()
    if leak <= _ANNIHILATED * np.abs(y).max() * np.abs(fc).sum():
        return _certify(result, np.abs(y), y[0].real, wv, result.sp)
    log.debug("solve_%s: dual vector leaks %.3e onto the z^j f", result.solver, leak)
    return result


def solve_hilbert(f: Poly, n: int, w: Weight) -> OpaResult:
    """Order-n approximant at p = 2 by solving the Gram system directly.

    The Gram matrix of z^j f (j = 0..n) in the weighted inner product is
    Hermitian positive definite and banded with bandwidth deg f, so a banded
    Cholesky factorization solves it in O(n d^2); IllConditionedError when
    it fails.  The same factor certifies the result (:func:`_gram_certify`),
    and a constant f has the exact answer 1 / f_0.  An oracle: ``--solver
    hilbert``, criterion 02 and :func:`composite_construction` use it; auto
    solves p = 2 by :func:`prepare_residual_qr`.  scipy.linalg is imported
    at the first call (:func:`cholesky_banded`), not with the module.
    """
    _validate(f, n)
    wv, sp = w.values_up_to(n + f.degree), SpaceParams(2.0, w)
    if not f.degree:
        return _constant(f, n, sp, "hilbert", wv)
    gram, c = _hilbert_factor(f.coeffs, n, wv)
    return _gram_certify(_finalize(f, c, sp, 0, "hilbert", wv), gram, wv)


# ---------------------------------------------------------------------------
# 1 < p < inf: damped Newton descent
# ---------------------------------------------------------------------------

def _convex_hessian(fc: np.ndarray, r: np.ndarray, wv: np.ndarray, p: float,
                    n: int) -> np.ndarray:
    """The upper band of the Hessian of phi = sum_t w_t |r_t|^p at residual
    r = 1 - c f, in LAPACK upper storage (:func:`cholesky_banded`): entry
    (i, k), i <= k, at ``ab[h + i - k, k]``, h = 2 min(d, n) + 1.

    In the interleaved coordinates (Re c_j, Im c_j) block (j, j + o) is
    [[p/2 Re K + Re M/2, -p/2 Im K + Im M/2], [p/2 Im K + Im M/2, p/2 Re K -
    Re M/2]], K and M the :func:`_gram_band` entries with weights
    beta = p w |r|^(p-2) and gamma r^2, gamma = p (p-2) w |r|^(p-4), and
    g = f and conj(f); it vanishes for o > d.  Residual entries at
    convolution-noise level are exact zeros of the minimizer and drop out (:func:`_live`).
    """
    a = np.abs(r)
    hmask = _live(a, p)
    am, wm = a[hmask], wv[hmask]
    beta = np.zeros_like(a)
    gamma = np.zeros_like(a)
    beta[hmask] = p * wm * am ** (p - 2.0)
    gamma[hmask] = p * (p - 2.0) * wm * am ** (p - 4.0)
    K = _gram_band(fc, fc, beta, n)
    M = _gram_band(fc, np.conj(fc), gamma * r ** 2, n)
    u = K.shape[0] - 1
    h = 2 * u + 1
    ab = np.zeros((h + 2, n + 1, 2))
    blocks = (p / 2 * K.real + M.real / 2, -p / 2 * K.imag + M.imag / 2,
              p / 2 * K.imag + M.imag / 2, p / 2 * K.real - M.real / 2)
    for (s, t), v in zip(((0, 0), (0, 1), (1, 0), (1, 1)), blocks):
        # entry (s, t) of block (j, j + o), in band row u - o at column j + o of
        # K and M, is entry (2j + s, 2(j + o) + t); row h + 1 takes (1, 0) at o = 0
        ab[1 + s - t: h + 2 + s - t: 2, :, t] = v
    return ab[: h + 1].reshape(h + 1, 2 * (n + 1))


def solve_convex(f: Poly, n: int, sp: SpaceParams,
                 opts: SolverOpts | None = None) -> OpaResult:
    """Order-n approximant for 1 < p < inf by damped Newton descent.

    An oracle: ``lpopa verify`` checks the other routes against it, and it
    runs from the CLI only as ``--solver convex``; the auto route uses
    :func:`solve_structural`.

    Minimizes phi = sum_t w_t |(1 - Pf)_t|^p over the 2(n+1) real coordinates
    of P's complex coefficients with the analytic gradient and Hessian
    (Boyd & Vandenberghe, *Convex Optimization*, 9.5), the Hessian a band
    of half-width 2 deg f + 1 (:func:`_convex_hessian`) solved by the banded
    Cholesky factorization of :func:`cholesky_banded` in O(n d^2).  The
    objective is convex and differentiable; residual entries at
    convolution-noise level are exact zeros of the minimizer and drop out
    of the gradient, the dual data and the Hessian (:func:`_live`).
    The banded Gram factor of :func:`solve_hilbert`, against the weight
    table this solve uses, is made first (IllConditionedError from it
    propagates), and the start is its p = 2 approximant's coefficients.

    :func:`_gram_certify` certifies an iterate by that Gram band.

    A step is accepted when it passes the Armijo test on phi or lowers the
    gradient sup-norm gmax: at the precision floor phi can no longer fall but
    gmax still can.  A failed factorization or a non-descent direction
    retries with a Levenberg shift, which makes the semidefinite Hessian
    definite.  A step that does not halve gmax ends the solve once its
    certificate is converged; otherwise the loop ends at a step no shift
    makes acceptable, after ``opts.max_iters`` steps, or where the norm's
    stationarity gmax / (p phi^((p-1)/p)), which unlike gmax does not shrink
    with phi as p grows, reaches 1e-12.  f is scaled to unit norm internally;
    results are reported for the original f.  A constant f has the exact
    answer 1 / f_0, dual bound and gap 0.
    """
    opts = opts or SolverOpts()
    if sp.is_flat:
        raise UnsupportedExponentError("solve_convex needs 1 < p < inf; use solve_flat")
    _validate(f, n)
    p = sp.p
    wv = sp.weight.values_up_to(n + f.degree)
    if not f.degree:
        return _constant(f, n, sp, "convex", wv)
    # f scaled to unit norm; x holds the coefficients of P |f|, real and imaginary
    # parts interleaved, so the residual 1 - P f is unchanged by the scaling
    fc, scale = _unit_and_norm(f, sp)

    def residual(x: np.ndarray) -> np.ndarray:
        r = -np.convolve(x.view(np.complex128), fc)
        r[0] += 1.0
        return r

    def phi_grad(x: np.ndarray):
        data, a = _signed_data(residual(x), wv, p)
        pair = np.correlate(data, np.conj(fc), mode="valid")
        return float((a ** p * wv).sum()), (-p * np.conj(pair)).view(np.float64)

    def stationarity(phi: float, gmax: float) -> float:   # of phi^(1/p)
        return gmax / (p * phi ** ((p - 1.0) / p)) if phi > 0.0 else 0.0

    def certified(x: np.ndarray, iterations: int) -> OpaResult:
        return _gram_certify(_finalize(f, x.view(np.complex128) / scale, sp, iterations,
                                       "convex", wv), gram, wv)

    gram, seed = _hilbert_factor(f.coeffs, n, wv)
    x = (seed * scale).view(np.float64)
    phi, g = phi_grad(x)
    gmax = float(np.abs(g).max())
    iterations = 0
    while iterations < opts.max_iters and stationarity(phi, gmax) > _STATIONARY:
        H = _convex_hessian(fc, residual(x), wv, p, n)
        diag = H[-1].copy()
        hscale = max(float(np.abs(diag).max()), 1e-30)
        accepted = False
        lam = 0.0
        for _ in range(8):
            H[-1] = diag + lam * hscale
            solve, info = cholesky_banded(H)
            dx = solve(-g) if info == 0 else None
            slope = float(g @ dx) if info == 0 and np.isfinite(dx).all() else 0.0
            if slope < 0.0:
                t = 1.0
                for _ in range(30):
                    phin, gn = phi_grad(x + t * dx)
                    gnmax = float(np.abs(gn).max())
                    if phi - phin > max(-_ARMIJO * t * slope, _PHI_NOISE * phi) or gnmax < gmax:
                        accepted = True
                        break
                    t *= 0.5
            if accepted:
                break
            lam = 1e-10 if lam == 0.0 else lam * 100.0
        iterations += 1
        if not accepted:
            break
        x = x + t * dx
        if gnmax > 0.5 * gmax and (result := certified(x, iterations)).converged:
            return result
        phi, g, gmax = phin, gn, gnmax
    return certified(x, iterations)


# ---------------------------------------------------------------------------
# The residual form, shared by solve_structural and solve_flat
# ---------------------------------------------------------------------------
#
# The residuals 1 - P f are the r of degree <= n+d with S r = e: r(zeta) = 1
# and r^(s)(zeta) = 0 for 0 < s < b at each zero zeta of multiplicity b.  The
# dual of min ||r||_{p,w} subject to S r = e is max Re(e^H lam) / ||S^H lam||_*,
# and every lam bounds the optimum from below (Boyd & Vandenberghe, *Convex
# Optimization*, 5.1).  In real coordinates block A[t] (c x R) maps lam to
# y_t = (S^H lam)_t and S r = e reads sum_t A[t].T r_t = b; c = 1 for real f.

def _zeros(f: Poly, problem) -> list[tuple[float, float, int]]:
    """(modulus, angle, multiplicity) of each zero of f: a CircleZeroSpec's exact
    zeros in spec order, else those of np.roots on f / 2^k (:func:`_binary_scale`),
    clustered into multiplicities where the clustered product reproduces f to
    rounding.  IllConditionedError where np.roots leaves the float range
    (f = 1 + 1e-320 z)."""
    if isinstance(problem, CircleZeroSpec):
        return [(1.0, angle, mult) for angle, mult in problem.roots]
    fc = _binary_scale(f.coeffs)[0]
    try:
        with np.errstate(over="ignore", invalid="ignore"):     # refused by eigvals
            roots = np.roots(fc[::-1])
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"a zero of f is out of the float range: {exc}") from exc
    clusters = []
    for root in roots:
        near = [c for c in clusters if abs(c[0] - root) <= _CLUSTER * max(1.0, abs(root))]
        if near:
            near[0].append(root)
        else:
            clusters.append([root])
    if len(clusters) == len(roots):         # simple zeros: nothing to check
        return [(abs(zeta), np.angle(zeta), 1) for zeta in roots]
    pairs = [(np.mean(c), len(c)) for c in clusters]
    product = fc[-1] * np.poly([zeta for zeta, mult in pairs for _ in range(mult)])
    if np.abs(product[::-1] - fc).max() > _ROUNDING * np.abs(fc).max():
        pairs = [(zeta, 1) for zeta in roots]
    return [(abs(zeta), np.angle(zeta), mult) for zeta, mult in pairs]


def _residual_rows(f: Poly, problem, m: int, real: bool):
    """Blocks A (m x c x R) and right side b of S r = e on residuals of length
    m, and back (d x R), which takes lam to the coordinates of conj(A lam) on S.

    The zeros are those of :func:`_zeros`.  Row s of zeta is (t/(m-1))^s
    zeta^t, times |zeta|^-(m-1) if |zeta| > 1 (phase and modulus apart:
    (-2)^t overflows); a zero at 0 gives the rows e_s.  An SVD makes the rows
    orthonormal, keeping d of them for a real f (real r).
    """
    t = np.arange(m, dtype=float)
    rows, rhs = [], []
    for modulus, angle, mult in _zeros(f, problem):
        shift = m - 1 if modulus > 1.0 else 0
        rhs += [modulus ** -shift] + [0.0] * (mult - 1)
        if modulus == 0.0:
            rows += [np.eye(1, m, s)[0] for s in range(mult)]
        else:
            base = np.exp((t - shift) * math.log(modulus) + 1j * angle * t)
            rows += [base * (t / (m - 1)) ** s for s in range(mult)]
    # the real and imaginary parts of S r = e, on (Re r_t) or (Re r_t, Im r_t)
    S, e = np.array(rows), np.array(rhs, dtype=np.complex128)
    M = np.concatenate([S.real, S.imag])[:, :, None]
    if not real:
        M = np.concatenate([M, np.concatenate([-S.imag, S.real])[:, :, None]], axis=2)
    u, sv, vh = np.linalg.svd(M.reshape(len(M), -1), full_matrices=False)
    k = len(rows) * M.shape[2]
    b = u[:, :k].T @ np.concatenate([e.real, e.imag]) / sv[:k]
    back = (u[: len(rows), :k] - 1j * u[len(rows):, :k]) / sv[:k]
    return vh[:k].reshape(k, m, -1).transpose(1, 2, 0), b, back


def _expand(problem, n: int) -> Poly:
    """f of a Poly or a CircleZeroSpec, validated for order n; a spec's degree
    is checked against the cap before the O(d^2) expansion."""
    if isinstance(problem, CircleZeroSpec):
        check_degree_cap(n, problem.degree)
    f = expand(problem) if isinstance(problem, CircleZeroSpec) else problem
    _validate(f, n)
    return f


def _is_real(f: Poly) -> bool:
    return bool(np.abs(f.coeffs.imag).max() <= _ROUNDING * np.abs(f.coeffs).max())


def _setup(problem, n: int, sp: SpaceParams):
    """f, its residuals' weight table w, and (A, b, back) of S r = e (None if f is constant)."""
    f = _expand(problem, n)
    m = n + f.degree + 1
    rows = _residual_rows(f, problem, m, _is_real(f)) if f.degree else None
    return f, sp.weight.values_up_to(m - 1), rows


def _hilbert_dual(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The p = 2 dual: (sum_t A[t].T A[t] / w_t) lam = b; its residual is A lam / w."""
    return np.linalg.solve(np.einsum("tcr,tcs->rs", A / w[:, None, None], A), b)


def _complex(r: np.ndarray) -> Poly:
    """The residual polynomial of real coordinates r (m x c)."""
    return Poly(r[:, 0] if r.shape[1] == 1 else r[:, 0] + 1j * r[:, 1])


def _real(r: Poly, A: np.ndarray) -> np.ndarray:
    """The real coordinates (m x c) of a residual polynomial, for blocks A (m x c x R)."""
    return r.padded(len(A)).view(np.float64).reshape(len(A), 2)[:, : A.shape[1]]


def _constant(f: Poly, n: int, sp: SpaceParams, solver: str, w: np.ndarray) -> OpaResult:
    """The exact answer P = 1 / f_0 of a constant f: residual 0, dual bound and gap 0."""
    return replace(_finalize(f, np.eye(1, n + 1)[0] / f.coeffs[0], sp, 0, solver, w),
                   converged=True, dual=0.0, rel_gap=0.0)


def _certify(result: OpaResult, size: np.ndarray, pairing: float, w: np.ndarray,
             sp: SpaceParams) -> OpaResult:
    """:func:`_gap_rule` of a result from a y that annihilates every z^j f,
    given as ``size`` = |y_t| and ``pairing`` = Re <y, r>, equal for every
    residual r, under the dual norm (sum_t w_t^(1-q) |y_t|^q)^(1/q), or
    max_t (p = 1) and sum_t (p = inf) of |y_t| / w_t."""
    if sp.is_flat:
        size = size / w
        dual_norm = float(size.max() if sp.p == 1.0 else size.sum())
    else:
        dual_norm = float((w ** (1.0 - sp.q) * size ** sp.q).sum()) ** (1.0 / sp.q)
    return _gap_rule(result, pairing, dual_norm)


def _gap_rule(result: OpaResult, pairing: float, dual_norm: float) -> OpaResult:
    """Set dual = pairing / dual_norm (weak duality), rel_gap and converged, which
    means |rel_gap| <= 1e-10, or 1e-9 at the flat endpoints; the one rule of
    every route.  A dual norm that is zero or not finite (weights that leave
    the float range) bounds nothing: dual and rel_gap stay None."""
    dual = float(pairing) / dual_norm if 0.0 < dual_norm < math.inf else math.nan
    if not math.isfinite(dual):
        result.converged = False
        log.debug("solve_%s: dual norm %.3e bounds nothing", result.solver, dual_norm)
        return result
    primal = result.optimal_norm
    gap = (primal - dual) / primal if primal > 0 else 0.0
    tol = _GAP_TOL if result.sp.is_flat else _DUAL_GAP_TOL
    result.dual, result.rel_gap = dual, gap
    result.converged = bool(abs(gap) <= tol)
    if not result.converged:
        log.debug("solve_%s: relative gap %.3e above %.0e", result.solver, gap, tol)
    return result


def _approximant(r: Poly, f: Poly, n: int) -> Poly:
    """P = (1 - r) / f by :func:`lstsq_div`; IllConditionedError where P leaves
    the float range (a subnormal f): a quotient not finite, or a LinAlgError."""
    try:
        with np.errstate(all="ignore"):
            return lstsq_div(ONE - r, f)[0]
    except ValueError as exc:
        raise IllConditionedError(f"residual form at n = {n}: P leaves the float range") from exc


def _residual_solve(problem, n: int, sp: SpaceParams, solver: str):
    """The solve of :func:`solve_structural` and :func:`solve_flat`: the regime
    method of p (looked up when called) gives a residual r and a dual vector
    lam, P = (1 - r) / f (:func:`_approximant`), and the reported norm is that
    of 1 - P f, certified by lam (:func:`_certify`); a constant f has dual bound
    and gap 0.  IllConditionedError where b . b underflows (before any solve),
    the method's linear algebra fails or ends with an r or lam not finite
    (|y_t|^q overflows at p near 1), or an uncertified norm is above 1 + 1e-12
    (the zero approximant's norm is 1).  Returns the result and, for a
    nonconstant f, (r, A, w, lam)."""
    f, w, rows = _setup(problem, n, sp)
    if rows is None:
        return _constant(f, n, sp, solver, w), None
    A, b, _ = rows
    if not b @ b >= _TINY:   # the |zeta|^-(m-1) rows of a zero off the circle
        raise IllConditionedError(f"residual form at n = {n}: its right side underflows")
    try:
        with np.errstate(all="ignore"):     # what is not finite is refused below
            r, lam, steps = (_flat_l1(A, b, w) if sp.p == 1.0 else _flat_linf(A, b, w)
                             if sp.is_flat else _dual_newton(A, b, w, sp.p))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"solve_{solver} at n = {n}: {exc}") from exc
    if not (np.isfinite(r).all() and np.isfinite(lam).all()):
        raise IllConditionedError(f"solve_{solver} at n = {n}: its residual or dual "
                                  f"vector is not finite")
    own = _complex(r)
    result = _finalize(f, _approximant(own, f, n).padded(n + 1), sp, steps, solver, w)
    result = _certify(result, np.linalg.norm(A @ lam, axis=1), b @ lam, w, sp)
    if not result.converged and result.optimal_norm > 1.0 + 1e-12:
        raise IllConditionedError(f"solve_{solver} at n = {n}: its norm {result.optimal_norm:.3e} "
                                  "is above that of the zero approximant")
    return result, (own, A, w, lam)


# ---------------------------------------------------------------------------
# p = 2: a prefix QR of the residual form
# ---------------------------------------------------------------------------
#
# At p = 2 the optimal residual is r = W^-1 S^H lam with (S W^-1 S^H) lam = e,
# and ||r||^2 = e^H lam.  With B = W^(-1/2) S^H = Q R that system is
# R^H R lam = e: d unknowns whatever n is.  The rows of B fall into fixed
# blocks, which end where the m = n + deg f + 1 rows of the orders
# n = 64, 128, 256, ... end, and R is extended a block at a time,
# R <- qr([R; B_block]); another order extends the factor of the whole blocks
# below it by its rows past them.  A sweep factors each block once, a
# doubling grid from a power of two reads whole blocks only, and each order
# gets the bits of a solve at that order alone.

_QR_FIRST = 6           # the p = 2 prefix QR's first block: the rows below order 2^6
_TABLE_BITS = 16        # its row table holds (t / 2^16)^s, t <= MAX_DEGREE = 2^16


class _FormedOnRead(OpaResult):
    """An OpaResult whose residual is held as its coefficients, made a Poly at
    its first read, and whose approximant, (1 - residual) / f by
    :func:`lstsq_div`, is formed at its first read: a sweep reads norms only."""

    @property
    def residual(self) -> Poly:
        if not isinstance(self._residual, Poly):
            self._residual = Poly(self._residual)
        return self._residual

    @residual.setter
    def residual(self, value) -> None:
        self._residual = value

    @property
    def approximant(self) -> Poly:
        if self._approximant is None:
            self._approximant = _approximant(self.residual, self.f, self.n)
        return self._approximant

    @approximant.setter
    def approximant(self, value: Poly | None) -> None:
        self._approximant = value


def prepare_residual_qr(problem, n_max: int, w: Weight):
    """The p = 2 optimum of every order n <= n_max from a prefix QR of the residual form.

    ``problem`` is a Poly or a CircleZeroSpec (exact zeros; :func:`_zeros`).
    One table holds the rows B[t] = conj(zeta)^t (t / 2^16)^s / sqrt(w_t) of
    every zero zeta and power s below its multiplicity, t < n_max + deg f + 1,
    without the modulus of a zeta outside the disc; a real f takes the real
    and imaginary parts of a pair of conjugate zeros as two real rows.  The
    factor of rows [0, m) takes the table's columns times the exact power of
    two 2^((16-k) s), 2^k >= m, so that they read (t / 2^k)^s, and those of
    a zeta outside the disc times |zeta|^(t - (m-1)) (phase and modulus
    apart: (-2)^t overflows); R's columns are rescaled alike as it grows.
    The order-n solve (see the section comment) takes lam = R^-1 R^-H e from
    the explicit inverse of its R, reports the norm of r = W^-1 S^H lam and
    certifies it by y = S^H lam = W r (:func:`_certify`).  The residual is
    made a Poly, and the approximant formed, when read.

    IllConditionedError where the right side e underflows (every zero
    outside the disc) or R is singular to working precision (its Frobenius
    condition times the rounding unit reaches 1, or is not finite).  n_max
    is validated; an order outside 0..n_max raises ValueError.
    """
    f = _expand(problem, n_max)
    d, wv, sp = f.degree, w.values_up_to(n_max + f.degree), SpaceParams(2.0, w)

    def order(n: int) -> int:
        if not 0 <= n <= n_max:
            raise ValueError(f"order {n} outside the prepared orders 0..{n_max}")
        return n

    if not d:
        return lambda n: _constant(f, order(n), sp, "residual-qr", wv)
    # columns of the zeros outside the disc last, so a slice splits them off;
    # a real f takes real rows: one of a real zero, the cosine and sine rows
    # of a pair (the real and imaginary parts of S r = e) from its zero above
    # the axis
    zeros = sorted(_zeros(f, problem), key=lambda zero: zero[0] > 1.0)
    real = _is_real(f) and d == sum(mult * (1 + (math.sin(angle) > _ROUNDING))
                                    for _, angle, mult in zeros
                                    if math.sin(angle) >= -_ROUNDING)
    root, t = np.sqrt(wv), np.arange(wv.size, dtype=float)
    table = np.empty((d, t.size), dtype=float if real else np.complex128)
    powers, logs, first, j = np.zeros(d, dtype=int), np.zeros(d), np.zeros(d), 0
    for modulus, angle, mult in zeros:
        sine = math.sin(angle)
        if real and sine < -_ROUNDING:
            continue
        if modulus == 0.0:
            table[j: j + mult] = np.eye(mult, t.size)
            first[j], j = 1.0, j + mult
            continue
        if real and abs(sine) <= _ROUNDING:     # (+-1)^t
            bases = [np.ones(t.size)]
            bases[0][1::2] = math.copysign(1.0, math.cos(angle))
        else:
            phase = _phases(angle, t.size)
            bases = [phase.real, phase.imag] if real else [phase]
        if modulus < 1.0:
            bases = [base * _decay(math.log(modulus) * t) for base in bases]
        first[j] = 1.0
        for base in bases:
            for s in range(mult):           # base (t / 2^16)^s
                table[j + s] = base
                base = base * (t / 2.0 ** _TABLE_BITS)
            powers[j: j + mult] = range(mult)
            logs[j: j + mult] = max(math.log(modulus), 0.0)
            j += mult
    with np.errstate(divide="ignore", invalid="ignore"):   # refused by the solve
        table /= root
    k = int((logs == 0.0).sum())            # columns of the zeros in the closed disc
    outside, upper, scales = logs[k:], np.triu(np.ones((d, d), dtype=bool)), {}
    # |zeta|^-u of the zeros outside the disc, up to the u past which every one is 0
    fall = (_decay(np.outer(-outside, np.arange(min(t.size, 1 - math.floor(
        _EXP_FLOOR / outside.min()))))) if outside.size else None)

    def shift(u: int) -> np.ndarray:
        """|zeta|^-u of the zeros outside the disc."""
        return fall[:, u] if u < fall.shape[1] else np.zeros(fall.shape[0])

    def scale(hi: int) -> np.ndarray:
        """The powers of two that take the columns of the table to (t / hi)^s, hi = 2^k."""
        if hi not in scales:
            scales[hi] = np.ldexp(1.0, (_TABLE_BITS + 1 - hi.bit_length()) * powers)
        return scales[hi]

    def extend(below, m: int):
        """The factor (R, m, hi) of rows [0, m) from ``below``, that of rows [0, lo)
        (None: lo = 0): R's columns are the table's times scale(hi), hi = 2^k >= m,
        and those outside the disc times |zeta|^-(m-1)."""
        R, lo, before = below or (None, 0, 0)
        hi = 1 << (m - 1).bit_length()
        rows = table[:, lo:m].T * scale(hi)
        if outside.size:        # |zeta|^(t - (m-1)) on the rows t, from the first not 0
            start = max(lo, m - fall.shape[1])
            rows[: start - lo, k:] = 0.0
            rows[start - lo:, k:] *= fall[:, m - 1 - start:: -1].T
        if R is not None:
            R = R * (scale(hi) / scale(before))
            if outside.size:
                R[:, k:] *= shift(m - lo)
            rows = np.concatenate((R, rows))
        h = np.linalg.qr(rows, mode="raw")[0].T[:d]        # R on and above the diagonal
        return np.where(upper[: len(h)], h, 0.0), m, hi

    whole = {}              # j -> the factor of the rows below order 2^j

    def block(j: int):
        if j not in whole:
            whole[j] = extend(block(j - 1) if j > _QR_FIRST else None, (1 << j) + d + 1)
        return whole[j]

    def solve(n: int) -> OpaResult:
        m = order(n) + d + 1
        j = max(_QR_FIRST, (n - 1).bit_length())    # the block of order n: 2^(j-1) < n <= 2^j
        with np.errstate(all="ignore"):     # what is not finite is refused below
            R, _, hi = (block(j) if n == 1 << j
                        else extend(block(j - 1) if j > _QR_FIRST else None, m))
            e = first.copy()
            if outside.size:
                e[k:] *= shift(m - 1)
            try:
                inv = np.linalg.inv(R)
            except np.linalg.LinAlgError as exc:
                raise IllConditionedError(f"residual form at n = {n}: {exc}") from exc
            cond = math.sqrt(np.vdot(R, R).real * np.vdot(inv, inv).real)  # Frobenius
            lam = inv @ (e @ inv.conj())
            c = lam * scale(hi)             # lam on the columns of the table
            v = c[:k] @ table[:k, :m]
            if outside.size:
                start = max(0, m - fall.shape[1])
                v[start:] += c[k:] @ (table[k:, start:m] * fall[:, m - 1 - start:: -1])
            r = v / root[:m]
            a = np.abs(r)
            size = float(_row_norms(a, wv[:m], 2.0))       # _table_norm's bits
        if not e @ e >= _TINY:
            raise IllConditionedError(f"residual form at n = {n}: its right side underflows")
        if not (cond * _EPS < 1.0 and math.isfinite(size)):
            raise IllConditionedError(f"residual form at n = {n}: R is singular to "
                                      f"working precision (condition {cond:.3e})")
        result = _FormedOnRead(f, n, sp, None, r, size, 0, False, "residual-qr")
        # |y| = w |r|, y = S^H lam the dual vector
        return _certify(result, a * wv[:m], float((e @ lam).real), wv[:m], sp)

    return solve


# ---------------------------------------------------------------------------
# 1 < p < inf: Newton's method on the dual
# ---------------------------------------------------------------------------

def _dual_value(A: np.ndarray, b: np.ndarray, w: np.ndarray, q: float, lam: np.ndarray):
    """h(lam) = b . lam - (1/q) sum_t w_t^(1-q) |y_t|^q, with y = A lam and the |y_t|."""
    y = A @ lam
    size = np.linalg.norm(y, axis=1)
    return float(b @ lam - (w ** (1.0 - q) * size ** q).sum() / q), y, size


def _dual_slopes(A: np.ndarray, b: np.ndarray, w: np.ndarray, q: float,
                 y: np.ndarray, size: np.ndarray):
    """Gradient and negated Hessian of h at y = A lam, and the primal residual
    r_t = w_t^(1-q) |y_t|^(q-2) y_t, the minimizer of the Lagrangian."""
    a, unit, live = np.zeros_like(size), np.zeros_like(y), size > 0
    a[live] = w[live] ** (1.0 - q) * size[live] ** (q - 2.0)
    unit[live] = y[live] / size[live, None]
    r, along = y * a[:, None], np.einsum("tcr,tc->tr", A, unit)
    rows = A.reshape(-1, A.shape[2])
    # dr_t/dy_t = a_t (I + (q - 2) u_t u_t^T) with u_t = y_t / |y_t|
    hess = (rows.T * np.repeat(a, A.shape[1])) @ rows + (q - 2.0) * (along.T * a) @ along
    return b - np.einsum("tcr,tc->r", A, r), hess, r


def _dual_data(w: np.ndarray, r: np.ndarray, p: float) -> np.ndarray:
    """w_t |r_t|^(p-2) r_t, the dual data conj(w_t r_t^<p-1>) of a residual r
    (m x c); A.T applied to it is its least-squares fit onto the rows."""
    size = np.linalg.norm(r, axis=1)
    scale, live = np.zeros_like(size), size > 0
    scale[live] = w[live] * size[live] ** (p - 2.0)
    return r * scale[:, None]


def _dual_newton(A: np.ndarray, b: np.ndarray, w: np.ndarray, p: float):
    """The dual Newton loop of :func:`solve_structural`; returns r, lam and its steps."""
    q = p / (p - 1.0)
    lam = np.einsum("tcr,tc->r", A, _dual_data(w, A @ _hilbert_dual(A, b, w) / w[:, None], p))
    (h, y, size), steps = _dual_value(A, b, w, q, lam), 0
    while steps < _DUAL_STEPS:
        grad, hess, _ = _dual_slopes(A, b, w, q, y, size)
        step = np.linalg.solve(hess + 1e-13 * np.trace(hess) * np.eye(b.size), grad)
        decrement, t, steps = float(grad @ step), 1.0, steps + 1
        if decrement <= 1e-14 * abs(h):
            lam = lam + step
            break
        while t > 1e-12:
            hn, yn, sn = _dual_value(A, b, w, q, lam + t * step)
            if hn >= h + _ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            break
        lam, h, y, size = lam + t * step, hn, yn, sn
    return _dual_slopes(A, b, w, q, *_dual_value(A, b, w, q, lam)[1:])[2], lam, steps


@dataclass
class ExpPolyFit:
    """Constants of the residual representation d_t = sum A[i,j] t**(j-1) z_i**t.

    A record of the zeros (``spec``), the solve (``result``) and the residual
    whose data d_t = w_t r_t^<p-1> the constants represent (``source``: a
    solver's own, free of the division defect of P, or ``result.residual``).
    Keys are (root index in spec order, power j <= multiplicity).  The data of
    ``source`` projected onto the residual-form rows is y = A lam; the constants
    are its coordinates on the rows (t/(m-1))**(j-1) z_i**t times (m-1)**(1-j),
    which underflows to 0 at a high multiplicity.  Each field is formed when
    read, and :meth:`form` gives all three at once: ``fit_residual`` is the sup
    deviation of y from the data of ``result.residual``, ``system_residual``
    the sup of the dual gradient b - A.T r(y).
    """

    spec: CircleZeroSpec
    result: OpaResult
    source: Poly

    def form(self) -> tuple[dict[tuple[int, int], complex], float, float]:
        """``constants``, ``fit_residual`` and ``system_residual`` from one projection;
        a flat result (p in {1, inf}), whose data degenerates, raises UnsupportedExponentError."""
        res, sp = self.result, self.result.sp
        if sp.is_flat:
            raise UnsupportedExponentError("structure constants need 1 < p < inf")
        _, w, (A, b, back) = _setup(self.spec, res.n, sp)
        lam = np.einsum("tcr,tc->r", A, _dual_data(w, _real(self.source, A), sp.p))
        _, y, size = _dual_value(A, b, w, sp.q, lam)
        scale = 1.0 / (len(A) - 1)
        pairs = [(i, j) for i, (_, mult) in enumerate(self.spec.roots) for j in range(1, mult + 1)]
        data = _dual_data(w, _real(res.residual, A), sp.p)
        return ({(i, j): complex(x * scale ** (j - 1)) for (i, j), x in zip(pairs, back @ lam)},
                float(np.linalg.norm(data - y, axis=1).max()),
                float(np.abs(_dual_slopes(A, b, w, sp.q, y, size)[0]).max()))

    constants = property(lambda self: self.form()[0])
    fit_residual = property(lambda self: self.form()[1])
    system_residual = property(lambda self: self.form()[2])


def solve_structural(problem, n: int, sp: SpaceParams) -> tuple[OpaResult, ExpPolyFit | None]:
    """Order-n approximant for 1 < p < inf by Newton's method on the dual.

    ``problem`` is a Poly or a CircleZeroSpec (exact zeros).  The unknowns are
    the R = d (real f) or 2d dual coordinates lam of the residual-form rows,
    whatever n is.  Newton's method (:func:`_dual_newton`) maximizes the
    concave dual h(lam) = b . lam - (1/q) sum_t w_t^(1-q) |y_t|^q, y = A lam,
    whose maximizer gives the optimal residual r_t = w_t^(1-q) |y_t|^(q-2) y_t;
    the Hessian is shifted by 1e-13 of its trace, for the entries where y
    vanishes.  Steps pass an Armijo test on h, and once the Newton decrement
    is at or below 1e-14 |h| (rounding level, where no Armijo test can pass)
    the full step ends the solve; at most 200 steps.  The start is the
    least-squares fit of w |r|^(p-2) r onto the rows, with r the p = 2
    residual.  :func:`_residual_solve` certifies the result.

    For a spec the second value is the :class:`ExpPolyFit` of the solver's
    own residual, formed when read (None for a Poly or a constant f).
    """
    if sp.is_flat:
        raise UnsupportedExponentError("structural solve needs 1 < p < inf")
    result, solved = _residual_solve(problem, n, sp, "structural")
    return result, (ExpPolyFit(problem, result, solved[0])
                    if solved and isinstance(problem, CircleZeroSpec) else None)


# ---------------------------------------------------------------------------
# Flat endpoints p in {1, inf}: the residual-form linear programs
# ---------------------------------------------------------------------------

def _free_columns(A: np.ndarray, y: np.ndarray, w: np.ndarray, p: float):
    """Entries a dual y leaves free, and their constraint columns (R x k):
    at p = 1 those where |y_t| / w_t is largest, each with the phase of y_t;
    at p = inf those where y_t vanishes (elsewhere r_t is fixed)."""
    size = np.linalg.norm(y, axis=1)
    if p == 1.0:
        free = size / w >= (1.0 - _GAP_TOL) * (size / w).max()
        return free, np.einsum("tcr,tc->rt", A[free], y[free] / size[free, None])
    free = size <= _FREE_TOL * size.max()
    return free, A[free].reshape(-1, A.shape[2]).T


def _flat_l1(A: np.ndarray, b: np.ndarray, w: np.ndarray):
    """Revised simplex for min sum_t w_t |r_t| subject to sum_t A[t].T r_t = b.

    A column is a unit entry u at t with cost w_t; its reduced cost
    w_t - u . y_t is least at u = y_t / |y_t|, so pricing enters argmax_t
    |y_t| / w_t, and the solve stops where that is at most 1 (lam is then
    dual feasible).  It starts at r = e_0, the zero approximant, completed to
    a basis by Gram-Schmidt with column pivoting.  The weights x are updated,
    not re-solved, so degenerate pivots leave them exact.  Returns r, lam and
    the pivots.
    """
    m, c, R = A.shape
    columns = A.reshape(m * c, R).T
    ts, us, span = [0], [np.eye(c)[0]], b[:, None] / np.linalg.norm(b)
    for _ in range(R - 1):      # add the column farthest from the span so far
        rest = columns - span @ (span.T @ columns)
        k = int(np.argmax((rest * rest).sum(axis=0)))
        span = np.column_stack([span, rest[:, k] / np.linalg.norm(rest[:, k])])
        ts, us = ts + [k // c], us + [np.eye(c)[k % c]]
    ts, us, x, pivots = np.array(ts), np.array(us), np.eye(R)[0], 0
    while True:
        basis = np.einsum("jcr,jc->rj", A[ts], us)
        lam = np.linalg.solve(basis.T, w[ts])
        y = A @ lam
        size = np.linalg.norm(y, axis=1)
        t = int(np.argmax(size / w))
        if size[t] <= w[t] * (1.0 + _ROUNDING) or pivots == _MAX_PIVOTS:
            break
        u = y[t] / size[t]
        col = np.linalg.solve(basis, u @ A[t])
        ok = col > _PIVOT_TOL * np.abs(col).max()
        if not ok.any():
            break
        ratio = np.where(ok, np.maximum(x, 0.0) / np.where(ok, col, 1.0), np.inf)
        j = int(np.argmax(np.where(ratio <= ratio.min(), col, -np.inf)))
        x = x - ratio[j] * col
        ts[j], us[j], x[j], pivots = t, u, ratio[j], pivots + 1
    r = np.zeros((m, c))
    np.add.at(r, ts, x[:, None] * us)
    return r, lam, pivots


def _flat_linf(A: np.ndarray, b: np.ndarray, w: np.ndarray):
    """Dual Newton for min max_t w_t |r_t| subject to sum_t A[t].T r_t = b.

    The dual minimizes Phi(lam) = sum_t |y_t| / w_t on the plane b . lam = 1,
    where 1 / Phi bounds the optimum from below.  Newton's method runs on the
    smoothed sum_t g_t / w_t, g_t = sqrt(|y_t|^2 + eps^2), from the p = 2
    dual, with eps falling 100-fold per stage over six stages, from the mean
    |y_t| to 1e-12 of it; a plane of dimension 0 is the point b / (b . b),
    and no stage runs.  The path z(eps) of smoothed minimizers moves
    linearly in eps once the vanishing entries are found, so a stage after
    the first starts from the secant prediction z + 0.01 (z - z_prev)
    through the ends of the last two stages (the p = 2 dual standing in
    for the first), kept only where it lowers the smoothed phi at the new
    eps, else from z.  A stage ends when the Newton decrement falls to
    1e-20 phi, after 50 steps, or after _STALL_STEPS consecutive stalls:
    steps whose decrement is at phi's rounding level, 1e-14 phi, without
    falling below half the previous one.  Steps that still halve it go on,
    because the direction of y, which fixes r, improves after phi stops
    moving.
    Complementary slackness fixes r_t = y_t / (|y_t| w_t Phi) where y_t
    does not vanish; on the set where it does, r solves the same problem
    against the remaining right side, with fewer entries and rows of lower
    rank.  A set of every entry (a dual that underflows) is not recursed on:
    r stays 0 there, and the certificate leaves the result unconverged.
    Nor is a remaining right side of 0, as f(0) = 0 leaves (where r = e_0 is
    optimal): r = 0 solves it, and its plane b . lam = 1 is empty.
    Returns r, lam and the Newton steps.
    """
    m, c, R = A.shape
    plane = np.linalg.svd(b[None])[2][1:].T
    start = _hilbert_dual(A, b, w)
    lam0 = b / (b @ b)
    z, y0, Az = plane.T @ (start / (b @ start) - lam0), A @ lam0, A @ plane
    flat = Az.reshape(m * c, R - 1)

    def smoothed(z, eps):
        y = y0 + Az @ z
        g = np.sqrt((y * y).sum(axis=1) + eps * eps)
        return y, g, float((g / w).sum())

    eps, steps, back = float(np.linalg.norm(y0 + Az @ z, axis=1).mean()), 0, None
    eye_c, eye_z = np.eye(c), np.eye(z.size)
    for _ in range(_SMOOTHING_STAGES if z.size else 0):
        eps *= _EPS_FALL
        y, g, phi = smoothed(z, eps)
        prior, back = back, z
        if prior is not None:       # the secant start, kept where it lowers phi
            guess = z + _EPS_FALL * (z - prior)
            yn, gn, phin = smoothed(guess, eps)
            if phin < phi:
                z, y, g, phi = guess, yn, gn, phin
        stalls, last = 0, math.inf
        for _ in range(_NEWTON_STEPS):
            grad = flat.T @ (y / (g * w)[:, None]).ravel()
            # (g^2 I - y y^T) / g^3, with g^2 - |y|^2 = eps^2 taken exactly
            yy = (y * y).sum(axis=1)[:, None, None] * eye_c - y[:, :, None] * y[:, None, :]
            curv = (eps * eps * eye_c + yy) / (g ** 3 * w)[:, None, None]
            hess = flat.T @ (curv @ Az).reshape(flat.shape)
            # the shift keeps flat directions of Phi, with curvature eps^2
            # below the rounding of the rest, from taking over the step
            dz = -np.linalg.solve(hess + 1e-12 * np.trace(hess) * eye_z, grad)
            decrement, step = -float(grad @ dz), 1.0
            stalls = stalls + 1 if 0.5 * last <= decrement <= 1e-14 * phi else 0
            last = decrement
            if stalls >= _STALL_STEPS:
                break
            while decrement > 1e-20 * phi and step > 1e-12:
                yn, gn, phin = smoothed(z + step * dz, eps)
                if phin <= phi - 0.25 * step * decrement:
                    break
                step *= 0.5
            else:
                break
            z, y, g, phi, steps = z + step * dz, yn, gn, phin, steps + 1
    lam = lam0 + plane @ z
    y = A @ lam
    size = np.linalg.norm(y, axis=1)
    free, cols = _free_columns(A, y, w, math.inf)
    r = np.zeros((m, c))
    r[~free] = y[~free] / (size * w)[~free, None] / float((size / w).sum())
    u, sv, vh = np.linalg.svd(cols, full_matrices=False)
    k = int((sv > _FREE_TOL * sv[0]).sum()) if sv.size else 0
    if k and not free.all():
        rest = u[:, :k].T @ (b - np.einsum("tcr,tc->r", A[~free], r[~free])) / sv[:k]
        if rest.any():      # a zero right side leaves r = 0 on the free set
            r[free], _, more = _flat_linf(vh[:k].T.reshape(-1, c, k), rest, w[free])
            steps += more
    return r, lam, steps


def solve_flat(problem, n: int, sp: SpaceParams) -> tuple[OpaResult, int | None]:
    """Order-n minimizer at p in {1, inf} from the residual-form linear program.

    ``problem`` is a Poly or a CircleZeroSpec (exact zeros).  p = 1 runs
    :func:`_flat_l1` and p = inf :func:`_flat_linf` in :func:`_residual_solve`,
    which certifies the result.  Minimizers need not be unique: the second
    value is the dimension of the face the certificate leaves free, residuals
    meeting the constraints where the dual bound is tight (p = 1, with the
    dual's phase) or the dual vanishes (p = inf).  It bounds that of the
    optimal set, so 0 certifies a unique minimizer.  An unconverged result
    gets None: its dual vector need not bound the optimum, so the face it
    leaves free says nothing.
    """
    if not sp.is_flat:
        raise UnsupportedExponentError("solve_flat handles p in {1, inf} only")
    result, solved = _residual_solve(problem, n, sp, "flat")
    if solved is None or not result.converged:     # a constant f's residual 0 is unique
        return result, None if solved else 0
    _, A, w, lam = solved
    cols = _free_columns(A, A @ lam, w, sp.p)[1]
    return result, int(cols.shape[1] - (np.linalg.matrix_rank(cols) if cols.size else 0))


# ---------------------------------------------------------------------------
# Closed forms for f = 1 - z^d and the composite construction
# ---------------------------------------------------------------------------

def delta_sums(sp: SpaceParams, last: int) -> np.ndarray:
    """Cumulative sums s_k = sum_{t<=k} w_t**(-q/p) for k = 0..last, inf unwarned."""
    if sp.is_flat:
        raise UnsupportedExponentError("delta sums need 1 < p < inf")
    with np.errstate(divide="ignore", over="ignore"):
        return np.cumsum(sp.weight.values_up_to(last) ** (-sp.q / sp.p))


def detect_one_minus_zd(f: Poly) -> tuple[int, complex] | None:
    """Recognize f = c*(1 - z^d) to 1e-12 relative; returns (d, c) or None."""
    if not isinstance(f, Poly) or f.is_zero or f.degree == 0:
        return None
    c = f.coeffs
    lead = c[0]
    with np.errstate(over="ignore"):        # a sum that overflows is far from 0
        if lead == 0 or abs(c[-1] + lead) > 1e-12 * abs(lead):
            return None
    if c.size > 2 and np.abs(c[1:-1]).max() > 1e-12 * abs(lead):
        return None
    return f.degree, complex(lead)


def prepare_closed_form(f: Poly, n_max: int, sp: SpaceParams):
    """The order-n closed-form solve of f = c*(1 - z^d) for every n <= n_max.

    Q(z^d) * (1 / c), Q that of :func:`closed_form_one_minus_zd`, is finalized
    against the given f, a match to rounding included.  It reads one weight
    table, w_0 .. w_{n_max + d}: the residual norms whole, and the sums s_k
    of the dilated weight w_{dt} with stride d.  The sums of the order-n
    formula are the first M + 2 of those at n_max, and np.cumsum adds in
    sequence, so every order gets the bits of its own.  y = 1 at the
    multiples of d up to (M + 1) d, which annihilates every z^j f and pairs
    to 1, has dual norm s_{M+1}^(1/q): :func:`_gap_rule` takes that in O(1).
    IllConditionedError where the sums leave s_t / s_{M+1} undefined or P
    leaves the float range (a subnormal c); a ValueError if f is not
    c*(1 - z^d), and for an order outside 0..n_max; n_max is validated.
    """
    match = detect_one_minus_zd(f)
    if match is None:
        raise ValueError("closed-form solver requires f = c*(1 - z^d)")
    d, lead = match
    inv = 1.0 / lead                        # inf at a subnormal c
    _validate(f, n_max)
    if sp.is_flat:
        raise UnsupportedExponentError(
            "closed form is implemented for 1 < p < inf only")
    wv = sp.weight.values_up_to(n_max + d)
    with np.errstate(divide="ignore", over="ignore"):      # refused by the order
        s = np.cumsum(wv[::d][: n_max // d + 2] ** (-sp.q / sp.p))

    def solve(n: int) -> OpaResult:
        if not 0 <= n <= n_max:
            raise ValueError(f"order {n} outside the prepared orders 0..{n_max}")
        big_m = n // d
        if not (s[big_m] < math.inf and s[big_m + 1] > 0.0):
            raise IllConditionedError(f"closed form at n = {n}: the weight sums "
                                      "leave the float range")
        coeffs = np.zeros(n + 1, dtype=np.complex128)
        coeffs[:: d][: big_m + 1] = 1.0 - s[: big_m + 1] / s[big_m + 1]
        if not np.isfinite(inv):            # P = Q(z^d) / c with |Q_t| <= 1
            raise IllConditionedError(f"closed form at n = {n}: P leaves the float range")
        result = _finalize(f, coeffs * inv, sp, 0, "closed-form", wv)
        return _gap_rule(result, 1.0, float(s[big_m + 1]) ** (1.0 / sp.q))

    return solve


def closed_form_one_minus_zd(d: int, n: int, sp: SpaceParams) -> OpaResult:
    """Exact order-n approximant for f = 1 - z^d.

    The problem reduces to f = 1 - z against the dilated weight w~_t = w_{dt}:
    the approximant is Q(z^d) with Q_t = 1 - s_t/s_{M+1} built from the
    cumulative sums s of w~**(-q/p), M = floor(n/d), and the optimal norm to
    the p-th power equals s_{M+1}**(1-p).  The one-order case of
    :func:`prepare_closed_form` on 1 - z^d.
    """
    if int(d) != d or d < 1:
        raise ValueError("d must be a positive integer")
    return prepare_closed_form(Poly(np.concatenate([[1.0], np.zeros(d - 1), [-1.0]])), n, sp)(n)


def composite_construction(spec: CircleZeroSpec, n: int, sp: SpaceParams) -> Poly:
    """Near-optimal approximant for repeated circle zeros.

    Builds the simple-zero polynomial g = prod (z - zeta_i) with the same
    zero set, solves the p = 2 problem for 1/g against the weight
    w**(1/(p-1)) at the reduced order sigma(n) = floor((n+d)/d0) - m, and
    returns (q_sigma g)**d0 / f, with d0 the maximal multiplicity.  With
    f = lead * prod (z - zeta_i)**b_i that quotient is the product
    q_sigma**d0 * prod (z - zeta_i)**(d0 - b_i) / lead, which is formed
    directly, without polynomial division.  Its degree is
    d0*sigma + sum (d0 - b_i) <= n, and its residual norm decays at the
    optimal rate up to a constant factor.
    """
    if sp.is_flat:
        raise UnsupportedExponentError("composite construction needs 1 < p < inf")
    g = expand(spec.with_simple_roots())
    _validate(g, n)
    d = spec.degree
    d0 = spec.max_multiplicity
    nroots = len(spec.roots)
    sigma = (n + d) // d0 - nroots
    if sigma < 0:
        raise ValueError(
            f"n={n} too small: the reduced order floor((n+d)/d0) - m = {sigma} "
            "is negative")
    w_phi = sp.weight.pointwise_power(1.0 / (sp.p - 1.0))
    q_sigma = solve_hilbert(g, sigma, w_phi).approximant
    result = expand(CircleZeroSpec(tuple((a, d0 - b) for a, b in spec.roots if b < d0)))
    for _ in range(d0):
        result = result * q_sigma
    return result * (1.0 / spec.leading_coefficient)


def bj_certificate(result: OpaResult, n_probes: int = 100, seed: int = 0) -> float:
    """Worst definitional-orthogonality violation of a result over random probes.

    With f and sp those of the result, samples n_probes pairs (lambda, j)
    with |lambda| <= 1e-3 norm(residual) / norm(f), j <= n, the order of
    the result, and returns
    max(norm(residual) - norm(residual + lambda z^j f), 0); a minimizer keeps
    this at numerical-noise level.  The steps are scaled to the residual
    because a larger step raises the norm of any near-minimizer too.  The
    trial residuals are the rows of one matrix, whose norms are taken
    together.
    """
    f, sp = result.f, result.sp
    rng = np.random.default_rng(seed)
    base = result.optimal_norm
    radius = 1e-3 * base / _unit_and_norm(f, sp)[1]
    n, d = result.n, f.degree
    size = max(result.residual.coeffs.size, n + d + 1)
    trials = np.tile(result.residual.padded(size), (n_probes, 1))
    for row in trials:
        j = int(rng.integers(0, n + 1))
        lam = radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
        row[j: j + d + 1] += f.coeffs * lam
    norms = _row_norms(np.abs(trials), sp.weight.values_up_to(size - 1), sp.p)
    return float(np.max(base - norms, initial=0.0))
