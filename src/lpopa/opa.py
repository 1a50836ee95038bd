"""Optimal polynomial approximant solvers.

An optimal approximant of order n for a polynomial f is the p_n in the
degree-n polynomials minimizing the weighted norm of 1 - p_n f.  Four
independent routes are implemented:

* :func:`solve_convex`     damped Newton descent on the p-th power objective
                           (1 < p < inf),
* :func:`solve_hilbert`    direct normal equations at p = 2,
* :func:`solve_structural` Newton iteration on the exponential-polynomial
                           structure of the residual coefficients for f with
                           all zeros on the unit circle,
* :func:`closed_form_one_minus_zd`  exact formulas for f = 1 - z^d,

plus :func:`solve_flat` for the non-smooth endpoints p in {1, inf} and the
:func:`composite_construction` that builds near-optimal approximants for
repeated circle zeros out of a simple-zero Hilbert solve.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import (IllConditionedError, InexactDivisionError,
                     InternalConsistencyError, UnsupportedExponentError)
from .poly import ONE, CircleZeroSpec, Poly, exact_div, expand, signed_power, signed_powers
from .space import SpaceParams, norm
from .weights import Weight, dilate

log = logging.getLogger(__name__)

_COND_LIMIT = 1e14
_SYSTEM_TOL = 1e-9      # solve_structural: sup violation of a converged system
_DIVISION_TOL = 1e-9    # solve_structural: floor of the relative remainder tolerance
_CONTINUATION_P = 1.5   # solve_convex seeds p below this from a solve at it
# solve_convex's damped Newton loop: the Armijo fraction of the predicted
# decrease, the relative rounding level of phi below which a decrease does
# not count, and the number of steps that fail to halve a gradient sup-norm
# already within tolerance before it returns
_ARMIJO = 0.25
_PHI_NOISE = 1e-15
_STALL_STEPS = 3


@dataclass
class SolverOpts:
    """Tolerances and iteration limits of the iterative solvers.

    ``grad_tol`` is the gradient sup-norm of a converged
    :func:`solve_convex`, ``flat_tol`` the relative objective tolerance of
    :func:`solve_flat` and its flatness probe.  ``max_iters`` bounds the
    steps of :func:`solve_convex` (Newton steps, those of its p < 1.5
    continuation stage included) and of :func:`solve_flat`;
    :func:`solve_structural` runs a fixed Newton budget.  Construction
    raises ValueError unless ``max_iters`` is an integer >= 1 and each
    tolerance is finite and positive.
    """

    grad_tol: float = 1e-10
    max_iters: int = 10_000
    flat_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        for name in ("grad_tol", "flat_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class OpaResult:
    """Approximant plus diagnostics.

    ``optimal_norm`` is the weighted norm of the residual 1 - p_n f;
    ``ortho_residual_max`` is the largest orthogonality pairing of the
    residual against z^j f for j <= n, evaluated with f scaled to unit norm
    (None at the flat endpoints, which the pairing does not cover).
    """

    approximant: Poly
    residual: Poly
    optimal_norm: float
    ortho_residual_max: float | None
    iterations: int
    converged: bool
    solver: str


@dataclass
class ExpPolyFit:
    """Constants of the residual representation d_t = sum A[i,j] t**(j-1) z_i**t.

    Keys are (root index, power j) with the root index 0-based in spec order
    and j running from 1 to the root's multiplicity.  ``fit_residual`` is the
    sup deviation of the representation from the actual residual data;
    ``system_residual`` is the sup violation of the interpolation system the
    constants must satisfy.
    """

    constants: dict[tuple[int, int], complex]
    fit_residual: float
    system_residual: float

    def constant_sum(self) -> complex:
        return sum(self.constants.values())


@dataclass
class FlatDiagnostics:
    """Flatness probe around a p in {1, inf} minimizer.

    ``flat_radii[j, 0]`` (resp. ``[j, 1]``) is the largest sampled offset
    along the real (imaginary) direction of coefficient j that keeps the
    objective within ``probe_tol`` of its value at the minimizer; non-unique
    minimizers show up as strictly positive radii.  The minimizer is the
    approximant :func:`solve_flat` returns, the zero approximant included
    when its guard picks it.  Each probe changes deg f + 1 residual entries,
    and all probes are evaluated from those windows in one vectorized pass,
    without a :func:`norm` call per probe.
    """

    objective: float
    probe_offsets: np.ndarray
    flat_radii: np.ndarray
    probe_tol: float


def _validate(f: Poly, n: int) -> None:
    if not isinstance(f, Poly):
        raise TypeError("f must be a Poly")
    if f.is_zero:
        raise ValueError("f must not be the zero polynomial")
    if int(n) != n or n < 0:
        raise ValueError("order n must be a nonnegative integer")


def _ortho_residuals(residual: Poly, f: Poly, sp: SpaceParams, n: int) -> np.ndarray:
    """|pairing(residual, z^j f/|f|)| for j = 0..n, vectorized."""
    m = n + f.degree + 1
    wv = sp.weight.values_up_to(m - 1)
    dv = signed_powers(residual.padded(m), sp.p - 1.0) * wv
    fc_unit = f.coeffs / norm(f, sp)
    pair = np.correlate(dv, np.conj(fc_unit), mode="valid")
    return np.abs(pair)


def _finalize(f: Poly, c: np.ndarray, sp: SpaceParams, iterations: int,
              converged: bool, solver: str) -> OpaResult:
    approx = Poly(c)
    residual = ONE - approx * f
    ortho = None
    if not sp.is_flat:
        ortho = float(_ortho_residuals(residual, f, sp, len(c) - 1).max())
    return OpaResult(approximant=approx, residual=residual,
                     optimal_norm=norm(residual, sp),
                     ortho_residual_max=ortho, iterations=iterations,
                     converged=converged, solver=solver)


# ---------------------------------------------------------------------------
# p = 2: normal equations
# ---------------------------------------------------------------------------

def solve_hilbert(f: Poly, n: int, w: Weight) -> OpaResult:
    """Order-n approximant at p = 2 by solving the Gram system directly.

    The Gram matrix of z^j f (j = 0..n) in the weighted inner product is
    Hermitian positive definite and banded with bandwidth deg f, so a banded
    Cholesky factorization solves it in O(n d^2).  Raises
    IllConditionedError when the factor suggests condition beyond 1e14.
    """
    _validate(f, n)
    fc = f.coeffs
    d = f.degree
    m = n + d + 1
    wv = w.values_up_to(m - 1)

    u = min(d, n)
    ab = np.zeros((u + 1, n + 1), dtype=np.complex128)
    for r in range(u + 1):
        prods = fc[: d - r + 1] * np.conj(fc[r:])
        corr = (np.correlate(wv, prods.real, mode="valid")
                + 1j * np.correlate(wv, prods.imag, mode="valid"))
        ab[u - r, r: n + 1] = corr[r: n + 1]

    try:
        cb = cholesky_banded(ab, lower=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"Gram factorization failed: {exc}") from exc
    diag = np.abs(cb[-1, :])
    cond_est = (diag.max() / diag.min()) ** 2
    if not np.isfinite(cond_est) or cond_est > _COND_LIMIT:
        raise IllConditionedError(
            f"Gram matrix condition estimate {cond_est:.3e} beyond {_COND_LIMIT:.0e}")

    rhs = np.zeros(n + 1, dtype=np.complex128)
    rhs[0] = np.conj(fc[0])
    c = cho_solve_banded((cb, False), rhs)
    return _finalize(f, c, SpaceParams(2.0, w), iterations=0, converged=True,
                     solver="hilbert")


# ---------------------------------------------------------------------------
# 1 < p < inf: damped Newton descent
# ---------------------------------------------------------------------------

def _conv_matrix(fc: np.ndarray, n: int) -> np.ndarray:
    """Dense (n+d+1) x (n+1) matrix of multiplication by f."""
    d = fc.size - 1
    out = np.zeros((n + d + 1, n + 1), dtype=np.complex128)
    for j in range(n + 1):
        out[j: j + d + 1, j] = fc
    return out


class _Scaled:
    """The shared set-up of the descent routes, in real coordinates.

    f is scaled to unit (p, w) norm; x holds the real parts, then the
    imaginary parts, of the n+1 coefficients of P * |f|, so the residual
    1 - P f is unchanged by the scaling.
    """

    def __init__(self, f: Poly, n: int, sp: SpaceParams):
        self.f, self.n, self.sp = f, n, sp
        self.scale = norm(f, sp)
        self.fc = f.coeffs / self.scale
        self.fcc = np.conj(self.fc)
        self.wv = sp.weight.values_up_to(n + f.degree)

    def split(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n + 1] + 1j * x[self.n + 1:]

    def residual(self, x: np.ndarray) -> np.ndarray:
        r = -np.convolve(self.split(x), self.fc)
        r[0] += 1.0
        return r

    def start(self, init: Poly | None = None) -> np.ndarray:
        """Coordinates of ``init``, else of the p = 2 approximant."""
        if init is None:
            init = solve_hilbert(self.f, self.n, self.sp.weight).approximant
        c0 = init.padded(self.n + 1) * self.scale
        return np.concatenate([c0.real, c0.imag])

    def result(self, x: np.ndarray, iterations: int, converged: bool,
               solver: str) -> OpaResult:
        return _finalize(self.f, self.split(x) / self.scale, self.sp,
                         iterations=iterations, converged=converged, solver=solver)


def solve_convex(f: Poly, n: int, sp: SpaceParams, opts: SolverOpts | None = None,
                 init: Poly | None = None) -> OpaResult:
    """Order-n approximant for 1 < p < inf by damped Newton descent.

    Minimizes phi = sum_t w_t |(1 - Pf)_t|^p over the 2(n+1) real coordinates
    of P's complex coefficients with the analytic gradient and Hessian
    (Boyd & Vandenberghe, *Convex Optimization*, 9.5).  The objective is
    convex and differentiable; residual entries at convolution-noise level
    are exact zeros of the minimizer and drop out of the gradient (p < 2)
    and the Hessian.  The start is ``init`` when given, else the p = 2
    approximant; for p < 1.5 that start seeds a p = 1.5 solve whose result
    seeds the p solve (one continuation stage).

    A step is accepted when it passes the Armijo test on phi or lowers the
    gradient sup-norm: at the precision floor phi can no longer fall but the
    gradient still can.  A failed solve or a non-descent direction retries
    with a Levenberg shift.  Newton steps, the continuation stage's
    included, count against ``opts.max_iters``.  The loop drives the
    gradient sup-norm towards min(grad_tol / 100, 1e-12) and returns early
    once it is at or below ``opts.grad_tol`` and has stopped improving.
    ``converged`` means the sup-norm is at or below ``opts.grad_tol``.  f is
    scaled to unit norm internally; results are reported for the original f.
    """
    opts = opts or SolverOpts()
    if sp.is_flat:
        raise UnsupportedExponentError("solve_convex needs 1 < p < inf; use solve_flat")
    _validate(f, n)
    p = sp.p
    iterations = 0
    if p < _CONTINUATION_P:
        stage = solve_convex(f, n, SpaceParams(_CONTINUATION_P, sp.weight), opts, init)
        init, iterations = stage.approximant, stage.iterations
    pr = _Scaled(f, n, sp)
    wv = pr.wv

    def phi_grad(x: np.ndarray):
        r = pr.residual(x)
        a = np.abs(r)
        phi = float((a ** p * wv).sum())
        s = signed_powers(r, p - 1.0)
        # coordinate exclusion: a residual entry at convolution-noise level is
        # an exact zero of the minimizer, where the true gradient term is 0;
        # for p < 2 the factor |r|^{p-1} would otherwise put a spurious floor
        # of noise^{p-1} under the gradient
        cut = 1e-14 * max(1.0, float(a.max())) if p < 2 else 1e-30
        s[a <= cut] = 0.0
        pair = np.correlate(s * wv, pr.fcc, mode="valid")
        g = np.concatenate([-p * pair.real, p * pair.imag])
        return phi, g

    F = _conv_matrix(pr.fc, n)
    Fbar = np.conj(F)

    def hessian(x: np.ndarray) -> np.ndarray:
        r = pr.residual(x)
        a = np.abs(r)
        hcut = (1e-14 if p < 2 else 1e-18) * max(1.0, float(a.max()))
        hmask = a > hcut
        am, wm = a[hmask], wv[hmask]
        beta = np.zeros_like(a)
        gamma = np.zeros_like(a)
        beta[hmask] = p * wm * am ** (p - 2.0)
        gamma[hmask] = p * (p - 2.0) * wm * am ** (p - 4.0)
        K = (Fbar.T * beta) @ F
        V = Fbar * r[:, None]
        W = -np.hstack([V.real, V.imag])
        return np.block([[K.real, -K.imag], [K.imag, K.real]]) + W.T @ (gamma[:, None] * W)

    x = pr.start(init)
    phi, g = phi_grad(x)
    gmax = float(np.abs(g).max())
    target = min(opts.grad_tol * 1e-2, 1e-12)
    ident = np.eye(2 * (n + 1))
    stalled = 0
    while iterations < opts.max_iters and gmax > target:
        H = hessian(x)
        hscale = max(float(np.abs(np.diag(H)).max()), 1e-30)
        accepted = False
        lam = 0.0
        for _ in range(8):
            try:
                dx = np.linalg.solve(H + lam * hscale * ident if lam else H, -g)
            except np.linalg.LinAlgError:
                dx = None
            slope = float(g @ dx) if dx is not None and np.isfinite(dx).all() else 0.0
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
        stalled = stalled + 1 if gmax <= opts.grad_tol and gnmax > 0.5 * gmax else 0
        phi, g, gmax = phin, gn, gnmax
        if stalled >= _STALL_STEPS:
            break

    converged = gmax <= opts.grad_tol
    if not converged:
        log.debug("solve_convex: gradient sup %.3e above tolerance %.1e",
                  gmax, opts.grad_tol)
    return pr.result(x, iterations, converged, "convex")


# ---------------------------------------------------------------------------
# Structural nonlinear system for Z(f) on the circle
# ---------------------------------------------------------------------------

class _StructuralSystem:
    """Interpolation system determining the residual structure constants.

    With z_i the circle zeros (multiplicities b_i) and w the weight, the
    residual coefficients of 1 - p_n f obey B_t = (y_t)^{<q-1>} where
    y_t = sum_{i,j} A[i,j] t**(j-1) z_i**t / w_t, and the constants A solve

        sum_t (y_t)^{<q-1>} t**s z_l**t = 1 if s = 0 else 0,

    for every root l and 0 <= s < b_l (value 1 and derivatives 0 at each
    zero).  d = sum b_i complex unknowns, d complex equations.
    """

    def __init__(self, spec: CircleZeroSpec, n: int, sp: SpaceParams):
        self.spec = spec
        self.sp = sp
        self.n = n
        self.d = spec.degree
        self.q1 = sp.q - 1.0
        t = np.arange(n + self.d + 1, dtype=float)
        self.wv = sp.weight.values_up_to(n + self.d)
        zs = spec.points()
        cols = []
        self.pairs = []
        for i, (_, mult) in enumerate(spec.roots):
            zt = zs[i] ** t
            for j in range(1, mult + 1):
                cols.append(t ** (j - 1) * zt)
                self.pairs.append((i, j))
        self.basis = np.stack(cols, axis=1)            # d_t = basis @ A
        self.T = self.basis / self.wv[:, None]         # y_t = T @ A
        # row (l, s) of the system is column (l, j = s + 1) of the basis
        self.S = np.ascontiguousarray(self.basis.T)
        self.target = np.array([1.0 if j == 1 else 0.0 for _, j in self.pairs],
                               dtype=np.complex128)

    def residual_coeffs(self, A: np.ndarray) -> np.ndarray:
        return signed_powers(self.T @ A, self.q1)

    def equations(self, A: np.ndarray) -> np.ndarray:
        return self.S @ self.residual_coeffs(A) - self.target

    def equations_real(self, a: np.ndarray) -> np.ndarray:
        e = self.equations(a[: self.d] + 1j * a[self.d:])
        return np.concatenate([e.real, e.imag])

    def jacobian_real(self, a: np.ndarray) -> np.ndarray:
        A = a[: self.d] + 1j * a[self.d:]
        y = self.T @ A
        rho = np.abs(y)
        mask = rho > 1e-18 * max(1.0, float(rho.max()) if rho.size else 1.0)
        sig = np.zeros_like(rho)
        cub = np.zeros_like(rho)
        sig[mask] = rho[mask] ** (self.q1 - 1.0)
        cub[mask] = (self.q1 - 1.0) * rho[mask] ** (self.q1 - 3.0)
        ar, ai = y.real, y.imag

        def push(dy: np.ndarray) -> np.ndarray:
            da, db = dy.real, dy.imag
            du = sig * da + cub * ar * (ar * da + ai * db)
            dv = -sig * db - cub * ai * (ar * da + ai * db)
            return du + 1j * dv

        cols = []
        for comp in (1.0, 1j):
            for k in range(self.d):
                de = self.S @ push(self.T[:, k] * comp)
                cols.append(np.concatenate([de.real, de.imag]))
        return np.stack(cols, axis=1)

    def fit_from_data(self, d_values: np.ndarray) -> np.ndarray:
        """Least-squares constants for given residual data d_t."""
        return np.linalg.lstsq(self.basis, d_values, rcond=None)[0]

    def d_values_of(self, residual: Poly) -> np.ndarray:
        dv = residual.padded(self.n + self.d + 1)
        return signed_powers(dv, self.sp.p - 1.0) * self.wv

    def fit(self, A: np.ndarray, dv: np.ndarray, system_residual: float) -> ExpPolyFit:
        """ExpPolyFit of constants A, with their sup deviation from data dv."""
        return ExpPolyFit(constants={pair: complex(A[k]) for k, pair in enumerate(self.pairs)},
                          fit_residual=float(np.abs(dv - self.basis @ A).max()),
                          system_residual=system_residual)


def fit_exp_poly(residual: Poly, spec: CircleZeroSpec, n: int,
                 sp: SpaceParams) -> ExpPolyFit:
    """Fit structure constants to an existing residual and report deviations."""
    sys_ = _StructuralSystem(spec, n, sp)
    dv = sys_.d_values_of(residual)
    A = sys_.fit_from_data(dv)
    return sys_.fit(A, dv, float(np.abs(sys_.equations(A)).max()))


def solve_structural(spec: CircleZeroSpec, n: int, sp: SpaceParams,
                     init: OpaResult | None = None) -> tuple[OpaResult, ExpPolyFit]:
    """Order-n approximant from the structure constants, by damped Newton.

    Initialized from ``init``'s residual when given, else from the p = 2
    solution.  The route stands alone: it never calls another iterative
    route, and a Newton solve that stalls returns its own constants with
    ``converged=False`` (system residual above 1e-9).  ``iterations`` counts
    Newton steps, at most 200.  The residual coefficients reconstructed from
    the constants must make 1 - residual exactly divisible by f; a division
    failure raises InternalConsistencyError since it signals a wrong
    solution.
    """
    if sp.is_flat:
        raise UnsupportedExponentError("structural solve needs 1 < p < inf")
    f = expand(spec)
    _validate(f, n)
    sys_ = _StructuralSystem(spec, n, sp)
    d = sys_.d
    if init is not None:
        seed = init.residual
    else:
        seed = solve_hilbert(f, n, sp.weight).residual
    A = sys_.fit_from_data(sys_.d_values_of(seed))
    a = np.concatenate([A.real, A.imag])

    e = sys_.equations_real(a)
    enorm = float(np.abs(e).max())
    iterations = 0
    stale = 0
    for _ in range(200):
        if enorm <= _SYSTEM_TOL * 1e-3:
            break
        J = sys_.jacobian_real(a)
        try:
            step = np.linalg.solve(J, -e)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -e, rcond=None)[0]
        if not np.isfinite(step).all():
            break
        t = 1.0
        improved = False
        e2 = float(e @ e)
        for _ in range(40):
            an = a + t * step
            en = sys_.equations_real(an)
            if float(en @ en) < e2 * (1 - 1e-4 * t):
                a, e = an, en
                improved = True
                break
            t *= 0.5
        iterations += 1
        if not improved:
            stale += 1
            if stale >= 2:
                break
        else:
            stale = 0
        enorm = float(np.abs(e).max())

    converged = enorm <= _SYSTEM_TOL
    if not converged:
        log.debug("solve_structural: system residual %.3e above tolerance %.1e",
                  enorm, _SYSTEM_TOL)

    A = a[:d] + 1j * a[d:]
    B = sys_.residual_coeffs(A)
    # The divisibility defect of 1 - residual is proportional to the achieved
    # system residual (it vanishes for the exact constants), so the division
    # tolerance scales with it.  A residual far above that scale still means
    # a wrong solution.  Note that when the true residual has a vanishing
    # coefficient and q < 2, the system map has square-root character there
    # and enorm cannot drop below ~sqrt(eps); the converged flag reports the
    # strict tolerance honestly in that case.
    try:
        pn = exact_div(ONE - Poly(B), f, max(_DIVISION_TOL, 50.0 * enorm))
    except InexactDivisionError as exc:
        raise InternalConsistencyError(
            f"structural residual is not divisible by f: {exc}") from exc
    result = _finalize(f, pn.padded(n + 1), sp, iterations=iterations,
                       converged=converged, solver="structural")
    return result, sys_.fit(A, sys_.d_values_of(result.residual), enorm)


# ---------------------------------------------------------------------------
# Flat endpoints p in {1, inf}
# ---------------------------------------------------------------------------

def solve_flat(f: Poly, n: int, sp: SpaceParams,
               opts: SolverOpts | None = None) -> tuple[OpaResult, FlatDiagnostics]:
    """Order-n minimizer at p in {1, inf} by a subgradient method with averaging.

    The objective (a sum, or weighted max, of moduli of affine forms) is
    convex but not smooth, and its minimizers need not be unique; the solver
    returns one element of the optimal set, warm started from the p = 2
    solution, and the diagnostics report the observed flat directions around
    it.  Non-uniqueness is a reported diagnostic, never an error.  When the
    zero approximant (residual 1, objective w_0) is strictly better than the
    best iterate, it is returned instead; ``converged`` still reports how the
    loop ended.

    The flatness probe moves one coefficient of the returned approximant at a
    time, which changes the residual only in a window of deg f + 1 entries,
    so every probe value is evaluated from its window in one vectorized pass
    (no :func:`norm` call per probe).
    """
    opts = opts or SolverOpts()
    if not sp.is_flat:
        raise UnsupportedExponentError("solve_flat handles p in {1, inf} only")
    _validate(f, n)
    p = sp.p
    pr = _Scaled(f, n, sp)
    wv = pr.wv

    def objective(x) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective value with the residual and its moduli, for subgrad."""
        r = pr.residual(x)
        a = np.abs(r)
        value = float((a * wv).max()) if p == math.inf else float((a * wv).sum())
        return value, r, a

    def subgrad(r: np.ndarray, a: np.ndarray) -> np.ndarray:
        u = np.zeros_like(r)
        if p == math.inf:
            k = int(np.argmax(a * wv))
            if r[k] != 0:
                u[k] = signed_power(r[k], 0.0) * wv[k]
        else:
            u = signed_powers(r, 0.0) * wv
            # 0 is a valid subgradient choice at (numerical) zeros of |r_t|
            u[a <= 1e-14 * max(1.0, float(a.max()))] = 0.0
        pair = np.correlate(u, pr.fcc, mode="valid")
        return np.concatenate([-pair.real, pair.imag])

    x = pr.start()
    fx, r, a = objective(x)
    best_x, best_f = x.copy(), fx
    improve_eps = opts.flat_tol * 1e-2 * max(1.0, best_f)
    last_improve = 0
    acc = np.zeros_like(x)
    acc_count = 0
    converged = False
    k = 0
    for k in range(opts.max_iters):
        g = subgrad(r, a)
        gg = float(g @ g)
        if gg == 0.0:
            converged = True
            break
        # Polyak-style step against the running best with a vanishing margin
        margin = 0.05 * max(best_f, 1e-12) / math.sqrt(k + 1.0)
        step = (fx - best_f + margin) / gg
        x = x - step * g
        fx, r, a = objective(x)
        if fx < best_f - improve_eps:
            best_x, best_f = x.copy(), fx
            last_improve = k
        acc += x
        acc_count += 1
        if acc_count == 400:
            xa = acc / acc_count
            fa = objective(xa)[0]
            if fa < best_f - improve_eps:
                best_x, best_f = xa, fa
                last_improve = k
            acc[:] = 0.0
            acc_count = 0
        if k - last_improve > 600:
            converged = True
            break

    # never return a point worse than the zero approximant (residual 1)
    zero = np.zeros_like(x)
    if objective(zero)[0] < best_f:
        best_x = zero

    result = pr.result(best_x, k + 1, converged, "flat")

    # Flatness probe in original coefficient coordinates.
    offsets = np.linspace(-1.0, 1.0, 17)
    probe_tol = max(opts.flat_tol, 1e-9) * max(1.0, result.optimal_norm)
    vals = _probe_values(result.residual.padded(wv.size), f.coeffs, wv, p, offsets)
    hit = np.abs(vals - result.optimal_norm) <= probe_tol
    radii = np.where(hit, np.abs(offsets), 0.0).max(axis=-1)
    diag = FlatDiagnostics(objective=result.optimal_norm, probe_offsets=offsets,
                           flat_radii=radii, probe_tol=probe_tol)
    return result, diag


def _probe_values(r: np.ndarray, fcoef: np.ndarray, wv: np.ndarray, p: float,
                  offsets: np.ndarray) -> np.ndarray:
    """Objective after each flatness probe, all probes in one pass.

    Entry [j, comp, k] is the (p, w) norm of the residual r - s*delta*z^j f
    for s = offsets[k] and delta = (1, i)[comp], j = 0..n.  The probe changes
    r only at t = j..j+d, by -s*delta*f_{t-j}, so its norm is the untouched
    part of |r|*w, known from a total (p = 1) or from prefix and suffix
    maxima (p = inf), combined with its new window.  Arrays are
    (n+1, 2, len(offsets), d+1): O(n d).
    """
    win = fcoef.size
    ar = np.abs(r) * wv
    shift = np.array([1.0, 1j])[:, None] * offsets          # (2, k)
    moved = (sliding_window_view(r, win)[:, None, None, :]
             - shift[None, :, :, None] * fcoef)
    new = np.abs(moved) * sliding_window_view(wv, win)[:, None, None, :]
    if p == math.inf:
        zero = np.zeros(1)
        before = np.concatenate([zero, np.maximum.accumulate(ar)])[: -win]
        after = np.concatenate([np.maximum.accumulate(ar[::-1])[::-1], zero])[win:]
        return np.maximum(np.maximum(before, after)[:, None, None], new.max(axis=-1))
    kept = ar.sum() - sliding_window_view(ar, win).sum(axis=-1)
    return kept[:, None, None] + new.sum(axis=-1)


# ---------------------------------------------------------------------------
# Closed forms for f = 1 - z^d and the composite construction
# ---------------------------------------------------------------------------

def delta_sums(sp: SpaceParams, last: int) -> np.ndarray:
    """Cumulative sums s_k = sum_{t<=k} w_t**(-q/p) for k = 0..last."""
    if sp.is_flat:
        raise UnsupportedExponentError("delta sums need 1 < p < inf")
    return np.cumsum(sp.weight.values_up_to(last) ** (-sp.q / sp.p))


def closed_form_one_minus_zd(d: int, n: int, sp: SpaceParams) -> OpaResult:
    """Exact order-n approximant for f = 1 - z^d.

    The problem reduces to f = 1 - z against the dilated weight w~_t = w_{dt}:
    the approximant is Q(z^d) with Q_t = 1 - s_t/s_{M+1} built from the
    cumulative sums s of w~**(-q/p), M = floor(n/d), and the optimal norm to
    the p-th power equals s_{M+1}**(1-p).
    """
    if int(d) != d or d < 1:
        raise ValueError("d must be a positive integer")
    f = Poly(np.concatenate([[1.0], np.zeros(d - 1), [-1.0]]))
    _validate(f, n)
    if sp.is_flat:
        raise UnsupportedExponentError(
            "closed form is implemented for 1 < p < inf only")
    big_m = n // d
    tilted = SpaceParams(sp.p, dilate(sp.weight, d))
    s = delta_sums(tilted, big_m + 1)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[:: d][: big_m + 1] = 1.0 - s[: big_m + 1] / s[big_m + 1]
    return _finalize(f, coeffs, sp, iterations=0, converged=True,
                     solver="closed-form")


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


def bj_certificate(result: OpaResult, f: Poly, sp: SpaceParams,
                   n_probes: int = 100, seed: int = 0) -> float:
    """Worst definitional-orthogonality violation over random probes.

    Samples n_probes pairs (lambda, j) with |lambda| <= 1, j <= deg of the
    approximant space, and returns max(norm(residual) - norm(residual +
    lambda z^j f), 0); a minimizer keeps this at numerical-noise level.
    """
    rng = np.random.default_rng(seed)
    base = result.optimal_norm
    nmax = max(result.approximant.degree or 0, 0)
    worst = 0.0
    for _ in range(n_probes):
        j = int(rng.integers(0, nmax + 1))
        lam = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
        shifted = np.zeros(j + f.degree + 1, dtype=np.complex128)
        shifted[j:] = f.coeffs
        trial = norm(result.residual + lam * Poly(shifted), sp)
        worst = max(worst, base - trial)
    return worst
