"""Built-in cross-oracle and inequality verification suites.

Each check exercises one identity or bound with two independent code paths
and reports the worst observed deviation against its tolerance.  The battery
is what ``lpopa verify`` runs; it is deliberately smaller than the test
suite but covers every solver pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opa import (bj_certificate, closed_form_one_minus_zd, solve_convex,
                  solve_flat, solve_hilbert, solve_structural)
from .poly import CircleZeroSpec, Poly, expand
from .rates import delta, lower_bound
from .space import SpaceParams, multiplication_bound_batch, norm
from .weights import dilate

PI = math.pi


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    detail: str = ""


def _closed_vs_convex(quick: bool) -> CheckResult:
    ps = (1.5, 2.0, 3.0) if quick else (1.5, 2.0, 3.0, 4.0)
    alphas = (-1.0, 0.0, 0.5)
    orders = (0, 3, 9) if quick else (0, 1, 3, 9, 17)
    worst_c = 0.0
    worst_n = 0.0
    for d in (1, 2):
        for p in ps:
            for alpha in alphas:
                sp = SpaceParams.power(p, alpha)
                for n in orders:
                    exact = closed_form_one_minus_zd(d, n, sp)
                    f = Poly(np.concatenate([[1.0], np.zeros(d - 1), [-1.0]]))
                    approx = solve_convex(f, n, sp)
                    worst_c = max(worst_c, float(np.abs(
                        exact.approximant.padded(n + 1)
                        - approx.approximant.padded(n + 1)).max()))
                    worst_n = max(worst_n, abs(approx.optimal_norm ** p
                                               - exact.optimal_norm ** p)
                                  / exact.optimal_norm ** p)
    dev = max(worst_c, worst_n * 1e4)  # scale the tighter norm check into one number
    return CheckResult("closed-form vs convex", worst_c <= 1e-6 and worst_n <= 1e-10,
                       dev, 1e-6,
                       f"coeff dev {worst_c:.2e}, relative norm^p dev {worst_n:.2e}")


def _hilbert_vs_convex(quick: bool) -> CheckResult:
    cases = [CircleZeroSpec(((0.0, 1),)),
             CircleZeroSpec(((0.0, 1), (PI, 1))),
             CircleZeroSpec(((0.0, 2),)),
             CircleZeroSpec(((PI / 2, 1), (3 * PI / 2, 1)))]
    orders = (0, 2, 5) if quick else (0, 2, 5, 9, 16)
    worst = 0.0
    for spec in cases:
        f = expand(spec)
        for alpha in (-1.0, 0.0, 1.0):
            sp = SpaceParams.power(2.0, alpha)
            for n in orders:
                a = solve_hilbert(f, n, sp.weight)
                b = solve_convex(f, n, sp)
                worst = max(worst, float(np.abs(a.approximant.padded(n + 1)
                                                - b.approximant.padded(n + 1)).max()))
    return CheckResult("hilbert vs convex (p=2)", worst <= 1e-8, worst, 1e-8)


def _structural_triangle(quick: bool) -> CheckResult:
    specs = [CircleZeroSpec(((0.0, 1), (PI, 1))), CircleZeroSpec(((0.0, 2),))]
    if not quick:
        specs.append(CircleZeroSpec(((0.0, 2), (PI, 1))))
    worst_norm = 0.0
    worst_sys = 0.0
    for spec in specs:
        f = expand(spec)
        for p in (1.5, 3.0):
            sp = SpaceParams.power(p, 0.0)
            for n in ((2, 7) if quick else (2, 7, 15)):
                st, fit = solve_structural(spec, n, sp)
                cv = solve_convex(f, n, sp)
                worst_norm = max(worst_norm,
                                 abs(st.optimal_norm - cv.optimal_norm)
                                 / cv.optimal_norm)
                worst_sys = max(worst_sys, fit.system_residual, fit.fit_residual)
    dev = max(worst_norm, worst_sys)
    return CheckResult("structural vs convex", dev <= 1e-6, dev, 1e-6,
                       f"norm rel {worst_norm:.2e}, system/fit {worst_sys:.2e}")


def _lower_bound_attained(quick: bool) -> CheckResult:
    worst_slack = 0.0     # violation amount (should be ~0)
    worst_att = 0.0       # attainment gap for f = 1 - z
    for p in (1.5, 2.0, 3.0):
        for alpha in (-1.0, 0.0, 1.0):
            sp = SpaceParams.power(p, alpha)
            for n in (0, 4, 16, 64):
                res = closed_form_one_minus_zd(1, n, sp)
                bound = lower_bound(Poly([1, -1]), n, sp)
                worst_slack = max(worst_slack, bound - res.optimal_norm)
                worst_att = max(worst_att, abs(res.optimal_norm - bound) / bound)
    ok = worst_slack <= 1e-12 and worst_att <= 1e-10
    return CheckResult("lower bound attained for 1 - z", ok,
                       max(worst_slack, worst_att), 1e-10,
                       f"violation {worst_slack:.2e}, attainment gap {worst_att:.2e}")


def _orthogonality(quick: bool, seed: int) -> CheckResult:
    cases = [(Poly([1, -1]), 5, SpaceParams.power(2.5, 0.0)),
             (Poly([1, 0, -1]), 7, SpaceParams.power(1.5, -1.0)),
             (expand(CircleZeroSpec(((0.0, 2),))), 6, SpaceParams.power(3.0, 0.5))]
    worst_pair = 0.0
    worst_probe = 0.0
    for f, n, sp in cases:
        res = solve_convex(f, n, sp)
        worst_pair = max(worst_pair, res.ortho_residual_max)
        worst_probe = max(worst_probe,
                          bj_certificate(res, f, sp, n_probes=50 if quick else 100,
                                         seed=seed))
    ok = worst_pair <= 1e-7 and worst_probe <= 1e-8
    return CheckResult("orthogonality certificates", ok,
                       max(worst_pair, worst_probe), 1e-7,
                       f"pairing {worst_pair:.2e}, definitional {worst_probe:.2e}")


# (p, alpha) of the power-weight spaces the product estimate is checked in
MULTIPLICATION_SPACES = tuple((p, alpha) for p in (1.0, 1.5, 2.0, math.inf)
                              for alpha in (-1.0, 0.0, 1.0))


def multiplication_check(seed: int, trials: int) -> CheckResult:
    """Product estimate on ``trials`` random pairs in each of MULTIPLICATION_SPACES.

    Each factor has a degree uniform on 0..8 and coefficients whose real and
    imaginary parts are uniform on [-1, 1].  A space's sample is drawn from
    the seeded generator in three bulk calls and checked in one
    :func:`multiplication_bound_batch` call.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(9)            # coefficient indices of degrees 0..8
    failures = 0
    worst_ratio = 0.0
    for p, alpha in MULTIPLICATION_SPACES:
        degrees = rng.integers(0, 9, size=(2, trials))
        coeffs = rng.uniform(-1, 1, (2, trials, 9)) + 1j * rng.uniform(-1, 1, (2, trials, 9))
        coeffs[index > degrees[..., None]] = 0
        lhs, rhs = multiplication_bound_batch(coeffs[0], coeffs[1],
                                              SpaceParams.power(p, alpha))
        failures += int(np.count_nonzero(~(lhs <= rhs)))
        pos = rhs > 0
        worst_ratio = max(worst_ratio, float((lhs[pos] / rhs[pos]).max(initial=0.0)))
    return CheckResult("multiplication estimate", failures == 0, float(failures), 0.0,
                       f"{failures} failures, worst lhs/rhs {worst_ratio:.4f}")


def _closed_form_identity(quick: bool) -> CheckResult:
    worst = 0.0
    for d in (1, 2, 3):
        for p in (1.5, 2.0, 4.0):
            for alpha in (-1.0, 0.0, 0.5):
                sp = SpaceParams.power(p, alpha)
                for n in (0, 5, 33):
                    res = closed_form_one_minus_zd(d, n, sp)
                    sp_t = SpaceParams(p, dilate(sp.weight, d))
                    dd = delta(n // d + 1, sp_t)
                    worst = max(worst, abs(res.optimal_norm ** p * dd ** p - 1.0))
    return CheckResult("closed-form delta identity", worst <= 1e-12, worst, 1e-12)


def _flat_examples(quick: bool) -> CheckResult:
    sp1 = SpaceParams.power(1.0, 1.0)
    f = Poly([1.0, -0.5])
    res1, _ = solve_flat(f, 0, sp1)
    dev1 = abs(res1.optimal_norm - 1.0)
    grid = [abs(norm(Poly([1]) - Poly([c]) * f, sp1) - 1.0)
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
    spinf = SpaceParams.power(math.inf, 0.0)
    g = Poly([1.0, 0.0, -1.0])
    res2, _ = solve_flat(g, 1, spinf)
    a = res2.approximant.coeff(0)
    vals = [norm(Poly([1]) - Poly([a, b]) * g, spinf)
            for b in np.linspace(-0.5, 0.5, 11)]
    dev2 = max(vals) - min(vals)
    dev = max(dev1, max(grid), dev2)
    return CheckResult("flat-case non-uniqueness", dev <= 1e-9, dev, 1e-9,
                       f"p=1 norm dev {dev1:.2e}, p=inf spread {dev2:.2e}")


def run_verification(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    """Run the full battery; returns one result per check."""
    return [
        _closed_vs_convex(quick),
        _hilbert_vs_convex(quick),
        _structural_triangle(quick),
        _lower_bound_attained(quick),
        _orthogonality(quick, seed),
        multiplication_check(seed, 200 if quick else 1000),
        _closed_form_identity(quick),
        _flat_examples(quick),
    ]
