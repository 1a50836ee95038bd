"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  The solves of
criteria 1-7 are module-scoped fixtures, so each runs once whichever tests are
selected and in whatever order; criterion 8 audits every one of them against
the universal lower bound and criterion 11 re-certifies every convex solve.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, Poly, SpaceParams, SweepPoint,
                   closed_form_one_minus_zd, delta, dilate, expand, fit_rates,
                   geometric_grid, lower_bound, norm, power_weight, run_sweep,
                   solve_convex, solve_flat, solve_hilbert, solve_structural)
from lpopa.opa import ExpPolyFit, OpaResult, bj_certificate
from lpopa.verification import MULTIPLICATION_SPACES, multiplication_check

PI = math.pi
INF = math.inf


def one_minus_zd(d: int) -> Poly:
    c = np.zeros(d + 1)
    c[0], c[d] = 1.0, -1.0
    return Poly(c)


@dataclass
class SolveRecord:
    tag: str
    problem: object          # Poly or CircleZeroSpec with circle zeros
    f: Poly
    n: int
    sp: SpaceParams
    result: OpaResult


def report(num: int, name: str, passed: bool, detail: str):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def closed_form_solves() -> list[tuple[int, SolveRecord, SolveRecord]]:
    """Criterion 1: (d, closed form, convex solve) for f = 1 - z^d."""
    solves = []
    for d, p, alpha in itertools.product((1, 2, 3), (1.5, 2.0, 3.0, 4.0),
                                         (-1.0, 0.0, 0.5)):
        sp = SpaceParams.power(p, alpha)
        f = one_minus_zd(d)
        for n in (0, 1, 2, 4, 8, 16, 32, 64):
            solves.append((
                d,
                SolveRecord("c1-closed", f, f, n, sp,
                            closed_form_one_minus_zd(d, n, sp)),
                SolveRecord("c1-convex", f, f, n, sp, solve_convex(f, n, sp))))
    return solves


@pytest.fixture(scope="module")
def hilbert_solves() -> list[tuple[SolveRecord, SolveRecord]]:
    """Criterion 2: (Hilbert solve, convex solve) on 50 circle-zero cases at p = 2."""
    angle_sets = [
        ((0.0, 1),), ((PI, 1),), ((PI / 2, 1),), ((2 * PI / 3, 1),),
        ((0.0, 1), (PI, 1)), ((PI / 3, 1), (5 * PI / 3, 1)), ((0.0, 2),),
        ((PI, 2),), ((0.0, 2), (PI, 1)), ((0.0, 1), (PI / 2, 1), (PI, 1)),
        ((0.0, 2), (PI, 2)), ((0.0, 3), (PI, 1)), ((2 * PI / 3, 2), (4 * PI / 3, 2)),
        ((0.0, 4),), ((PI / 4, 1), (7 * PI / 4, 1), (PI, 2)),
        ((0.0, 1), (2 * PI / 3, 1), (4 * PI / 3, 1)),
        ((PI / 2, 1), (3 * PI / 2, 1)),
    ]
    orders = (0, 1, 2, 3, 5, 8, 16, 32)
    alphas = (-1.0, 0.0, 1.0)
    combos = itertools.cycle(itertools.product(angle_sets, alphas))
    solves = []
    for idx in range(50):
        roots, alpha = next(combos)
        n = orders[idx % len(orders)]
        spec = CircleZeroSpec(roots)
        f = expand(spec)
        sp = SpaceParams.power(2.0, alpha)
        solves.append((
            SolveRecord("c2-hilbert", spec, f, n, sp, solve_hilbert(f, n, sp.weight)),
            SolveRecord("c2-convex", spec, f, n, sp, solve_convex(f, n, sp))))
    return solves


@pytest.fixture(scope="module")
def structural_solves() -> list[tuple[SolveRecord, ExpPolyFit, SolveRecord]]:
    """Criterion 3: (structural solve, its fit, convex solve) per case."""
    specs = [CircleZeroSpec(((0.0, 1), (PI, 1))),
             CircleZeroSpec(((0.0, 2),)),
             CircleZeroSpec(((0.0, 2), (PI, 1)))]
    solves = []
    for spec in specs:
        f = expand(spec)
        for p in (1.5, 3.0):
            sp = SpaceParams.power(p, 0.0)
            for n in (0, 2, 5, 9, 17, 32):
                st, fit = solve_structural(spec, n, sp)
                solves.append((
                    SolveRecord("c3-structural", spec, f, n, sp, st), fit,
                    SolveRecord("c3-convex", spec, f, n, sp, solve_convex(f, n, sp))))
    return solves


@pytest.fixture(scope="module")
def one_minus_z_sweeps() -> list[tuple[SpaceParams, list[SweepPoint]]]:
    """Criterion 5: sweeps of f = 1 - z over 64..1024 at four (p, alpha)."""
    grid = geometric_grid(64, 1024)
    sweeps = []
    for p, alpha in ((2.0, 0.0), (2.0, -1.0), (3.0, 0.0), (1.5, 0.0)):
        sp = SpaceParams.power(p, alpha)
        sweeps.append((sp, run_sweep(Poly([1, -1]), sp, grid)))
    return sweeps


@pytest.fixture(scope="module")
def degree_two_sweep() -> list[SweepPoint]:
    """Criterion 5: Hilbert sweep of f = z^2 - 1 over 64..1024 at p = 2."""
    return run_sweep(Poly([-1, 0, 1]), SpaceParams.power(2.0, 0.0),
                     geometric_grid(64, 1024), solver="hilbert")


@pytest.fixture(scope="module")
def log_boundary_sweep() -> list[SweepPoint]:
    """Criterion 6: sweep of f = 1 - z over 64..4096 on the line alpha = p - 1."""
    return run_sweep(Poly([1, -1]), SpaceParams.power(2.0, 1.0),
                     geometric_grid(64, 4096))


@pytest.fixture(scope="module")
def stagnation_solves() -> list[SolveRecord]:
    """Criterion 7: closed forms for f = 1 - z, every order 0..1024, alpha > p - 1."""
    f = Poly([1, -1])
    sp = SpaceParams.power(2.0, 3.0)
    return [SolveRecord("c7-closed", f, f, n, sp, closed_form_one_minus_zd(1, n, sp))
            for n in range(0, 1025)]


@pytest.fixture(scope="module")
def records(closed_form_solves, hilbert_solves, structural_solves,
            stagnation_solves) -> list[SolveRecord]:
    """The solves of criteria 1-3 and 7 that criteria 8 and 11 audit, in order."""
    return ([rec for _, exact, got in closed_form_solves for rec in (exact, got)]
            + [rec for pair in hilbert_solves for rec in pair]
            + [rec for st, _, cv in structural_solves for rec in (st, cv)]
            + [rec for rec in stagnation_solves if rec.n in (0, 1, 2, 4, 1024)])


@pytest.fixture(scope="module")
def sweep_points(one_minus_z_sweeps, degree_two_sweep,
                 log_boundary_sweep) -> list[SweepPoint]:
    """The sweep points of criteria 5 and 6 that criterion 8 audits."""
    return ([pt for _, points in one_minus_z_sweeps for pt in points]
            + degree_two_sweep + log_boundary_sweep)


def test_criterion_01_closed_form_reproduction(closed_form_solves):
    worst_coeff = 0.0
    worst_norm = 0.0
    for d, exact, got in closed_form_solves:
        n, p = got.n, got.sp.p
        assert got.result.converged
        worst_coeff = max(worst_coeff, float(np.abs(
            got.result.approximant.padded(n + 1)
            - exact.result.approximant.padded(n + 1)).max()))
        sp_tilde = SpaceParams(p, dilate(got.sp.weight, d))
        d_tilde = delta(n // d + 1, sp_tilde)
        worst_norm = max(worst_norm,
                         abs(got.result.optimal_norm ** p * d_tilde ** p - 1.0))
    report(1, "closed-form reproduction",
           worst_coeff <= 1e-6 and worst_norm <= 1e-10,
           f"coeff dev {worst_coeff:.2e} <= 1e-6, "
           f"norm^p rel dev {worst_norm:.2e} <= 1e-10")


def test_criterion_02_hilbert_oracle(hilbert_solves):
    worst = 0.0
    for direct, descent in hilbert_solves:
        n = descent.n
        assert descent.result.converged
        worst = max(worst, float(np.abs(
            direct.result.approximant.padded(n + 1)
            - descent.result.approximant.padded(n + 1)).max()))
    report(2, "hilbert oracle (p=2, 50 cases)", worst <= 1e-8,
           f"coeff dev {worst:.2e} <= 1e-8")


def test_criterion_03_structural_system(structural_solves):
    worst_sys = 0.0
    worst_fit = 0.0
    worst_rel = 0.0
    for st, fit, cv in structural_solves:
        assert cv.result.converged
        worst_sys = max(worst_sys, fit.system_residual)
        worst_fit = max(worst_fit, fit.fit_residual)
        worst_rel = max(worst_rel, abs(st.result.optimal_norm - cv.result.optimal_norm)
                        / cv.result.optimal_norm)
    report(3, "structural system",
           worst_sys <= 1e-6 and worst_fit <= 1e-6 and worst_rel <= 1e-6,
           f"system {worst_sys:.2e} <= 1e-6, fit {worst_fit:.2e} <= 1e-6, "
           f"norm rel {worst_rel:.2e} <= 1e-6")


def test_criterion_04_constant_sum_identity(structural_solves):
    checked = 0
    worst_rel = 0.0
    worst_imag = 0.0
    for st, fit, _ in structural_solves:
        if not st.problem.simple:
            continue
        total = fit.constant_sum()
        target = st.result.optimal_norm ** st.sp.p
        worst_rel = max(worst_rel, abs(total - target) / target)
        worst_imag = max(worst_imag, abs(total.imag))
        checked += 1
    report(4, "simple-zero constant sum",
           checked > 0 and worst_rel <= 1e-8 and worst_imag <= 1e-9,
           f"{checked} cases, rel dev {worst_rel:.2e} <= 1e-8, "
           f"imag {worst_imag:.2e} <= 1e-9")


def test_criterion_05_rate_exponents(one_minus_z_sweeps, degree_two_sweep):
    detail = []
    ok = True
    for sp, points in one_minus_z_sweeps:
        fit = fit_rates(points, sp)
        target = sp.weight.alpha + 1 - sp.p
        ok &= abs(fit.fitted_exponent - target) <= 0.05
        detail.append(f"(p={sp.p},a={sp.weight.alpha}): "
                      f"{fit.fitted_exponent:+.3f} vs {target:+g}")
    fit2 = fit_rates(degree_two_sweep, SpaceParams.power(2.0, 0.0))
    ok &= abs(fit2.fitted_exponent - (-1.0)) <= 0.1
    detail.append(f"deg2 hilbert: {fit2.fitted_exponent:+.3f} vs -1")
    report(5, "rate exponents", ok, "; ".join(detail))


def test_criterion_06_log_boundary(log_boundary_sweep):
    vals = [pt.norm_p_power * math.log(pt.n + 3) for pt in log_boundary_sweep]
    ratio = max(vals) / min(vals)
    report(6, "log boundary (alpha = p-1)", ratio <= 10.0,
           f"norm^2 * log(n+3) band ratio {ratio:.3f} <= 10")


def test_criterion_07_stagnation(stagnation_solves):
    worst = INF
    bound_ok = True
    for rec in stagnation_solves:
        worst = min(worst, rec.result.optimal_norm ** 2)
        bound = lower_bound(rec.f, rec.n, rec.sp)
        bound_ok &= rec.result.optimal_norm >= bound - 1e-12
    report(7, "stagnation (alpha > p-1)", worst >= 0.01 and bound_ok,
           f"min norm^2 {worst:.4f} >= 0.01 over n <= 1024")


def test_criterion_08_lower_bound_audit(records, sweep_points):
    violations = 0
    attain_worst = 0.0
    audited = 0
    for rec in records:
        bound = lower_bound(rec.problem, rec.n, rec.sp)
        audited += 1
        if rec.result.optimal_norm < bound - 1e-12:
            violations += 1
        if rec.f == Poly([1, -1]):
            attain_worst = max(attain_worst,
                               abs(rec.result.optimal_norm - bound) / bound)
    for pt in sweep_points:
        audited += 1
        if pt.optimal_norm < pt.lower_bound - 1e-12:
            violations += 1
        if pt.d == 1:
            attain_worst = max(attain_worst,
                               abs(pt.optimal_norm - pt.lower_bound) / pt.lower_bound)
    report(8, "lower bound audit",
           audited > 500 and violations == 0 and attain_worst <= 1e-10,
           f"{audited} solves, {violations} violations (slack 1e-12), "
           f"1-z attainment gap {attain_worst:.2e} <= 1e-10")


def test_criterion_09_flat_non_uniqueness():
    sp1 = SpaceParams.power(1.0, 1.0)
    f = Poly([1.0, -0.5])                   # 1 - z / w_1 at alpha = 1
    res1, _ = solve_flat(f, 0, sp1)
    ok = abs(res1.optimal_norm - 1.0) <= 1e-9
    exact = all(norm(Poly([1]) - Poly([c0]) * f, sp1) == 1.0
                for c0 in (0.0, 0.25, 0.5, 0.75, 1.0))
    spinf = SpaceParams.power(INF, 0.0)
    g = Poly([1.0, 0.0, -1.0])
    res2, _ = solve_flat(g, 1, spinf)
    a = res2.approximant.coeff(0)
    vals = [norm(Poly([1]) - Poly([a, b]) * g, spinf)
            for b in np.linspace(-0.5, 0.5, 11)]
    spread = max(vals) - min(vals)
    report(9, "flat-case non-uniqueness", ok and exact and spread <= 1e-12,
           f"p=1 segment objective exactly 1: {exact}; "
           f"p=inf spread over 11 b-samples {spread:.2e}")


def test_criterion_10_multiplication_estimate():
    # the check `lpopa verify` runs, at 1000 trials per space
    result = multiplication_check(seed=123, trials=1000)
    spaces = len(MULTIPLICATION_SPACES)
    report(10, "multiplication estimate", spaces == 12 and result.passed,
           f"{spaces * 1000} trials, {result.detail}")


def test_criterion_11_orthogonality_certificates(records):
    convex = [rec for rec in records if rec.result.solver == "convex"
              and rec.result.converged]
    worst_pair = max((rec.result.ortho_residual_max for rec in convex), default=0.0)
    worst_probe = 0.0
    for i, rec in enumerate(convex):
        worst_probe = max(worst_probe,
                          bj_certificate(rec.result, rec.f, rec.sp,
                                         n_probes=100, seed=i))
    report(11, "orthogonality certificates",
           len(convex) > 300 and worst_pair <= 1e-7 and worst_probe <= 1e-8,
           f"{len(convex)} convex solves, pairing max {worst_pair:.2e} <= 1e-7, "
           f"probe violation {worst_probe:.2e} <= 1e-8")


def test_criterion_12_off_circle_sanity():
    w = power_weight(0.0)
    inside_ok = True
    for n in range(0, 33):
        res = solve_hilbert(Poly([0, 1]), n, w)
        inside_ok &= abs(res.optimal_norm - 1.0) <= 1e-12
    outside = [solve_hilbert(Poly([2, -1]), n, w).optimal_norm for n in range(0, 33)]
    base = outside[0]
    geo_ok = all(outside[n] <= base * 0.6 ** n * (1 + 1e-6) + 1e-13
                 for n in range(33))
    report(12, "off-circle sanity", inside_ok and geo_ok,
           f"f=z constant norm 1: {inside_ok}; f=2-z ratio <= 0.6 decay: {geo_ok}")


def test_note_sup_norm_qualitative_decay():
    # p = inf, flat weight, f = 1 - z: norms from the flat solver decrease
    # and stay within a factor 10 of the 1/(n+d+1) comparison envelope
    sp = SpaceParams.power(INF, 0.0)
    f = Poly([1, -1])
    norms = []
    ok = True
    for n in (0, 1, 2, 4, 8, 16, 32, 64):
        res, _ = solve_flat(f, n, sp)
        envelope = 1.0 / (n + 2)
        ok &= envelope - 1e-12 <= res.optimal_norm <= 10 * envelope
        norms.append(res.optimal_norm)
    decreasing = all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))
    print(f"note    sup-norm qualitative decay: "
          f"{'PASS' if ok and decreasing else 'FAIL'} "
          f"(within [L, 10L] envelope: {ok}; non-increasing: {decreasing})")
    assert ok and decreasing
