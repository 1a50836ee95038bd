"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Criteria 1-4 and 8-11
run the check functions of ``lpopa verify`` (``lpopa.verification``) on
larger grids and hold each measure, and its tolerance there, to the literal
threshold here, so a tolerance loosened in ``lpopa.verification`` fails them.
The solves of criteria 1-7 are module-scoped fixtures, so each runs once
whichever tests are selected and in whatever order; criterion 8 audits every
one of them against the universal lower bound and criterion 11 re-certifies
every convex solve.
"""

import itertools
import math

import pytest

from lpopa import (CircleZeroSpec, OpaResult, Poly, SpaceParams, SweepPoint,
                   closed_form_one_minus_zd, expand, fit_rates, geometric_grid, lower_bound,
                   power_weight, run_sweep, solve_flat, solve_hilbert)
from lpopa.verification import (MULTIPLICATION_SPACES, CheckResult, closed_form_check, flat_check, hilbert_check,
                                lower_bound_check, multiplication_check,
                                orthogonality_check, structural_check)

PI = math.pi
INF = math.inf


def report(num: int, name: str, passed: bool, detail: str):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def report_check(num: int, name: str, result: CheckResult, limits: dict[str, float]):
    """Report a shared check; each named measure and its tolerance must be within its limit."""
    measures = {key: result.measures[key] for key in limits}
    within = all(value <= limits[key] and tol <= limits[key]
                 for key, (value, tol) in measures.items())
    report(num, name, result.passed and within,
           ", ".join(f"{key} {value:.3g} <= {limits[key]:g}"
                     for key, (value, _) in measures.items()))


@pytest.fixture(scope="module")
def closed_form_result() -> CheckResult:
    """Criterion 1: f = 1 - z^d against its closed form and a convex solve."""
    return closed_form_check([(d, n, SpaceParams.power(p, alpha))
                              for d, p, alpha, n in itertools.product(
                                  (1, 2, 3), (1.5, 2.0, 3.0, 4.0), (-1.0, 0.0, 0.5),
                                  (0, 1, 2, 4, 8, 16, 32, 64))])


@pytest.fixture(scope="module")
def hilbert_result() -> CheckResult:
    """Criterion 2: Hilbert residual against the residual-form optimum, 50 cases at p = 2."""
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
    combos = itertools.cycle(itertools.product(angle_sets, (-1.0, 0.0, 1.0)))
    return hilbert_check([(expand(CircleZeroSpec(roots)), orders[idx % len(orders)],
                           SpaceParams.power(2.0, alpha))
                          for idx, (roots, alpha) in zip(range(50), combos)])


@pytest.fixture(scope="module")
def structural_result() -> CheckResult:
    """Criteria 3 and 4: the structural route against convex."""
    specs = [CircleZeroSpec(((0.0, 1), (PI, 1))),
             CircleZeroSpec(((0.0, 2),)),
             CircleZeroSpec(((0.0, 2), (PI, 1)))]
    return structural_check([(spec, n, SpaceParams.power(p, 0.0)) for spec in specs
                             for p in (1.5, 3.0) for n in (0, 2, 5, 9, 17, 32)])


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
def stagnation_solves() -> list[OpaResult]:
    """Criterion 7: closed forms for f = 1 - z, every order 0..1024, alpha > p - 1."""
    sp = SpaceParams.power(2.0, 3.0)
    return [closed_form_one_minus_zd(1, n, sp) for n in range(0, 1025)]


@pytest.fixture(scope="module")
def records(closed_form_result, hilbert_result, structural_result,
            stagnation_solves) -> list[OpaResult]:
    """The solves of criteria 1-3 and 7 that criteria 8 and 11 audit, in order."""
    return (closed_form_result.records + hilbert_result.records + structural_result.records
            + [res for res in stagnation_solves if res.n in (0, 1, 2, 4, 1024)])


@pytest.fixture(scope="module")
def sweep_points(one_minus_z_sweeps, degree_two_sweep,
                 log_boundary_sweep) -> list[SweepPoint]:
    """The sweep points of criteria 5 and 6 that criterion 8 audits."""
    return ([pt for _, points in one_minus_z_sweeps for pt in points]
            + degree_two_sweep + log_boundary_sweep)


def test_criterion_01_closed_form_reproduction(closed_form_result):
    report_check(1, "closed-form reproduction", closed_form_result,
                 {"coeff dev": 1e-6, "convex norm^p dev": 1e-10,
                  "closed-form norm^p dev": 1e-12, "unconverged": 0})


def test_criterion_02_hilbert_oracle(hilbert_result):
    report_check(2, "hilbert oracle (p=2, 50 cases)", hilbert_result,
                 {"residual dev": 1e-8})


def test_criterion_03_structural_system(structural_result):
    report_check(3, "structural system", structural_result,
                 {"system": 1e-6, "fit": 1e-6, "norm rel": 1e-6, "unconverged": 0})


def test_criterion_04_constant_sum_identity(structural_result):
    report_check(4, "simple-zero constant sum", structural_result,
                 {"constant sum rel": 1e-8, "constant sum imag": 1e-9})


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
    for res in stagnation_solves:
        worst = min(worst, res.optimal_norm ** 2)
        bound = lower_bound(res.f, res.n, res.sp)
        bound_ok &= res.optimal_norm >= bound - 1e-12
    report(7, "stagnation (alpha > p-1)", worst >= 0.01 and bound_ok,
           f"min norm^2 {worst:.4f} >= 0.01 over n <= 1024")


def test_criterion_08_lower_bound_audit(records, sweep_points):
    audited = len(records) + len(sweep_points)
    assert audited > 500
    report_check(8, f"lower bound audit ({audited} solves)",
                 lower_bound_check(records, sweep_points),
                 {"violation": 1e-12, "attainment gap": 1e-10})


def test_criterion_09_flat_non_uniqueness():
    report_check(9, "flat-case non-uniqueness", flat_check(),
                 {"p=1 norm dev": 1e-9, "p=1 segment dev": 0.0, "p=inf spread": 1e-12})


def test_criterion_10_multiplication_estimate():
    # the check `lpopa verify` runs, at 1000 trials per space
    assert len(MULTIPLICATION_SPACES) == 12
    report_check(10, "multiplication estimate (12000 trials)",
                 multiplication_check(seed=123, trials=1000), {"failures": 0})


def test_criterion_11_orthogonality_certificates(records):
    result = orthogonality_check(records, n_probes=100, seed=0)
    assert len(result.records) > 300
    report_check(11, f"orthogonality certificates ({len(result.records)} convex solves)",
                 result, {"pairing": 1e-7, "definitional": 1e-8})


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
