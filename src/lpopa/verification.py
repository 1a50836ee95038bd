"""Cross-oracle and inequality checks, shared by ``lpopa verify`` and the tests.

Each check tests one identity or bound with two independent code paths on the
cases it is given, and defines each tolerance once, next to its measure.  The
solves a check makes or audits are OpaResults, each holding its own f, n and
sp, so an audit such as :func:`lower_bound_check` takes the results alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import inf, nan, pi

import numpy as np

from .opa import (OpaResult, _complex, _hilbert_dual, _setup, bj_certificate,
                  closed_form_one_minus_zd, prepare_residual_qr, solve_convex, solve_flat,
                  solve_hilbert, solve_structural)
from .poly import CircleZeroSpec, Poly, expand
from .rates import delta, lower_bound
from .space import SpaceParams, multiplication_bound_batch, norm
from .weights import table_weight


@dataclass
class CheckResult:
    """Outcome of one check.  ``measures`` maps each measure's name to (worst value over
    the cases, NaN for none; tolerance).  ``records`` holds the solves the check made,
    or for an audit those it audited; ``lpopa verify`` ignores it."""

    name: str
    passed: bool
    max_dev: float
    tol: float
    detail: str = ""
    measures: dict[str, tuple[float, float]] = field(default_factory=dict)
    records: list[OpaResult] = field(default_factory=list)


def _worst(values) -> float:
    return float(np.max(values)) if len(values) else nan


def _result(name: str, measures: dict, records: list[OpaResult]) -> CheckResult:
    """Passes when every measure is within its tolerance; several are listed in the detail."""
    detail = ", ".join(f"{key} {value:.2e}" if isinstance(value, float) else f"{key} {value}"
                       for key, (value, _) in measures.items()) if len(measures) > 1 else ""
    return CheckResult(name, all(value <= tol for value, tol in measures.values()),
                       _worst([value for value, _ in measures.values()]),
                       max(tol for _, tol in measures.values()), detail, measures, records)


def _unconverged(records: list[OpaResult]) -> int:
    return sum(not res.converged for res in records)


def closed_form_check(cases, convex: bool = True) -> CheckResult:
    """Criterion 01: norm**p * delta**p = 1 for f = 1 - z^d, (d, n, sp) in cases, and
    with ``convex`` a converged convex solve matching the closed form's coefficients."""
    records, identity, coeff, convex_dev = [], [], [], []
    for d, n, sp in cases:
        cf = closed_form_one_minus_zd(d, n, sp)
        k = n // d + 1
        dilated = table_weight(sp.weight.values_up_to(d * k)[::d])     # w_{dt}, t <= k
        delta_p = delta(k, SpaceParams(sp.p, dilated)) ** sp.p
        identity.append(abs(cf.optimal_norm ** sp.p * delta_p - 1.0))
        records.append(cf)
        if convex:
            cv = solve_convex(cf.f, n, sp)
            records.append(cv)
            coeff.append(np.abs(cf.approximant.padded(n + 1)
                                - cv.approximant.padded(n + 1)).max())
            convex_dev.append(abs(cv.optimal_norm ** sp.p * delta_p - 1.0))
    measures = {"closed-form norm^p dev": (_worst(identity), 1e-12)}
    if not convex:
        return _result("closed-form delta identity", measures, records)
    return _result("closed-form vs convex", {
        "coeff dev": (_worst(coeff), 1e-6), "convex norm^p dev": (_worst(convex_dev), 1e-10),
        **measures, "unconverged": (_unconverged(records), 0)}, records)


def hilbert_check(cases) -> CheckResult:
    """Criterion 02: the banded Cholesky residual, and that of auto's prefix QR
    of the residual form, against the residual-form p = 2 optimum A lam / w,
    lam the p = 2 dual on the SVD rows of S r = e, entry by entry, for
    (problem, n, sp) in cases, a problem a Poly or a CircleZeroSpec (exact
    zeros); every Hilbert and every QR result must be certified.  The
    reference forms neither a Gram matrix, a QR factor nor P."""
    hilbert, qrs, dev, qr_dev = [], [], [], []
    for problem, n, sp in cases:
        f, w, (A, b, _) = _setup(problem, n, sp)
        hilbert.append(solve_hilbert(f, n, sp.weight))
        qrs.append(prepare_residual_qr(problem, n, sp.weight)(n))
        optimum = _complex(A @ _hilbert_dual(A, b, w) / w[:, None]).padded(w.size)
        dev.append(np.abs(hilbert[-1].residual.padded(w.size) - optimum).max())
        qr_dev.append(np.abs(qrs[-1].residual.padded(w.size) - optimum).max())
    return _result("hilbert vs residual form (p=2)", {
        "residual dev": (_worst(dev), 1e-8), "qr residual dev": (_worst(qr_dev), 1e-8),
        "hilbert unconverged": (_unconverged(hilbert), 0),
        "qr unconverged": (_unconverged(qrs), 0)}, hilbert + qrs)


def structural_check(cases) -> CheckResult:
    """Criteria 03 and 04: structural system and fit residuals, norm against a converged
    convex solve, and for simple zeros constant sum = norm**p, (spec, n, sp) in cases."""
    records, norm_rel, system, fit_res, sum_rel, sum_imag = [], [], [], [], [], []
    for spec, n, sp in cases:
        f = expand(spec)
        (st, fit), cv = solve_structural(spec, n, sp), solve_convex(f, n, sp)
        records += (st, cv)
        norm_rel.append(abs(st.optimal_norm - cv.optimal_norm) / cv.optimal_norm)
        constants, fit_residual, system_residual = fit.form()
        system.append(system_residual)
        fit_res.append(fit_residual)
        if spec.max_multiplicity == 1:
            total, target = sum(constants.values()), st.optimal_norm ** sp.p
            sum_rel.append(abs(total - target) / target)
            sum_imag.append(abs(total.imag))
    return _result("structural vs convex", {
        "norm rel": (_worst(norm_rel), 1e-6), "system": (_worst(system), 1e-6),
        "fit": (_worst(fit_res), 1e-6), "constant sum rel": (_worst(sum_rel), 1e-8),
        "constant sum imag": (_worst(sum_imag), 1e-9),
        "unconverged": (_unconverged(records), 0)}, records)


def lower_bound_check(records: list[OpaResult], sweep_points=()) -> CheckResult:
    """Criterion 08: no norm of records or sweep points (rates.SweepPoint) is below
    :func:`lower_bound`, and every f of degree 1, such as 1 - z, attains it."""
    audit = ([(res.optimal_norm, lower_bound(res.f, res.n, res.sp), res.f.degree == 1)
              for res in records]
             + [(pt.optimal_norm, pt.lower_bound, pt.d == 1) for pt in sweep_points])
    norms, bounds, one_minus_z = np.array(audit, dtype=float).reshape(-1, 3).T
    gaps = (np.abs(norms - bounds) / bounds)[one_minus_z == 1.0]
    return _result("lower bound attained for 1 - z", {
        "violation": (_worst(np.maximum(bounds - norms, 0.0)), 1e-12),
        "attainment gap": (_worst(gaps), 1e-10)}, records)


def orthogonality_check(records: list[OpaResult], n_probes: int, seed: int) -> CheckResult:
    """Criterion 11: Birkhoff-James orthogonality from its definition,
    :func:`bj_certificate` (``n_probes`` probes, seed ``seed + i``), of the
    i-th convex solve in records, apart from the gap that certifies it."""
    convex = [res for res in records if res.solver == "convex"]
    probes = [bj_certificate(res, n_probes=n_probes, seed=seed + i)
              for i, res in enumerate(convex)]
    return _result("orthogonality certificates",
                   {"definitional": (_worst(probes), 1e-8)}, convex)


# (p, alpha) of the power-weight spaces the product estimate is checked in
MULTIPLICATION_SPACES = tuple((p, alpha) for p in (1.0, 1.5, 2.0, inf)
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
    return replace(_result("multiplication estimate", {"failures": (failures, 0)}, []),
                   detail=f"{failures} failures, worst lhs/rhs {worst_ratio:.4f}")


def flat_check() -> CheckResult:
    """Criterion 09: at p = 1, f = 1 - z/2 the order-0 norm is 1 on a segment of c;
    at p = inf, f = 1 - z^2 the norm of 1 - (a + bz) f is flat in b."""
    sp1 = SpaceParams.power(1.0, 1.0)
    f = Poly([1.0, -0.5])
    segment = [abs(norm(1 - c * f, sp1) - 1.0) for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
    spinf = SpaceParams.power(inf, 0.0)
    g = Poly([1.0, 0.0, -1.0])
    a = solve_flat(g, 1, spinf)[0].approximant.coeff(0)
    vals = [norm(1 - Poly([a, b]) * g, spinf) for b in np.linspace(-0.5, 0.5, 11)]
    return _result("flat-case non-uniqueness", {
        "p=1 norm dev": (abs(solve_flat(f, 0, sp1)[0].optimal_norm - 1.0), 1e-9),
        "p=1 segment dev": (_worst(segment), 0.0),
        "p=inf spread": (max(vals) - min(vals), 1e-12)}, [])


def run_verification(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    """Run the battery on its quick or full grids; returns one result per check."""
    ps = (1.5, 2.0, 3.0) if quick else (1.5, 2.0, 3.0, 4.0)
    orders = (0, 3, 9) if quick else (0, 1, 3, 9, 17)
    hilbert_specs = [CircleZeroSpec(roots) for roots in (
        ((0.0, 1),), ((0.0, 1), (pi, 1)), ((0.0, 2),), ((pi / 2, 1), (3 * pi / 2, 1)))]
    structural_specs = [CircleZeroSpec(((0.0, 1), (pi, 1))), CircleZeroSpec(((0.0, 2),)),
                        CircleZeroSpec(((0.0, 2), (pi, 1)))][: 2 if quick else 3]
    bound_spaces = [SpaceParams.power(p, alpha) for p in (1.5, 2.0, 3.0)
                    for alpha in (-1.0, 0.0, 1.0)]
    certified = [(Poly([1, -1]), 5, SpaceParams.power(2.5, 0.0)),
                 (Poly([1, 0, -1]), 7, SpaceParams.power(1.5, -1.0)),
                 (expand(CircleZeroSpec(((0.0, 2),))), 6, SpaceParams.power(3.0, 0.5))]
    return [
        closed_form_check([(d, n, SpaceParams.power(p, alpha)) for d, p, alpha, n
                           in product((1, 2), ps, (-1.0, 0.0, 0.5), orders)]),
        hilbert_check([(spec, n, SpaceParams.power(2.0, alpha)) for spec, alpha, n in product(
            hilbert_specs, (-1.0, 0.0, 1.0), (0, 2, 5) if quick else (0, 2, 5, 9, 16))]),
        structural_check([(spec, n, SpaceParams.power(p, 0.0)) for spec, p, n in product(
            structural_specs, (1.5, 3.0), (2, 7) if quick else (2, 7, 15))]),
        lower_bound_check([closed_form_one_minus_zd(1, n, sp)
                           for sp, n in product(bound_spaces, (0, 4, 16, 64))]),
        orthogonality_check([solve_convex(f, n, sp) for f, n, sp in certified],
                            50 if quick else 100, seed),
        multiplication_check(seed, 200 if quick else 1000),
        closed_form_check([(d, n, SpaceParams.power(p, alpha)) for d, p, alpha, n in product(
            (1, 2, 3), (1.5, 2.0, 4.0), (-1.0, 0.0, 0.5), (0, 5, 33))], convex=False),
        flat_check(),
    ]
