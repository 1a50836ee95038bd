"""Tests for cyclicity classification, lower bounds and decay-rate fitting."""

import math

import numpy as np
import pytest

import lpopa.opa
from lpopa import (CircleZeroSpec, DegreeCapError, Poly, SpaceParams, SweepError,
                   UnsupportedExponentError, classify, closed_form_one_minus_zd,
                   delta, evaluation_bound, expand, fit_rates, geometric_grid,
                   lower_bound, rates, run_sweep, solve_flat, solve_structural)
from lpopa.poly import ONE
from lpopa.rates import detect_one_minus_zd, log_band_ratio, predicted_value

INF = math.inf
PI = math.pi


class TestClassify:
    def test_dirichlet_boundary(self):
        pred = classify(2, 1)
        assert pred.regime == "log" and pred.exponent == -1.0 and pred.cyclic

    def test_wiener_boundary_not_cyclic(self):
        pred = classify(1, 0)
        assert not pred.cyclic
        assert "predicted false" in pred.note

    def test_sup_norm_boundary(self):
        pred = classify(INF, 1)
        assert pred.regime == "log" and pred.exponent == -1.0 and pred.cyclic

    def test_power_regimes(self):
        pred = classify(2, 0)
        assert pred.regime == "power" and pred.exponent == -1.0 and pred.cyclic
        pred = classify(3, -1)
        assert pred.exponent == -3.0 and pred.cyclic
        assert classify(INF, 0).exponent == -1.0

    def test_stagnation(self):
        assert classify(2, 3).regime == "stagnation"
        assert not classify(2, 3).cyclic
        assert classify(INF, 1.5).regime == "stagnation"

    def test_critical_line_is_sharp(self):
        for p in (1.5, 2.0, 7.0):
            assert classify(p, p - 1).cyclic
            assert not classify(p, p - 1 + 1e-9).cyclic

    def test_p1_strict_boundary(self):
        assert classify(1, -0.1).cyclic
        assert not classify(1, 0).cyclic
        assert not classify(1, 0.5).cyclic

    @pytest.mark.parametrize("p", [1, 2, INF])
    @pytest.mark.parametrize("alpha", [math.nan, INF, -INF])
    def test_non_finite_alpha_rejected(self, p, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            classify(p, alpha)


class TestDelta:
    def test_first_value(self):
        for p, alpha in ((1.5, -1), (2, 0), (4, 2)):
            assert delta(0, SpaceParams.power(p, alpha)) == pytest.approx(1.0)

    def test_flat_weight_p2(self):
        assert delta(2, SpaceParams.power(2, 0)) == pytest.approx(math.sqrt(3))

    def test_p3_value(self):
        # q = 3/2, two unit terms: delta = 2^{2/3}
        assert delta(1, SpaceParams.power(3, 0)) == pytest.approx(2 ** (2 / 3))

    def test_flat_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            delta(3, SpaceParams.power(1, 0))


class TestLowerBound:
    def test_one_minus_z_flat(self):
        sp = SpaceParams.power(2, 0)
        for n in (0, 5, 100):
            assert lower_bound(Poly([1, -1]), n, sp) == pytest.approx(
                (n + 2) ** -0.5)

    def test_degree_counts(self):
        sp = SpaceParams.power(2, 0)
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        assert lower_bound(spec, 4, sp) == pytest.approx((4 + 3 + 1) ** -0.5)

    def test_weighted_two_terms(self):
        val = lower_bound(Poly([1, -1]), 0, SpaceParams.power(2, 1))
        assert val == pytest.approx(math.sqrt(2 / 3))

    def test_attained_by_closed_form(self):
        for p, alpha in ((1.5, 0.0), (2.0, 1.0), (3.0, -1.0)):
            sp = SpaceParams.power(p, alpha)
            for n in (0, 7, 63):
                res = closed_form_one_minus_zd(1, n, sp)
                assert res.optimal_norm == pytest.approx(
                    lower_bound(Poly([1, -1]), n, sp), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 3, 9, 64])
    def test_flat_endpoints_attained_by_one_minus_z(self, n):
        # 1 at p = 1 for alpha >= 0, and 1/(n+2) at p = inf for alpha 0
        for alpha in (0.0, 0.5, 1.0):
            sp = SpaceParams.power(1, alpha)
            assert lower_bound(Poly([1, -1]), n, sp) == 1.0
            assert solve_flat(Poly([1, -1]), n, sp)[0].optimal_norm == pytest.approx(1.0, rel=1e-12)
        sp = SpaceParams.power(INF, 0.0)
        assert lower_bound(Poly([1, -1]), n, sp) == pytest.approx(1 / (n + 2), rel=1e-14)
        assert solve_flat(Poly([1, -1]), n, sp)[0].optimal_norm == pytest.approx(1 / (n + 2), rel=1e-12)

    def test_multiple_circle_zero_from_coefficients(self):
        # np.roots splits these zeros off the circle; a zero at the origin is skipped
        sp = SpaceParams.power(2, 0)
        for coeffs, spec in (([1, -3, 3, -1], ((0.0, 3),)), ([1, -4, 6, -4, 1], ((0.0, 4),)),
                             (expand(CircleZeroSpec(((PI / 3, 3), (PI, 2)))).coeffs,
                              ((PI / 3, 3), (PI, 2))),
                             ([0, 1, -1], ((0.0, 2),))):
            assert lower_bound(Poly(coeffs), 5, sp) == lower_bound(CircleZeroSpec(spec), 5, sp)

    def test_requires_circle_zero(self):
        for coeffs in ([1, -0.25], [2, -1], [1.0005 * 0.9995, -2, 1], [2]):
            with pytest.raises(ValueError):
                lower_bound(Poly(coeffs), 3, SpaceParams.power(2, 0))


class TestDetection:
    def test_plain(self):
        assert detect_one_minus_zd(Poly([1, 0, 0, -1])) == (3, 1.0)

    def test_scaled(self):
        d, lead = detect_one_minus_zd(Poly([-1, 0, 1]))
        assert d == 2 and lead == -1.0

    def test_rejects_others(self):
        assert detect_one_minus_zd(Poly([1, -2, 1])) is None
        assert detect_one_minus_zd(Poly([1, 0.5, -1])) is None
        assert detect_one_minus_zd(Poly([0, 1])) is None

    @pytest.mark.parametrize("f", [Poly([1, -1.0000000000001]), Poly([3, -3])],
                             ids=["near-match", "lead-3"])
    def test_closed_form_solves_the_given_f(self, f):
        # a match to rounding, or a lead that scales inexactly: the result
        # holds the given f, and its residual is 1 - P f of that f
        sp = SpaceParams.power(1.5, 0.0)
        res = rates._dispatch(f, 8, sp, "auto")
        assert res.solver == "closed-form"
        assert res.f == f and res.f.coeffs.tobytes() == f.coeffs.tobytes()
        assert res.residual.coeffs.tobytes() == (ONE - res.approximant * f).coeffs.tobytes()
        # so its norm is that of the certified optimum of the given f
        certified = solve_structural(f, 8, sp)[0]
        assert certified.converged
        assert res.optimal_norm == pytest.approx(certified.optimal_norm, rel=1e-14)


class TestSweep:
    def test_over_cap_grid_refused_before_any_solve(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("an over-cap sweep reached a bound, a preparation or a solve")

        # every bound, shared preparation, factorization, sum and solve of a sweep
        for name in ("_dispatch", "_prepare", "lower_bound", "lower_bounds", "delta_sums",
                     "prepare_hilbert", "prepare_closed_form"):
            monkeypatch.setattr(rates, name, work)
        for name in ("cholesky_banded", "delta_sums"):
            monkeypatch.setattr(lpopa.opa, name, work)
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        # the flat route, the Hilbert route and the closed form with lead != 1
        for problem, p in ((spec, INF), (spec, 2.0), (Poly([2, -2]), 1.5)):
            with pytest.raises(DegreeCapError, match=f"^order n = 65536 plus deg f = "
                                                     f"{problem.degree} exceeds the degree "
                                                     "cap 65536$"):
                run_sweep(problem, SpaceParams.power(p, 0), geometric_grid(64, 131072))

    def test_convex_sweep_to_4096_matches_structural(self):
        # the banded Newton system takes the oracle past its old n <= 1024 cap
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        sp = SpaceParams.power(3.0, 0.0)
        grid = geometric_grid(64, 4096)
        convex = run_sweep(spec, sp, grid, solver="convex")
        structural = run_sweep(spec, sp, grid, solver="structural")
        assert [pt.n for pt in convex] == grid
        for got, want in zip(convex, structural):
            assert got.converged and want.converged
            assert got.optimal_norm == pytest.approx(want.optimal_norm, rel=1e-12)

    def test_hardy_exponent(self):
        sp = SpaceParams.power(2, 0)
        fit = fit_rates(run_sweep(Poly([1, -1]), sp, geometric_grid(64, 1024)), sp)
        assert fit.fitted_exponent == pytest.approx(-1.0, abs=0.05)
        assert fit.r_squared > 0.999

    def test_bergman_like_exponent(self):
        sp = SpaceParams.power(2, -1)
        fit = fit_rates(run_sweep(Poly([1, -1]), sp, geometric_grid(64, 1024)), sp)
        assert fit.fitted_exponent == pytest.approx(-2.0, abs=0.05)

    def test_degree_two_p3_via_convex(self):
        # generic-solver route; the decay exponent alpha + 1 - p = -2
        sp = SpaceParams.power(3, 0)
        f = expand(CircleZeroSpec(((0.0, 1), (PI, 1))))
        fit = fit_rates(run_sweep(f, sp, [32, 64, 128, 256], solver="convex"), sp)
        assert fit.fitted_exponent == pytest.approx(-2.0, abs=0.15)

    def test_stagnation_detected(self):
        sp = SpaceParams.power(2, 3)
        points = run_sweep(Poly([1, -1]), sp, [16, 64, 256])
        assert all(pt.optimal_norm ** 2 >= 0.5 for pt in points)
        assert all(pt.predicted_value == 1.0 for pt in points)

    def test_log_regime_band(self):
        sp = SpaceParams.power(2, 1)
        points = run_sweep(Poly([1, -1]), sp, geometric_grid(64, 4096))
        assert log_band_ratio(points, sp) <= 10.0
        fit = fit_rates(points, sp)
        assert fit.fitted_log_exponent is not None

    def test_lower_bound_never_violated(self):
        sp = SpaceParams.power(1.5, 0)
        for pt in run_sweep(Poly([1, -1]), sp, [4, 16, 64], solver="convex"):
            assert pt.optimal_norm >= pt.lower_bound * (1 - 1e-12)

    def test_failing_solver_raises_sweep_error(self, monkeypatch):
        # one dual Newton step cannot close the gap of the auto route at p = 3
        monkeypatch.setattr(lpopa.opa, "_DUAL_STEPS", 1)
        sp = SpaceParams.power(3, 1)
        with pytest.raises(SweepError) as err:
            run_sweep(CircleZeroSpec(((0.0, 2), (PI, 1))), sp, [16, 32])
        assert err.value.failed_orders

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            run_sweep(Poly([1, -1]), SpaceParams.power(2, 0), [8, 8])

    def test_pointwise_convergence_via_evaluation_bound(self):
        # |residual(z0)| <= norm * h(|z0|) always, and the product tends to 0
        # along a cyclic-regime sweep
        sp = SpaceParams.power(2, 0)
        f = Poly([1, -1])
        z_samples = (0.0, 0.5, 0.9 * np.exp(1j * PI / 3))
        products = []
        for n in (8, 64, 512):
            res = closed_form_one_minus_zd(1, n, sp)
            bound_total = 0.0
            for z0 in z_samples:
                h = evaluation_bound(sp, abs(z0))
                val = abs(res.residual(z0))
                assert val <= res.optimal_norm * h + 1e-12
                bound_total += res.optimal_norm * h
            products.append(bound_total)
        assert products[-1] < 0.5 * products[0]


class TestPredictedValue:
    def test_power(self):
        assert predicted_value(2, 0, 10, 1) == pytest.approx(1 / 12)

    def test_log(self):
        assert predicted_value(2, 1, 10, 1) == pytest.approx(1 / math.log(13))

    def test_stagnation(self):
        assert predicted_value(2, 5, 10, 1) == 1.0


def test_geometric_grid():
    assert geometric_grid(64, 1024) == [64, 128, 256, 512, 1024]
    assert geometric_grid(3, 20) == [3, 6, 12, 20]
    with pytest.raises(ValueError):
        geometric_grid(0, 4)
