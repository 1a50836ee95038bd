"""Tests for the structural solver: the residual's exponential-polynomial form."""

import math

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, Poly, SpaceParams, UnsupportedExponentError,
                   eval_derivative, expand, fit_exp_poly, lower_bound, solve_convex,
                   solve_hilbert, solve_structural)
from lpopa.opa import _dual_slopes, _dual_value, _residual_rows
from lpopa.rates import _dispatch

PI = math.pi


def residual_data(residual, f, sp, n):
    """d_t = (residual coefficient)^{<p-1>} * w_t, the solver's target data."""
    from lpopa.poly import signed_powers
    m = n + f.degree + 1
    wv = sp.weight.values_up_to(m - 1)
    return signed_powers(residual.padded(m), sp.p - 1.0) * wv


class TestKnownSolution:
    def test_single_simple_zero_p2(self):
        spec = CircleZeroSpec(((0.0, 1),), leading_coefficient=-1.0)  # f = 1 - z
        res, fit = solve_structural(spec, 1, SpaceParams.power(2, 0))
        assert fit.constants[(0, 1)] == pytest.approx(1 / 3, abs=1e-12)
        assert res.optimal_norm ** 2 == pytest.approx(1 / 3, rel=1e-12)
        assert fit.system_residual <= 1e-12
        assert res.converged

    def test_leading_coefficient_does_not_change_constants(self):
        sp = SpaceParams.power(2.5, 0.0)
        plain = solve_structural(CircleZeroSpec(((0.0, 1),)), 4, sp)[1]
        scaled = solve_structural(
            CircleZeroSpec(((0.0, 1),), leading_coefficient=-3.0 + 1j), 4, sp)[1]
        assert scaled.constants[(0, 1)] == pytest.approx(plain.constants[(0, 1)],
                                                         rel=1e-9)


class TestSimpleZeroIdentity:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_constant_sum_equals_norm_power(self, p):
        spec = CircleZeroSpec(((0.0, 1), (PI, 1)))
        sp = SpaceParams.power(p, 0.0)
        for n in (0, 3, 8, 15):
            res, fit = solve_structural(spec, n, sp)
            total = fit.constant_sum()
            assert abs(total.imag) <= 1e-9
            assert total.real == pytest.approx(res.optimal_norm ** p, rel=1e-8)


class TestAgainstConvexOracle:
    def test_double_zero_p3(self):
        spec = CircleZeroSpec(((0.0, 2),))
        sp = SpaceParams.power(3, 0)
        res, fit = solve_structural(spec, 8, sp)
        oracle = solve_convex(expand(spec), 8, sp)
        dev = np.abs(res.residual.padded(11) - oracle.residual.padded(11)).max()
        assert dev <= 1e-6
        assert fit.fit_residual <= 1e-6
        assert fit.system_residual <= 1e-9
        # the generic minimizer's residual data is itself affine in t
        oracle_fit = fit_exp_poly(oracle.residual, spec, 8, sp)
        assert oracle_fit.fit_residual <= 1e-6
        assert len(oracle_fit.constants) == 2

    @pytest.mark.parametrize("p,alpha", [(1.5, 0.0), (3.0, 0.5), (2.0, -1.0)])
    def test_mixed_multiplicities(self, p, alpha):
        # for p > 2 the optimal residual can have a vanishing coefficient,
        # where the system map behaves like a square root and the attainable
        # residual floor rises to ~sqrt(eps)
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        sp = SpaceParams.power(p, alpha)
        for n in (2, 7):
            res, fit = solve_structural(spec, n, sp)
            oracle = solve_convex(expand(spec), n, sp)
            assert res.optimal_norm == pytest.approx(oracle.optimal_norm, rel=1e-6)
            assert fit.system_residual <= (1e-7 if p > 2 else 1e-9)
            assert len(fit.constants) == 3


class TestStructuralInvariants:
    def test_recurrence_from_orthogonality(self):
        # independent check: sum_k a_k d_{j+k} = 0 for j = 0..n, where a_k
        # are f's coefficients; this is the raw orthogonality relation
        spec = CircleZeroSpec(((0.0, 1), (PI / 3, 2)))
        sp = SpaceParams.power(2.5, 0.5)
        n = 6
        res, _ = solve_structural(spec, n, sp)
        f = expand(spec)
        dv = residual_data(res.residual, f, sp, n)
        scale = np.abs(dv).max()
        for j in range(n + 1):
            acc = sum(f.coeffs[k] * dv[j + k] for k in range(f.degree + 1))
            assert abs(acc) <= 1e-7 * max(scale, 1.0)

    def test_interpolation_conditions(self):
        # the residual takes value 1 at each zero and has vanishing
        # derivatives below the multiplicity
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        sp = SpaceParams.power(3, 0)
        res, _ = solve_structural(spec, 9, sp)
        for (angle, mult) in spec.roots:
            z = np.exp(1j * angle)
            assert abs(res.residual(z) - 1.0) <= 1e-7
            for s in range(1, mult):
                assert abs(eval_derivative(res.residual, z, s)) <= 1e-6

    def test_degree_bounds(self):
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        res, _ = solve_structural(spec, 5, SpaceParams.power(1.5, 0))
        assert res.approximant.degree <= 5
        assert res.residual.degree <= 5 + 3

    def test_flat_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            solve_structural(CircleZeroSpec(((0.0, 1),)), 1, SpaceParams.power(1, 0))

    @pytest.mark.parametrize("roots, n", [(((0.0, 2), (PI, 1)), 2), (((0.0, 4),), 128)],
                             ids=["(z-1)^2(z+1),n=2", "(z-1)^4,n=128"])
    def test_stalled_newton_stands_alone(self, monkeypatch, roots, n):
        # the route certifies both on its own, without asking the convex route
        spec = CircleZeroSpec(roots)
        sp = SpaceParams.power(3, 0.0)
        oracle = solve_convex(expand(spec), n, sp)

        def no_convex(*args, **kwargs):
            raise AssertionError("solve_structural called solve_convex")

        monkeypatch.setattr("lpopa.opa.solve_convex", no_convex)
        res, _ = solve_structural(spec, n, sp)
        assert res.converged
        assert abs(res.rel_gap) <= 1e-10
        assert res.optimal_norm >= lower_bound(spec, n, sp)
        assert res.optimal_norm == pytest.approx(oracle.optimal_norm, rel=1e-10)


class TestDualDerivatives:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.5])
    @pytest.mark.parametrize("f", [expand(CircleZeroSpec(((0.0, 2), (PI / 2, 1)))),
                                   Poly([1, 0.5 - 1j, -0.5j])], ids=["circle", "cplx"])
    def test_match_finite_differences(self, f, p):
        # gradient and Hessian of h(lam) = b . lam - (1/q) sum w^(1-q) |A lam|^q
        sp = SpaceParams.power(p, 0.3)
        m = 5 + f.degree
        real = not np.abs(f.coeffs.imag).any()
        A, b = _residual_rows(f, f, m, real)
        w, q = sp.weight.values_up_to(m - 1), sp.q
        lam = np.random.default_rng(9).standard_normal(b.size)
        grad, hess, r = _dual_slopes(A, b, w, q, *_dual_value(A, b, w, q, lam)[1:])
        eps = 1e-6
        for k in range(b.size):
            e = np.zeros_like(lam)
            e[k] = eps
            slope = (_dual_value(A, b, w, q, lam + e)[0]
                     - _dual_value(A, b, w, q, lam - e)[0]) / (2 * eps)
            assert slope == pytest.approx(grad[k], rel=1e-6, abs=1e-8)
            curve = (_dual_slopes(A, b, w, q, *_dual_value(A, b, w, q, lam + e)[1:])[0]
                     - _dual_slopes(A, b, w, q, *_dual_value(A, b, w, q, lam - e)[1:])[0])
            np.testing.assert_allclose(-curve / (2 * eps), hess[:, k], rtol=1e-5, atol=1e-7)
        # the Lagrangian minimizer: its constraint defect is the gradient
        np.testing.assert_allclose(b - np.einsum("tcr,tc->r", A, r), grad, atol=1e-12)


def test_oracle_triangle_across_weights():
    # three independent routes agree for each (p, alpha) cell, including the
    # critical line alpha = p - 1; the hilbert route joins at p = 2
    spec = CircleZeroSpec(((0.0, 1), (PI, 1)))
    f = expand(spec)
    for p in (1.5, 2.0, 3.0):
        for alpha in (-1.0, 0.0, 0.5, p - 1.0):
            sp = SpaceParams.power(p, alpha)
            for n in (3, 8):
                st, _ = solve_structural(spec, n, sp)
                cv = solve_convex(f, n, sp)
                assert st.optimal_norm == pytest.approx(cv.optimal_norm, rel=1e-6)
                dev = np.abs(st.approximant.padded(n + 1)
                             - cv.approximant.padded(n + 1)).max()
                assert dev <= 1e-5
                if p == 2.0:
                    hb = solve_hilbert(f, n, sp.weight)
                    assert hb.optimal_norm == pytest.approx(cv.optimal_norm,
                                                            rel=1e-6)


def test_fit_exp_poly_on_hilbert_solution():
    # at p = 2 the structure is exact for the direct linear-algebra solution
    spec = CircleZeroSpec(((0.0, 1), (2 * PI / 3, 1), (4 * PI / 3, 1)))
    sp = SpaceParams.power(2, 1)
    f = expand(spec)
    res = solve_hilbert(f, 7, sp.weight)
    fit = fit_exp_poly(res.residual, spec, 7, sp)
    assert fit.fit_residual <= 1e-10
    assert fit.system_residual <= 1e-10
    assert len(fit.constants) == 3


CERTIFIED = {"z1sq_zp1": CircleZeroSpec(((0.0, 2), (PI, 1))),
             "three": CircleZeroSpec(((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1))),
             "cplx": Poly([1, 0.5 - 1j, -0.5j]),
             "z1_4": CircleZeroSpec(((0.0, 4),))}


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("p", [1.1, 1.2, 1.5, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("name", list(CERTIFIED))
def test_auto_route_certifies(name, p, alpha):
    # auto sends 1 < p < inf, p != 2, to the dual Newton, whose gap certifies every order,
    # for a spec and a Poly alike
    problem, sp = CERTIFIED[name], SpaceParams.power(p, alpha)
    f = expand(problem) if isinstance(problem, CircleZeroSpec) else problem
    for n in (0, 3, 16, 64, 256) + (() if name == "z1_4" else (1024,)):
        res = _dispatch(problem, n, sp, "auto")
        assert res.solver == "structural" and res.converged, n
        direct, _ = solve_structural(problem, n, sp)
        assert direct.optimal_norm == res.optimal_norm
        assert abs(res.rel_gap) <= 1e-10
        assert res.dual <= res.optimal_norm * (1 + 1e-10)
        if n <= 64:
            oracle = solve_convex(f, n, sp)
            if oracle.converged:
                assert res.optimal_norm == pytest.approx(oracle.optimal_norm, rel=1e-10), n


def test_auto_route_certifies_where_convex_stops_at_its_seed():
    # at p = 10 solve_convex's gradient test holds at its p = 2 seed and
    # reports a norm 36% high as converged; the dual route certifies the optimum
    res = _dispatch(CircleZeroSpec(((0.0, 2), (PI, 1))), 128, SpaceParams.power(10, 0), "auto")
    assert res.solver == "structural" and res.converged
    assert res.optimal_norm == pytest.approx(0.03250531689303854, rel=1e-10)
