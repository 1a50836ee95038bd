"""Tests for the hilbert, convex, closed-form, flat and composite solvers."""

import itertools
import math
import sys
import types
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import lpopa.space
from lpopa import (CircleZeroSpec, DegreeCapError, IllConditionedError, OpaResult, Poly,
                   SpaceParams, UnsupportedExponentError, Weight,
                   closed_form_one_minus_zd, composite_construction, exact_div, expand,
                   lower_bound, norm, opa, power_weight, rates, solve_convex, solve_flat,
                   solve_hilbert, solve_structural, table_weight)
from lpopa.opa import SolverOpts, bj_certificate, prepare_residual_qr
from lpopa.poly import MAX_DEGREE

INF = math.inf
PI = math.pi
Z1SQ_ZP1 = expand(CircleZeroSpec(((0.0, 2), (PI, 1))))  # (z-1)^2 (z+1)
THREE = expand(CircleZeroSpec(((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1))))
CPLX = Poly([1, 0.5 - 1j, -0.5j])                        # (1 - iz)(1 + z/2)


def one_minus_zd(d):
    c = np.zeros(d + 1)
    c[0], c[d] = 1.0, -1.0
    return Poly(c)


@pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": -5}, {"max_iters": 2.5}])
def test_bad_solver_options_rejected(kwargs):
    with pytest.raises(ValueError):
        SolverOpts(**kwargs)


class TestHilbert:
    def test_textbook_case(self):
        res = solve_hilbert(Poly([1, -1]), 1, power_weight(0))
        np.testing.assert_allclose(res.approximant.coeffs, [2 / 3, 1 / 3], atol=1e-12)
        assert res.optimal_norm ** 2 == pytest.approx(1 / 3)
        assert res.converged

    def test_matches_closed_form_any_alpha(self):
        for alpha in (-1.3, 0.0, 0.7, 2.0):
            sp = SpaceParams.power(2, alpha)
            got = solve_hilbert(Poly([1, -1]), 1, sp.weight)
            want = closed_form_one_minus_zd(1, 1, sp)
            np.testing.assert_allclose(got.approximant.coeffs,
                                       want.approximant.coeffs, atol=1e-10)

    def test_matches_convex_degree_two(self):
        f = Poly([1, -1]) * Poly([1, 1])
        got = solve_hilbert(f, 2, power_weight(0))
        other = solve_convex(f, 2, SpaceParams.power(2, 0))
        np.testing.assert_allclose(got.approximant.padded(3),
                                   other.approximant.padded(3), atol=1e-8)

    def test_banded_gram_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            fc = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            f = Poly(fc)
            n = int(rng.integers(0, 9))
            alpha = rng.uniform(-1.5, 1.5)
            w = power_weight(alpha)
            m = n + f.degree + 1
            F = np.zeros((m, n + 1), dtype=complex)
            for j in range(n + 1):
                F[j: j + f.degree + 1, j] = f.coeffs
            wv = w.values_up_to(m - 1)
            G = F.conj().T @ (wv[:, None] * F)
            rhs = np.zeros(n + 1, dtype=complex)
            rhs[0] = np.conj(f.coeffs[0])
            dense = np.linalg.solve(G, rhs)
            got = solve_hilbert(f, n, w).approximant.padded(n + 1)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-10 * max(
                1.0, np.abs(dense).max()))

    def test_zero_inside_disc_gives_constant_norm(self):
        for n in (0, 3, 10):
            res = solve_hilbert(Poly([0, 1]), n, power_weight(0))
            assert res.approximant.is_zero
            assert res.optimal_norm == pytest.approx(1.0)

    def test_ill_conditioned_weight_constant_f_is_exact(self):
        # a condition estimate once refused this Gram matrix, diag(1, 1e15),
        # whose answer 1 / f_0 is exact
        w = table_weight([1.0, 1e15], tail="constant")
        res = solve_hilbert(Poly([2]), 1, w)
        assert res.approximant.coeffs.tolist() == [0.5]
        assert res.residual.is_zero and res.optimal_norm == 0.0
        assert res.converged and (res.dual, res.rel_gap) == (0.0, 0.0)

    def test_wrong_answer_is_not_converged(self):
        # past n = 8192 the Gram solve of (z-1)^2 (z+1) drifts off the
        # certified p = 2 optimum of the residual form
        w = power_weight(0.5)
        res = solve_hilbert(Z1SQ_ZP1, 16384, w)
        want = prepare_residual_qr(CircleZeroSpec(((0.0, 2), (PI, 1))), 16384, w)(16384)
        assert want.converged and res.optimal_norm / want.optimal_norm - 1 > 1e-8
        assert not res.converged

    @pytest.mark.parametrize("solve, sp", [(solve_hilbert, power_weight(0)),
                                           (solve_convex, SpaceParams.power(1.5, 0))],
                             ids=["hilbert", "convex"])
    def test_gram_band_out_of_the_float_range_is_ill_conditioned(self, solve, sp):
        # the coefficients of (z-1)^1000 reach 2.7e299, so |f|^2 overflows
        f = expand(CircleZeroSpec(((0.0, 1000),)))
        with pytest.raises(IllConditionedError, match="Gram band of f leaves the float range"):
            solve(f, 0, sp)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            solve_hilbert(Poly(), 2, power_weight(0))


class TestConvex:
    def test_trivial_unit(self):
        res = solve_convex(Poly([1]), 3, SpaceParams.power(2.5, 0.5))
        assert res.optimal_norm <= 1e-12
        np.testing.assert_allclose(res.approximant.padded(4), [1, 0, 0, 0],
                                   atol=1e-10)

    def test_monomial_forces_zero(self):
        res = solve_convex(Poly([0, 1]), 2, SpaceParams.power(3, 0))
        assert res.optimal_norm == pytest.approx(1.0)
        assert np.abs(res.approximant.padded(3)).max() <= 1e-10

    def test_textbook_case(self):
        res = solve_convex(Poly([1, -1]), 1, SpaceParams.power(2, 0))
        np.testing.assert_allclose(res.approximant.coeffs, [2 / 3, 1 / 3], atol=1e-10)
        assert res.optimal_norm ** 2 == pytest.approx(1 / 3, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # derivative oracle for the objective used by the solver
        from lpopa.space import norm as sp_norm
        rng = np.random.default_rng(2)
        f = Poly([1.0, -0.5 + 0.25j, 0.5j])
        n = 2
        for p in (1.5, 2.0, 3.0):
            sp = SpaceParams.power(p, 0.5)

            def phi(x):
                return sp_norm(Poly([1]) - Poly(x.view(np.complex128)) * f, sp) ** p

            x0 = rng.standard_normal(2 * (n + 1)) * 0.3
            h = 1e-6
            for k in range(2 * (n + 1)):
                e = np.zeros_like(x0)
                e[k] = h
                fd = (phi(x0 + e) - phi(x0 - e)) / (2 * h)
                # reproduce the solver's analytic gradient component
                from lpopa.poly import signed_powers
                r = -np.convolve(x0.view(np.complex128), f.coeffs)
                r[0] += 1.0
                wv = sp.weight.values_up_to(len(r) - 1)
                pair = np.correlate(signed_powers(r, p - 1) * wv,
                                    np.conj(f.coeffs), mode="valid")
                g = (-p * np.conj(pair)).view(np.float64)
                assert g[k] == pytest.approx(fd, rel=2e-5, abs=2e-7)

    def test_orthogonality_certificates(self):
        for p, alpha in ((1.5, -1.0), (2.5, 0.0), (4.0, 0.5)):
            sp = SpaceParams.power(p, alpha)
            f = expand(CircleZeroSpec(((0.0, 2),)))
            res = solve_convex(f, 6, sp)
            assert res.converged
            assert bj_certificate(res, n_probes=100, seed=1) <= 1e-8

    def test_norm_consistency(self):
        sp = SpaceParams.power(1.5, 0.0)
        res = solve_convex(Poly([1, 0, -1]), 5, sp)
        assert res.optimal_norm == pytest.approx(norm(res.residual, sp), rel=1e-12)
        assert res.residual.degree <= 5 + 2
        assert res.approximant.degree <= 5

    def test_monotone_in_order(self):
        sp = SpaceParams.power(3, 0.5)
        f = Poly([1, -1])
        norms = [solve_convex(f, n, sp).optimal_norm for n in range(0, 9)]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_rotation_covariance(self):
        # approximants for f(e^{-i theta} z) are the e^{-i theta t}-rotated
        # coefficients of those for f, and the optimal norms coincide
        theta = 0.7
        sp = SpaceParams.power(2.5, 0.5)
        plain = solve_convex(Poly([1, -1]), 3, sp)
        rotated = solve_convex(Poly([1, -np.exp(-1j * theta)]), 3, sp)
        t = np.arange(4)
        np.testing.assert_allclose(rotated.approximant.padded(4),
                                   plain.approximant.padded(4) * np.exp(-1j * theta * t),
                                   atol=1e-9)
        assert rotated.optimal_norm == pytest.approx(plain.optimal_norm, rel=1e-10)

    def test_flat_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            solve_convex(Poly([1, -1]), 1, SpaceParams.power(1, 0))

    def test_nonconvergence_is_flagged(self):
        # from the banded p = 2 seed this point takes 6 steps to certify;
        # one step leaves a relative gap near 7e-3
        sp = SpaceParams.power(3, 0)
        res = solve_convex(Z1SQ_ZP1, 24, sp, SolverOpts(max_iters=1))
        assert res.iterations == 1 and not res.converged
        assert res.rel_gap > 1e-10
        assert solve_convex(Z1SQ_ZP1, 24, sp).converged

    @pytest.mark.parametrize("roots, p", [(((0.0, 4),), 1.2), (((0.0, 2), (PI, 1)), 1.1)],
                             ids=["(z-1)^4,p=1.2", "(z-1)^2(z+1),p=1.1"])
    def test_certificate_stop_returns_early(self, roots, p):
        # both once ran 10,000 Newton steps (11 s and 50 s) towards a
        # stationarity the rounding floor of the norm keeps out of reach;
        # the duality gap certifies (z-1)^4 after 38 steps, and at p = 1.1,
        # where the gap stays above 1e-10, the loop ends after 79 at the
        # structural norm
        spec = CircleZeroSpec(roots)
        sp = SpaceParams.power(p, 0.0)
        res = solve_convex(expand(spec), 64, sp)
        assert res.converged or p < 1.2
        assert res.iterations <= 100
        ref, _ = solve_structural(spec, 64, sp)
        assert ref.converged
        assert res.optimal_norm == pytest.approx(ref.optimal_norm, rel=1e-10)

    def test_budget_ends_an_uncertified_solve(self):
        # the Gram band of (z-1)^4 at n = 512 is too ill-conditioned for the
        # certificate; the loop ends at the default budget, the dual Newton's
        res = solve_convex(expand(CircleZeroSpec(((0.0, 4),))), 512, SpaceParams.power(6, 0.0))
        assert SolverOpts().max_iters == 200
        assert not res.converged
        assert res.iterations <= 200

    def test_a_dual_vector_that_leaks_bounds_nothing(self):
        # the projection onto the vectors orthogonal to every z^j f loses
        # F^H y = 0 here: the unchecked bound lay 8% above the norm it bounds
        res = solve_convex(expand(CircleZeroSpec(((0.0, 4),))), 512, SpaceParams.power(3, -0.5))
        assert res.dual is None and res.rel_gap is None
        assert not res.converged


# (circle zeros or f, p, n, alpha): repeated zeros up to n = 256, and p = 1.2
# cases that Newton descent from the p = 2 seed certifies at p itself; 1 - 2z
# and (z-1)^4 at n = 9 were unconverged under a stationarity rule, 1 - 2z at
# the structural norm and (z-1)^4 without a p = 1.5 continuation stage; the
# last four a stall rule ended short of the optimum, the p = 10 one after
# three steps at 0.4453 against 0.0372723
CONVEX_VS_STRUCTURAL = [
    (((0.0, 2), (PI, 1)), 1.2, 32, 0.0),
    (((0.0, 4),), 1.5, 32, 0.0),
    (((0.0, 4),), 3.0, 32, 0.5),
    (((0.0, 2), (PI, 1)), 1.5, 128, 0.0),
    (((0.0, 2), (PI, 1)), 3.0, 256, 0.0),
    (((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1)), 1.2, 16, 0.5),
    (Poly([1, -2]), 1.5, 32, 0.0),
    (((0.0, 4),), 1.2, 9, 0.0),
    (((0.0, 1),), 1.2, 64, 1.0),
    (((0.0, 2), (PI, 1)), 1.2, 17, 0.0),
    (CPLX, 1.2, 9, 1.0),
    (((0.0, 1), (2.0, 1), (4.0, 1)), 10.0, 128, 1.0),
]


@pytest.mark.parametrize("roots, p, n, alpha", CONVEX_VS_STRUCTURAL)
def test_convex_converges_to_structural_norm(roots, p, n, alpha):
    problem = roots if isinstance(roots, Poly) else CircleZeroSpec(roots)
    sp = SpaceParams.power(p, alpha)
    res = solve_convex(expand(problem) if isinstance(problem, CircleZeroSpec) else problem, n, sp)
    ref, _ = solve_structural(problem, n, sp)
    assert res.converged
    assert ref.converged
    assert res.optimal_norm == pytest.approx(ref.optimal_norm, rel=1e-10)


class TestClosedForm:
    def test_p2_case(self):
        res = closed_form_one_minus_zd(1, 1, SpaceParams.power(2, 0))
        np.testing.assert_allclose(res.approximant.coeffs, [2 / 3, 1 / 3], atol=1e-15)
        assert res.optimal_norm ** 2 == pytest.approx(1 / 3, rel=1e-14)

    def test_p4_case(self):
        # with the flat weight the cumulative sums are k+1 for every p, so
        # the coefficients repeat and norm^p = (n+2)^{1-p} = 1/27 here
        sp = SpaceParams.power(4, 0)
        res = closed_form_one_minus_zd(1, 1, sp)
        np.testing.assert_allclose(res.approximant.coeffs, [2 / 3, 1 / 3], atol=1e-15)
        assert res.optimal_norm ** 4 == pytest.approx(1 / 27, rel=1e-13)
        other = solve_convex(Poly([1, -1]), 1, sp)
        np.testing.assert_allclose(other.approximant.coeffs,
                                   res.approximant.coeffs, atol=1e-9)

    def test_dilated_case(self):
        res = closed_form_one_minus_zd(2, 3, SpaceParams.power(2, 0))
        np.testing.assert_allclose(res.approximant.padded(4), [2 / 3, 0, 1 / 3, 0],
                                   atol=1e-15)
        assert res.optimal_norm ** 2 == pytest.approx(1 / 3, rel=1e-14)

    def test_orthogonality_of_exact_solution(self):
        for d, n, p, alpha in ((1, 5, 1.5, -1.0), (2, 9, 3.0, 0.5), (3, 7, 2.0, 1.0)):
            res = closed_form_one_minus_zd(d, n, SpaceParams.power(p, alpha))
            assert bj_certificate(res, n_probes=100, seed=1) <= 1e-12

    def test_table_weight_agrees_with_convex(self):
        base = power_weight(0.5)
        w = table_weight(base.values_up_to(63), tail="power")
        sp = SpaceParams(2.5, w)
        res = closed_form_one_minus_zd(2, 7, sp)
        other = solve_convex(one_minus_zd(2), 7, sp)
        np.testing.assert_allclose(res.approximant.padded(8),
                                   other.approximant.padded(8), atol=1e-8)

    def test_one_weight_table_serves_sums_and_norms(self, monkeypatch):
        # the sums read the dilated weight w_{dt} off the residual's table
        lasts, values_up_to = [], Weight.values_up_to

        def counted(w, last):
            lasts.append(last)
            return values_up_to(w, last)

        monkeypatch.setattr(Weight, "values_up_to", counted)
        opa.prepare_closed_form(one_minus_zd(3), 40, SpaceParams.power(1.5, 0.5))
        assert lasts == [43]

    def test_sums_out_of_range_end_the_order(self):
        # at p = 2, alpha = -1000 the sums are 1, 2^1000, then inf from
        # w_2 = 3^-1000 = 0 on: n = 0 keeps its bits, n = 1 has finite
        # coefficients but an infinite dual norm, and past it the
        # coefficients s_t / s_{M+1} are inf / inf
        sp = SpaceParams.power(2, -1000)
        f = one_minus_zd(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve = opa.prepare_closed_form(f, 4, sp)
            alone = opa.prepare_closed_form(f, 0, sp)(0)
            assert solve(0).converged and alone.converged
            assert solve(0).approximant.coeffs.tobytes() == alone.approximant.coeffs.tobytes()
            assert solve(0).optimal_norm == alone.optimal_norm
            assert (solve(1).converged, solve(1).dual) == (False, None)
            for n in (2, 3, 4):
                with pytest.raises(IllConditionedError, match=f"^closed form at n = {n}: "
                                                              "the weight sums leave"):
                    solve(n)
            assert rates.lower_bounds(f, [0, 4], sp)[1] == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            closed_form_one_minus_zd(0, 1, SpaceParams.power(2, 0))
        with pytest.raises(UnsupportedExponentError):
            closed_form_one_minus_zd(1, 1, SpaceParams.power(INF, 0))


PROBE_POLYS = [
    pytest.param(Z1SQ_ZP1, id="(z-1)^2(z+1)"),
    pytest.param(CPLX, id="cplx"),
    pytest.param(one_minus_zd(2), id="1-z^2"),
    pytest.param(Poly([1]), id="1"),
]


def coefficient_lp_norm(f, n, p, alpha):
    """Optimal norm of the coefficient-space LP for a real f, solved by HiGHS.

    The unknowns are the n+1 coefficients of P and one bound per residual
    entry (p = 1) or a single bound on all of them (p = inf); no roots of f
    are needed.
    """
    from scipy.optimize import linprog

    fc = f.coeffs.real
    m = n + fc.size
    F = np.zeros((m, n + 1))
    for j in range(n + 1):
        F[j: j + fc.size, j] = fc
    w = SpaceParams.power(p, alpha).weight.values_up_to(m - 1)
    e0 = np.eye(1, m)[0]
    if p == 1:
        a_ub = np.block([[-F, -np.eye(m)], [F, -np.eye(m)]])
        b_ub, cost = np.concatenate([-e0, e0]), np.concatenate([np.zeros(n + 1), w])
    else:
        a_ub = np.block([[-w[:, None] * F, -np.ones((m, 1))], [w[:, None] * F, -np.ones((m, 1))]])
        b_ub, cost = np.concatenate([-w * e0, w * e0]), np.eye(1, n + 2, n + 1)[0]
    bounds = [(None, None)] * (n + 1) + [(0, None)] * (cost.size - n - 1)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    r = np.abs(e0 - F @ res.x[: n + 1]) * w
    return float(r.sum() if p == 1 else r.max())


class TestFlat:
    def test_wiener_example_norm_one(self):
        sp = SpaceParams.power(1, 1)
        f = Poly([1, -0.5])                    # 1 - z / w_1
        res, face_dim = solve_flat(f, 0, sp)
        assert res.optimal_norm == pytest.approx(1.0, abs=1e-12)
        assert res.converged
        # the whole segment c_0 in [0, 1] is optimal
        for c0 in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert norm(Poly([1]) - Poly([c0]) * f, sp) == pytest.approx(1.0)
        assert face_dim >= 1

    def test_unit_function_sup_norm(self):
        res, _ = solve_flat(Poly([1]), 4, SpaceParams.power(INF, 0.3))
        assert res.optimal_norm <= 1e-9

    def test_sup_norm_flat_direction(self):
        sp = SpaceParams.power(INF, 0)
        g = Poly([1, 0, -1])
        res, face_dim = solve_flat(g, 1, sp)
        a = res.approximant.coeff(0)
        vals = [norm(Poly([1]) - Poly([a, b]) * g, sp)
                for b in np.linspace(-0.5, 0.5, 11)]
        assert max(vals) - min(vals) <= 1e-12
        assert face_dim == 1                      # the free b direction
        for shift in (-1e-3, 1e-3):               # a strict minimum in a
            assert norm(Poly([1]) - Poly([a + shift]) * g, sp) > res.optimal_norm + 1e-4

    @pytest.mark.parametrize("alpha, n", [(-1000.0, 0), (-300.0, 3)])
    def test_dual_norm_out_of_range_certifies_nothing(self, alpha, n):
        # w_t underflows past t = 1 and the dual norm ||A lam||_* to 0 with it
        res, face_dim = solve_flat(Poly([1, -1]), n, SpaceParams.power(1, alpha))
        assert (res.converged, res.dual, res.rel_gap, face_dim) == (False, None, None, None)

    @pytest.mark.parametrize("f, n, alpha, norm_before, dual_before, steps", [
        (Poly([1, -1]), 0, 0.0, 0.5000000000000002, 0.4999999999999999, 0),
        (Poly([1, -1]), 16, 0.0, 0.055555555555556024, 0.05555555555555555, 0),
        (Poly([1, -1]), 128, 0.0, 0.007692307692307998, 0.007692307692307693, 0),
        (CircleZeroSpec(((0.0, 2), (PI, 1))), 64, 0.5,
         0.14413036170932284, 0.1441303617093129, 31),
    ], ids=["1-z,n=0", "1-z,n=16", "1-z,n=128", "(z-1)^2(z+1),n=64"])
    def test_point_dual_plane_runs_no_newton_stage(self, f, n, alpha, norm_before,
                                                   dual_before, steps, monkeypatch):
        # One dual unknown leaves the plane b . lam = 1 a point: _flat_linf
        # returns lam = b / (b . b) and solves no Newton system.  1 - z is
        # such a level, and so is the last level of (z-1)^2(z+1) (plane
        # dimensions 2 -> 1 -> 0).  The *_before values were recorded with
        # all 12 smoothing stages running on such points: the dual must not
        # move, the norm (from the division) only at rounding level.  The
        # steps, all on the plane of dimension 1, are those of the six
        # secant-started smoothing stages.
        levels, shapes = [], []
        flat_linf, solve = opa._flat_linf, np.linalg.solve

        def recorded_flat_linf(A, b, w):
            r, lam, more = flat_linf(A, b, w)
            levels.append((b.size, lam, b / (b @ b), more))
            return r, lam, more

        def recorded_solve(a, rhs):
            shapes.append(np.shape(a))
            return solve(a, rhs)

        monkeypatch.setattr(opa, "_flat_linf", recorded_flat_linf)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        res, _ = solve_flat(f, n, SpaceParams.power(INF, alpha))
        assert res.converged and res.iterations == steps
        assert res.dual == pytest.approx(dual_before, rel=1e-13)
        assert res.optimal_norm == pytest.approx(norm_before, rel=1e-12)
        points = [level for level in levels if level[0] == 1]
        assert len(points) == 1
        _, lam, lam0, more = points[0]
        assert lam.tobytes() == lam0.tobytes() and more == 0
        assert (0, 0) not in shapes

    def test_sup_norm_decay_for_one_minus_z(self):
        # optimal sup-norm value is exactly 1/(n+2) for the flat weight
        sp = SpaceParams.power(INF, 0)
        for n in (0, 3, 9):
            res, _ = solve_flat(Poly([1, -1]), n, sp)
            assert res.optimal_norm == pytest.approx(1.0 / (n + 2), rel=1e-12)

    def test_smooth_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            solve_flat(Poly([1, -1]), 1, SpaceParams.power(2, 0))

    @pytest.mark.parametrize("f, alpha", [
        (Poly([1, -1]), 0.5),
        (Z1SQ_ZP1, 0.0),
    ], ids=["1-z,alpha=0.5", "(z-1)^2(z+1),alpha=0"])
    def test_never_worse_than_zero_approximant(self, f, alpha):
        # the zero approximant is optimal here, with norm 1
        res, _ = solve_flat(f, 16, SpaceParams.power(1, alpha))
        assert res.optimal_norm <= 1.0

    @pytest.mark.parametrize("p", [1, INF])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 5, 16])
    @pytest.mark.parametrize("f", [
        pytest.param(Poly([1, -1]), id="1-z"),
        pytest.param(Z1SQ_ZP1, id="(z-1)^2(z+1)"),
        pytest.param(THREE, id="three"),
        pytest.param(one_minus_zd(2), id="1-z^2"),
    ])
    def test_matches_coefficient_lp(self, f, n, alpha, p):
        res, _ = solve_flat(f, n, SpaceParams.power(p, alpha))
        assert res.optimal_norm == pytest.approx(coefficient_lp_norm(f, n, p, alpha), rel=1e-9)

    # the orders where smoothing stages of the p = inf dual Newton sit at
    # the rounding floor for many steps
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("f", [pytest.param(Z1SQ_ZP1, id="(z-1)^2(z+1)"),
                                   pytest.param(THREE, id="three")])
    def test_sup_norm_matches_coefficient_lp_at_larger_order(self, f, n, alpha):
        res, _ = solve_flat(f, n, SpaceParams.power(INF, alpha))
        assert res.optimal_norm == pytest.approx(coefficient_lp_norm(f, n, INF, alpha), rel=1e-9)

    def test_sup_norm_stage_ends_at_rounding_floor(self):
        # four smoothing stages used to spend their whole step budget here
        res, _ = solve_flat(CPLX, 16, SpaceParams.power(INF, 0.5))
        assert res.converged and res.rel_gap <= 1e-9
        assert res.iterations <= 120

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_sup_norm_secant_start_step_count(self, n, alpha):
        # the secant start of each smoothing stage lands near the minimizer
        # of the next eps: 17-28 steps here
        res, _ = solve_flat(CPLX, n, SpaceParams.power(INF, alpha))
        assert res.converged and res.rel_gap <= 1e-9
        assert res.iterations <= 30

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("f", [pytest.param(Z1SQ_ZP1, id="(z-1)^2(z+1)"),
                                   pytest.param(THREE, id="three"),
                                   pytest.param(CPLX, id="cplx")])
    def test_sup_norm_step_count(self, f, n, alpha):
        res, _ = solve_flat(f, n, SpaceParams.power(INF, alpha))
        assert res.converged
        assert res.iterations <= 200

    @pytest.mark.parametrize("p", [1, INF])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 5, 16])
    @pytest.mark.parametrize("f", [*PROBE_POLYS, pytest.param(Poly([0, 1]), id="z")])
    def test_certificate(self, f, n, alpha, p):
        res, _ = solve_flat(f, n, SpaceParams.power(p, alpha))
        assert res.converged
        assert res.rel_gap <= 1e-9
        # weak duality, up to the rounding of two equal values
        assert res.dual <= res.optimal_norm * (1 + 1e-12)

    def test_spec_and_coefficients_agree(self):
        # exact circle zeros, and np.roots clustered into a fourfold zero
        spec = CircleZeroSpec(((0.0, 4),))
        for p in (1, INF):
            sp = SpaceParams.power(p, -0.5)
            exact, _ = solve_flat(spec, 64, sp)
            clustered, _ = solve_flat(expand(spec), 64, sp)
            assert exact.converged and clustered.converged
            assert clustered.optimal_norm == pytest.approx(exact.optimal_norm, rel=1e-9)


RECORD_PROBLEMS = {"spec": CircleZeroSpec(((0.0, 2), (PI, 1))), "poly": CPLX,
                   "constant": Poly([3.0])}


def gap_rule(res: OpaResult, sp: SpaceParams) -> bool:
    """The converged rule of a certified route: |relative gap| at most 1e-9 at
    the flat endpoints, 1e-10 otherwise, and a norm at most the zero
    approximant's 1, to 1e-12."""
    return (abs(res.rel_gap) <= (1e-9 if sp.is_flat else 1e-10)
            and res.optimal_norm <= 1 + 1e-12)


class TestCertificateRecord:
    @pytest.mark.parametrize("p", [1, 1.5, 3, INF])
    @pytest.mark.parametrize("name", list(RECORD_PROBLEMS))
    def test_residual_form_routes_carry_it(self, name, p):
        sp = SpaceParams.power(p, 0.5)
        solve = solve_flat if sp.is_flat else solve_structural
        for n in (0, 3, 16):
            res = solve(RECORD_PROBLEMS[name], n, sp)[0]
            assert res.converged and res.converged == gap_rule(res, sp)
            # weak duality, up to the rounding of two equal values
            assert res.dual <= res.optimal_norm * (1 + 1e-12)
            if name == "constant":
                assert (res.dual, res.rel_gap, res.optimal_norm) == (0.0, 0.0, 0.0)
            else:
                assert res.rel_gap == (res.optimal_norm - res.dual) / res.optimal_norm

    # the (z-1)^4 orders where the division defect of P holds the gap above
    # its tolerance, next to certified ones: converged follows the gap alone
    @pytest.mark.parametrize("p, alpha, n", [(1.2, 0.0, 1024), (1.5, 0.0, 64),
                                             (INF, -0.5, 256), (1, -0.5, 512), (1, 0.0, 64)])
    def test_converged_is_the_gap_rule(self, p, alpha, n):
        sp = SpaceParams.power(p, alpha)
        solve = solve_flat if sp.is_flat else solve_structural
        res, second = solve(CircleZeroSpec(((0.0, 4),)), n, sp)
        assert res.converged == gap_rule(res, sp)
        if sp.is_flat:      # a face dimension only where the dual bounds the optimum
            assert (second is None) == (not res.converged)

    @pytest.mark.parametrize("p", [1.2, 2, 3])
    @pytest.mark.parametrize("name", list(RECORD_PROBLEMS))
    def test_convex_route_carries_it(self, name, p):
        sp = SpaceParams.power(p, 0.5)
        problem = RECORD_PROBLEMS[name]
        f = expand(problem) if isinstance(problem, CircleZeroSpec) else problem
        for n in (0, 3, 16):
            res = solve_convex(f, n, sp)
            assert res.converged and res.converged == gap_rule(res, sp)
            # weak duality: the projected dual data of the residual bounds it from below
            assert res.dual <= res.optimal_norm * (1 + 1e-12)
            if name == "constant":
                assert (res.dual, res.rel_gap, res.optimal_norm) == (0.0, 0.0, 0.0)
            else:
                assert res.rel_gap == (res.optimal_norm - res.dual) / res.optimal_norm

    @pytest.mark.parametrize("excess, converged", [(0.0, True), (1e-12, True), (1e-11, False)])
    def test_no_norm_above_the_zero_approximant_is_converged(self, excess, converged):
        # a gap of 0 certifies nothing above w_0 = 1, the norm of the zero
        # approximant, beyond the rounding allowance 1e-12
        sp = SpaceParams.power(1.5, 0.0)
        norm_value = 1.0 + excess
        res = OpaResult(Poly([1, -1]), 0, sp, Poly([0]), Poly([1]), norm_value, 0, "convex")
        res = opa._gap_rule(res, norm_value, 1.0)
        assert res.rel_gap == 0.0 and res.converged is converged

    def test_flat_norm_below_its_dual_bound_is_not_converged(self):
        # a norm 1e-6 below the dual bound breaks weak duality; the flat
        # endpoints once read only the upper side of the gap
        sp = SpaceParams.power(1, 0.0)
        res = OpaResult(Poly([1, -1]), 0, sp, Poly([0]), Poly([1]), 1.0 - 1e-6, 0, "flat")
        res = opa._certify(res, np.array([1.0, 0.5]), 1.0, np.ones(2), sp)
        assert res.dual == 1.0
        assert not res.converged

    @pytest.mark.parametrize("solver", rates.SOLVER_CHOICES)
    def test_every_route_converges_by_the_gap_rule(self, solver):
        # no result reads converged without a finite dual bound and a gap
        # within tolerance, on any route; each route certifies some
        problems = [Poly([3.0]), Poly([0, 1]), Poly([2, -2]), Poly([1, 0, -1j]), CPLX,
                    CircleZeroSpec(((0.0, 2), (PI, 1)))]
        routes, certified = set(), 0
        for problem, p, alpha, n in itertools.product(problems, (1, 1.5, 2, 3, INF),
                                                      (-0.5, 0.5), (0, 3, 16)):
            sp = SpaceParams.power(p, alpha)
            try:
                res = rates._dispatch(problem, n, sp, solver)
            except (ValueError, UnsupportedExponentError):     # not this route's problem
                continue
            routes.add(res.solver)
            assert res.converged == (res.dual is not None and math.isfinite(res.dual)
                                     and gap_rule(res, sp)), (problem, p, alpha, n)
            certified += res.converged
        assert certified > 0
        if solver == "auto":
            assert routes == {"flat", "structural", "residual-qr", "closed-form"}


def test_definitional_probe_sees_a_perturbed_answer():
    # 1e-2 added to the constant coefficient raises the norm by 3.3e-4
    f, sp = Poly([1, -1]), SpaceParams.power(2.5, 0.0)
    res = solve_convex(f, 5, sp)
    perturbed = shifted_answer(res, f, sp, 1e-2)
    assert bj_certificate(res, n_probes=50, seed=0) <= 1e-8
    assert bj_certificate(perturbed, n_probes=50, seed=0) > 1e-8


def per_probe_certificate(result, f, sp, n_probes, seed):
    """bj_certificate's definition, one probe and one norm at a time."""
    rng = np.random.default_rng(seed)
    base = result.optimal_norm
    radius = 1e-3 * base / norm(f, sp)
    worst = 0.0
    for _ in range(n_probes):
        j = int(rng.integers(0, result.n + 1))
        lam = radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
        zj_f = Poly(np.eye(1, j + 1, j)[0]) * f          # z^j f
        worst = max(worst, base - norm(result.residual + lam * zj_f, sp))
    return worst


def shifted_answer(res, f, sp, shift):
    """The result with ``shift`` added to the approximant's constant coefficient."""
    approx = res.approximant + Poly([shift])
    residual = Poly([1]) - approx * f
    return OpaResult(f, res.n, sp, approx, residual, norm(residual, sp), 0, res.solver)


@pytest.mark.parametrize("f, p, alpha, n", [
    (Poly([1, -1]), 2.5, 0.0, 5), (THREE, 1.5, -0.5, 12), (CPLX, 3.0, 1.0, 17),
    (Z1SQ_ZP1, 1.2, 0.5, 0), (CPLX, INF, 0.5, 16)])
@pytest.mark.parametrize("shift", [0.0, 1e-2])
def test_batched_certificate_matches_per_probe_loop(f, p, alpha, n, shift):
    sp = SpaceParams.power(p, alpha)
    res = solve_flat(f, n, sp)[0] if sp.is_flat else solve_convex(f, n, sp)
    if shift:
        res = shifted_answer(res, f, sp, shift)
    for seed in range(3):
        got = bj_certificate(res, n_probes=50, seed=seed)
        want = per_probe_certificate(res, f, sp, 50, seed)
        assert abs(got - want) <= 1e-15 * res.optimal_norm
    assert bj_certificate(res, n_probes=0) == 0.0


def test_certificate_takes_one_norm_call(monkeypatch):
    # one norm per probe would make 50 calls here
    f, sp = THREE, SpaceParams.power(3.0, 0.5)
    res = shifted_answer(solve_convex(f, 12, sp), f, sp, 1e-2)
    calls = 0

    def counted(g, space):
        nonlocal calls
        calls += 1
        return norm(g, space)

    monkeypatch.setattr(lpopa.space, "norm", counted)
    monkeypatch.setattr(opa, "norm", counted)
    assert bj_certificate(res, n_probes=50, seed=0) > 1e-8
    assert calls <= 1


def test_certificate_probes_every_order_up_to_n(monkeypatch):
    # the closed form for 1 - z^2 at n = 9 has coefficient 0 at z^9, so its
    # approximant has degree 8; the probes still reach the order j = 9
    res = closed_form_one_minus_zd(2, 9, SpaceParams.power(1.5, 0))
    assert (res.n, res.approximant.degree) == (9, 8)
    orders, default_rng = [], np.random.default_rng

    class Recorded:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high):
            orders.append(int(self.rng.integers(low, high)))
            return orders[-1]

        def uniform(self, low, high):
            return self.rng.uniform(low, high)

    monkeypatch.setattr(np.random, "default_rng", Recorded)
    bj_certificate(res, n_probes=100, seed=0)
    assert len(orders) == 100 and max(orders) == 9


FINALIZE_ROUTES = {
    "closed": (one_minus_zd(3), lambda n, sp: closed_form_one_minus_zd(3, n, sp)),
    "hilbert": (CPLX, lambda n, sp: solve_hilbert(CPLX, n, sp.weight)),
    "convex": (THREE, lambda n, sp: solve_convex(THREE, n, sp)),
    "structural": (Z1SQ_ZP1, lambda n, sp: solve_structural(Z1SQ_ZP1, n, sp)[0]),
}


@pytest.mark.parametrize("route, p, alpha, n", [
    (route, p, alpha, n) for route in FINALIZE_ROUTES
    for p in ((2.0,) if route == "hilbert" else (1.5, 2.0, 3.0))
    for alpha in (-0.5, 1.0) for n in (0, 5, 17)])
def test_finalize_matches_separate_evaluation(route, p, alpha, n):
    # one convolution and one weight table give what Poly arithmetic and
    # space.norm give one at a time
    f, solve = FINALIZE_ROUTES[route]
    sp = SpaceParams.power(p, alpha)
    res = solve(n, sp)
    assert res.optimal_norm == norm(res.residual, sp)
    got, want = res.residual.coeffs, (Poly([1]) - res.approximant * f).coeffs
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


@pytest.mark.parametrize("route, p, n", [
    (route, p, n) for route in FINALIZE_ROUTES
    for p in ((2.0,) if route == "hilbert" else (1.5, 3.0)) for n in (0, 17)])
def test_converged_is_read_off_the_certificate(route, p, n):
    # converged is no field beside the certificate: it cannot be set, and a
    # result whose gap is taken away is not converged
    solve, sp = FINALIZE_ROUTES[route][1], SpaceParams.power(p, 0.5)
    res = solve(n, sp)
    assert res.converged and "converged" not in {fld.name for fld in fields(res)}
    with pytest.raises(TypeError, match="converged"):
        replace(res, converged=False)
    assert not replace(res, rel_gap=None).converged
    assert not replace(res, rel_gap=1e-3).converged
    # the record holds data only, and == compares all of it
    assert not any(isinstance(getattr(res, fld.name), (types.FunctionType, partial))
                   for fld in fields(res))
    assert res == solve(n, sp) and "partial" not in repr(solve(n, sp))


def test_certificate_survives_an_overflowing_f():
    # norm(f) of (z-1)^300 overflows at p = 4 unless f is scaled first, and
    # an infinite norm would make every probe step 0
    res = solve_structural(CircleZeroSpec(((0.0, 300),)), 0, SpaceParams.power(4, 0.0))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bj_certificate(res) >= 0.0


PROBLEM_ROUTES = {
    # route: (problem, the f the result holds, p, solve)
    "hilbert": (CPLX, CPLX, 2.0, lambda n, sp: solve_hilbert(CPLX, n, sp.weight)),
    "residual-qr": (CPLX, CPLX, 2.0, lambda n, sp: rates._dispatch(CPLX, n, sp, "auto")),
    "closed": (one_minus_zd(2), one_minus_zd(2), 1.5,
               lambda n, sp: closed_form_one_minus_zd(2, n, sp)),
    "rescaled closed": (Poly([2, -2]), Poly([2, -2]), 1.5,
                        lambda n, sp: rates._dispatch(Poly([2, -2]), n, sp, "auto")),
    "convex": (THREE, THREE, 3.0, lambda n, sp: solve_convex(THREE, n, sp)),
    "structural": (CircleZeroSpec(((0.0, 2), (PI, 1))), Z1SQ_ZP1, 3.0,
                   lambda n, sp: solve_structural(CircleZeroSpec(((0.0, 2), (PI, 1))),
                                                  n, sp)[0]),
    "flat": (CPLX, CPLX, INF, lambda n, sp: solve_flat(CPLX, n, sp)[0]),
    "constant structural": (Poly([2]), Poly([2]), 1.5,
                            lambda n, sp: solve_structural(Poly([2]), n, sp)[0]),
    "constant flat": (Poly([2]), Poly([2]), 1.0,
                      lambda n, sp: solve_flat(Poly([2]), n, sp)[0]),
}


@pytest.mark.parametrize("route", PROBLEM_ROUTES)
@pytest.mark.parametrize("n", [0, 9])
def test_result_holds_its_problem(route, n):
    problem, f, p, solve = PROBLEM_ROUTES[route]
    sp = SpaceParams.power(p, -0.5)
    res = solve(n, sp)
    assert (res.f, res.n, res.sp) == (f, n, sp)
    assert res.approximant.coeffs.size <= n + 1
    if route == "rescaled closed":
        # the user's f, and the residual 1 - P f of it
        assert res.residual == Poly([1]) - res.approximant * f


@pytest.mark.parametrize("f, p, n", [(THREE, 3.0, 12), (CPLX, 1.2, 9), (Z1SQ_ZP1, 2.5, 20)])
def test_convex_warm_start_is_the_banded_seed(monkeypatch, f, p, n):
    # the first Newton step starts from the p = 2 coefficients of the banded
    # Gram solve, which are the Hilbert approximant's to the bit, and no
    # whole p = 2 result is formed for them
    sp = SpaceParams.power(p, 0.5)
    hilbert = solve_hilbert(f, n, sp.weight).approximant
    factor, hessian = opa._hilbert_factor, opa._convex_hessian
    seeds, starts = [], []

    def refuse(*args, **kwargs):
        raise AssertionError("solve_convex formed a whole p = 2 result for its seed")

    def record_seed(*args):
        gram, seed = factor(*args)
        seeds.append(seed)
        return gram, seed

    def record_start(fc, r, *args):
        starts.append(r)
        return hessian(fc, r, *args)

    monkeypatch.setattr(opa, "solve_hilbert", refuse)
    monkeypatch.setattr(opa, "_hilbert_factor", record_seed)
    monkeypatch.setattr(opa, "_convex_hessian", record_start)
    assert solve_convex(f, n, sp).converged
    assert len(seeds) == 1 and Poly(seeds[0]).coeffs.tobytes() == hilbert.coeffs.tobytes()
    fc, scale = opa._unit_and_norm(f, sp)
    start = -np.convolve(seeds[0] * scale, fc)
    start[0] += 1.0
    assert starts[0].tobytes() == start.tobytes()


def dense_convex_hessian(fc, r, wv, p, n):
    """The Hessian of phi at residual r from dense multiplication matrices, in
    the interleaved (Re c_j, Im c_j) coordinates of solve_convex."""
    d = fc.size - 1
    F = np.zeros((n + d + 1, n + 1), dtype=np.complex128)
    for j in range(n + 1):
        F[j: j + d + 1, j] = fc
    a = np.abs(r)
    hmask = a > (1e-14 if p < 2 else 1e-18) * max(1.0, float(a.max()))
    beta = np.where(hmask, p * wv * a ** (p - 2.0), 0.0)
    gamma = np.where(hmask, p * (p - 2.0) * wv * a ** (p - 4.0), 0.0)
    K = (np.conj(F).T * beta) @ F
    V = np.conj(F) * r[:, None]
    W = -np.hstack([V.real, V.imag])
    H = W.T @ (gamma[:, None] * W) + np.block([[K.real, -K.imag], [K.imag, K.real]])
    order = np.arange(2 * (n + 1)).reshape(2, n + 1).T.ravel()   # interleave
    return H[np.ix_(order, order)]


def from_upper_band(ab):
    """The symmetric matrix of a LAPACK upper band: entry (i, k), i <= k, at
    ab[h + i - k, k]."""
    h, size = ab.shape[0] - 1, ab.shape[1]
    H = np.zeros((size, size))
    for k in range(size):
        for i in range(max(0, k - h), k + 1):
            H[i, k] = H[k, i] = ab[h + i - k, k]
    return H


@pytest.mark.parametrize("f", [Z1SQ_ZP1, CPLX], ids=["real", "complex"])
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
@pytest.mark.parametrize("order", ["0", "1", "d-1", "17"])
def test_convex_hessian_band_matches_dense(f, p, order):
    # n < d clips the band; the entry at noise level is masked out of beta
    # and gamma, as a converged residual's exact zeros are
    fc = f.coeffs
    n = f.degree - 1 if order == "d-1" else int(order)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    r = -np.convolve(c, fc)
    r[0] += 1.0
    r[1] = 1e-20
    wv = SpaceParams.power(p, 0.5).weight.values_up_to(n + f.degree)
    want = dense_convex_hessian(fc, r, wv, p, n)
    ab = opa._convex_hessian(fc, r, wv, p, n)
    assert ab.shape == (2 * min(f.degree, n) + 2, 2 * (n + 1))
    np.testing.assert_allclose(from_upper_band(ab), want, rtol=0,
                               atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("solve", [
    lambda: solve_convex(Z1SQ_ZP1, 24, SpaceParams.power(1.5, 0.5)),
    lambda: solve_convex(CPLX, 24, SpaceParams.power(6.0, 0.5)),
    lambda: solve_hilbert(CPLX, 24, power_weight(0.5)),
], ids=["convex p=1.5", "convex p=6", "hilbert"])
def test_lapack_is_reached_through_cholesky_banded_alone(monkeypatch, solve):
    # one banded factorization for every oracle: pbtrf and its pbtrs, both
    # looked up by cholesky_banded, and no general banded LU
    import scipy.linalg

    asked, lookup = [], scipy.linalg.get_lapack_funcs

    def record(names, *args, **kwargs):
        asked.append((tuple(names), sys._getframe(1).f_code))
        return lookup(names, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", record)
    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", record)
    assert solve().converged
    assert asked and {names for names, _ in asked} == {("pbtrf", "pbtrs")}
    assert all(code is opa.cholesky_banded.__code__ for _, code in asked)


@pytest.mark.parametrize("p", [3.0, 6.0])
def test_convex_matches_structural_at_512(p):
    # the convex-versus-structural sweeps of CI, at one order
    spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
    sp = SpaceParams.power(p, 0.0)
    convex = solve_convex(expand(spec), 512, sp)
    structural, _ = solve_structural(spec, 512, sp)
    assert convex.converged and structural.converged
    assert convex.optimal_norm == pytest.approx(structural.optimal_norm, rel=1e-12)


def test_convex_seed_keeps_ill_conditioned_error():
    # the banded p = 2 factorization of (z-1)^4 fails from n = 843 on
    with pytest.raises(IllConditionedError, match="leading minor"):
        solve_convex(expand(CircleZeroSpec(((0.0, 4),))), 1024, SpaceParams.power(3.0, 0.0))


def divided_composite(spec, n, sp):
    """The composite as (q_sigma g)**d0 long-divided by f, the product's reference."""
    d0 = spec.max_multiplicity
    sigma = (n + spec.degree) // d0 - len(spec.roots)
    g = expand(spec.with_simple_roots())
    q_sigma = solve_hilbert(g, sigma, sp.weight.pointwise_power(1 / (sp.p - 1))).approximant
    powered = Poly([1])
    for _ in range(d0):
        powered = powered * (q_sigma * g)
    return exact_div(powered, expand(spec))


class TestComposite:
    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("p", [1.5, 2, 3])
    @pytest.mark.parametrize("lead", [1.0, -2 + 1j])
    @pytest.mark.parametrize("roots", [((0.0, 2),), ((0.0, 2), (PI, 1)), ((0.0, 3), (PI, 1))],
                             ids=["(z-1)^2", "(z-1)^2(z+1)", "(z-1)^3(z+1)"])
    def test_product_matches_division_reference(self, monkeypatch, roots, lead, p, n):
        spec = CircleZeroSpec(roots, leading_coefficient=lead)
        sp = SpaceParams.power(p, 0)
        want = divided_composite(spec, n, sp)

        def no_division(*args, **kwargs):
            raise AssertionError("composite_construction divided by f")

        monkeypatch.setattr("lpopa.opa.lstsq_div", no_division)   # opa's only division
        got = composite_construction(spec, n, sp)
        assert got.degree <= n
        size = max(got.coeffs.size, want.coeffs.size)
        np.testing.assert_allclose(got.padded(size), want.padded(size), rtol=0,
                                   atol=1e-8 * np.abs(want.coeffs).max())

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_quadruple_zero_at_large_order(self, n, p):
        # dividing (q_sigma g)^4 by (z-1)^4 left a remainder of 8.7e-2 at n = 1024
        spec = CircleZeroSpec(((0.0, 4),))
        sp = SpaceParams.power(p, 0)
        pn = composite_construction(spec, n, sp)
        assert pn.degree <= n
        achieved = norm(Poly([1]) - pn * expand(spec), sp)
        bound = lower_bound(spec, n, sp)
        assert bound <= achieved <= 10 * bound

    def test_simple_zero_collapse(self):
        # with d0 = 1, the construction degenerates to the reduced-order
        # hilbert approximant itself
        spec = CircleZeroSpec(((0.0, 1), (PI, 1)))
        sp = SpaceParams.power(3, 0)
        got = composite_construction(spec, 6, sp)
        g = expand(spec)
        sigma = (6 + 2) // 1 - 2
        want = solve_hilbert(g, sigma, sp.weight.pointwise_power(1 / 2)).approximant
        np.testing.assert_allclose(got.padded(7), want.padded(7), atol=1e-10)

    def test_double_zero_sandwich(self):
        # suboptimal but within a factor of the universal lower bound
        spec = CircleZeroSpec(((0.0, 2),))
        sp = SpaceParams.power(2, 0)
        f = expand(spec)
        p8 = composite_construction(spec, 8, sp)
        achieved = norm(Poly([1]) - p8 * f, sp)
        optimal = solve_convex(f, 8, sp).optimal_norm
        assert achieved >= optimal - 1e-12
        assert achieved <= 10 * lower_bound(spec, 8, sp)

    def test_degree_arithmetic(self):
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        sp = SpaceParams.power(2, 0)
        p10 = composite_construction(spec, 10, sp)
        assert p10.degree <= 10

    def test_order_too_small(self):
        spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
        with pytest.raises(ValueError):
            composite_construction(spec, 0, SpaceParams.power(2, 0))

    def test_decay_tracks_lower_bound_rate(self):
        # achieved norms over a grid stay within a bounded factor of the
        # lower bound, which carries the sharp rate
        spec = CircleZeroSpec(((0.0, 2),))
        sp = SpaceParams.power(2, 0)
        f = expand(spec)
        ratios = []
        for n in (8, 16, 32, 64):
            pn = composite_construction(spec, n, sp)
            ratios.append(norm(Poly([1]) - pn * f, sp) / lower_bound(spec, n, sp))
        assert max(ratios) <= 10.0


CAPPED_ROUTES = {
    "hilbert": lambda n: solve_hilbert(Z1SQ_ZP1, n, power_weight(0.0)),
    "residual-qr": lambda n: opa.prepare_residual_qr(CircleZeroSpec(((0.0, 2), (PI, 1))), n,
                                                     power_weight(0.0)),
    "convex": lambda n: solve_convex(Z1SQ_ZP1, n, SpaceParams.power(1.2, 0.0)),
    "structural": lambda n: solve_structural(CircleZeroSpec(((0.0, 2), (PI, 1))), n,
                                             SpaceParams.power(1.5, 0.0)),
    "closed": lambda n: closed_form_one_minus_zd(3, n, SpaceParams.power(3, 0.0)),
    "flat-1": lambda n: solve_flat(Z1SQ_ZP1, n, SpaceParams.power(1, 0.0)),
    "flat-inf": lambda n: solve_flat(CircleZeroSpec(((0.0, 2), (PI, 1))), n,
                                     SpaceParams.power(INF, 0.0)),
}


@pytest.mark.parametrize("route", CAPPED_ROUTES)
def test_degree_cap_raises_before_any_work(monkeypatch, route):
    def work(*args, **kwargs):
        raise AssertionError("a capped order reached the solver's work")

    for name in ("values_up_to", "at_indices"):
        monkeypatch.setattr(Weight, name, work)
    monkeypatch.setattr(opa, "_residual_rows", work)
    with pytest.raises(DegreeCapError, match=f"n = {MAX_DEGREE - 2} plus deg f = 3 .* "
                                             f"cap {MAX_DEGREE}"):
        CAPPED_ROUTES[route](MAX_DEGREE - 2)


def refuse_expand(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("a capped spec reached expand")

    monkeypatch.setattr(opa, "expand", work)
    monkeypatch.setattr(rates, "expand", work)


# expand convolves once per unit of multiplicity, O(d^2), so a spec is checked
# against the cap first, both when it is routed and by the residual form
@pytest.mark.parametrize("solver, p", [("auto", 1.5), ("auto", 1.0), ("auto", 2.0),
                                       ("convex", 1.5), ("hilbert", 2.0)])
def test_degree_cap_raises_before_routing_expands_a_spec(monkeypatch, solver, p):
    refuse_expand(monkeypatch)
    with pytest.raises(DegreeCapError, match="n = 50000 plus deg f = 20000 .* cap"):
        rates._dispatch(CircleZeroSpec(((0.0, 20000),)), 50000, SpaceParams.power(p, 0.0), solver)


@pytest.mark.parametrize("route", ["structural", "flat-inf", "residual-qr"])
def test_degree_cap_raises_before_the_residual_form_expands_a_spec(monkeypatch, route):
    refuse_expand(monkeypatch)
    with pytest.raises(DegreeCapError, match=f"n = {MAX_DEGREE - 2} plus deg f = 3"):
        CAPPED_ROUTES[route](MAX_DEGREE - 2)


def test_degree_cap_admits_the_cap_itself():
    res = solve_hilbert(Poly([1, -1]), MAX_DEGREE - 1, power_weight(0.0))
    assert res.residual.degree == MAX_DEGREE


def test_solvers_agree_pairwise_smoke():
    # one tidy all-way agreement case: f = (z-1)(z+1), p = 2, alpha = 0, n = 6
    spec = CircleZeroSpec(((0.0, 1), (PI, 1)))
    f = expand(spec)
    sp = SpaceParams.power(2, 0)
    a = solve_hilbert(f, 6, sp.weight)
    b = solve_convex(f, 6, sp)
    c, _ = solve_structural(spec, 6, sp)
    closed = closed_form_one_minus_zd(2, 6, sp)   # f = -(1 - z^2): same norms
    for res in (b, c):
        np.testing.assert_allclose(res.approximant.padded(7),
                                   a.approximant.padded(7), atol=1e-8)
    assert closed.optimal_norm == pytest.approx(a.optimal_norm, rel=1e-10)


def singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("method, solve, p", [
    ("_dual_newton", solve_structural, 1.5),
    ("_flat_l1", solve_flat, 1.0),
    ("_flat_linf", solve_flat, INF),
])
def test_regime_method_failure_is_ill_conditioned(monkeypatch, method, solve, p):
    # every residual-form route runs its regime method in one pipeline, which
    # types a failure of its linear algebra
    monkeypatch.setattr(opa, method, singular)
    with pytest.raises(IllConditionedError, match="Singular matrix") as info:
        solve(CircleZeroSpec(((0.0, 2), (PI, 1))), 16, SpaceParams.power(p, 0.0))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
def test_underflowing_right_side_refused_before_any_solve(monkeypatch, p):
    # the row of the zero 2 of 1 - z/2 is scaled by 2^-(m-1), so b . b leaves
    # the normal range near m = 512; no regime method runs on it
    for method in ("_dual_newton", "_flat_l1", "_flat_linf"):
        monkeypatch.setattr(opa, method, singular)
    solve = solve_flat if p in (1.0, INF) else solve_structural
    with pytest.raises(IllConditionedError, match="right side underflows"):
        solve(Poly([1, -0.5]), 512, SpaceParams.power(p, 0.0))


def test_sup_norm_recursion_needs_a_smaller_free_set():
    # at n = 511 every dual entry of 1 - z/2 falls below the free threshold,
    # and recursing on the same set never ended (RecursionError)
    f, w, (A, b, _) = opa._setup(Poly([1, -0.5]), 511, SpaceParams.power(INF, 0.0))
    with np.errstate(all="ignore"):
        r, lam, steps = opa._flat_linf(A, b, w)
    assert r.shape == (513, 1) and lam.shape == (1,) and not r.any()


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [0, 0, 0, 1], [0, 1, 1], [0, 1, -1]])
@pytest.mark.parametrize("n", [0, 4, 64])
def test_sup_norm_with_f_vanishing_at_zero_is_one(coeffs, n):
    # r_0 = 1 for every P and w_0 = 1; the right side left off the dual's
    # support is 0, whose plane b . lam = 1 is empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, _ = solve_flat(Poly(coeffs), n, SpaceParams.power(INF, 0.0))
    assert res.converged
    assert abs(res.optimal_norm - 1.0) <= 1e-12
