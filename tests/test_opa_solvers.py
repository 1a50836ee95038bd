"""Tests for the hilbert, convex, closed-form, flat and composite solvers."""

import math

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, DegreeCapError, IllConditionedError, OpaResult, Poly,
                   SpaceParams, UnsupportedExponentError, Weight,
                   closed_form_one_minus_zd, composite_construction, exact_div, expand,
                   lower_bound, norm, opa, power_weight, solve_convex, solve_flat,
                   solve_hilbert, solve_structural, table_weight)
from lpopa.opa import SolverOpts, bj_certificate
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


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0}, {"max_iters": -5}, {"max_iters": 2.5},
    {"grad_tol": 0.0}, {"grad_tol": -1.0}, {"grad_tol": math.nan},
])
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

    def test_ill_conditioned_weight_raises(self):
        w = table_weight([1.0, 1e15], tail="constant")
        with pytest.raises(IllConditionedError):
            solve_hilbert(Poly([1]), 1, w)

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

    def test_cold_start_matches_warm_start(self):
        # the warm start comes from the p = 2 solver; a cold start from zero
        # must land on the same minimizer
        f = expand(CircleZeroSpec(((0.0, 1), (PI / 2, 1))))
        sp = SpaceParams.power(2, 1)
        warm = solve_convex(f, 4, sp)
        cold = solve_convex(f, 4, sp, init=Poly(np.zeros(5)))
        np.testing.assert_allclose(warm.approximant.padded(5),
                                   cold.approximant.padded(5), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        # derivative oracle for the objective used by the solver
        from lpopa.space import norm as sp_norm
        rng = np.random.default_rng(2)
        f = Poly([1.0, -0.5 + 0.25j, 0.5j])
        n = 2
        for p in (1.5, 2.0, 3.0):
            sp = SpaceParams.power(p, 0.5)

            def phi(x):
                c = x[: n + 1] + 1j * x[n + 1:]
                return sp_norm(Poly([1]) - Poly(c) * f, sp) ** p

            x0 = rng.standard_normal(2 * (n + 1)) * 0.3
            h = 1e-6
            for k in range(2 * (n + 1)):
                e = np.zeros_like(x0)
                e[k] = h
                fd = (phi(x0 + e) - phi(x0 - e)) / (2 * h)
                # reproduce the solver's analytic gradient component
                from lpopa.poly import signed_powers
                c = x0[: n + 1] + 1j * x0[n + 1:]
                r = -np.convolve(c, f.coeffs)
                r[0] += 1.0
                wv = sp.weight.values_up_to(len(r) - 1)
                pair = np.correlate(signed_powers(r, p - 1) * wv,
                                    np.conj(f.coeffs), mode="valid")
                g = np.concatenate([-p * pair.real, p * pair.imag])
                assert g[k] == pytest.approx(fd, rel=2e-5, abs=2e-7)

    def test_orthogonality_certificates(self):
        for p, alpha in ((1.5, -1.0), (2.5, 0.0), (4.0, 0.5)):
            sp = SpaceParams.power(p, alpha)
            f = expand(CircleZeroSpec(((0.0, 2),)))
            res = solve_convex(f, 6, sp)
            assert res.converged
            assert res.ortho_residual_max <= 1e-7
            assert bj_certificate(res, f, sp, n_probes=100, seed=1) <= 1e-8

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
        opts = SolverOpts(max_iters=1, grad_tol=1e-14)
        res = solve_convex(Poly([1, -1]), 24, SpaceParams.power(3, 0), opts,
                           init=Poly(np.zeros(25)))
        assert not res.converged

    @pytest.mark.parametrize("roots, p", [(((0.0, 4),), 1.2), (((0.0, 2), (PI, 1)), 1.1)],
                             ids=["(z-1)^4,p=1.2", "(z-1)^2(z+1),p=1.1"])
    def test_stall_returns_early(self, roots, p):
        # both used to run all 10,000 Newton steps (11 s and 50 s) without
        # reaching the gradient tolerance; the stall rule ends them
        spec = CircleZeroSpec(roots)
        sp = SpaceParams.power(p, 0.0)
        res = solve_convex(expand(spec), 64, sp)
        assert res.iterations <= 100          # 52 and 49 steps on this code
        ref, _ = solve_structural(spec, 64, sp)
        assert ref.converged
        assert res.optimal_norm == pytest.approx(ref.optimal_norm, rel=1e-6)


# (circle zeros, p, n, alpha): repeated zeros up to n = 256, and a p < 1.5
# case that stalls short of the optimum without the p = 1.5 continuation
CONVEX_VS_STRUCTURAL = [
    (((0.0, 2), (PI, 1)), 1.2, 32, 0.0),
    (((0.0, 4),), 1.5, 32, 0.0),
    (((0.0, 4),), 3.0, 32, 0.5),
    (((0.0, 2), (PI, 1)), 1.5, 128, 0.0),
    (((0.0, 2), (PI, 1)), 3.0, 256, 0.0),
    (((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1)), 1.2, 16, 0.5),
]


@pytest.mark.parametrize("roots, p, n, alpha", CONVEX_VS_STRUCTURAL)
def test_convex_converges_to_structural_norm(roots, p, n, alpha):
    spec = CircleZeroSpec(roots)
    sp = SpaceParams.power(p, alpha)
    res = solve_convex(expand(spec), n, sp)
    ref, _ = solve_structural(spec, n, sp)
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
            assert res.ortho_residual_max <= 1e-12

    def test_table_weight_agrees_with_convex(self):
        base = power_weight(0.5)
        w = table_weight(base.values_up_to(63), tail="power")
        sp = SpaceParams(2.5, w)
        res = closed_form_one_minus_zd(2, 7, sp)
        other = solve_convex(one_minus_zd(2), 7, sp)
        np.testing.assert_allclose(res.approximant.padded(8),
                                   other.approximant.padded(8), atol=1e-8)

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
        res, diag = solve_flat(f, 0, sp)
        assert res.optimal_norm == pytest.approx(1.0, abs=1e-12)
        assert res.converged
        # the whole segment c_0 in [0, 1] is optimal
        for c0 in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert norm(Poly([1]) - Poly([c0]) * f, sp) == pytest.approx(1.0)
        assert diag.face_dim >= 1

    def test_unit_function_sup_norm(self):
        res, _ = solve_flat(Poly([1]), 4, SpaceParams.power(INF, 0.3))
        assert res.optimal_norm <= 1e-9

    def test_sup_norm_flat_direction(self):
        sp = SpaceParams.power(INF, 0)
        g = Poly([1, 0, -1])
        res, diag = solve_flat(g, 1, sp)
        a = res.approximant.coeff(0)
        vals = [norm(Poly([1]) - Poly([a, b]) * g, sp)
                for b in np.linspace(-0.5, 0.5, 11)]
        assert max(vals) - min(vals) <= 1e-12
        assert diag.face_dim == 1                 # the free b direction
        for shift in (-1e-3, 1e-3):               # a strict minimum in a
            assert norm(Poly([1]) - Poly([a + shift]) * g, sp) > res.optimal_norm + 1e-4

    def test_ortho_certificate_not_defined(self):
        res, _ = solve_flat(Poly([1, -1]), 2, SpaceParams.power(1, 0))
        assert res.ortho_residual_max is None

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
        res, diag = solve_flat(CPLX, 16, SpaceParams.power(INF, 0.5))
        assert res.converged and diag.rel_gap <= 1e-9
        assert res.iterations <= 120

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
        res, diag = solve_flat(f, n, SpaceParams.power(p, alpha))
        assert res.converged
        assert diag.rel_gap <= 1e-9
        assert diag.objective == res.optimal_norm
        # weak duality, up to the rounding of two equal values
        assert diag.dual <= res.optimal_norm * (1 + 1e-12)

    def test_spec_and_coefficients_agree(self):
        # exact circle zeros, and np.roots clustered into a fourfold zero
        spec = CircleZeroSpec(((0.0, 4),))
        for p in (1, INF):
            sp = SpaceParams.power(p, -0.5)
            exact, _ = solve_flat(spec, 64, sp)
            clustered, _ = solve_flat(expand(spec), 64, sp)
            assert exact.converged and clustered.converged
            assert clustered.optimal_norm == pytest.approx(exact.optimal_norm, rel=1e-9)


def test_definitional_probe_sees_a_perturbed_answer():
    # 1e-2 added to the constant coefficient raises the norm by 3.3e-4
    f, sp = Poly([1, -1]), SpaceParams.power(2.5, 0.0)
    res = solve_convex(f, 5, sp)
    approx = res.approximant + Poly([1e-2])
    residual = Poly([1]) - approx * f
    perturbed = OpaResult(approx, residual, norm(residual, sp), None, 0, False, "convex")
    assert bj_certificate(res, f, sp, n_probes=50, seed=0) <= 1e-8
    assert bj_certificate(perturbed, f, sp, n_probes=50, seed=0) > 1e-8


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
