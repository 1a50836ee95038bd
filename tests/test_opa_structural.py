"""Tests for the structural solver: the residual's exponential-polynomial form."""

import math
import warnings

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, ExpPolyFit, Poly, SpaceParams, UnsupportedExponentError,
                   eval_derivative, expand, lower_bound, solve_convex, solve_flat,
                   solve_hilbert, solve_structural)
from lpopa.opa import _dual_slopes, _dual_value, _residual_rows, _setup
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
            total = sum(fit.constants.values())
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
        oracle_fit = ExpPolyFit(spec, oracle, oracle.residual)
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
        A, b, _ = _residual_rows(f, f, m, real)
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

    def test_hessian_matches_einsum_at_high_multiplicity(self):
        # the Hessian, one BLAS product over the rows, against the
        # three-operand einsum of its formula at R = 300 unknowns
        sp = SpaceParams.power(1.5, 0.0)
        _, w, (A, b, _) = _setup(CircleZeroSpec(((0.0, 300),)), 0, sp)
        q = sp.q
        lam = np.random.default_rng(3).standard_normal(b.size)
        _, y, size = _dual_value(A, b, w, q, lam)
        hess = _dual_slopes(A, b, w, q, y, size)[1]
        a = w ** (1.0 - q) * size ** (q - 2.0)
        along = np.einsum("tcr,tc->tr", A, y / size[:, None])
        want = np.einsum("tcr,t,tcs->rs", A, a, A) + (q - 2.0) * (along.T * a) @ along
        assert hess.shape == (300, 300)
        assert np.abs(hess - want).max() <= 1e-13 * np.abs(want).max()


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
    fit = ExpPolyFit(spec, res, res.residual)
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


# structure constants, fit and system residuals of solve_structural's fit,
# recorded (float.hex) from the projection onto the residual-form rows
RECORDED_FITS = [
    (((0.0, 1), (PI, 1)), 1.5, 0.0, 7,
     {(0, 1): ("0x1.c9f25c9f9590ap-3", "0x0.0p+0"),
      (1, 1): ("0x1.c9f25c18682aap-3", "0x1.f924f9985e5fbp-54")},
     "0x1.0e694bb69deb1p-28", "0x1.0000000000000p-54"),
    (((0.0, 2),), 3.0, 0.5, 8,
     {(0, 1): ("0x1.c0e2dc92eb809p-4", "0x0.0p+0"),
      (0, 2): ("-0x1.01fc22eb69b71p-6", "0x0.0p+0")},
     "0x1.6e80000000000p-48", "0x1.8700000000000p-47"),
    (((0.0, 2), (PI, 1)), 1.5, -0.5, 15,
     {(0, 1): ("0x1.0ab75ae886fe0p-2", "0x0.0p+0"),
      (0, 2): ("-0x1.46ceabeab2702p-6", "0x0.0p+0"),
      (1, 1): ("0x1.33689dd4d6d5ep-5", "-0x1.91cc30a71a74dp-52")},
     "0x1.40f8000000000p-48", "0x1.8000000000000p-54"),
]

# the same cases as the least-squares fit of the basis t**(j-1) z**t gave
# them: its constants, and its system residual, which the rows do not exceed
LSTSQ_FITS = [
    ({(0, 1): ("0x1.c9f25c9f9590cp-3", "0x0.0p+0"),
      (1, 1): ("0x1.c9f25c18682a9p-3", "0x1.8000000000000p-54")},
     "0x1.178ca89643f43p-51"),
    ({(0, 1): ("0x1.c0e2dc92eb80dp-4", "0x1.706973eab5517p-60"),
      (0, 2): ("-0x1.01fc22eb69b73p-6", "-0x1.12dd110061dacp-61")},
     "0x1.050057104745cp-42"),
    ({(0, 1): ("0x1.0ab75ae886fe4p-2", "-0x1.3bb6a4497893ep-58"),
      (0, 2): ("-0x1.46ceabeab2706p-6", "0x1.230d8104d1eb4p-62"),
      (1, 1): ("0x1.33689dd4d6d6bp-5", "0x1.87310dcf95585p-55")},
     "0x1.c828d4920dce5p-47"),
]


def from_hex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


@pytest.mark.parametrize("roots, p, alpha, n, constants, fit_res, system_res, lstsq",
                         [case + (old,) for case, old in zip(RECORDED_FITS, LSTSQ_FITS)],
                         ids=["two-simple", "double", "double-simple"])
def test_fit_fields_formed_when_read(monkeypatch, roots, p, alpha, n, constants, fit_res,
                                    system_res, lstsq):
    def refuse(*args, **kwargs):
        raise AssertionError("the solve formed the structure fit")

    with monkeypatch.context() as patched:
        patched.setattr(ExpPolyFit, "form", refuse)
        _, fit = solve_structural(CircleZeroSpec(roots), n, SpaceParams.power(p, alpha))
    for _ in range(2):      # each read forms the fit again, with the same bits
        assert {key: (c.real.hex(), c.imag.hex())
                for key, c in fit.constants.items()} == constants
        assert fit.fit_residual.hex() == fit_res
        assert fit.system_residual.hex() == system_res
        assert fit.form() == (fit.constants, fit.fit_residual, fit.system_residual)
    old_constants, old_system = lstsq
    for key, pair in old_constants.items():
        old = from_hex(pair)
        assert abs(fit.constants[key] - old) <= 1e-13 * abs(old)
    assert fit.system_residual <= float.fromhex(old_system)


@pytest.mark.parametrize("mult, n, bound", [(8, 64, 1e-12), (4, 256, 1e-12), (20, 0, 1e-9)])
def test_fit_is_conditioned_at_high_multiplicity(mult, n, bound):
    # a least-squares fit in the unscaled basis t**(j-1) z**t misses the system
    # by 2.2e9 at (z-1)^8, n = 64, 1.9e-3 at (z-1)^4, n = 256, and 1.3e11 at
    # multiplicity 20, n = 0; the orthonormal rows keep it at rounding
    fit = solve_structural(CircleZeroSpec(((0.0, mult),)), n, SpaceParams.power(1.5, 0.0))[1]
    assert fit.system_residual <= bound
    assert len(fit.constants) == mult


def test_fit_takes_no_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fit called np.linalg.lstsq")

    spec, sp = CircleZeroSpec(((0.0, 2), (PI / 3, 1))), SpaceParams.power(2.5, 0.3)
    res, fit = solve_structural(spec, 12, sp)
    hilbert = solve_hilbert(expand(spec), 12, SpaceParams.power(2, 0.3).weight)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for record in (fit, ExpPolyFit(spec, res, res.residual),
                   ExpPolyFit(spec, hilbert, hilbert.residual)):
        constants, fit_residual, system_residual = record.form()
        assert len(constants) == 3 and record.constants == constants
        assert record.fit_residual == fit_residual <= 1e-6
        assert record.system_residual == system_residual <= 1e-9
        assert sum(record.constants.values()) == sum(constants.values())


def test_high_multiplicity_fit_reads_finite_constants():
    # t**(j-1) overflows for multiplicity 300 at t = 300; the rows are scaled
    # by (t/(m-1))**(j-1), and unscaling a constant underflows to 0 instead
    spec, sp = CircleZeroSpec(((0.0, 300),)), SpaceParams.power(1.5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, fit = solve_structural(spec, 0, sp)
        assert not res.converged
        constants, fit_residual, system_residual = fit.form()
        total = sum(fit.constants.values())
    assert len(constants) == 300
    assert np.isfinite(np.array(list(constants.values()))).all() and np.isfinite(total)
    assert math.isfinite(fit_residual) and math.isfinite(system_residual)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_fit_refuses_flat_results(p):
    # at p in {1, inf} the data w r^<p-1> degenerates: p = inf read all-zero
    # constants with fit_residual 0, and p = 1 warned in _dual_slopes
    spec = CircleZeroSpec(((0.0, 2), (PI, 1)))
    res, _ = solve_flat(spec, 8, SpaceParams.power(p, 0.0))
    fit = ExpPolyFit(spec, res, res.residual)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (fit.form, lambda: fit.constants, lambda: fit.fit_residual):
            with pytest.raises(UnsupportedExponentError, match="1 < p < inf"):
                read()


@pytest.mark.parametrize("p", [1.5, 3.0, math.inf])
def test_unclustered_near_zeros_match_their_spec(p):
    # zeros 0.005 apart fall in one np.roots cluster, whose double zero does
    # not reproduce f; the rows of the two simple zeros must be used instead
    f = Poly(np.convolve([1, -1], [1, -np.exp(-0.005j)]))
    spec = CircleZeroSpec(((0.0, 1), (0.005, 1)))
    sp = SpaceParams.power(p, 0.0)
    solve = solve_flat if p == math.inf else solve_structural
    from_roots, from_spec = solve(f, 64, sp)[0], solve(spec, 64, sp)[0]
    assert from_roots.converged and from_spec.converged
    assert from_roots.optimal_norm == pytest.approx(from_spec.optimal_norm, rel=1e-12)
