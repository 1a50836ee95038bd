"""Tests for weighted norms, the orthogonality pairing and the product estimate."""

import math

import numpy as np
import pytest

import lpopa.space
from lpopa import (Poly, SpaceParams, UnsupportedExponentError, bj_residual,
                   dilate, evaluation_bound, multiplication_bound_check, norm,
                   power_weight, table_weight, to_unweighted, wiener_norm)
from lpopa.space import multiplication_constant, split_bound_terms

INF = math.inf


def rand_poly(rng, max_deg=8, scale=1.0):
    deg = int(rng.integers(0, max_deg + 1))
    c = scale * (rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
    return Poly(c)


class TestNorm:
    def test_hardy_like(self):
        assert norm(Poly([1, -1]), SpaceParams.power(2, 0)) == pytest.approx(math.sqrt(2))

    def test_weighted_l1(self):
        assert norm(Poly([1, -1]), SpaceParams.power(1, 1)) == pytest.approx(3.0)

    def test_sup_norm(self):
        assert norm(Poly([1, 1, 1]), SpaceParams.power(INF, 1)) == pytest.approx(3.0)

    def test_zero(self):
        for p in (1, 1.5, 2, INF):
            assert norm(Poly(), SpaceParams.power(p, 0.7)) == 0.0

    def test_conjugate_exponent_conventions(self):
        assert SpaceParams.power(1, 0).q == INF
        assert SpaceParams.power(INF, 0).q == 1.0
        assert SpaceParams.power(3, 0).q == pytest.approx(1.5)
        with pytest.raises(ValueError):
            SpaceParams.power(0.5, 0)

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(21)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            sp = SpaceParams.power(p, 0.5)
            for _ in range(60):
                f, g = rand_poly(rng), rand_poly(rng)
                lam = complex(*rng.standard_normal(2))
                scale = max(norm(f, sp), norm(g, sp), 1.0)
                assert norm(lam * f, sp) == pytest.approx(abs(lam) * norm(f, sp),
                                                          rel=1e-10, abs=1e-12)
                assert norm(f + g, sp) <= norm(f, sp) + norm(g, sp) + 1e-10 * scale


class TestWienerNorm:
    def test_square(self):
        assert wiener_norm(Poly([1, -1]) * Poly([1, -1])) == pytest.approx(4.0)

    def test_zero(self):
        assert wiener_norm(Poly()) == 0.0

    def test_binomial_gap(self):
        for d in (1, 3, 7):
            c = np.zeros(d + 1)
            c[0], c[d] = 1, -1
            assert wiener_norm(Poly(c)) == pytest.approx(2.0)


class TestOrthogonalityPairing:
    def test_zero_second_argument(self):
        sp = SpaceParams.power(2.5, 0.3)
        assert bj_residual(Poly([1, 2, 3]), Poly(), sp) == 0j

    def test_disjoint_supports(self):
        for p in (1.5, 2, 4):
            for alpha in (-1, 0, 2):
                sp = SpaceParams.power(p, alpha)
                assert bj_residual(Poly([0, 1]), Poly([1]), sp) == 0j

    def test_basic_value_with_inner_product_oracle(self):
        # independent oracle at p = 2: the pairing reduces to <g, f>
        sp = SpaceParams.power(2, 0)
        f, g = Poly([1, -1]), Poly([1])
        val = bj_residual(f, g, sp)
        oracle = complex(np.vdot(f.padded(2), g.padded(2)))
        assert val == pytest.approx(1.0)
        assert val == pytest.approx(oracle)

    def test_flat_exponents_rejected(self):
        for p in (1.0, INF):
            with pytest.raises(UnsupportedExponentError):
                bj_residual(Poly([1]), Poly([1]), SpaceParams.power(p, 0))

    def test_linear_in_second_argument(self):
        rng = np.random.default_rng(33)
        sp = SpaceParams.power(2.5, -0.5)
        for _ in range(50):
            f, g1, g2 = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            lam = complex(*rng.standard_normal(2))
            lhs = bj_residual(f, g1 + lam * g2, sp)
            rhs = bj_residual(f, g1, sp) + lam * bj_residual(f, g2, sp)
            scale = max(abs(lhs), abs(rhs), 1e-6)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_zero_pairing_implies_norm_inequality(self):
        # f = 1 - z^2 has no z coefficient, so it is orthogonal to g = z:
        # adding any multiple of g cannot decrease the norm
        rng = np.random.default_rng(34)
        for p in (1.5, 2.0, 3.0):
            sp = SpaceParams.power(p, 0.5)
            f, g = Poly([1, 0, -1]), Poly([0, 1])
            assert abs(bj_residual(f, g, sp)) <= 1e-10
            base = norm(f, sp)
            for _ in range(100):
                lam = complex(*rng.standard_normal(2))
                lam /= max(abs(lam), 1.0)
                assert norm(f + lam * g, sp) >= base - 1e-8


class TestEvaluationBound:
    def test_at_origin(self):
        assert evaluation_bound(SpaceParams.power(2, 0), 0.0) == 1.0

    def test_geometric_series(self):
        for p in (1, 1.5, 2, INF):
            assert evaluation_bound(SpaceParams.power(p, 0), 0.5) == pytest.approx(2.0)

    def test_dirichlet_like_value(self):
        # sum_n (n+1)^{-1} 2^{-n} = 2 log 2; cross-checked with a plain
        # partial sum, which is exact to double precision by n = 200
        oracle = sum((n + 1.0) ** -1 * 0.5 ** n for n in range(200))
        val = evaluation_bound(SpaceParams.power(2, 2), 0.5)
        assert val == pytest.approx(2 * math.log(2), rel=1e-13)
        assert val == pytest.approx(oracle, rel=1e-13)

    def test_sup_norm_space_uses_full_inverse_weight(self):
        # at p = inf the summand is w_n^{-1} r^n; with alpha = 1 this is the
        # same 2 log 2 series as the p = 2, alpha = 2 case
        val = evaluation_bound(SpaceParams.power(INF, 1), 0.5)
        assert val == pytest.approx(2 * math.log(2), rel=1e-13)

    def test_growing_inverse_weight(self):
        # alpha < 0 makes w^{-1/p} grow polynomially; the tail logic must
        # still terminate and agree with a long partial sum
        sp = SpaceParams.power(2, -3)
        oracle = sum((n + 1.0) ** 1.5 * 0.9 ** n for n in range(4000))
        assert evaluation_bound(sp, 0.9) == pytest.approx(oracle, rel=1e-12)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            evaluation_bound(SpaceParams.power(2, 0), 1.0)

    def test_bounds_point_evaluation(self):
        rng = np.random.default_rng(8)
        for p in (1.5, 2, INF):
            sp = SpaceParams.power(p, 1.0)
            for _ in range(25):
                f = rand_poly(rng, max_deg=12)
                z0 = 0.7 * np.exp(1j * rng.uniform(0, 2 * math.pi))
                assert abs(f(z0)) <= norm(f, sp) * evaluation_bound(sp, abs(z0)) + 1e-12


class TestMultiplicationBound:
    def test_identity_factor(self):
        rng = np.random.default_rng(55)
        sp = SpaceParams.power(2, 1)
        for _ in range(20):
            g = rand_poly(rng)
            chk = multiplication_bound_check(Poly([1]), g, sp)
            assert chk.holds

    def test_hand_computed_case(self):
        # f = g = 1 - z at p = 2, flat weight: lhs = |(1,-2,1)|_2 = sqrt 6,
        # constant is 1 (doubling constant 2^0), rhs = 2*sqrt2 + sqrt2*2
        sp = SpaceParams.power(2, 0)
        f = Poly([1, -1])
        chk = multiplication_bound_check(f, f, sp)
        assert chk.lhs == pytest.approx(math.sqrt(6))
        assert chk.constant == 1.0
        assert chk.rhs == pytest.approx(4 * math.sqrt(2))
        assert chk.holds

    def test_zero_factor(self):
        chk = multiplication_bound_check(Poly(), Poly([3, 1]), SpaceParams.power(3, -1))
        assert chk.lhs == 0.0 and chk.holds

    def test_random_pairs_all_hold(self):
        rng = np.random.default_rng(77)
        for p in (1.0, 1.5, 2.0, INF):
            for alpha in (-1.0, 0.0, 1.0):
                sp = SpaceParams.power(p, alpha)
                for _ in range(200):
                    f = rand_poly(rng, scale=rng.uniform(0.1, 10))
                    g = rand_poly(rng, scale=rng.uniform(0.1, 10))
                    assert multiplication_bound_check(f, g, sp).holds

    def test_split_terms_dominate(self):
        rng = np.random.default_rng(78)
        for p in (1.0, 2.0, INF):
            sp = SpaceParams.power(p, 0.5)
            for _ in range(30):
                f, g = rand_poly(rng, 5), rand_poly(rng, 5)
                a1, a2 = split_bound_terms(f, g, sp)
                total = norm(f * g, sp)
                if p != INF:
                    total = total ** p
                assert total <= a1 + a2 + 1e-10 * max(1.0, a1 + a2)


def scalar_bound_sides(F, G, sp):
    """Reference for the batch: both sides pair by pair through norm and wiener_norm."""
    c = multiplication_constant(sp)
    lhs, rhs = [], []
    for fr, gr in zip(F, G):
        f, g = Poly(fr), Poly(gr)
        lhs.append(norm(f * g, sp))
        rhs.append(c * (wiener_norm(f) * norm(g, sp) + norm(f, sp) * wiener_norm(g)))
    return np.array(lhs), np.array(rhs)


def batch_rows(rng):
    """Coefficient rows of width 9 covering the edge cases of the batch."""
    def coeffs(deg):
        return rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)

    degrees = [(8, 2), (1, 8), (0, 0), (0, 5), (None, 3), (6, None), (None, None),
               (4, 7), (8, 8), (3, 0)]
    F = np.zeros((len(degrees), 9), dtype=complex)
    G = np.zeros_like(F)
    for row, (df, dg) in enumerate(degrees):
        if df is not None:
            F[row, :df + 1] = coeffs(df)
        if dg is not None:
            G[row, :dg + 1] = coeffs(dg)
    return F, G


BATCH_SPACES = (
    [SpaceParams.power(p, alpha) for p in (1.0, 1.5, 2.0, 3.0, INF)
     for alpha in (-1.0, 0.0, 1.0)]
    + [SpaceParams(p, table_weight([1, 1.5, 2.2, 2.9, 3.1, 4.0], tail="power"))
       for p in (1.0, 1.5, 2.0, 3.0, INF)]
    + [SpaceParams(p, dilate(power_weight(0.5), 3)) for p in (1.0, 1.5, 2.0, 3.0, INF)])


class TestMultiplicationBoundBatch:
    @pytest.mark.parametrize("sp", BATCH_SPACES, ids=repr)
    def test_matches_scalar_reference(self, sp):
        F, G = batch_rows(np.random.default_rng(61))
        lhs, rhs = lpopa.space.multiplication_bound_batch(F, G, sp)
        ref_lhs, ref_rhs = scalar_bound_sides(F, G, sp)
        np.testing.assert_allclose(lhs, ref_lhs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rhs, ref_rhs, rtol=1e-12, atol=0)
        zero = ~F.any(axis=1) | ~G.any(axis=1)
        assert zero.sum() == 3
        assert (lhs[zero] == 0).all() and (rhs[zero] == 0).all()
        assert (lhs <= rhs).all()

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 4)), ((3,), (3,)), ((2, 0), (2, 0))])
    def test_bad_shapes_rejected(self, shapes):
        F, G = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError):
            lpopa.space.multiplication_bound_batch(F, G, SpaceParams.power(2, 0))


def test_isometry_to_unweighted():
    rng = np.random.default_rng(91)
    flat = power_weight(0.0)
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        for alpha in (-1.0, 0.5, 2.0):
            sp = SpaceParams.power(p, alpha)
            for _ in range(20):
                f = rand_poly(rng)
                image = to_unweighted(f, sp)
                assert norm(image, SpaceParams(p, flat)) == pytest.approx(
                    norm(f, sp), rel=1e-12, abs=1e-300)
