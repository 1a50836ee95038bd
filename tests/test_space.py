"""Tests for weighted norms and the product estimate."""

import math

import numpy as np
import pytest

import lpopa.space
from lpopa import (Poly, SpaceParams, multiplication_bound_check, norm, power_weight,
                   table_weight)
from lpopa.space import multiplication_constant

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

    def test_orthogonal_direction_never_lowers_the_norm(self):
        # f = 1 - z^2 has no z coefficient, so it is Birkhoff-James orthogonal
        # to g = z: adding any multiple of g cannot decrease the norm
        rng = np.random.default_rng(34)
        for p in (1.5, 2.0, 3.0):
            sp = SpaceParams.power(p, 0.5)
            f, g = Poly([1, 0, -1]), Poly([0, 1])
            base = norm(f, sp)
            for _ in range(100):
                lam = complex(*rng.standard_normal(2))
                lam /= max(abs(lam), 1.0)
                assert norm(f + lam * g, sp) >= base - 1e-8


class TestL1Norm:
    """|f|_1 = sum |f_k|, the factor of the product estimate, is norm at p = 1, alpha = 0."""

    L1 = SpaceParams.power(1.0, 0.0)

    def test_square(self):
        assert norm(Poly([1, -1]) * Poly([1, -1]), self.L1) == pytest.approx(4.0)

    def test_binomial_gap(self):
        for d in (1, 3, 7):
            c = np.zeros(d + 1)
            c[0], c[d] = 1, -1
            assert norm(Poly(c), self.L1) == pytest.approx(2.0)

    def test_submultiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            f, g = rand_poly(rng), rand_poly(rng)
            bound = norm(f, self.L1) * norm(g, self.L1)
            assert norm(f * g, self.L1) <= bound * (1 + 1e-12)

    def test_bounds_the_disc(self):
        # |f(z)| <= sum |f_k| |z|^k <= |f|_1 for |z| <= 1
        rng = np.random.default_rng(8)
        for _ in range(25):
            f = rand_poly(rng, max_deg=12)
            z0 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(f(z0)) <= norm(f, self.L1) * (1 + 1e-12)


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

def scalar_bound_sides(F, G, sp):
    """Reference for the batch: both sides pair by pair through norm, |.|_1 at p = 1, alpha = 0."""
    c, l1 = multiplication_constant(sp), SpaceParams.power(1.0, 0.0)
    lhs, rhs = [], []
    for fr, gr in zip(F, G):
        f, g = Poly(fr), Poly(gr)
        lhs.append(norm(f * g, sp))
        rhs.append(c * (norm(f, l1) * norm(g, sp) + norm(f, sp) * norm(g, l1)))
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
    # w_{3t} of a power weight, tabulated past the index 1025 the doubling constant reads
    + [SpaceParams(p, table_weight(power_weight(0.5).values_up_to(3 * 1025)[::3], tail="power"))
       for p in (1.0, 1.5, 2.0, 3.0, INF)])


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

