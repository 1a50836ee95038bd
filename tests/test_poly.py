"""Tests for polynomial arithmetic, signed powers and circle-root expansion."""

import cmath
import math
import time

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, DegreeCapError, InexactDivisionError, Poly, eval_derivative,
                   exact_div, expand, parse_angle, poly_from_config, signed_powers)
import lpopa.poly
from lpopa.poly import MAX_DEGREE, lstsq_div


def rand_complex(rng, size=None, scale=1.0):
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def signed_power(z, s):
    """:func:`signed_powers` at one value."""
    return complex(signed_powers([z], s)[0])


class TestSignedPower:
    def test_two_i_squared(self):
        # r = 2, theta = pi/2, so the value is 4 e^{-i pi/2} = -4i
        assert signed_power(2j, 2.0) == pytest.approx(-4j, abs=1e-14)

    def test_exponent_one_is_conjugation(self):
        rng = np.random.default_rng(7)
        for z in rand_complex(rng, 50):
            assert signed_power(z, 1.0) == pytest.approx(np.conj(z), rel=1e-14)

    def test_zero_convention(self):
        assert signed_power(0, 0.37) == 0j
        assert signed_power(0, 0.0) == 0j

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            signed_power(1 + 1j, -0.5)

    def test_vectorized_matches_polar_form(self):
        rng = np.random.default_rng(3)
        z = rand_complex(rng, 20)
        z[4] = 0.0
        out = signed_powers(z, 1.7)
        for zi, oi in zip(z, out):
            want = abs(zi) ** 1.7 * cmath.exp(-1j * cmath.phase(zi)) if zi else 0j
            assert oi == pytest.approx(want, abs=1e-15)


class TestSignedPowerIdentities:
    """The four arithmetic identities the notation must satisfy, on random data."""

    def test_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z, w = rand_complex(rng, 2)
            s = rng.uniform(0.1, 4.0)
            lhs = signed_power(z * w, s)
            rhs = signed_power(z, s) * signed_power(w, s)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_commutes_with_real_power(self):
        # principal-branch complex power on both sides; the phases produced
        # by the argument negation agree modulo 2 pi
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = complex(*rng.standard_normal(2))
            s = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.1, 2.5)
            lhs = signed_power(z, s) ** alpha
            rhs = signed_power(z ** alpha, s)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_absolute_value_identity(self):
        rng = np.random.default_rng(13)
        for p in (1.3, 2.0, 3.7):
            for _ in range(100):
                z = complex(*rng.standard_normal(2))
                assert z * signed_power(z, p - 1) == pytest.approx(abs(z) ** p,
                                                                   rel=1e-12)

    def test_involution_between_conjugate_exponents(self):
        rng = np.random.default_rng(14)
        for p in (1.3, 2.0, 3.7):
            q = p / (p - 1)
            for _ in range(100):
                z = complex(*rng.standard_normal(2))
                back = signed_power(signed_power(z, p - 1), q - 1)
                assert back == pytest.approx(z, rel=1e-12)


class TestPolyBasics:
    def test_zero_polynomial_degree_none(self):
        assert Poly().degree is None
        assert Poly([0, 0, 0]).degree is None

    def test_trailing_zeros_trimmed(self):
        p = Poly([1, 2, 0, 0])
        assert p.degree == 1

    def test_internal_zeros_kept(self):
        assert Poly([1, 0, 2]).degree == 2

    def test_add_sub(self):
        a, b = Poly([1, 2]), Poly([0, -2, 3])
        assert (a + b) == Poly([1, 0, 3])
        assert (a - a).is_zero

    def test_mul_examples(self):
        one_minus = Poly([1, -1])
        one_plus = Poly([1, 1])
        assert one_minus * one_plus == Poly([1, 0, -1])
        assert one_minus * one_minus == Poly([1, -2, 1])

    def test_mul_annihilator(self):
        rng = np.random.default_rng(0)
        p = Poly(rand_complex(rng, 5))
        assert (p * Poly()).is_zero
        assert (Poly() * p).is_zero

    def test_scalar_mul_and_call(self):
        p = 2 * Poly([1, 1])
        assert p(3.0) == pytest.approx(8.0)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            Poly(np.ones((1 << 16) + 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Poly([1.0, bad, 2.0])


class TestExpand:
    def test_single_root(self):
        assert expand(CircleZeroSpec(((0.0, 1),))) == Poly([-1, 1])

    def test_two_opposite_roots(self):
        f = expand(CircleZeroSpec(((0.0, 1), (math.pi, 1))))
        np.testing.assert_allclose(f.coeffs, [-1, 0, 1], atol=1e-15)

    def test_double_root(self):
        f = expand(CircleZeroSpec(((0.0, 2),)))
        np.testing.assert_allclose(f.coeffs, [1, -2, 1], atol=1e-15)

    @pytest.mark.parametrize("roots, lead", [
        (((0.0, 3), (math.pi / 3, 2)), 1.0), (((1.0, 40), (4.0, 7)), 0.5 - 2j),
        (((0.0, 1000),), 1.0)])
    def test_one_convolution_per_unit_of_multiplicity(self, roots, lead):
        spec = CircleZeroSpec(roots, leading_coefficient=lead)
        want = np.array([lead], dtype=np.complex128)
        for angle, mult in roots:
            factor = np.array([-complex(math.cos(angle), math.sin(angle)), 1.0])
            for _ in range(mult):
                want = np.convolve(want, factor)
        assert expand(spec).coeffs.tobytes() == want.tobytes()

    def test_overflow_stops_the_expansion(self, monkeypatch):
        # the binomial coefficients of (z - 1)^k leave the float range from
        # k of about 1030 on: the product that first does raises
        c, first = np.ones(1, dtype=np.complex128), 0
        while np.isfinite(c).all():
            c, first = np.convolve(c, [-1.0, 1.0]), first + 1
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a: calls.append(1) or convolve(*a))
        with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
            expand(CircleZeroSpec(((0.0, 20000), (math.pi, 1))))
        assert len(calls) == first

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ValueError):
            CircleZeroSpec(((0.0, 1), (2 * math.pi, 1)))

    @pytest.mark.parametrize("roots, lead", [
        (((math.nan, 1),), 1.0), (((0.0, 1), (math.inf, 1)), 1.0),
        (((0.0, 1),), math.nan), (((0.0, 1),), complex(1, math.inf)),
    ], ids=["nan angle", "inf angle", "nan leading", "inf leading"])
    def test_non_finite_spec_rejected(self, roots, lead):
        with pytest.raises(ValueError, match="must be finite"):
            CircleZeroSpec(roots, leading_coefficient=lead)

    def test_over_cap_spec_rejected(self):
        CircleZeroSpec(((0.0, MAX_DEGREE - 1), (math.pi, 1)))      # the cap itself
        with pytest.raises(DegreeCapError, match=f"degree {MAX_DEGREE + 1} exceeds"):
            CircleZeroSpec(((0.0, MAX_DEGREE), (math.pi, 1)))

    def test_vanishing_orders_match_multiplicity(self):
        theta = 2 * math.pi / 3
        spec = CircleZeroSpec(((theta, 3), (0.0, 1)), leading_coefficient=2.0)
        f = expand(spec)
        z0 = cmath.exp(1j * theta)
        scale = np.abs(f.coeffs).max()
        for s in range(3):
            assert abs(eval_derivative(f, z0, s)) <= 1e-9 * scale
        assert abs(eval_derivative(f, z0, 3)) > 1e-3

    def test_leading_coefficient(self):
        f = expand(CircleZeroSpec(((0.0, 1),), leading_coefficient=-1.0))
        assert f == Poly([1, -1])


class TestDivision:
    def test_difference_of_squares(self):
        # the least-squares quotient is 0.9999999999999997 + z
        q = exact_div(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert q.degree == 1 and np.abs(q.coeffs - 1).max() <= 1e-15

    def test_repeated_factor_pattern(self):
        num = Poly([1, -2, 1]) * Poly([1, 2, 1])        # (z-1)^2 (z+1)^2
        den = Poly([1, -2, 1]) * Poly([1, 1])           # (z-1)^2 (z+1)
        assert exact_div(num, den) == Poly([1, 1])

    def test_inexact_division_raises(self):
        # the least remainder of 1 + z^2 by z - 1 in the 2-norm: q = (z - 1) / 3
        with pytest.raises(InexactDivisionError) as err:
            exact_div(Poly([1, 0, 1]), Poly([-1, 1]))
        np.testing.assert_allclose(err.value.remainder.coeffs, [2 / 3] * 3, rtol=1e-15)

    def test_exact_div_past_a_long_division_overflow(self):
        # long division by z - 2 would amplify rounding by 2 per step and
        # overflow; the banded least-squares quotient does not
        rng = np.random.default_rng(0)
        a = Poly(rng.standard_normal(3000))
        den = Poly([-2.0, 1.0])
        q = exact_div(a * den, den)
        assert np.abs(q.padded(3000) - a.coeffs).max() <= 1e-12

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(Poly([1]), Poly())

    def test_roundtrip_property(self):
        # exact_div(a*b, b) recovers a with remainder below 1e-10 * scale;
        # the tol argument makes exact_div itself enforce the remainder bound
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = Poly(rand_complex(rng, rng.integers(1, 13)))
            b = Poly(rand_complex(rng, rng.integers(1, 13)))
            q = exact_div(a * b, b, tol=1e-10)
            scale = max(np.abs((a * b).coeffs).max(), 1.0)
            assert np.abs(q.padded(a.coeffs.size) - a.coeffs).max() <= 1e-9 * scale


    def test_banded_fallback_at_large_order(self):
        # long division would leave a relative remainder of 1.6e-5 here; the
        # dense predecessor of the banded quotient took 88 s at this order
        rng = np.random.default_rng(5)
        den = expand(CircleZeroSpec(((0.0, 4),)))
        num = Poly(rng.standard_normal(4097)) * den
        start = time.perf_counter()
        q = exact_div(num, den)
        assert time.perf_counter() - start < 1.0
        assert np.abs((num - q * den).coeffs).max() <= 1e-9 * np.abs(num.coeffs).max()


DIVISORS = {"z-2": [-2.0, 1.0],                                   # zero outside the disc
            "cplx2": [1.0, 0.3 + 0.2j, -0.1j],
            "cplx4": [0.4 - 0.1j, -0.3j, 1.0 + 0.2j, 0.5, -0.25 + 0.5j]}


class TestBlockedLstsqDiv:
    BLOCK = lpopa.poly._BLOCK

    @staticmethod
    def dense(num, den, cols):
        matrix = np.zeros((num.coeffs.size, cols), dtype=np.complex128)
        for j in range(cols):
            matrix[j: j + den.coeffs.size, j] = den.coeffs
        return np.linalg.lstsq(matrix, num.coeffs, rcond=None)[0]

    @pytest.mark.parametrize("cols", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("name", list(DIVISORS))
    def test_matches_dense_least_squares(self, name, cols):
        rng = np.random.default_rng(cols)
        den = Poly(DIVISORS[name])
        num = Poly(rand_complex(rng, cols + den.degree))
        q, r = lstsq_div(num, den)
        want = self.dense(num, den, cols)
        assert np.abs(q.padded(cols) - want).max() <= 1e-12 * np.abs(want).max()
        assert r == num - q * den

    @pytest.mark.parametrize("cols", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("name", list(DIVISORS))
    def test_remainder_no_larger_than_unblocked(self, name, cols, monkeypatch):
        # a block of 1 is plain column-by-column Householder QR
        rng = np.random.default_rng(cols + 7)
        den = Poly(DIVISORS[name])
        num = Poly(rand_complex(rng, cols + den.degree))
        blocked = np.linalg.norm(lstsq_div(num, den)[1].coeffs)
        monkeypatch.setattr("lpopa.poly._BLOCK", 1)
        unblocked = np.linalg.norm(lstsq_div(num, den)[1].coeffs)
        assert blocked <= unblocked * (1 + 1e-12)

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_exact_quotient_for_any_block(self, block, monkeypatch):
        monkeypatch.setattr("lpopa.poly._BLOCK", block)
        rng = np.random.default_rng(block)
        den = Poly(DIVISORS["cplx4"])
        a = Poly(rand_complex(rng, 150))
        q, r = lstsq_div(a * den, den)
        assert np.abs(q.padded(150) - a.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()
        assert np.abs(r.coeffs).max() <= 1e-13 * np.abs((a * den).coeffs).max()

    @pytest.mark.parametrize("solve_block", [1, 3, 32, 200])
    def test_exact_quotient_for_any_solve_block(self, solve_block, monkeypatch):
        # 150 columns: blocks that divide them unevenly, and one block of all
        monkeypatch.setattr("lpopa.poly._SOLVE_BLOCK", solve_block)
        rng = np.random.default_rng(solve_block)
        den = Poly(DIVISORS["cplx4"])
        a = Poly(rand_complex(rng, 150))
        q, r = lstsq_div(a * den, den)
        assert np.abs(q.padded(150) - a.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()
        assert np.abs(r.coeffs).max() <= 1e-13 * np.abs((a * den).coeffs).max()

    def test_fourfold_zero_quotient_as_accurate_as_banded_substitution(self):
        # (z-1)^4 divides num exactly in floats (small integers), so the
        # quotient error is the division's own.  Its multiplication matrix
        # has condition ~ n^4; scipy's solve_banded after the same blocked
        # QR (block 64) gave a worst error of 2.63e-6 over these seeds.
        # Independent per-block solves joined afterwards give about 1e-3.
        den = expand(CircleZeroSpec(((0.0, 4),)))
        cols = 2048
        assert cols >= 4 * self.BLOCK
        worst = 0.0
        for seed in range(8):
            a = np.random.default_rng(seed).integers(-8, 9, cols).astype(float)
            a[-1] = 1.0
            q = lstsq_div(Poly(np.convolve(a, den.coeffs)), den)[0]
            worst = max(worst, np.abs(q.padded(cols) - a).max() / np.abs(a).max())
        assert worst <= 2 * 2.63e-6

    def test_constant_divisor_and_short_numerator(self):
        num = Poly([2.0, 4.0, 6.0])
        assert lstsq_div(num, Poly([2.0]))[0] == Poly([1.0, 2.0, 3.0])
        assert lstsq_div(Poly([1.0]), Poly([1.0, 1.0])) == (Poly(), Poly([1.0]))

    @pytest.mark.parametrize("k", [-3, 5, 1021])
    def test_divisor_scaled_by_a_power_of_two_keeps_every_bit(self, k):
        # the divisor is brought below modulus 1 by a power of two before its
        # QR, which 1e308 (1 - z) overflowed; the quotient is scaled back
        den = expand(CircleZeroSpec(((0.0, 4),)))
        num = Poly(rand_complex(np.random.default_rng(5), 200))
        want = lstsq_div(num, den)[0].coeffs * 2.0 ** -k
        assert np.array_equal(lstsq_div(num, den * 2.0 ** k)[0].coeffs, want)

    def test_divisor_near_the_float_limit(self):
        num = Poly([1.0, 0.5, 0.25, -1.0])
        q = lstsq_div(num, Poly([1e308, -1e308]))[0]
        want = lstsq_div(num, Poly([1.0, -1.0]))[0]
        assert np.abs(q.coeffs * 1e308 - want.coeffs).max() <= 1e-14


class TestEvalDerivative:
    def test_double_root_first_derivative(self):
        assert eval_derivative(Poly([1, -2, 1]), 1.0, 1) == pytest.approx(0, abs=1e-14)

    def test_double_root_second_derivative(self):
        assert eval_derivative(Poly([1, -2, 1]), 1.0, 2) == pytest.approx(2.0)

    def test_plain_evaluation(self):
        assert eval_derivative(Poly([1, -1]), 1.0, 0) == pytest.approx(0, abs=1e-15)

    def test_order_beyond_degree(self):
        assert eval_derivative(Poly([1, 2, 3]), 0.5, 7) == 0j

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        p = Poly(rand_complex(rng, 6))
        z0 = 0.3 + 0.2j
        h = 1e-5
        fd = (p(z0 + h) - p(z0 - h)) / (2 * h)
        assert eval_derivative(p, z0, 1) == pytest.approx(fd, rel=1e-8)


class TestParseAngle:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0.0),
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("2pi/3", 2 * math.pi / 3),
        ("-pi/2", 3 * math.pi / 2),
        ("2pi", 0.0),
        ("0.5", 0.5),
    ])
    def test_examples(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_angle("two pies")


def test_poly_from_config():
    p = poly_from_config({"coeffs": [[1, 0], [0, -1]]})
    assert p == Poly([1, -1j])
    spec = poly_from_config({"circle_roots": [{"angle": "pi", "mult": 2}],
                             "leading": [2, 0]})
    assert isinstance(spec, CircleZeroSpec)
    assert spec.degree == 2 and spec.leading_coefficient == 2.0
    with pytest.raises(ValueError):
        poly_from_config({"coeffs": [[1, 0]], "circle_roots": []})
