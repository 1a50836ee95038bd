"""Tests for weight sequences: values, doubling constants, dilation, admissibility."""

from itertools import permutations

import numpy as np
import pytest

import lpopa
from lpopa import (AdmissibilityError, SpaceParams, closed_form_one_minus_zd,
                   doubling_constant_for, power_weight, table_weight, weight_from_config)


def brute_force_doubling(w, k_max):
    """Independent oracle: max two-sided ratio over k <= k_max, 0 <= t <= k+1."""
    vals = w.values_up_to(2 * k_max + 1)
    worst = 1.0
    for k in range(k_max + 1):
        window = vals[k:2 * k + 2]
        worst = max(worst, window.max() / vals[k], vals[k] / window.min())
    return worst


class TestWeightAt:
    def test_flat(self):
        assert power_weight(0.0).at(17) == 1.0

    def test_linear(self):
        assert power_weight(1.0).at(3) == 4.0

    def test_inverse(self):
        assert power_weight(-1.0).at(3) == 0.25

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            power_weight(1.0).at(-1)

    def test_w0_is_one(self):
        for alpha in (-2.0, -0.3, 0.0, 0.5, 3.0):
            assert power_weight(alpha).at(0) == 1.0


class TestDoublingConstant:
    def test_flat(self):
        assert doubling_constant_for(power_weight(0.0)) == 1.0

    def test_linear(self):
        assert doubling_constant_for(power_weight(1.0)) == 2.0

    def test_alpha_minus_two_vs_brute_force(self):
        # oracle over k <= 10^4: the ratio w_k / w_{2k+1} equals exactly
        # ((2k+2)/(k+1))^2 = 4 at its maximizing t = k+1
        w = power_weight(-2.0)
        assert doubling_constant_for(w) == 4.0
        assert brute_force_doubling(w, 10_000) == pytest.approx(4.0, abs=1e-12)

    def test_bound_actually_holds_sampled(self):
        for alpha in (-2.0, -0.5, 0.7, 1.0, 3.0):
            w = power_weight(alpha)
            c = doubling_constant_for(w)
            vals = w.values_up_to(4097)
            for k in (0, 1, 2, 7, 100, 2048):
                window = vals[k:2 * k + 2]
                assert window.max() <= c * vals[k] * (1 + 1e-12)
                assert window.min() >= vals[k] / c * (1 - 1e-12)


def dilated(w, d, m):
    """w_{dt}, t = 0..m, as the closed form of 1 - z^d reads it at p = 2.

    There Q_t = 1 - s_t / s_{m+1} at order d m, with s_t the sums of 1 / w_{dj},
    j <= t, and the optimal norm squared is 1 / s_{m+1}; so 1 / w_{dt} is
    s_{m+1} (Q_{t-1} - Q_t), with Q_{-1} = 1.
    """
    res = closed_form_one_minus_zd(d, d * m, SpaceParams(2.0, w))
    q = np.concatenate([[1.0], res.approximant.padded(d * m + 1)[::d].real])
    return res.optimal_norm ** 2 / (q[:-1] - q[1:])


class TestDilate:
    def test_flat_stays_flat(self):
        np.testing.assert_allclose(dilated(power_weight(0.0), 3, 50), 1.0, rtol=1e-12)

    def test_linear_doubled(self):
        assert dilated(power_weight(1.0), 2, 4)[2] == pytest.approx(5.0, rel=1e-12)

    def test_quadratic(self):
        # w~_1 = w_2 = 3^2 by direct substitution
        assert dilated(power_weight(2.0), 2, 4)[1] == pytest.approx(9.0, rel=1e-12)

    def test_identity_dilation(self):
        base = power_weight(0.5)
        np.testing.assert_allclose(dilated(base, 1, 64), base.values_up_to(64), rtol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dilated(power_weight(1.0), 0, 4)

    def test_starts_at_one(self):
        assert dilated(power_weight(2.5), 7, 4)[0] == pytest.approx(1.0, rel=1e-12)

    def test_nested_dilation(self):
        # w_{2t} read to t = 30 covers the indices 0..15 the order-12 read by 3 takes
        inner = table_weight(dilated(power_weight(1.0), 2, 30))
        assert dilated(inner, 3, 4)[4] == pytest.approx(power_weight(1.0).at(24), rel=1e-12)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_power_weight_needs_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        power_weight(alpha)


def test_power_inverse_product():
    idx = np.arange(0, 3000, 17)
    for alpha in (0.25, 1.0, 2.5):
        prod = power_weight(alpha).at_indices(idx) * power_weight(-alpha).at_indices(idx)
        np.testing.assert_allclose(prod, 1.0, rtol=1e-15)


class TestTableWeights:
    def test_constant_tail(self):
        w = table_weight([1.0, 2.0, 3.0], tail="constant")
        assert w.at(1) == 2.0
        assert w.at(10) == 3.0

    def test_power_tail_matches_power_weight(self):
        base = power_weight(0.5)
        w = table_weight(base.values_up_to(63), tail="power")
        np.testing.assert_allclose(w.values_up_to(500), base.values_up_to(500),
                                   rtol=1e-12)

    def test_must_start_at_one(self):
        with pytest.raises(ValueError):
            table_weight([2.0, 3.0])

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            table_weight([1.0, -1.0])

    @pytest.mark.parametrize("values", [[np.nan, 2.0, 3.0], [1.0, np.nan], [1.0, np.inf]])
    def test_finite_values_required(self, values):
        with pytest.raises(ValueError, match="finite"):
            table_weight(values)

    def test_declared_doubling_violation(self):
        w = table_weight([1.0, 8.0, 1.0, 1.0], declared_doubling=2.0)
        with pytest.raises(AdmissibilityError):
            doubling_constant_for(w)

    def test_declared_doubling_honored(self):
        w = table_weight([1.0, 1.5, 2.0], declared_doubling=4.0)
        assert doubling_constant_for(w) == 4.0

    @pytest.mark.parametrize("order", list(permutations([10.0, None, 1.5])))
    def test_equal_tables_keep_their_own_declared_constant(self, order):
        # declared_doubling takes no part in equality, so nothing keyed on the
        # weight may hand a table the constant of an equal one read before it
        for declared in order:
            w = table_weight([1, 2, 3], declared_doubling=declared)
            if declared == 1.5:         # the values give 2
                with pytest.raises(AdmissibilityError, match=r"\(observed 2\)$"):
                    doubling_constant_for(w)
            else:
                assert doubling_constant_for(w) == (2.0 if declared is None else declared)


def test_weight_from_config():
    w = weight_from_config({"kind": "power", "alpha": 0.5})
    assert w.at(3) == 4.0 ** 0.5
    t = weight_from_config({"kind": "table", "values": [1, 2, 4], "tail": "constant"})
    assert t.at(9) == 4.0
    with pytest.raises(ValueError):
        weight_from_config({"kind": "geometric"})
    with pytest.raises(ValueError):
        weight_from_config([1, 2])


def test_aliases_left_the_package():
    # one name per operation: w.at(k), fit_rates(run_sweep(...)) and
    # sum(fit.constants.values()); no route calls the rest, and |f|_1 is
    # norm(f, SpaceParams.power(1.0, 0.0))
    for name in ("weight_at", "sweep_and_fit"):
        assert name not in lpopa.__all__ and not hasattr(lpopa, name)
    assert not hasattr(lpopa.ExpPolyFit, "constant_sum")
    for module, names in ((lpopa.space, ("evaluation_bound", "split_bound_terms",
                                         "to_unweighted", "wiener_norm")),
                          (lpopa.weights, ("verify_admissibility", "DEFAULT_K_TEST"))):
        for name in names:
            assert name not in lpopa.__all__ and not hasattr(lpopa, name)
            assert not hasattr(module, name), name
