"""The p = 2 residual form by a prefix QR: auto's route at p = 2.

Its norms are checked against the exact optimum, computed in 60-digit
``decimal`` from the Gram matrix of the residual-form rows, and against the
Hilbert oracle where that is well conditioned.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from lpopa import (CircleZeroSpec, IllConditionedError, Poly, SpaceParams, expand, rates,
                   solve_hilbert)
from lpopa.cli import main
from lpopa.opa import prepare_residual_qr

PI = math.pi
Z1_4 = CircleZeroSpec(((0.0, 4),))                                  # (z-1)^4


def exact_norm(b: int, alpha: float, n: int) -> float:
    """The p = 2 optimum of (z-1)^b at order n under w_t = (t+1)^alpha, in
    60-digit decimal: ||r||^2 = e^H G^-1 e, G = sum_t s_t s_t^H / w_t, with
    s_t = ((t/(m-1))^s)_{s<b} the residual-form rows of the zero 1 (m = n + b + 1)."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = n + b + 1
        gram = [[Decimal(0)] * b for _ in range(b)]
        for t in range(m):
            x, inv_w = Decimal(t) / Decimal(m - 1), Decimal(t + 1) ** -Decimal(alpha)
            s = [Decimal(1)]
            for _ in range(b - 1):
                s.append(s[-1] * x)
            for i in range(b):
                for j in range(b):
                    gram[i][j] += s[i] * s[j] * inv_w
        # Gaussian elimination on [G | e_0], then back substitution
        rows = [row + [Decimal(int(i == 0))] for i, row in enumerate(gram)]
        for i in range(b):
            pivot = max(range(i, b), key=lambda r: abs(rows[r][i]))
            rows[i], rows[pivot] = rows[pivot], rows[i]
            for r in range(i + 1, b):
                factor = rows[r][i] / rows[i][i]
                rows[r] = [a - factor * c for a, c in zip(rows[r], rows[i])]
        lam = [Decimal(0)] * b
        for i in reversed(range(b)):
            lam[i] = (rows[i][b] - sum(rows[i][c] * lam[c] for c in range(i + 1, b))) / rows[i][i]
        return float(lam[0].sqrt())


# the three points where the banded Gram route certified a wrong answer, at
# (-0.5, 1024) 76.5% high
@pytest.mark.parametrize("alpha, n", [(-0.5, 256), (-0.5, 1024), (0.0, 256)])
def test_z1_4_matches_the_exact_optimum(alpha, n):
    res = rates._dispatch(Z1_4, n, SpaceParams.power(2, alpha), "auto")
    assert res.solver == "residual-qr" and res.converged
    assert abs(res.optimal_norm / exact_norm(4, alpha, n) - 1.0) <= 1e-12


AGREEING = {
    "z1sq_zp1": CircleZeroSpec(((0.0, 2), (PI, 1))),
    "three": CircleZeroSpec(((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1))),
    "cplx": Poly([1, 0.5 - 1j, -0.5j]),         # zeros -i and -2
    "inside": Poly([1, -2]),                    # the zero 1/2
    "at zero": Poly([0, 1, -1]),                # f(0) = 0: r_0 = 1
    "double at zero": Poly([0, 0, 2, 1]),
}


@pytest.mark.parametrize("name", AGREEING)
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
def test_agrees_with_the_hilbert_oracle(name, alpha):
    problem, sp = AGREEING[name], SpaceParams.power(2, alpha)
    f = expand(problem) if isinstance(problem, CircleZeroSpec) else problem
    solve = prepare_residual_qr(problem, 40, sp.weight)
    for n in (0, 1, 5, 40):
        got, want = solve(n), solve_hilbert(f, n, sp.weight)
        assert got.converged and abs(got.rel_gap) <= 1e-10
        assert got.optimal_norm == pytest.approx(want.optimal_norm, rel=1e-10)
        m = n + f.degree + 1
        np.testing.assert_allclose(got.residual.padded(m), want.residual.padded(m), atol=1e-10)
        # the approximant is formed when read, and reproduces the residual
        assert got.approximant.coeffs.size <= n + 1
        np.testing.assert_allclose((Poly([1]) - got.approximant * f).padded(m),
                                   got.residual.padded(m), atol=1e-10)


def test_real_f_has_a_real_residual():
    res = rates._dispatch(AGREEING["three"], 64, SpaceParams.power(2, 0.5), "auto")
    assert not res.residual.coeffs.imag.any()


def test_singular_factor_raises():
    # the Gram route raises here too; no norm above 1 comes back
    with pytest.raises(IllConditionedError, match="singular to working precision"):
        rates._dispatch(CircleZeroSpec(((0.0, 40),)), 64, SpaceParams.power(2, 0), "auto")


def test_high_multiplicity_at_order_zero_is_never_below_one():
    # the optimum is 1 to double precision (1 - 1e-267)
    try:
        res = rates._dispatch(CircleZeroSpec(((0.0, 300),)), 0, SpaceParams.power(2, 0), "auto")
    except IllConditionedError:
        return
    assert not res.converged or res.optimal_norm == 1.0


def test_underflowing_right_side_is_refused():
    # the only zero, 2, scales its row by 2^-(m-1)
    with pytest.raises(IllConditionedError, match="right side underflows"):
        rates._dispatch(Poly([1, -0.5]), 2000, SpaceParams.power(2, 0), "auto")


@pytest.mark.parametrize("argv", [
    ["compute", "--roots", "0:40", "--p", "2", "--n", "64"],
    ["compute", "--coeffs", "1,-0.5", "--p", "2", "--n", "2000"],
], ids=["singular", "underflow"])
def test_typed_errors_exit_3(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: residual form at n = ")
