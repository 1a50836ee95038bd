"""A sweep prepares once, at its largest order, and every order reads the
leading part: each must carry the bits of a solve at that order alone."""

import csv
import io
import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from lpopa import (CircleZeroSpec, IllConditionedError, Poly, SpaceParams, SweepError,
                   closed_form_one_minus_zd, dilate, expand, geometric_grid, lower_bound, opa,
                   power_weight, rates, run_sweep, solve_hilbert, table_weight)
from lpopa.cli import main
from lpopa.opa import prepare_closed_form, prepare_hilbert
from lpopa.rates import lower_bounds

INF = math.inf
PI = math.pi
Z1SQ_ZP1 = CircleZeroSpec(((0.0, 2), (PI, 1)))                     # (z-1)^2 (z+1)
THREE = CircleZeroSpec(((0.0, 1), (PI / 2, 1), (3 * PI / 2, 1)))    # (1-z)(1+z^2)
Z1_4 = CircleZeroSpec(((0.0, 4),))                                  # (z-1)^4
CPLX = Poly([1, 0.5 - 1j, -0.5j])                                   # (1 - iz)(1 + z/2)

WEIGHTS = {
    "power": power_weight(0.5),
    "power-negative": power_weight(-0.5),
    "table-constant": table_weight([1, 2, 3.5, 4]),
    "table-power": table_weight([1, 1.5, 2.2, 3.1, 4.0], tail="power"),
    "dilated": dilate(power_weight(0.7), 3),
}
# each holds n = 0 and orders below deg f = 3
GRIDS = {"small": [0, 1, 2, 5, 40], "wide": [0, 2, 64, 257, 1024]}


def assert_same_bits(got, want):
    for field in ("approximant", "residual"):
        assert getattr(got, field).coeffs.tobytes() == getattr(want, field).coeffs.tobytes()
    assert ((got.optimal_norm, got.ortho_residual_max, got.solver, got.converged)
            == (want.optimal_norm, want.ortho_residual_max, want.solver, want.converged))


def scipy_hilbert(f: Poly, n: int, w) -> np.ndarray:
    """The order-n p = 2 coefficients from the order-n Gram matrix alone,
    factored and solved by scipy's own banded Cholesky routines."""
    fc, d = f.coeffs, f.degree
    u = min(d, n)
    wv = w.values_up_to(n + d)
    ab = np.zeros((u + 1, n + 1), dtype=np.complex128)
    for r in range(u + 1):
        prods = fc[: d - r + 1] * np.conj(fc[r:])
        corr = (np.correlate(wv, prods.real, mode="valid")
                + 1j * np.correlate(wv, prods.imag, mode="valid"))
        ab[u - r, r:] = corr[r: n + 1]
    rhs = np.zeros(n + 1, dtype=np.complex128)
    rhs[0] = np.conj(fc[0])
    return cho_solve_banded((cholesky_banded(ab), False), rhs)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("weight", WEIGHTS.values(), ids=WEIGHTS)
@pytest.mark.parametrize("f", [expand(Z1SQ_ZP1), expand(THREE), CPLX],
                         ids=["z1sq_zp1", "three", "cplx"])
def test_hilbert_orders_read_one_factorization(f, weight, grid):
    solve = prepare_hilbert(f, grid[-1], weight)
    for n in grid:
        got = solve(n)
        assert_same_bits(got, solve_hilbert(f, n, weight))
        assert got.approximant.coeffs.tobytes() == Poly(scipy_hilbert(f, n, weight)).coeffs.tobytes()


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("weight", WEIGHTS.values(), ids=WEIGHTS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 3])
def test_closed_form_orders_read_one_set_of_sums(d, p, weight, grid):
    sp = SpaceParams(p, weight)
    solve = prepare_closed_form(Poly([1] + [0] * (d - 1) + [-1]), grid[-1], sp)
    for n in grid:
        assert_same_bits(solve(n), closed_form_one_minus_zd(d, n, sp))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_rescaled_closed_form_orders(p):
    # f = 2(1 - z): the closed form of 1 - z with the approximant halved
    f, sp, grid = Poly([2, -2]), SpaceParams(p, WEIGHTS["table-power"]), GRIDS["wide"]
    solve = rates._prepare(f, grid[-1], sp, "auto")
    for n in grid:
        got = solve(n)
        assert_same_bits(got, rates._dispatch(f, n, sp, "auto"))
        unit = closed_form_one_minus_zd(1, n, sp)
        assert got.approximant.coeffs.tobytes() == (unit.approximant * 0.5).coeffs.tobytes()
        assert got.optimal_norm == unit.optimal_norm


@pytest.mark.parametrize("weight", WEIGHTS.values(), ids=WEIGHTS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 1.0, INF])
@pytest.mark.parametrize("problem", [Z1SQ_ZP1, Poly([1, -1]), Poly([1, 0, 0, -1])],
                         ids=["z1sq_zp1", "1-z", "1-z3"])
def test_lower_bounds_of_a_grid(problem, p, weight):
    sp = SpaceParams(p, weight)
    for grid in GRIDS.values():
        want = [lower_bound(problem, n, sp) for n in grid]
        assert [b.hex() for b in lower_bounds(problem, grid, sp)] == [b.hex() for b in want]


@pytest.mark.parametrize("problem, p", [(Z1SQ_ZP1, 2.0), (THREE, 2.0), (CPLX, 2.0),
                                        (Poly([1, -1]), 1.5), (Poly([1, 0, 0, -1]), 3.0),
                                        (Poly([2, -2]), 2.0)],
                         ids=["z1sq_zp1", "three", "cplx", "1-z", "1-z3", "2(1-z)"])
def test_sweep_points_match_single_order_solves(problem, p):
    sp = SpaceParams.power(p, -0.5)
    grid = [0, 1, 2, 3, 16, 100]
    points = run_sweep(problem, sp, grid)
    for pt in points:
        res = rates._dispatch(problem, pt.n, sp, "auto")
        assert (pt.optimal_norm, pt.solver) == (res.optimal_norm, res.solver)
        assert pt.lower_bound == lower_bound(problem, pt.n, sp)


@pytest.mark.parametrize("alpha, minor", [(-0.5, 1102), (0.0, 843), (0.5, 1043)])
def test_failed_factorization_raises_at_the_order_a_solve_fails(alpha, minor):
    # the banded p = 2 Gram factorization of (z-1)^4 fails at a leading minor
    # past 512: the sweep must fail at the first order whose Gram block holds
    # it, as a solve at each order does, with the same message
    sp, grid, f = SpaceParams.power(2, alpha), geometric_grid(64, 4096), expand(Z1_4)

    def first_failure(solve):
        for n in grid:
            try:
                solve(n)
            except IllConditionedError as exc:
                return n, str(exc)
        return None

    want = first_failure(lambda n: solve_hilbert(f, n, sp.weight))
    assert want == (next(n for n in grid if n + 1 >= minor),
                    f"Gram factorization failed: {minor}-th leading minor not positive definite")
    prepared = rates._prepare(Z1_4, grid[-1], sp, "auto")
    assert first_failure(prepared) == want
    with pytest.raises(SweepError) as err:
        run_sweep(Z1_4, sp, grid)
    assert str(err.value) == want[1]
    # the sweep stops at that order and keeps the points before it
    assert err.value.failed_orders == (want[0],)
    assert [pt.n for pt in err.value.points] == [n for n in grid if n < want[0]]
    assert isinstance(err.value.__cause__, IllConditionedError)

    def outcome(solve, n):
        try:
            return solve(n).optimal_norm
        except IllConditionedError as exc:
            return str(exc)

    # either side of the order whose Gram block first holds the failing minor
    for n in (minor - 3, minor - 2, minor - 1):
        assert outcome(prepared, n) == outcome(lambda n: solve_hilbert(f, n, sp.weight), n)
    assert "leading minor" in outcome(prepared, minor - 1)


@pytest.mark.parametrize("p", [1.5, math.inf])
def test_refused_order_lists_the_unconverged_ones_before_it(p):
    # 1 - z/2: orders 32 to 256 are unconverged and n = 512 is refused
    # (its right side underflows); the sweep ends there with every failure
    grid = geometric_grid(16, 1024)
    with pytest.raises(SweepError, match="right side underflows") as err:
        run_sweep(Poly([1, -0.5]), SpaceParams.power(p, 0.0), grid)
    assert err.value.failed_orders == (32, 64, 128, 256, 512)
    assert [(pt.n, pt.converged) for pt in err.value.points] == [
        (16, True), (32, False), (64, False), (128, False), (256, False)]


def test_z1_4_sweep_below_the_failing_minor(capsys):
    assert main(["sweep", "--roots", "0:4", "--p", "2", "--n", "64..512"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(row["n"]) for row in rows] == [64, 128, 256, 512]
    for row in rows:
        want = solve_hilbert(expand(Z1_4), int(row["n"]), power_weight(0.0)).optimal_norm
        assert row["optimal_norm"] == format(want, ".17g")


def test_order_outside_the_prepared_range():
    with pytest.raises(ValueError, match="outside"):
        prepare_hilbert(CPLX, 8, power_weight(0.0))(9)
    with pytest.raises(ValueError, match="outside"):
        prepare_closed_form(Poly([1, 0, -1]), 8, SpaceParams.power(2, 0))(9)


@pytest.mark.parametrize("problem, p, route", [(Z1SQ_ZP1, 2.0, "hilbert"),
                                               (Poly([1, -1]), 1.5, "closed-form"),
                                               (Poly([2, -2]), 1.5, "closed-form")],
                         ids=["z1sq_zp1", "1-z", "2(1-z)"])
def test_sweep_forms_no_pairing(monkeypatch, problem, p, route):
    # a sweep reports norms only: the orthogonality pairing of its results,
    # the one signed_powers call of these routes, must never be formed
    sp, grid = SpaceParams.power(p, 0.5), geometric_grid(64, 4096)
    want = run_sweep(problem, sp, grid)

    def poisoned(*args, **kwargs):
        raise AssertionError("a sweep formed an orthogonality pairing")

    monkeypatch.setattr(opa, "signed_powers", poisoned)
    got = run_sweep(problem, sp, grid)
    assert [pt.n for pt in got] == grid
    assert {pt.solver for pt in got} == {route}
    assert [pt.optimal_norm.hex() for pt in got] == [pt.optimal_norm.hex() for pt in want]
    with pytest.raises(AssertionError, match="pairing"):
        rates._dispatch(problem, 64, sp, "auto").ortho_residual_max
