"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lpopa
import lpopa.cli
import lpopa.opa
import lpopa.rates
import lpopa.space
import lpopa.verification
import lpopa.weights
from lpopa import CircleZeroSpec, SpaceParams, closed_form_one_minus_zd, lower_bound
from lpopa.cli import build_parser, main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_textbook_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--roots", "0:1", "--p", "2",
                               "--alpha", "0", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["coefficients"], [[2 / 3, 0], [1 / 3, 0]],
                                   atol=1e-4)
        assert payload["norm_power"] == pytest.approx(1 / 3, rel=1e-10)
        assert payload["converged"] is True
        assert payload["optimal_norm"] >= payload["lower_bound"] - 1e-12

    def test_coeffs_input_and_solver_choice(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "1.5",
                             "--alpha", "0", "--n", "2", "--solver", "convex",
                             "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["solver"] == "convex"
        assert payload["certificate"]["rel_gap"] <= 1e-10

    def test_structural_solver(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--roots", "0:2", "--p", "3",
                               "--n", "4")
        assert code == 0
        assert json.loads(out)["solver"] == "structural"

    def test_structural_solver_takes_coefficients(self, capsys):
        norms = {}
        for solver in ("auto", "convex"):
            code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,0.5-1i,-0.5i", "--p", "1.5",
                                   "--n", "16", "--solver", solver)
            assert code == 0
            norms[json.loads(out)["solver"]] = json.loads(out)["optimal_norm"]
        assert norms["structural"] == pytest.approx(norms["convex"], rel=1e-12)

    def test_flat_solver_json_carries_a_finite_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "inf",
                               "--n", "2")
        certificate = json.loads(out)["certificate"]
        assert code == 0 and set(certificate) == {"dual", "rel_gap"}
        assert 0.0 < certificate["dual"] < math.inf and abs(certificate["rel_gap"]) <= 1e-9

    @pytest.mark.parametrize("argv", [
        ["--coeffs", "1,-1", "--p", "1.5", "--n", "8"],                  # closed form
        ["--roots", "0:2,pi:1", "--p", "2", "--n", "16"],                # residual-qr
        ["--roots", "0:2,pi:1", "--p", "3", "--n", "16"],                # structural
        ["--roots", "0:300", "--p", "4", "--n", "0"],                    # structural, gap 1e-8
        ["--coeffs", "1,0.5-1i,-0.5i", "--p", "1", "--n", "8"],          # flat
        ["--roots", "0:2,pi:1", "--p", "inf", "--n", "16"],              # flat
        ["--roots", "0:2", "--p", "2", "--n", "8", "--solver", "hilbert"],
        ["--coeffs", "1,-0.5", "--p", "2", "--n", "511", "--solver", "hilbert"],  # no bound
        ["--roots", "0:2,pi:1", "--p", "6", "--n", "2", "--solver", "convex"],
        ["--coeffs", "3", "--p", "1.5", "--n", "2"],                     # constant f
    ], ids=lambda argv: " ".join(argv))
    def test_compute_json_carries_the_certificate(self, capsys, argv):
        # the JSON prints the result's one certificate, and converged is read off it
        code, out, _ = run_cli(capsys, "compute", *argv)
        payload = json.loads(out)
        args = build_parser().parse_args(["compute", *argv])
        sp = lpopa.cli._space_from_args(args)
        res = lpopa.rates._dispatch(lpopa.cli._problem_from_args(args), args.n, sp, args.solver)
        assert payload["certificate"] == {"dual": res.dual, "rel_gap": res.rel_gap}
        gap = payload["certificate"]["rel_gap"]
        rule = (gap is not None and abs(gap) <= (1e-9 if sp.is_flat else 1e-10)
                and payload["optimal_norm"] <= 1 + 1e-12)
        assert payload["converged"] is rule is res.converged
        assert code == (0 if rule else 3)

    def test_weight_file(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps({"kind": "table", "values": [1, 2, 4, 8, 8.5],
                                  "tail": "constant"}))
        code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "2",
                               "--weight-file", str(wf), "--n", "2")
        assert code == 0
        assert json.loads(out)["weight"]["kind"] == "file"

    def test_nonconvergence_exit_code_with_artifact(self, capsys, tmp_path, monkeypatch):
        # one dual Newton step cannot close the gap of the auto route at p = 3
        monkeypatch.setattr(lpopa.opa, "_DUAL_STEPS", 1)
        out_path = tmp_path / "partial.json"
        code, _, _ = run_cli(capsys, "compute", "--roots", "0:2,pi:1", "--p", "3",
                             "--alpha", "1", "--n", "16", "--out", str(out_path))
        assert code == 3
        assert json.loads(out_path.read_text())["converged"] is False

    @pytest.mark.parametrize("source, spec", [
        (("--roots", "0:3"), CircleZeroSpec(((0.0, 3),))),
        (("--roots", "0:4"), CircleZeroSpec(((0.0, 4),))),
        (("--roots", "0:2,pi:3"), CircleZeroSpec(((0.0, 2), (np.pi, 3)))),
        (("--coeffs", "1,-3,3,-1"), CircleZeroSpec(((0.0, 3),))),
        (("--coeffs", "1,-4,6,-4,1"), CircleZeroSpec(((0.0, 4),))),
    ])
    def test_lower_bound_for_multiple_zeros(self, capsys, source, spec):
        code, out, _ = run_cli(capsys, "compute", *source, "--p", "1.5", "--n", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bound"] == lower_bound(spec, 16, SpaceParams.power(1.5, 0))
        assert payload["lower_bound"] <= payload["optimal_norm"]

    def test_convex_at_large_p_reports_no_wrong_optimum(self, capsys):
        # an absolute gradient test took the p = 2 seed, 36% above the
        # optimum, as converged; stationarity of the norm drives it home
        args = ("compute", "--roots", "0:2,pi:1", "--p", "10", "--n", "128")
        code, out, _ = run_cli(capsys, *args, "--solver", "convex")
        ref_code, ref_out, _ = run_cli(capsys, *args)
        assert code == ref_code == 0
        assert json.loads(out)["optimal_norm"] == pytest.approx(
            json.loads(ref_out)["optimal_norm"], rel=1e-12)


class TestArgumentValidation:
    def test_two_problem_sources(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--roots", "0:1", "--coeffs",
                               "1,-1", "--p", "2", "--n", "1")
        assert code == 2
        assert "exactly one" in err

    def test_no_problem_source(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "--p", "2", "--n", "1")
        assert code == 2

    def test_bad_p(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "0.5",
                             "--n", "1")
        assert code == 2

    def test_bad_angle(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "--roots", "tau:1", "--p", "2",
                             "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("roots, p, n", [("0:4", "1.5", "65536"), ("0:2,pi:1", "2", "70000"),
                                             ("0:2,pi:1", "inf", "65534")])
    def test_order_past_degree_cap(self, capsys, roots, p, n):
        code, out, err = run_cli(capsys, "compute", "--roots", roots, "--p", p, "--n", n)
        assert code == 2 and out == ""
        deg = sum(int(r.split(":")[1]) for r in roots.split(","))
        assert f"error: order n = {n} plus deg f = {deg} exceeds the degree cap 65536" in err

    @pytest.mark.parametrize("roots, n, message", [
        ("0:70000", "1", "circle zero spec of degree 70000 exceeds the degree cap 65536"),
        ("0:20000", "50000", "order n = 50000 plus deg f = 20000 exceeds the degree cap 65536"),
    ])
    def test_over_cap_spec_exits_2_before_expanding(self, capsys, monkeypatch, roots, n,
                                                    message):
        def work(*args, **kwargs):
            raise AssertionError("an over-cap spec reached expand")

        for module in (lpopa.rates, lpopa.opa):
            monkeypatch.setattr(module, "expand", work)
        code, out, err = run_cli(capsys, "compute", "--roots", roots, "--p", "1.5", "--n", n)
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv", [
        ["compute", "--coeffs", "1,-1", "--p", "2", "--alpha", "nan", "--n", "3"],
        ["compute", "--coeffs", "1,-1", "--p", "1.5", "--alpha", "inf", "--n", "3"],
        ["compute", "--coeffs", "1,nan", "--p", "2", "--n", "3"],
        ["compute", "--coeffs", "1,nan", "--p", "1.5", "--n", "3"],
        ["compute", "--roots", "nan:1", "--p", "2", "--n", "3"],
        ["compute", "--roots", "0:1,nan:1", "--p", "1.5", "--n", "3"],
        ["sweep", "--coeffs", "1,1e400", "--p", "inf", "--n", "4..8"],
        ["classify", "--p", "2", "--alpha", "nan"],
    ], ids=lambda argv: " ".join(argv[:4]))
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "must be finite" in err

    def test_overflowing_expansion_exits_2_at_once(self, capsys):
        # a single root's binomial coefficients overflow from multiplicity ~1030
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compute", "--roots", "0:20000", "--p", "1.5",
                                 "--n", "0")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "error: polynomial coefficients must be finite" in err

    @pytest.mark.parametrize("alpha, n", [("-1000", "0"), ("-300", "3")])
    def test_weights_out_of_range_leave_the_flat_solve_uncertified(self, alpha, n):
        # the weights underflow, the dual norm with them: no bound, exit 3
        proc = subprocess.run([sys.executable, "-m", "lpopa", "compute", "--coeffs", "1,-1",
                               "--p", "1", "--alpha", alpha, "--n", n],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 3, proc.stderr
        # nor a warning: no face dimension is formed from a dual that bounds nothing
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stdout)["converged"] is False

    @pytest.mark.parametrize("p", ["1", "1.5", "2", "3", "inf"])
    @pytest.mark.parametrize("alpha", ["1000", "-1000"])
    @pytest.mark.parametrize("command", [["compute", "--n", "4"], ["sweep", "--n", "1..8"]],
                             ids=["compute", "sweep"])
    def test_weights_out_of_the_float_range_never_warn(self, capsys, command, alpha, p):
        # w_t overflows to inf (alpha 1000) or underflows to 0 (alpha -1000):
        # each solve refuses it, certifies without it, or its dual bounds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, command[0], "--roots", "0:2", "--p", p,
                                   "--alpha", alpha, *command[1:])
        assert code == (0 if alpha == "1000" and p in ("1.5", "3") else 3), err

    def test_high_multiplicity_compute_is_uncertified(self):
        # the dual Newton stops short at multiplicity 300; compute reads no
        # structure fit, whose basis t**(j-1) would overflow there
        proc = subprocess.run([sys.executable, "-m", "lpopa", "compute", "--roots", "0:300",
                               "--p", "1.5", "--n", "0"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 3, proc.stderr
        for text in ("Traceback", "RuntimeWarning", "SVD"):
            assert text not in proc.stderr
        assert json.loads(proc.stdout)["converged"] is False

    def test_overflowing_f_convex_compute_ends_clean(self):
        # (z-1)^300's binomials, up to 9e88, overflow at p = 4 unless f is
        # scaled by its largest coefficient before its norm is taken
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "lpopa", "compute",
                               "--roots", "0:300", "--p", "4", "--n", "0", "--solver", "convex"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode in (0, 3), proc.stderr
        json.loads(proc.stdout)

    def test_non_finite_weight_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "table", "values": [NaN, 2, 3]}')
        code, out, err = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "2",
                                 "--weight-file", str(path), "--n", "3")
        assert code == 2 and out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("option, text", [
        ("--weight-file", '{"kind": "power"}'),
        ("--weight-file", '{"kind": "table", "values": [{}]}'),
        ("--roots", ":2"),
        ("--roots", "0:inf"),
        ("--coeffs", "abc"),
        ("--roots", "pi/0:1"),
        ("--roots", "0:2.7"),
    ])
    def test_malformed_configuration_exits_2(self, capsys, tmp_path, option, text):
        # a missing entry, a wrong type, a zero denominator or a fractional or
        # infinite multiplicity is a configuration error, not a crash or a truncation
        problem = []
        if option == "--weight-file":
            path = tmp_path / "spec.json"
            path.write_text(text)
            text, problem = str(path), ["--coeffs", "1,-1"]
        code, out, err = run_cli(capsys, "compute", "--p", "2", "--n", "3", *problem,
                                 option, text)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("problem", [[], ["--roots", "0:1", "--coeffs", "1,-1"]],
                             ids=["neither", "both"])
    def test_one_problem_spelling_is_required(self, capsys, problem):
        code, out, err = run_cli(capsys, "compute", "--p", "2", "--n", "3", *problem)
        assert code == 2 and out == ""
        assert err == "error: exactly one of --roots / --coeffs is required\n"

    def test_over_cap_sweep_exits_2_before_any_solve(self, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("an over-cap sweep reached a preparation or a solve")

        for name in ("_dispatch", "_prepare", "lower_bounds", "prepare_residual_qr"):
            monkeypatch.setattr(lpopa.rates, name, work)
        monkeypatch.setattr(lpopa.opa, "cholesky_banded", work)
        for p in ("inf", "2"):      # the flat and the p = 2 residual-form route
            code, out, err = run_cli(capsys, "sweep", "--roots", "0:2,pi:1", "--p", p,
                                     "--n", "64..131072")
            assert code == 2 and out == ""
            assert "error: order n = 65536 plus deg f = 3 exceeds the degree cap 65536" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, n", [("compute", "8"), ("sweep", "8..16")])
    # --coeffs and --roots are the two spellings of a problem: --config is gone;
    # a decay fit starts at rates.FIT_MIN_N = 32, which no option sets
    @pytest.mark.parametrize("option", [["--tol", "1e-3"], ["--max-iters", "1"],
                                        ["--config", "spec.json"], ["--fit-min-n", "8"]],
                             ids=lambda option: option[0])
    def test_removed_solver_options_exit_2(self, capsys, command, n, option):
        with pytest.raises(SystemExit) as exc:
            main([command, "--roots", "0:2,pi:1", "--p", "3", "--n", n, *option])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    @pytest.mark.parametrize("command, n", [("compute", "8"), ("sweep", "8..16")])
    @pytest.mark.parametrize("solver", ["structural", "flat", "closed"])
    def test_removed_solver_values_exit_2(self, capsys, command, n, solver):
        # auto runs each of these routes where it is valid
        with pytest.raises(SystemExit) as exc:
            main([command, "--roots", "0:2,pi:1", "--p", "3", "--n", n, "--solver", solver])
        assert exc.value.code == 2
        assert f"invalid choice: '{solver}'" in capsys.readouterr().err

    def test_removed_closed_form_command_exits_2(self, capsys):
        # compute --coeffs 1,0,-1 prints what it printed, less "command" and "d"
        with pytest.raises(SystemExit) as exc:
            main(["closed-form", "--d", "2", "--p", "2", "--n", "3"])
        assert exc.value.code == 2
        assert "invalid choice: 'closed-form'" in capsys.readouterr().err

    def test_hilbert_requires_p2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "3",
                               "--n", "1", "--solver", "hilbert")
        assert code == 2


class TestClassify:
    def test_not_cyclic(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "1", "--alpha", "0")
        assert code == 0
        assert out.splitlines()[0] == "not cyclic"

    def test_cyclic_with_regime(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "2", "--alpha", "1")
        assert code == 0
        assert out.splitlines()[0] == "cyclic"
        assert "logarithmic" in out

    def test_sup_norm_case(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "inf", "--alpha", "3")
        assert code == 0
        assert "not cyclic" in out


class TestClosedForm:
    def test_dilated(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,0,-1", "--n", "3",
                               "--p", "2", "--alpha", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["solver"] == "closed-form"
        np.testing.assert_allclose(payload["coefficients"],
                                   [[2 / 3, 0], [0, 0], [1 / 3, 0]], atol=1e-12)
        assert payload["norm_power"] == pytest.approx(1 / 3, rel=1e-12)

    @pytest.mark.parametrize("p", ["1.5", "2", "3"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_compute_prints_the_closed_form_payload(self, capsys, d, p):
        # the payload the closed-form command printed for 1 - z^d, less its
        # "command" and "d" keys: auto routes c*(1 - z^d) to the closed form
        argv = ["compute", "--coeffs", ",".join(["1"] + ["0"] * (d - 1) + ["-1"]),
                "--n", "7", "--p", p, "--alpha", "0.5"]
        code, out, _ = run_cli(capsys, *argv)
        res = closed_form_one_minus_zd(d, 7, SpaceParams.power(float(p), 0.5))
        want = lpopa.cli._result_payload(res.f, res, build_parser().parse_args(argv))
        assert code == 0 and out == render_json(want) + "\n"
        assert json.loads(out)["solver"] == "closed-form"

    def test_uncertified_exits_3(self, capsys):
        # w_1 = 2^-1030 takes the dual norm out of the float range: the answer
        # is written, but nothing certifies it, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--n", "0",
                                   "--p", "2", "--alpha", "-1030")
        assert code == 3
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("argv", [
        ["compute", "--coeffs", "1,-1", "--p", "1.5", "--alpha", "-1000", "--n", "4"],
        ["compute", "--coeffs", "1,-1", "--p", "1.5", "--alpha", "-700", "--n", "4"],
        ["compute", "--coeffs", "1,-1", "--p", "2", "--alpha", "-1000", "--n", "4"],
        ["sweep", "--coeffs", "1,-1", "--p", "1.5", "--alpha", "-1000", "--n", "1..4"],
    ], ids=["compute", "compute-700", "compute-p2", "sweep"])
    def test_sums_out_of_range_exit_3(self, argv):
        # the weight sums overflow, and the coefficients s_t / s_{M+1} with
        # them: a typed error, not a refusal of the input
        proc = subprocess.run([sys.executable, "-m", "lpopa", *argv],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 3, proc.stderr
        assert "error: closed form at n = " in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


HEADER = ["n", "d", "p", "alpha", "optimal_norm", "norm_p_power", "lower_bound",
          "predicted_value", "solver", "converged", "iterations", "wall_ms"]


class TestSweep:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == HEADER
        return rows[1:]

    def test_csv_contract_and_fit(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, _, err = run_cli(capsys, "sweep", "--roots", "0:1", "--p", "2",
                               "--alpha", "0", "--n", "64..1024",
                               "--out", str(out_path))
        assert code == 0
        rows = self.read_rows(out_path)
        assert [int(r[0]) for r in rows] == [64, 128, 256, 512, 1024]
        x = np.log([int(r[0]) + int(r[1]) + 1 for r in rows])
        y = np.log([float(r[5]) for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)
        for r in rows:
            assert float(r[4]) >= float(r[6]) - 1e-12
            assert r[9] == "true"
        assert "fitted exponent" in err

    def test_lower_bound_column_for_multiple_zero_coeffs(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, _, _ = run_cli(capsys, "sweep", "--coeffs", "1,-4,6,-4,1", "--p", "2",
                             "--n", "16..64", "--out", str(out_path))
        assert code == 0
        rows = self.read_rows(out_path)
        sp = SpaceParams.power(2.0, 0.0)
        assert [float(r[6]) for r in rows] == [
            lower_bound(CircleZeroSpec(((0.0, 4),)), n, sp) for n in (16, 32, 64)]

    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_flat_sweep_has_lower_bound_column(self, capsys, tmp_path, p):
        out_path = tmp_path / "rates.csv"
        code, _, _ = run_cli(capsys, "sweep", "--roots", "0:2,pi:1", "--p", p,
                             "--alpha", "-0.5", "--n", "16..64", "--out", str(out_path))
        assert code == 0
        for row in self.read_rows(out_path):
            assert np.isfinite(float(row[6]))
            assert float(row[4]) >= float(row[6]) * (1 - 1e-12)
            assert row[9] == "true"

    def test_deterministic_apart_from_timing(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "sweep", "--roots", "pi:1", "--p", "1.5",
                                 "--alpha", "-1", "--n", "8..32", "--solver",
                                 "convex", "--out", str(path))
            assert code == 0

        def strip_timing(path):
            with open(path, newline="") as fh:
                return ["\x1f".join(row[:-1]) for row in csv.reader(fh)]

        assert strip_timing(a) == strip_timing(b)

    def test_compute_json_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(capsys, "compute", "--roots", "0:1,pi:2", "--p", "2.5",
                    "--alpha", "0.5", "--n", "6", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_partial_csv_on_nonconvergence(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(lpopa.opa, "_DUAL_STEPS", 1)
        out_path = tmp_path / "partial.csv"
        code, _, err = run_cli(capsys, "sweep", "--roots", "0:2,pi:1", "--p", "3",
                               "--alpha", "1", "--n", "16..64", "--out", str(out_path))
        assert code == 3
        rows = self.read_rows(out_path)
        assert [int(r[0]) for r in rows] == [16, 32, 64]
        assert [r[9] for r in rows] == ["false"] * 3
        assert "failed to converge" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--roots", "0:1", "--p", "2",
                             "--n", "64")
        assert code == 2


CLASSIFY_ARGS = ["classify", "--p", "2", "--alpha", "0"]


def assert_classify_cyclic(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "cyclic"


def child_env() -> dict:
    """Environment for a child interpreter that imports this lpopa package."""
    package_parent = str(Path(lpopa.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))


def test_installed_entry_point():
    """The declared console script and ``python -m lpopa`` run as programs.

    The script is called the way pip's generated wrapper calls it, so this
    runs from a source checkout as well as from an installed package.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lpopa"]
    module, attr = target.split(":")
    wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
    env = child_env()
    for command in ([sys.executable, "-c", wrapper, *CLASSIFY_ARGS],
                    [sys.executable, "-m", "lpopa", *CLASSIFY_ARGS]):
        assert_classify_cyclic(subprocess.run(command, capture_output=True,
                                              text=True, env=env))


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", block], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == block.count("print("), proc.stdout


@pytest.mark.parametrize("p", ["1.5", "1", "inf"])
def test_cli_compute_does_not_import_scipy_optimize(p):
    """A convex or flat compute through the CLI leaves scipy.optimize unloaded.

    Importing it would add about a third to the CLI's cold start and its
    memory; a route that needs it has to import it lazily.
    """
    script = ("import sys\n"
              "from lpopa.cli import main\n"
              f"code = main(['compute', '--roots', '0:2,pi:1', '--p', '{p}', '--n', '16'])\n"
              "assert code == 0, code\n"
              "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    None,
    ["classify", "--p", "1.5", "--alpha", "0"],
    ["compute", "--coeffs", "1,0,-1", "--p", "1.5", "--n", "64"],     # closed form
    ["compute", "--coeffs", "1,-1", "--p", "3", "--n", "16"],
    ["compute", "--coeffs", "1,-1", "--p", "1", "--n", "16"],      # zero approximant: no division
    ["compute", "--roots", "0:2,pi:1", "--p", "inf", "--n", "64"],  # flat, divides by f
    ["compute", "--roots", "0:2,pi:1", "--p", "1.5", "--n", "16"],  # structural, divides by f
    ["compute", "--roots", "0:2,pi:1", "--p", "2", "--n", "16"],    # residual form, divides
    ["compute", "--coeffs", "1,0.5-1i,-0.5i", "--p", "2", "--n", "16"],
    ["sweep", "--roots", "0:2,pi:1", "--p", "2", "--n", "64..4096"],
], ids=lambda argv: " ".join(argv or ["import"]))
def test_cli_leaves_scipy_unloaded(argv):
    """Importing the CLI, and every auto request, load no scipy.

    Flat, structural and p = 2 residual-form solves divide by f with numpy
    alone."""
    script = "import sys\nfrom lpopa.cli import main\n"
    if argv:
        script += f"assert main({argv!r}) == 0\n"
    script += ("loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
               "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("extra", [["--solver", "hilbert"], ["--solver", "convex"]],
                         ids=["hilbert", "convex"])
def test_cli_imports_scipy_on_first_use(extra):
    """The Hilbert route and the convex oracle's banded seed import scipy themselves."""
    argv = ["compute", "--roots", "0:2,pi:1", "--p", "2", "--n", "16", *extra]
    script = ("import sys\n"
              "from lpopa.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "assert 'scipy.linalg' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["compute", "--roots", "0:2,pi:1", "--p", "3", "--n", "32"],
    ["sweep", "--roots", "0:2,pi:1", "--p", "3", "--n", "64..4096"],
], ids=["compute", "sweep"])
def test_structural_output_forms_no_fit(capsys, monkeypatch, argv):
    """compute and sweep print the same with the structure fit's least squares refused."""
    def without_wall_ms(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    want = run_cli(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a structural compute or sweep formed the structure fit")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    got = run_cli(capsys, *argv)
    assert got[0] == want[0] == 0
    assert got[2] == want[2]
    if argv[0] == "sweep":
        assert without_wall_ms(got[1]) == without_wall_ms(want[1])
    else:
        assert got[1] == want[1]


def test_parser_is_built_once_and_shared(capsys, tmp_path):
    """In-process main calls share one parser; no option leaks between calls.

    Each call's exit code, stdout (sweeps without the wall_ms column) and
    --out file must match a fresh interpreter running the same argv.
    """
    assert build_parser() is build_parser()
    out_path = tmp_path / "first.json"
    first = ["compute", "--roots", "0:2,pi:1", "--p", "1.5", "--alpha", "0.5", "--n", "8",
             "--out", str(out_path)]
    sequence = [first,
                ["compute", "--coeffs", "1,-1", "--p", "inf", "--n", "4"],
                ["sweep", "--roots", "0:1", "--p", "2", "--n", "8..32"],
                ["verify", "--quick", "--seed", "0"],
                ["compute", "--roots", "0:1", "--p", "2", "--n", "many"],
                first]

    def comparable(code, out, argv):
        if argv[0] == "sweep":
            out = [row.rsplit(",", 1)[0] for row in out.splitlines()]
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return code, out, written

    fresh = []
    for argv in sequence:
        proc = subprocess.run([sys.executable, "-m", "lpopa", *argv], capture_output=True,
                              text=True, env=child_env())
        fresh.append(comparable(proc.returncode, proc.stdout, argv))
    assert [entry[0] for entry in fresh] == [0, 0, 0, 0, 2, 0]
    for argv, expected in zip(sequence, fresh):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert comparable(code, capsys.readouterr().out, argv) == expected, argv


def reference_render_json(obj, indent: int = 0) -> str:
    """The one-recursive-call-per-value renderer that render_json must match."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {reference_render_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_render_json(v, indent + 1) for v in obj]
        if sum(len(s) for s in items) < 60 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(pad + "  " + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@pytest.fixture
def rendered(monkeypatch):
    """Every object main hands to render_json, recorded as it passes."""
    seen = []

    def recording(obj, indent=0):
        if not indent:                      # not render_json's own recursive calls
            seen.append(obj)
        return render_json(obj, indent)

    monkeypatch.setattr(lpopa.cli, "render_json", recording)
    return seen


@pytest.mark.parametrize("p", ["1", "1.5", "2", "3", "inf"])
@pytest.mark.parametrize("source", [["--coeffs", "1,-1"], ["--roots", "0:2,pi:1"],
                                    ["--coeffs", "1,0.5-1i,-0.5i"]],
                         ids=["1-z", "z1sq_zp1", "cplx"])
def test_render_json_matches_reference_on_payloads(capsys, rendered, source, p):
    for n in (0, 1, 5, 32, 128):
        main(["compute", *source, "--p", p, "--n", str(n)])
        assert capsys.readouterr().out == reference_render_json(rendered[-1]) + "\n"
    assert len(rendered) == 5


def test_render_json_matches_reference_on_verify_report(capsys, rendered, tmp_path):
    report = tmp_path / "verify.json"
    assert main(["verify", "--quick", "--seed", "0", "--out", str(report)]) == 0
    capsys.readouterr()
    assert report.read_text() == reference_render_json(rendered[-1]) + "\n"


@pytest.mark.parametrize("obj", [
    math.nan, math.inf, -math.inf, np.float64(0.1), np.float32(0.1), np.int64(-7), True, False,
    None, 0, "text", [], {}, (), np.array([]),
    [math.nan, math.inf, -math.inf, np.float64(1 / 3), np.float32(1 / 3), np.int64(3), 2.5],
    [True, False, None, 1, 1.0, "a"],
    [0.25] * 14,                            # 56 characters: inline
    [0.25] * 15,                            # 60 characters: one item per line
    [0.25] * 13 + [math.nan],               # 56 with a null
    [0.25] * 14 + [math.inf],               # 60 with a null
    [[0.1, 0.2], [0.3, math.nan], []] * 4,
    np.linspace(0.0, 1.0, 7),
    (1.5, -2.5),
    {"a": {"b": {"c": [1.0, {"d": []}], "e": {}}}, "f": [[{"g": math.nan}]]},
], ids=repr)
def test_render_json_matches_reference(obj):
    assert render_json(obj) == reference_render_json(obj)


@pytest.mark.parametrize("size", [0, 1, 2, 100])
def test_coefficient_pairs_render_as_the_recursive_path(size):
    # the one-pass rendering of [re, im] pairs against the reference and the
    # generic list path, on entries that format as null, -0 and subnormal-near
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 1 / 3, -2.5e17, 1.0]
    rows = [[values[i % 10], values[(3 * i + 1) % 10]] for i in range(size)]
    payload = {"n": size, "f": rows, "coefficients": rows[::-1], "residual": rows[:1]}
    fast = {key: lpopa.cli._Pairs(value) if isinstance(value, list) else value
            for key, value in payload.items()}
    assert render_json(fast) == render_json(payload) == reference_render_json(payload)


def test_pairs_of_a_polynomial_keep_every_bit():
    coeffs = np.array([1.0, -0.0, complex(-0.0, 1e-300), complex(2.5, -0.0), 1 / 3])
    got = lpopa.cli._pairs(lpopa.Poly(coeffs))
    want = [[float(c.real), float(c.imag)] for c in coeffs]
    assert [[x.hex() for x in pair] for pair in got] == [[x.hex() for x in pair] for pair in want]


@pytest.mark.skipif(shutil.which("lpopa") is None,
                    reason="lpopa console script not installed")
def test_console_script_on_path():
    assert_classify_cyclic(subprocess.run(["lpopa", *CLASSIFY_ARGS],
                                          capture_output=True, text=True))


class TestVerify:
    def test_quick_battery_passes(self, capsys, tmp_path):
        report = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "3",
                               "--out", str(report))
        assert code == 0
        assert "all checks passed" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert all(chk["passed"] for chk in payload["checks"])

    def test_report_is_deterministic(self, capsys, tmp_path):
        reports = [tmp_path / "first.json", tmp_path / "second.json"]
        for report in reports:
            code, _, _ = run_cli(capsys, "verify", "--quick", "--seed", "3",
                                 "--out", str(report))
            assert code == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_unconverged_structural_solve_fails_criterion_03(self, monkeypatch):
        # a norm that matches the convex one does not excuse an uncertified solve
        solve = lpopa.verification.solve_structural

        def uncertified(*args):
            res, fit = solve(*args)
            return replace(res, rel_gap=None), fit

        monkeypatch.setattr(lpopa.verification, "solve_structural", uncertified)
        result = lpopa.verification.structural_check(
            [(CircleZeroSpec(((0.0, 2),)), 7, SpaceParams.power(1.5, 0.0))])
        assert result.measures["unconverged"] == (1, 0)
        assert result.measures["norm rel"][0] <= 1e-6
        assert not result.passed

    def test_multiplication_check_is_batched(self, monkeypatch):
        # one evaluation of the estimate per trial would make 2,400 calls here
        calls = 0

        def counted(fn):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return fn(*args)
            return wrapper

        batch = counted(lpopa.space.multiplication_bound_batch)
        monkeypatch.setattr(lpopa.space, "norm", counted(lpopa.space.norm))
        monkeypatch.setattr(lpopa.space, "multiplication_bound_batch", batch)
        monkeypatch.setattr(lpopa.verification, "multiplication_bound_batch", batch)
        result = lpopa.verification.multiplication_check(seed=0, trials=200)
        assert result.passed
        assert calls <= 50


# f = 1 - z/2 has its zero at 2, off the circle: the residual form's rows
# are scaled by 2^-(m-1), and its regime methods failed untyped on them
@pytest.mark.parametrize("argv", [
    ("compute", "--coeffs", "1,-0.5", "--p", "1", "--n", "64"),
    ("sweep", "--coeffs", "1,-0.5", "--p", "1.5", "--n", "16..1024"),
    ("sweep", "--coeffs", "1,-0.5", "--p", "inf", "--n", "16..1024"),
])
def test_off_circle_zero_ends_typed(argv):
    proc = subprocess.run([sys.executable, "-m", "lpopa", *argv], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if argv[0] == "sweep":      # the rows of the orders before n = 512, whose solve raised
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [int(row["n"]) for row in rows] == [16, 32, 64, 128, 256], proc.stdout


# valid finite input ends in an answer or a typed error: at p near 1 the dual
# Newton's |y_t|^q overflows, or it ends far above the zero approximant's 1;
# 1 + 1e-320 z has its zero out of the float range; 1e308 (1 - z) overflowed
# the division's QR and the lower bound's sum; 1e-320 + z overflowed the
# lower bound's projection onto the circle; 1e-320 (1 - z) and
# 1e-310 (1 - z + z^2) overflowed np.roots and have a P out of the float
# range, except at p = 1, where P = 0 is optimal; the Gram band of (z-1)^1000,
# which the oracles factor, overflows
VALID_INPUT = [
    ("compute --roots 0:2,pi:1 --p 1.0001 --n 16", 3),
    ("compute --coeffs 1,-1,0.5 --p 1.0001 --n 16", 3),
    ("compute --coeffs 1,0.5-1i,-0.5i --p 1.0001 --n 16", 3),
    ("compute --roots 0:1,pi/2:1,3pi/2:1 --p 1.000001 --n 16", 3),
    ("sweep --roots 0:2,pi:1 --p 1.0001 --n 1..4", 3),
    *((f"compute --coeffs 1,1e-320 --p {p} --n 3", 3) for p in ("1", "1.5", "2", "inf")),
    ("sweep --coeffs 1,1e-320 --p 1.5 --n 1..4", 3),
    *((f"compute --coeffs 1e308,-1e308 --p {p} --n 3", 0) for p in ("1", "1.5", "2", "inf")),
    ("sweep --coeffs 1e308,-1e308 --p 2 --n 1..4", 0),
    *((f"compute --coeffs 1e-320,1 --p {p} --n 3", 0) for p in ("1", "1.5")),
    ("compute --roots 0:2,pi:1 --p 1.001 --n 16", 3),
    ("compute --roots 0:2,pi:1 --p 1.001 --n 2", 0),
    ("sweep --roots 0:2,pi:1 --p 1.001 --n 1..64", 3),
    *((f"compute --coeffs 1e-320,-1e-320 --p {p} --n 3", 3) for p in ("1.5", "2", "inf")),
    ("compute --coeffs 1e-320,-1e-320 --p 1 --n 3", 0),
    *((f"compute --coeffs 1e-310,-1e-310,1e-310 --p {p} --n 3", 3) for p in ("2", "3")),
    ("compute --coeffs 1e-320,-1e-320 --p 3 --n 3 --solver convex", 3),
    ("compute --roots 0:1000 --p 2 --n 0 --solver hilbert", 3),
    ("compute --roots 0:1000 --p 1.5 --n 0 --solver convex", 3),
    # w_2 / w_1 = 1e-600 underflows; the tail exponent is taken from logarithms
    *((f"compute --coeffs 1,-1 --p {p} --n 4 --weight-file {{table}}", 3)
      for p in ("1", "1.5", "2", "inf")),
]


def test_valid_input_never_exits_2(tmp_path):
    # one child runs every command, so a warning or an uncaught error of any
    # of them reaches its stderr
    table = tmp_path / "table.json"
    table.write_text('{"kind": "table", "values": [1, 1e300, 1e-300], "tail": "power"}')
    script = ("import contextlib, io\n"
              "from lpopa.cli import main\n"
              "codes = []\n"
              f"for args in {[args.format(table=table) for args, _ in VALID_INPUT]!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        codes.append(main(args.split()))\n"
              "print(codes)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert dict(zip(VALID_INPUT, json.loads(proc.stdout))) == {
        case: case[1] for case in VALID_INPUT}
    assert [line for line in proc.stderr.splitlines()
            if not line.startswith(("error: ", "fit skipped: "))] == [], proc.stderr
    assert proc.stderr.count("error: ") == sum(code == 3 for _, code in VALID_INPUT)


def test_sweep_below_the_fit_window_skips_the_fit(capsys):
    # one order at or above rates.FIT_MIN_N = 32 fits nothing; the sweep
    # itself is still printed and exits 0
    code, out, err = run_cli(capsys, "sweep", "--roots", "0:1", "--p", "2", "--n", "8..32")
    assert code == 0 and len(out.splitlines()) == 1 + 3
    assert err == "fit skipped: need at least two sweep points with n >= 32\n"


@pytest.mark.parametrize("n", ["840", "841"])
def test_point_worse_than_zero_approximant_exits_3(capsys, n):
    # the Hilbert answer for (z-1)^4 here has norm 3.6 (n = 840) and 15.3
    # (n = 841), above the zero approximant's 1
    code, out, err = run_cli(capsys, "compute", "--roots", "0:4", "--p", "2", "--n", n,
                             "--solver", "hilbert")
    payload = json.loads(out)
    assert code == 3 and err == ""
    assert payload["optimal_norm"] > 1.0 and payload["converged"] is False


@pytest.mark.parametrize("solver", [[], ["--solver", "convex"]], ids=["auto", "convex"])
def test_no_route_certifies_a_point_above_the_zero_approximant(capsys, solver):
    # the convex loop once stopped at a gap of 1e-11 on a norm of 1 + 2.2e-11;
    # no approximant is better than 0, whose norm is w_0 = 1
    code, out, err = run_cli(capsys, "compute", "--roots", "0:40", "--p", "1.5", "--n", "16",
                             *solver)
    payload = json.loads(out)
    assert not payload["converged"] or payload["optimal_norm"] <= 1 + 1e-12, payload
    assert code == (0 if payload["converged"] else 3) and err == ""


@pytest.mark.parametrize("problem", [["--coeffs", "1,-0.5", "--n", "511"],
                                     ["--roots", "0:4", "--alpha", "-0.5", "--n", "1024"]],
                         ids=["1-z/2", "z1_4"])
def test_wrong_hilbert_answer_exits_3(capsys, problem):
    # 1 - z/2: a residual at the rounding floor pairs to no bound; (z-1)^4:
    # 0.0776 against the certified p = 2 optimum 0.0439, below 1 all the same
    code, out, err = run_cli(capsys, "compute", *problem, "--p", "2", "--solver", "hilbert")
    assert code == 3 and err == ""
    assert json.loads(out)["converged"] is False
