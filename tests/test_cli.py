"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpopa
from lpopa.cli import main


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
        assert payload["ortho_residual_max"] <= 1e-7

    def test_structural_solver(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--roots", "0:2", "--p", "3",
                               "--n", "4", "--solver", "structural")
        assert code == 0
        assert json.loads(out)["solver"] == "structural"

    def test_flat_solver_json_has_null_ortho(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "inf",
                               "--n", "2")
        assert code == 0
        assert json.loads(out)["ortho_residual_max"] is None

    def test_config_file_problem(self, capsys, tmp_path):
        cfg = tmp_path / "prob.json"
        cfg.write_text(json.dumps({"circle_roots": [{"angle": "pi", "mult": 1}]}))
        code, out, _ = run_cli(capsys, "compute", "--config", str(cfg), "--p", "2",
                               "--n", "1")
        assert code == 0

    def test_weight_file(self, capsys, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps({"kind": "table", "values": [1, 2, 4, 8, 8.5],
                                  "tail": "constant"}))
        code, out, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "2",
                               "--weight-file", str(wf), "--n", "2")
        assert code == 0
        assert json.loads(out)["weight"]["kind"] == "file"

    def test_nonconvergence_exit_code_with_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "partial.json"
        code, _, _ = run_cli(capsys, "compute", "--coeffs", "1,-1", "--p", "3",
                             "--alpha", "1", "--n", "16", "--solver", "convex",
                             "--max-iters", "1", "--tol", "1e-14",
                             "--out", str(out_path))
        assert code == 3
        assert json.loads(out_path.read_text())["converged"] is False


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

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

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
        code, out, _ = run_cli(capsys, "closed-form", "--d", "2", "--n", "3",
                               "--p", "2", "--alpha", "0")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["coefficients"],
                                   [[2 / 3, 0], [0, 0], [1 / 3, 0]], atol=1e-12)
        assert payload["norm_power"] == pytest.approx(1 / 3, rel=1e-12)


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

    def test_partial_csv_on_nonconvergence(self, capsys, tmp_path):
        out_path = tmp_path / "partial.csv"
        code, _, err = run_cli(capsys, "sweep", "--roots", "0:1,pi:1", "--p", "3",
                               "--alpha", "1", "--n", "16..64", "--solver", "convex",
                               "--max-iters", "1", "--tol", "1e-14",
                               "--out", str(out_path))
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


def test_cli_compute_does_not_import_scipy_optimize():
    """A convex compute through the CLI leaves scipy.optimize unloaded.

    Importing it would add about a third to the CLI's cold start and its
    memory; a route that needs it has to import it lazily.
    """
    script = ("import sys\n"
              "from lpopa.cli import main\n"
              "code = main(['compute', '--roots', '0:2,pi:1', '--p', '1.5', '--n', '16'])\n"
              "assert code == 0, code\n"
              "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


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
