import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homodyne_bell
from homodyne_bell.analytic import ClosedFormPoint, ch_closed
from homodyne_bell.cli import RunConfig, main

QUICK_CONFIG = {"verify_points": 15, "verify_draws": 8}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def run_python(args):
    """A fresh interpreter that imports the package under test, whether it
    is installed or found through pytest's pythonpath setting."""
    src = str(Path(homodyne_bell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestVerify:
    def test_default_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["eq10_exponent_decision"] == "e^{-alpha^2}"
        assert all(c["passed"] for c in report["checks"])
        assert report["phase_difference_convention"] == "phi2 - phi1"
        assert report["provenance"]["eq10_exponent_decision"] == "e^{-alpha^2}"

    def test_overtight_tolerance_fails(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--tol", "1e-15",
                        "--out", out]) == 1
        report = json.loads(out.read_text())
        assert not all(c["passed"] for c in report["checks"])

    def test_loose_cutoff_widens_residuals(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_CONFIG)
        tight = tmp_path / "tight.json"
        loose = tmp_path / "loose.json"
        assert run_cli(["verify", "--config", cfg, "--out", tight]) == 0
        rc = run_cli(["verify", "--config", cfg, "--cutoff-eps", "1e-4",
                      "--out", loose])
        tight_resid = {c["name"]: c["max_residual"]
                       for c in json.loads(tight.read_text())["checks"]}
        loose_resid = {c["name"]: c["max_residual"]
                       for c in json.loads(loose.read_text())["checks"]}
        assert loose_resid["joint_oracle_agreement"] > \
            1e3 * tight_resid["joint_oracle_agreement"]
        assert rc == 1  # the widened residuals exceed the default tolerance

    def test_bad_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"no_such_key": 1})
        assert run_cli(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize("key", ["verify_points", "verify_draws"])
    def test_empty_sample_rejected(self, tmp_path, key):
        # with no points every oracle would pass vacuously
        cfg = write_config(tmp_path, {key: 0})
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"tol": "x"},               # float field
        {"tol": True},              # bool is not a number here
        {"verify_points": "x"},     # int field
        {"seed": "x"},
        {"seed": 1.5},              # int field, non-integral float
        {"restarts": False},
        {"cutoff_n": "x"},          # int | None field
        {"alpha1_sq": [1.0]},       # float | None field
    ])
    def test_wrong_type_rejected(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 2
        assert f"{next(iter(payload))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_and_null_accepted(self):
        cfg = RunConfig(seed=5.0, verify_points=3.0, cutoff_n=None,
                        alpha1_sq=None, tol=1)
        assert (cfg.seed, cfg.verify_points) == (5, 3)
        assert isinstance(cfg.seed, int)

    def test_degrees_flag_rejected(self):
        # only figure takes angle flags
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--degrees"])
        assert err.value.code == 2

    def test_non_finite_drive_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"alpha_sq": NaN}')
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", path, "--out", out]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestFigure:
    def test_header_rows_and_window(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli(["figure", "--grid", "20x20", "--out", out]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "alpha_sq,xi_plus_eta,ch,chsh"
        assert len(lines) == 1 + 400
        assert "\r" not in text
        for row in csv.DictReader(lines):
            ch = float(row["ch"])
            chsh = float(row["chsh"])
            assert -1.0 < ch < 0.0
            assert chsh == pytest.approx(2.0 + 4.0 * ch, abs=1e-8)
            assert chsh < 2.0

    def test_reference_row_value(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli(["figure", "--grid", "20x20", "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        # coordinates are written at 9 significant digits, so pi is matched
        # as written (3.14159265, 3.6e-9 below pi), not at full precision
        match = [r for r in rows
                 if abs(float(r["alpha_sq"]) - 1.0) < 1e-12
                 and float(r["xi_plus_eta"]) == float(f"{math.pi:.9g}")]
        assert len(match) == 1
        assert float(match[0]["ch"]) == pytest.approx(-0.204515303, abs=1e-9)

    def test_rows_reproducible_from_emitted_parameters(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli(["figure", "--grid", "12x12", "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows[:: 17]:
            total = float(row["xi_plus_eta"])
            point = ClosedFormPoint((total + 3 * math.pi / 4) / 2,
                                    (total - 3 * math.pi / 4) / 2,
                                    math.pi / 2, float(row["alpha_sq"]))
            assert ch_closed(point) == pytest.approx(float(row["ch"]), abs=1e-8)

    def test_degrees_flag(self, tmp_path):
        rad = tmp_path / "rad.csv"
        deg = tmp_path / "deg.csv"
        assert run_cli(["figure", "--grid", "6x6", "--dphi", math.pi / 2,
                        "--xi-minus-eta", 3 * math.pi / 4, "--out", rad]) == 0
        assert run_cli(["figure", "--grid", "6x6", "--dphi", 90.0,
                        "--xi-minus-eta", 135.0, "--degrees", "--out", deg]) == 0
        assert rad.read_text() == deg.read_text()

    def test_unwritable_path(self, tmp_path):
        assert run_cli(["figure", "--grid", "4x4",
                        "--out", tmp_path / "missing" / "grid.csv"]) == 2

    def test_budget_guard(self, tmp_path):
        cfg = write_config(tmp_path, {"grid_budget": 100})
        assert run_cli(["figure", "--config", cfg, "--grid", "50x50",
                        "--out", tmp_path / "g.csv"]) == 2


class TestOptimize:
    def test_baseline_reports_no_violation(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "paper_baseline",
                        "--restarts", "6", "--seed", "9", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["violation_found"] is False
        assert payload["best"]["chsh"] < 2.0
        assert payload["restarts"] == 6
        assert len(payload["trace"]) == 6
        assert payload["search_box"]["alpha_sq"] == [1e-6, 6.0]

    @pytest.mark.parametrize("family", ["paper_baseline", "relaxed_phases",
                                        "relaxed_amplitudes"])
    def test_reports_numeric_crosscheck(self, tmp_path, family):
        cfg = write_config(tmp_path, {"maxfev": 60})
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", family, "--config", cfg,
                        "--restarts", "2", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["path"] == "analytic"
        check = payload["numeric_crosscheck"]
        assert check["points"] == 2
        assert check["max_residual"] <= 1e-12
        assert check["passed"] is True
        assert payload["violation_found"] is False

    def test_crosscheck_beyond_tolerance_fails(self, tmp_path):
        cfg = write_config(tmp_path, {"maxfev": 60, "tol": 1e-30})
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "relaxed_amplitudes",
                        "--config", cfg, "--restarts", "1", "--out", out]) == 1
        assert json.loads(out.read_text())["numeric_crosscheck"]["passed"] is False

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["optimize", "--family", "everything_free"])
        assert err.value.code == 2


class TestSplit:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "split.json"
        assert run_cli(["split", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["c1"] == pytest.approx(0.367879441, abs=1e-9)
        assert payload["psi1_tsirelson"] == pytest.approx(2.82842712, abs=1e-8)
        assert payload["chsh_lambda_reference_settings"] < 2.0
        assert len(payload["cross_terms"]) == 10
        by_occ = {tuple(t["occupation"]): t for t in payload["cross_terms"]}
        term = by_occ[(1, 0, 1, 1)]
        assert term["magnitude"] == pytest.approx(0.279747782, abs=1e-9)
        assert term["alice_minus_one_reachable"] is True
        assert term["bob_minus_one_reachable"] is False

    def test_oversized_dense_state_rejected(self, tmp_path, capsys):
        # alpha_sq 50 resolves to cutoff 108: a 2.1 GiB 4-mode state, which
        # is refused before anything of that size is allocated
        cfg = write_config(tmp_path, {"alpha_sq": 50})
        out = tmp_path / "s.json"
        assert run_cli(["split", "--config", cfg, "--out", out]) == 2
        assert "N=108" in capsys.readouterr().err
        assert not out.exists()

    def test_asymmetric_drive_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"alpha1_sq": 1.0, "alpha2_sq": 2.0})
        assert run_cli(["split", "--config", cfg,
                        "--out", tmp_path / "s.json"]) == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUICK_CONFIG)
        outputs = []
        for tag in ("one", "two"):
            paths = {
                "verify": tmp_path / f"verify_{tag}.json",
                "figure": tmp_path / f"figure_{tag}.csv",
                "optimize": tmp_path / f"opt_{tag}.json",
                "split": tmp_path / f"split_{tag}.json",
            }
            assert run_cli(["verify", "--config", cfg, "--seed", "5",
                            "--out", paths["verify"]]) == 0
            assert run_cli(["figure", "--grid", "8x8", "--seed", "5",
                            "--out", paths["figure"]]) == 0
            assert run_cli(["optimize", "--family", "paper_baseline",
                            "--restarts", "1", "--seed", "5",
                            "--out", paths["optimize"]]) == 0
            assert run_cli(["split", "--seed", "5",
                            "--out", paths["split"]]) == 0
            outputs.append({k: p.read_bytes() for k, p in paths.items()})
        assert outputs[0] == outputs[1]


class TestEntryPoint:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is imported lazily by the optimizer; it is about half
        # of the cli's import time
        result = run_python(["-c", "import sys, homodyne_bell.cli; "
                                   "print('scipy.stats' in sys.modules)"])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_module_invocation(self, tmp_path):
        result = run_python(["-m", "homodyne_bell.cli", "figure",
                             "--grid", "3x3", "--out", str(tmp_path / "g.csv")])
        assert result.returncode == 0
        assert (tmp_path / "g.csv").exists()
