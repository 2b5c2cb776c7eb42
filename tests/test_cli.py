import csv
import json
import math
import os
import stat
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import homodyne_bell
from homodyne_bell import analytic, bell, cli, optics, scan
from homodyne_bell.analytic import ClosedFormPoint, ch_closed, chsh_closed
from homodyne_bell.cli import MAX_RESTARTS, RunConfig, main, run_verification
from homodyne_bell.fock import CutoffSpec
from homodyne_bell.optics import ExperimentConfig, input_support
from homodyne_bell.scan import FAMILIES

QUICK_CONFIG = {"verify_points": 15, "verify_draws": 8}
# figure angles of either sign, from tiny magnitude to cli.MAX_XI_MINUS_ETA
FIGURE_ANGLES = st.floats(-1e6, 1e6)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return main([str(a) for a in args])


def run_python(args, timeout=None):
    """A fresh interpreter that imports the package under test, whether it
    is installed or found through pytest's pythonpath setting."""
    src = str(Path(homodyne_bell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=timeout)


def count_printed_form_calls(monkeypatch):
    """Calls of analytic.ch_closed and chsh_closed, counted from here on."""
    calls = {"ch_closed": 0, "chsh_closed": 0}
    for name in calls:
        def counted(p, m=math, name=name, original=getattr(analytic, name)):
            calls[name] += 1
            return original(p, m)
        monkeypatch.setattr(analytic, name, counted)
    return calls


# the planted faults' config: at the default seed each fault below fails
# exactly its row's checks
FAULT_CONFIG = {"verify_points": 100, "verify_draws": 4}
CLOSED_FORM_CHECKS = {"joint_oracle_agreement", "station_closed_form_agreement",
                      "closed_form_assembly_identity",
                      "closed_form_expanded_identity"}


def plant(module, name, edit):
    """A patch (module, name, value) that passes module.name's result
    through edit."""
    original = getattr(module, name)
    return module, name, lambda *args: edit(original(*args))


def _phases_swapped(shared, a, b, joint=analytic._joint):
    # phi1 - phi2 -> phi2 - phi1 flips sin(phi1 - phi2), the sign of the
    # joint's cross term, and leaves the locals alone
    half, sin_d, cos_d = shared
    return joint((half, -sin_d, cos_d), a, b)


def _printed_exponent(alpha1_sq, alpha2_sq, *angles,
                      probs_point=analytic.probs_point):
    p_a, p_b, p_ab = probs_point(alpha1_sq, alpha2_sq, *angles)
    return p_a * math.exp(-alpha1_sq), p_b, p_ab


def _corrected_variant(x, alpha_sq, printed=analytic.local_prob_printed_variant):
    return printed(x, alpha_sq) * math.exp(alpha_sq)


CORRECTED = analytic.LOCAL_EXPONENT_CORRECTED
# each row: the patches of one planted fault, the exact set of checks it
# fails, and the local-exponent decision the report then makes
PLANTED_FAULTS = [
    # _joint is every closed-form joint's, probs_point's and ch_chsh_point's
    # alike, on plain floats and on arrays
    pytest.param([(analytic, "_joint", _phases_swapped)], CLOSED_FORM_CHECKS,
                 CORRECTED, id="general-joint-phases-swapped"),
    # the readout keeps p_ab <= min(p_a, p_b) by construction, so the
    # bound fails on the closed forms' doubled joint
    pytest.param([plant(analytic, "_joint", lambda p: 2.0 * p)],
                 CLOSED_FORM_CHECKS | {"joint_within_marginals"}, CORRECTED,
                 id="general-joint-doubled"),
    # oracle marginals off by a constant leave the joints alone, and
    # no-signalling compares marginals shifted alike; the oracle's binding
    # of the readout is optics', where run_network reads its pass out
    pytest.param([plant(optics, "pair_probabilities",
                        lambda p: (p[0] + 1e-6, p[1] + 1e-6, p[2], p[3]))],
                 {"local_oracle_agreement", "local_exponent_adjudication"},
                 CORRECTED, id="oracle-marginals-shifted"),
    # Alice's oracle marginal taken as the exclusive event, Alice favorable
    # and Bob not, follows Bob's setting
    pytest.param([plant(optics, "pair_probabilities",
                        lambda p: (p[0] - p[2], p[1], p[2], p[3]))],
                 {"local_oracle_agreement", "joint_within_marginals",
                  "local_exponent_adjudication", "no_signalling"},
                 CORRECTED, id="oracle-marginal-exclusive"),
    # the two local exponents swapped: the brute force matches the printed
    # variant, and the corrected local misses it
    pytest.param([(analytic, "probs_point", _printed_exponent),
                  (analytic, "local_prob_printed_variant", _corrected_variant)],
                 {"local_oracle_agreement", "joint_within_marginals",
                  "local_exponent_adjudication", "station_closed_form_agreement"},
                 analytic.LOCAL_EXPONENT_PRINTED, id="printed-exponent-wins"),
    # a local off by a relative 1e-6 misses the brute force by more than
    # ORACLE_TOL, and the printed variant by far more: neither exponent wins
    pytest.param([plant(analytic, "probs_point",
                        lambda p: (p[0] * (1.0 + 1e-6), p[1], p[2]))],
                 {"local_oracle_agreement", "local_exponent_adjudication",
                  "station_closed_form_agreement"},
                 CORRECTED, id="neither-exponent-wins"),
    pytest.param([plant(analytic, "ch_chsh_general",
                        lambda r: (r[0], 2.0 + 4.0 * r[0] + 1e-9))],
                 {"closed_form_expanded_identity"}, CORRECTED,
                 id="general-chsh-shifted"),
    # the expanded check reads chsh_closed, not ch_closed
    pytest.param([plant(analytic, "ch_closed", lambda ch: ch + 1e-9)],
                 {"closed_form_assembly_identity"}, CORRECTED,
                 id="printed-ch-shifted"),
    # a station engine with wrong marginals and joints still assembles
    # chsh = 2 + 4 ch exactly; bell's binding of the readout only, so the
    # oracle's stays sound
    pytest.param([plant(bell, "pair_probabilities",
                        lambda p: (0.9 * p[0], 1.1 * p[1], 2.0 * p[2], p[3]))],
                 {"station_closed_form_agreement"}, CORRECTED,
                 id="station-engine-faulty"),
    # a splitter whose columns each lose the same small fraction: every
    # probability is conditional on the truncated space, so only the norm
    # sees it; optics' binding only, so the station engine stays sound
    pytest.param([plant(optics, "mix_station", lambda out: (1.0 - 1e-6) * out)],
                 {"network_unitarity"}, CORRECTED, id="network-lossy"),
    # oscillators built a relative 1e-6 too strong: the readout divides the
    # norm out of every probability, and the input's norm is taken from
    # Poisson sums, not from these amplitudes; optics' binding only
    pytest.param([plant(optics, "coherent_amplitudes",
                        lambda amps: (1.0 + 1e-6) * amps)],
                 {"network_unitarity"}, CORRECTED,
                 id="oscillators-mis-normalized"),
    # a wrong CHSH sign leaves every probability alone
    pytest.param([(bell, "_SIGNS", (1.0, 1.0, -1.0, -1.0))],
                 {"record_ch_chsh_identity"}, CORRECTED, id="chsh-sign-wrong"),
]


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    """The verify report at every default setting."""
    out = tmp_path_factory.mktemp("verify") / "report.json"
    assert run_cli(["verify", "--out", out]) == 0
    return json.loads(out.read_text())


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
        # the fixed ORACLE_TOL is overtight for a 1e-7 tail budget: a
        # truncation error of a few times the bound fails the oracle checks
        cfg = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--cutoff-eps", "1e-7",
                        "--out", out]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("local_oracle_agreement", "station_closed_form_agreement"):
            assert checks[name]["passed"] is False
            assert checks[name]["tolerance"] == cli.ORACLE_TOL
            assert checks[name]["max_residual"] < 10 * cli.ORACLE_TOL

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
        # network_unitarity is the norm lost at the cutoff edge, which grows
        # with the weight a looser tail leaves there
        assert loose_resid["network_unitarity"] > \
            1e3 * tight_resid["network_unitarity"] > 0.0
        assert rc == 1  # the widened residuals exceed the default tolerance

    @pytest.mark.parametrize("patches,failing,decision", PLANTED_FAULTS)
    def test_planted_fault_fails_its_checks(self, monkeypatch, patches, failing,
                                            decision):
        for module, name, value in patches:
            monkeypatch.setattr(module, name, value)
        report = run_verification(RunConfig(**FAULT_CONFIG))
        checks = {c["name"]: c for c in report["checks"]}
        assert {name for name, c in checks.items() if not c["passed"]} == failing
        adjudication = checks["local_exponent_adjudication"]
        assert adjudication["decision"] == report["eq10_exponent_decision"] == decision
        if decision == analytic.LOCAL_EXPONENT_CORRECTED:
            assert adjudication["escalation"] is None
        else:
            assert "printed exponent" in adjudication["escalation"]

    def test_printed_forms_called_once(self, monkeypatch):
        # the 500 draws go to each printed form in one call on numpy
        calls = count_printed_form_calls(monkeypatch)
        checks = cli._printed_form_checks(RunConfig(), np.random.default_rng(0))
        assert [c["points"] for c in checks] == [500, 500]
        assert calls == {"ch_closed": 1, "chsh_closed": 1}

    def test_array_forms_match_point_forms(self, monkeypatch):
        # each printed form evaluated on verify's default-seed draws as
        # arrays agrees with one math call per point to rounding
        seen = {}

        def spy(name, form):
            def wrapper(p, m=math):
                seen[name] = p, form(p, m)
                return seen[name][1]
            monkeypatch.setattr(analytic, name, wrapper)

        spy("ch_closed", ch_closed)
        spy("chsh_closed", chsh_closed)
        run_verification(RunConfig())
        for name, form in (("ch_closed", ch_closed), ("chsh_closed", chsh_closed)):
            fields, values = seen[name]
            assert values.shape == (500,)
            points = zip(*(f.tolist() for f in fields))
            assert max(abs(form(p) - v)
                       for p, v in zip(points, values.tolist())) <= 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(alpha_sq=st.tuples(st.floats(0.0, 22.0), st.floats(0.0, 22.0)),
           phases=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
           cutoff=st.integers(1, 63))
    def test_input_norm_matches_the_support(self, alpha_sq, phases, cutoff):
        # network_unitarity's reference, from Poisson sums alone, is the
        # norm of the input support the network mixes, to rounding
        cfg = ExperimentConfig(*alpha_sq, *phases, CutoffSpec(n_max=cutoff))
        source = input_support(cfg)
        assert abs(cli._input_norm(cfg)
                   - float(np.vdot(source, source).real)) <= 1e-14

    def test_every_check_has_a_planted_fault(self, default_report):
        # a check that no planted fault fails could pass whatever it checks
        planted = set().union(*(row.values[1] for row in PLANTED_FAULTS))
        assert planted == {c["name"] for c in default_report["checks"]}

    def test_default_report_names_tolerances_and_points(self, default_report):
        assert [(c["name"], c["tolerance"], c["points"])
                for c in default_report["checks"]] == [
            ("joint_oracle_agreement", 1e-9, 100),
            ("local_oracle_agreement", 1e-9, 100),
            ("joint_within_marginals", 1e-15, 100),
            ("local_exponent_adjudication", 1e-9, 3),
            ("record_ch_chsh_identity", 1e-12, 12),
            ("station_closed_form_agreement", 1e-9, 12),
            ("closed_form_assembly_identity", 1e-12, 500),
            ("closed_form_expanded_identity", 1e-12, 500),
            ("no_signalling", 1e-10, 50),
            ("network_unitarity", 1e-10, 50)]
        assert default_report["provenance"]["tolerances"] == {
            "oracle": 1e-9, "identity": 1e-12, "no_signalling": 1e-10,
            "unitarity": 1e-10}

    @pytest.mark.parametrize("key", ["identity_tol", "nosignal_tol",
                                     "unitarity_tol"])
    def test_fixed_tolerance_keys_rejected(self, tmp_path, capsys, key):
        # no tolerance is a setting: the identity, no-signalling and
        # unitarity tolerances are fixed, as are the oracle's (ORACLE_TOL)
        # and the search's simplex tolerance (scan.DEFAULT_DIAMETER_TOL);
        # the old tol and diameter_tol keys are refused in TestRunKnobRange
        cfg = write_config(tmp_path, {key: 1.0})
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()

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
        {"phi1": "x"},              # float field
        {"cutoff_eps": True},       # bool is not a number here
        {"verify_points": "x"},     # int field
        {"seed": "x"},
        {"seed": 1.5},              # int field, non-integral float
        {"restarts": False},
        {"cutoff_n": "x"},          # int | None field
        {"cutoff_eps": [1.0]},      # float field, a list
    ])
    def test_wrong_type_rejected(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 2
        assert f"{next(iter(payload))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_and_null_accepted(self):
        cfg = RunConfig(seed=5.0, verify_points=3.0, cutoff_n=None, alpha_sq=1)
        assert (cfg.seed, cfg.verify_points, cfg.alpha_sq) == (5, 3, 1.0)
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


# keys of bounds and budgets that are module constants (cli.ORACLE_TOL,
# cli.MAX_GRID_POINTS, scan.DEFAULT_MAXFEV, scan.DEFAULT_DIAMETER_TOL): a
# config that names one is refused as an unknown key, whatever its value
REMOVED_KEYS = {"tol", "grid_budget", "maxfev", "diameter_tol"}


class TestRunKnobRange:
    @pytest.mark.parametrize("command,payload", [
        (["optimize", "--family", "paper_baseline"], {"maxfev": 0}),
        (["optimize", "--family", "paper_baseline"], {"maxfev": -5}),
        (["optimize", "--family", "paper_baseline"], {"restarts": 0}),
        (["optimize", "--family", "paper_baseline"],
         {"restarts": MAX_RESTARTS + 1}),
        (["figure", "--grid", "4x4"], {"seed": -1}),
        (["figure", "--grid", "4x4"], {"grid_budget": 0}),
        (["figure", "--grid", "4x4"], {"crosscheck_fraction": 2.0}),
        (["figure", "--grid", "4x4"], {"crosscheck_fraction": -0.5}),
        (["figure", "--grid", "4x4"], {"crosscheck_fraction": float("nan")}),
        (["verify"], {"cutoff_n": 0}),
        (["verify"], {"cutoff_n": 100}),
        (["verify"], {"tol": float("nan")}),
        (["figure", "--grid", "4x4"], {"tol": math.inf}),
        (["optimize", "--family", "paper_baseline"], {"diameter_tol": math.inf}),
        (["optimize", "--family", "paper_baseline"], {"diameter_tol": float("nan")}),
        # figure streams its rows, so a range that would fail mid-grid is
        # refused at load; an explicit cutoff_n skips the cutoff policy's
        # own range checks
        (["figure", "--grid", "4x4"], {"figure_alpha_sq_max": -1.0, "cutoff_n": 20}),
        (["figure", "--grid", "4x4"], {"figure_alpha_sq_max": float("nan")}),
        (["figure", "--grid", "4x4"], {"figure_alpha_sq_max": 1e3, "cutoff_n": 20}),
    ], ids=["maxfev-0", "maxfev-neg", "restarts", "restarts-huge", "seed",
            "grid_budget",
            "fraction-high", "fraction-neg", "fraction-nan", "cutoff_n-0",
            "cutoff_n-100", "tol-nan", "figure_tol-inf", "diameter_tol-inf",
            "diameter_tol-nan",
            "alpha_sq_max-neg", "alpha_sq_max-nan", "alpha_sq_max-huge"])
    def test_rejected_at_load(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert run_cli([*command, "--config", cfg, "--out", out]) == 2
        key = next(iter(payload))
        reason = ("unknown config keys" if key in REMOVED_KEYS
                  else f"{key} must be")
        assert reason in capsys.readouterr().err
        assert not out.exists()

    def test_flag_values_checked_too(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["figure", "--grid", "4x4", "--seed", "-1",
                        "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify"], ["figure", "--grid", "4x4"],
        ["optimize", "--family", "paper_baseline"], ["split"],
    ], ids=["verify", "figure", "optimize", "split"])
    def test_infinite_tol_flag_rejected(self, tmp_path, capsys, command):
        # the oracle's tolerance is ORACLE_TOL, so no flag sets it, to inf or
        # to anything else
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli([*command, "--tol", "inf", "--out", out])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol inf" in capsys.readouterr().err
        assert not out.exists()

    def test_restarts_flag_capped(self, tmp_path, capsys):
        # refused at load, before the hypercube of starts is drawn
        out = tmp_path / "out"
        assert run_cli(["optimize", "--family", "paper_baseline",
                        "--restarts", 10 ** 12, "--out", out]) == 2
        assert f"restarts must be <= {MAX_RESTARTS}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,payload,flag", [
        (["split"], {"cutoff_eps": -1}, ["--cutoff-eps", "1e-10"]),
        (["optimize", "--family", "paper_baseline"], {"restarts": 200_000},
         ["--restarts", "2"]),
    ], ids=["split-cutoff_eps", "optimize-restarts"])
    def test_flag_replaces_a_bad_file_value(self, tmp_path, command, payload, flag):
        # the flags are merged into the file's values before either is checked
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.json"
        assert run_cli([*command, "--config", cfg, *flag, "--out", out]) == 0
        report = json.loads(out.read_text())
        used = {"cutoff_eps": report["provenance"]["cutoff_eps"],
                "restarts": report.get("restarts")}
        assert used[next(iter(payload))] == float(flag[1])

    def test_bad_flag_over_a_good_file_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"cutoff_eps": 1e-10})
        out = tmp_path / "out"
        assert run_cli(["split", "--config", cfg, "--cutoff-eps", "-1",
                        "--out", out]) == 2
        assert "cutoff_eps must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_restarts_cap_accepted(self):
        assert RunConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS


class TestCutoffHonoured:
    """An explicit cutoff_n is the cutoff every command runs at."""

    def test_verify_fails_at_a_coarse_cutoff(self, tmp_path):
        cfg = write_config(tmp_path, {"cutoff_n": 3, "verify_points": 5,
                                      "verify_draws": 3})
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 1
        report = json.loads(out.read_text())
        assert report["provenance"]["cutoff_n"] == 3
        resid = {c["name"]: c["max_residual"] for c in report["checks"]}
        assert resid["joint_oracle_agreement"] > 1e-6

    def test_optimize_crosscheck_fails_at_a_coarse_cutoff(self, tmp_path):
        cfg = write_config(tmp_path, {"cutoff_n": 3})
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "paper_baseline",
                        "--config", cfg, "--restarts", "2", "--out", out]) == 1
        payload = json.loads(out.read_text())
        assert payload["numeric_crosscheck"]["passed"] is False
        assert payload["provenance"]["cutoff_n"] == 3

    def test_figure_crosscheck_fails_at_a_coarse_cutoff(self, tmp_path):
        cfg = write_config(tmp_path, {"cutoff_n": 3})
        assert run_cli(["figure", "--config", cfg, "--grid", "4x4",
                        "--out", tmp_path / "g.csv"]) == 1


class TestDriveRange:
    @pytest.mark.parametrize("command", [
        ["verify"], ["figure", "--grid", "4x4"], ["split"],
        ["optimize", "--family", "paper_baseline", "--restarts", "1"]])
    def test_drive_beyond_float_range_rejected(self, tmp_path, capsys, command):
        # the cutoff policy has no float-safe answer above alpha_sq 700
        cfg = write_config(tmp_path, {"alpha_sq": 800})
        out = tmp_path / "out"
        assert run_cli([*command, "--config", cfg, "--out", out]) == 2
        assert "float-safe" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify"], ["figure", "--grid", "4x4"], ["split"],
        ["optimize", "--family", "paper_baseline", "--restarts", "1"]])
    def test_drive_beyond_cutoff_limit_rejected(self, tmp_path, capsys, command):
        # alpha_sq 50 resolves to N=108, above the cutoff policy's N=63
        cfg = write_config(tmp_path, {"alpha_sq": 50})
        out = tmp_path / "out"
        assert run_cli([*command, "--config", cfg, "--out", out]) == 2
        assert "N=108" in capsys.readouterr().err
        assert not out.exists()


class TestTinyTail:
    """A cutoff budget at or below the rounding of 1 resolves, or is refused
    with exit 2, before any work; it never hangs."""

    @pytest.mark.parametrize("command,payload", [
        (["verify"], QUICK_CONFIG), (["split"], {"alpha_sq": 4})],
        ids=["verify", "split"])
    def test_budget_below_double_rounding_resolves(self, tmp_path, command, payload):
        # both resolve at alpha_sq 4: the Poisson(4) tail first drops below
        # 1e-16 beyond 29 photons, plus the photon's slot
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.json"
        result = run_python(["-m", "homodyne_bell.cli", *command, "--config", cfg,
                             "--cutoff-eps", "1e-16", "--out", str(out)], timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["provenance"]["cutoff_n"] == 30

    def test_unresolvable_budget_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["verify", "--cutoff-eps", "1e-300", "--out", out]) == 2
        assert "cutoff_eps must be in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,target,eps", [
        (["verify"], "run_verification", "1e-55"),
        (["optimize", "--family", "paper_baseline"], "maximize_chsh", "1e-45")],
        ids=["verify", "optimize"])
    def test_largest_drive_resolved_before_work(self, tmp_path, capsys, monkeypatch,
                                                command, target, eps):
        # the config's alpha_sq = 1 resolves within the limit, the largest
        # drive the command draws (4 for verify, 6 for optimize) does not
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{target} ran")

        monkeypatch.setattr(cli, target, forbidden)
        out = tmp_path / "out"
        assert run_cli([*command, "--cutoff-eps", eps, "--out", out]) == 2
        assert "exceeds the limit N=63" in capsys.readouterr().err
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

    def test_budget_guard(self, tmp_path, capsys):
        # one point over MAX_GRID_POINTS is refused before the CSV is opened
        assert cli.MAX_GRID_POINTS == 1000 * 1000
        out = tmp_path / "g.csv"
        assert run_cli(["figure", "--grid", "1001x1000", "--out", out]) == 2
        assert ("grid has 1001000 points, exceeding the budget of 1000000"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("angle,degrees", [
        ("1e10", False), ("-1e10", False), ("1e308", False), ("1e308", True)])
    def test_large_angle_refused_before_writing(self, tmp_path, capsys,
                                                angle, degrees):
        # the spot-checks cannot represent such angles: at 1e10 their
        # residual passes ORACLE_TOL from rounding alone, and at 1e308 the
        # numerics overflow; the bound applies to the angle in radians
        out = tmp_path / "g.csv"
        assert run_cli(["figure", "--grid", "4x4", f"--xi-minus-eta={angle}",
                        *["--degrees"] * degrees, "--out", out]) == 2
        assert "|xi_minus_eta| must be <= 1e+06" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("angle,degrees", [
        ("1e6", False), ("-1e6", False), ("5e7", True)])
    def test_largest_angle_accepted(self, tmp_path, angle, degrees):
        # the bound is 1e6 radians, so 5e7 degrees (872665 radians) is in
        assert cli.MAX_XI_MINUS_ETA == 1e6
        out = tmp_path / "g.csv"
        assert run_cli(["figure", "--grid", "4x4", f"--xi-minus-eta={angle}",
                        *["--degrees"] * degrees, "--out", out]) == 0
        assert out.read_text().startswith("alpha_sq,xi_plus_eta,ch,chsh\n")

    def test_range_beyond_cutoff_limit_rejected(self, tmp_path, capsys):
        # alpha_sq 30 needs N=77 for its spot-checks, above the N=63 limit
        cfg = write_config(tmp_path, {"figure_alpha_sq_max": 30})
        out = tmp_path / "g.csv"
        assert run_cli(["figure", "--config", cfg, "--grid", "4x4",
                        "--out", out]) == 2
        assert "exceeds the limit N=63" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload,code", [
        # at N = 1 the numerics miss the closed forms by far more than
        # ORACLE_TOL
        ({"cutoff_n": 1, "crosscheck_fraction": 1.0}, 1),
        # at alpha_sq 700 and N = 1 no spot-check state has weight left
        ({"cutoff_n": 1, "figure_alpha_sq_max": 700,
          "crosscheck_fraction": 1.0}, 2),
    ], ids=["crosscheck-failed", "crosscheck-refused"])
    def test_failed_run_leaves_no_grid(self, tmp_path, payload, code):
        # the rows are written before the spot-checks run: a run that fails
        # or refuses them leaves no grid and no temporary file at --out
        cfg = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert run_cli(["figure", "--config", cfg, "--grid", "2x2",
                        "--out", out_dir / "g.csv"]) == code
        assert list(out_dir.iterdir()) == []
        # and an earlier grid there is left as it was
        (out_dir / "g.csv").write_text("earlier\n")
        assert run_cli(["figure", "--config", cfg, "--grid", "2x2",
                        "--out", out_dir / "g.csv"]) == code
        assert [(p.name, p.read_text()) for p in out_dir.iterdir()] == [
            ("g.csv", "earlier\n")]

    def test_passed_run_leaves_only_the_grid(self, tmp_path):
        out = tmp_path / "g.csv"
        out.write_text("earlier\n")
        assert run_cli(["figure", "--grid", "3x3", "--out", out]) == 0
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text().startswith("alpha_sq,xi_plus_eta,ch,chsh\n")

    @pytest.mark.parametrize("code", [0, 1])
    def test_symlink_target_replaced_not_the_link(self, tmp_path, code):
        cfg = write_config(tmp_path, {} if code == 0 else
                           {"cutoff_n": 1, "crosscheck_fraction": 1.0})
        real = tmp_path / "data" / "g.csv"
        real.parent.mkdir()
        real.write_text("earlier\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert run_cli(["figure", "--config", cfg, "--grid", "2x2",
                        "--out", link]) == code
        assert link.is_symlink() and link.resolve() == real
        assert list(real.parent.iterdir()) == [real]
        text = real.read_text()
        if code == 0:
            assert text.startswith("alpha_sq,xi_plus_eta,ch,chsh\n")
        else:
            assert text == "earlier\n"

    def test_fifo_written_in_place(self, tmp_path):
        # a FIFO cannot be replaced by a file; its reader gets the rows
        fifo = tmp_path / "g.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(["figure", "--grid", "2x2", "--out", fifo]) == 0
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]
        assert text.startswith("alpha_sq,xi_plus_eta,ch,chsh\n")
        assert text.count("\n") == 5

    def test_spot_check_without_weight_in_the_cutoff_refused(self, tmp_path,
                                                            capsys):
        # at alpha_sq 700 and N = 1 every truncated amplitude underflows to
        # 0, so the spot-check's norm is 0: a config error, not a traceback
        cfg = write_config(tmp_path, {"cutoff_n": 1, "figure_alpha_sq_max": 700,
                                      "crosscheck_fraction": 1.0})
        assert run_cli(["figure", "--config", cfg, "--grid", "2x2",
                        "--out", tmp_path / "g.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the truncated norm")
        assert "per-mode cutoff" in err

    @pytest.mark.parametrize("flag,value", [("--dphi", "nan"),
                                            ("--xi-minus-eta", "inf")])
    def test_bad_angle_rejected_before_writing(self, tmp_path, capsys,
                                               flag, value):
        # rows stream into the open CSV, so the angles are checked first
        out = tmp_path / "g.csv"
        assert run_cli(["figure", "--grid", "4x4", flag, value,
                        "--out", out]) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 9), cols=st.integers(1, 13),
           dphi=FIGURE_ANGLES, xi_minus_eta=FIGURE_ANGLES, degrees=st.booleans())
    def test_matches_a_per_point_reference(self, tmp_path, rows, cols, dphi,
                                           xi_minus_eta, degrees):
        # the streamed grid (unchecked cells, one row template, chsh
        # written as 2 + 4 ch) against the plain loop over checked points,
        # ch_closed, chsh_closed and per-cell f-strings, byte for byte
        angle = math.radians if degrees else float
        lines = ["alpha_sq,xi_plus_eta,ch,chsh"]
        for i in range(rows):
            alpha_sq = 2.0 * (i + 1) / rows
            for j in range(cols):
                total = 2.0 * math.pi * j / cols
                p = ClosedFormPoint((total + angle(xi_minus_eta)) / 2.0,
                                    (total - angle(xi_minus_eta)) / 2.0,
                                    angle(dphi), alpha_sq)
                lines.append(f"{alpha_sq:.9g},{total:.9g},"
                             f"{ch_closed(p):.9g},{chsh_closed(p):.9g}")
        out = tmp_path / "g.csv"
        argv = ["figure", "--grid", f"{rows}x{cols}", f"--dphi={dphi!r}",
                f"--xi-minus-eta={xi_minus_eta!r}", "--out", out]
        assert run_cli(argv + ["--degrees"] * degrees) == 0
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rows_refuse_what_the_constructor_refuses(self):
        # cells skip ClosedFormPoint's checks only because every row and
        # column passed them; figure_rows called directly still refuses
        # what cmd_figure and RunConfig would have refused first
        def grid(figure_alpha_sq_max=2.0, dphi=0.5, xi_minus_eta=0.25):
            cfg = types.SimpleNamespace(figure_alpha_sq_max=figure_alpha_sq_max)
            return list(cli.figure_rows(cfg, dphi, xi_minus_eta, 2, 3, []))
        assert [text.count("\n") for text, _ in grid()] == [3, 3]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^dphi must be finite$"):
                grid(dphi=bad)
            with pytest.raises(ValueError, match="^xi must be finite$"):
                grid(xi_minus_eta=bad)
            with pytest.raises(ValueError, match="^alpha_sq must be finite$"):
                grid(figure_alpha_sq_max=bad)
        with pytest.raises(ValueError, match="^alpha_sq must be <= 700$"):
            # the top row reaches the range's end
            grid(figure_alpha_sq_max=701.0)

    def test_one_ch_closed_call_per_point(self, tmp_path, monkeypatch):
        # the benchmark's traced check counts one analytic.ch_closed span per
        # grid point; the spot-checks reuse the grid's values
        calls = count_printed_form_calls(monkeypatch)
        cfg = write_config(tmp_path, {"crosscheck_fraction": 0.1})
        assert run_cli(["figure", "--config", cfg, "--grid", "7x11",
                        "--out", tmp_path / "g.csv"]) == 0
        assert calls == {"ch_closed": 77, "chsh_closed": 0}

    def test_spot_checks_compare_the_written_values(self, tmp_path, capsys,
                                                    monkeypatch):
        printed = analytic.ch_closed
        monkeypatch.setattr(analytic, "ch_closed", lambda p: printed(p) + 1e-6)
        assert run_cli(["figure", "--grid", "6x6",
                        "--out", tmp_path / "g.csv"]) == 1
        assert "figure crosscheck failed" in capsys.readouterr().err


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
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", family,
                        "--restarts", "2", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["path"] == "analytic"
        check = payload["numeric_crosscheck"]
        assert check["points"] == 2
        assert check["max_residual"] <= 1e-12
        assert check["passed"] is True
        assert payload["violation_found"] is False

    def test_crosscheck_beyond_tolerance_fails(self, tmp_path):
        # at a per-mode cutoff of 2 the numerics miss the closed forms by
        # far more than ORACLE_TOL
        cfg = write_config(tmp_path, {"cutoff_n": 2})
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "relaxed_amplitudes",
                        "--config", cfg, "--restarts", "1", "--out", out]) == 1
        check = json.loads(out.read_text())["numeric_crosscheck"]
        assert check["passed"] is False
        assert check["tolerance"] == cli.ORACLE_TOL < check["max_residual"]

    def test_stdout_shows_ch(self, tmp_path, capsys):
        # chsh at 9 digits can read 2 for a value just below the bound
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "relaxed_phases",
                        "--restarts", "1", "--out", out]) == 0
        ch = json.loads(out.read_text())["best"]["ch"]
        assert f"(ch = {ch:.3e}) over 1 restarts" in capsys.readouterr().out

    def test_reports_the_fixed_search_budget(self, tmp_path):
        # the report's budget is scan's, the one every search runs with
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "paper_baseline",
                        "--restarts", "2", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["maxfev_per_restart"] == scan.DEFAULT_MAXFEV == 2000
        assert payload["simplex_diameter_tol"] == scan.DEFAULT_DIAMETER_TOL
        assert payload["evaluations"] <= 2 * scan.DEFAULT_MAXFEV

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
        # alpha_sq 50 resolves to cutoff 108, above fock.MAX_CUTOFF = 63,
        # so the run is refused before any state is built
        cfg = write_config(tmp_path, {"alpha_sq": 50})
        out = tmp_path / "s.json"
        assert run_cli(["split", "--config", cfg, "--out", out]) == 2
        assert "N=108" in capsys.readouterr().err
        assert not out.exists()

    def test_reports_chsh_decomposition(self, tmp_path):
        out = tmp_path / "split.json"
        assert run_cli(["split", "--out", out]) == 0
        payload = json.loads(out.read_text())
        dec = payload["chsh_decomposition"]
        assert dec["interference"] == 0.0
        assert dec["lam_part"] == payload["chsh_lambda_reference_settings"]
        assert dec["psi1_part"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
        c1, lam_coeff = payload["c1"], payload["lam_coeff"]
        assert dec["reassembled"] == pytest.approx(
            c1 ** 2 * dec["psi1_part"] + lam_coeff ** 2 * dec["lam_part"], abs=1e-8)
        assert dec["full"] == pytest.approx(dec["reassembled"], abs=1e-8)
        assert dec["lam_part"] < 2.0

    def test_reports_input_norm_loss(self, tmp_path):
        out = tmp_path / "split.json"
        assert run_cli(["split", "--out", out]) == 0
        check = json.loads(out.read_text())["input_norm_loss"]
        assert check["name"] == "input_norm_loss"
        assert check["passed"] is True
        assert 0.0 < check["max_residual"] <= 1e-12
        assert check["tolerance"] == 1e-9

    def test_coarse_cutoff_fails_its_norm_check(self, tmp_path, capsys):
        # at N = 1 the input keeps only the oscillators' 0- and 1-photon terms
        cfg = write_config(tmp_path, {"cutoff_n": 1})
        out = tmp_path / "split.json"
        assert run_cli(["split", "--config", cfg, "--out", out]) == 1
        check = json.loads(out.read_text())["input_norm_loss"]
        assert check["passed"] is False
        assert check["max_residual"] > 0.4
        assert "split check failed" in capsys.readouterr().err

    def test_reference_dphi_is_the_config_phase_difference(self, tmp_path):
        # the state is built at phi2 - phi1, and the report says so; at the
        # default phases that is REFERENCE_DPHI exactly
        assert RunConfig().phi2 - RunConfig().phi1 == bell.REFERENCE_DPHI
        reports = []
        for i, phases in enumerate(({}, {"phi1": 0.3, "phi2": 1.0})):
            out = tmp_path / f"split{i}.json"
            assert run_cli(["split", "--config", write_config(tmp_path, phases),
                            "--out", out]) == 0
            reports.append(json.loads(out.read_text()))
        default, moved = reports
        # floats are emitted at 9 significant digits
        assert default["reference_settings"]["dphi"] == pytest.approx(
            bell.REFERENCE_DPHI, abs=1e-8)
        assert moved["reference_settings"]["dphi"] == pytest.approx(0.7, abs=1e-8)
        # the phases move the state's CHSH at the reference settings
        assert default["chsh_decomposition"]["full"] == pytest.approx(
            1.18193879, abs=1e-8)
        assert moved["chsh_decomposition"]["full"] == pytest.approx(
            1.11384455, abs=1e-8)

    def test_asymmetric_drive_rejected(self, tmp_path):
        # the config has one drive strength; per-station strengths are not
        # config keys
        cfg = write_config(tmp_path, {"alpha1_sq": 1.0, "alpha2_sq": 2.0})
        assert run_cli(["split", "--config", cfg,
                        "--out", tmp_path / "s.json"]) == 2


class TestProvenance:
    """provenance.cutoff_n is the largest cutoff a command resolves."""

    def test_optimize_reports_the_box_cutoff(self, tmp_path):
        # the paper_baseline box reaches alpha_sq 6: N = 30 + 1
        out = tmp_path / "opt.json"
        assert run_cli(["optimize", "--family", "paper_baseline", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["cutoff_n"] == 31
        assert payload["best"]["params"]["alpha_sq"] == 6.0

    def test_verify_reports_the_draw_cutoff(self, tmp_path):
        # verify draws alpha_sq up to 4: N = 25 + 1
        cfg = write_config(tmp_path, QUICK_CONFIG)
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["provenance"]["cutoff_n"] == 26

    @pytest.mark.parametrize("payload,cutoff", [
        ({}, 15), ({"alpha_sq": 4.0}, 26), ({"cutoff_n": 20}, 20)])
    def test_split_reports_its_own_cutoff(self, tmp_path, payload, cutoff):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "split.json"
        assert run_cli(["split", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["provenance"]["cutoff_n"] == cutoff


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
    def test_no_command_loads_scipy(self, tmp_path):
        # scipy is a test dependency only: the Latin hypercube of starts is
        # drawn in numpy and the Nelder-Mead runs on plain floats, so no
        # command, optimize of every family included, loads any of it
        config = write_config(tmp_path, QUICK_CONFIG)
        script = f"""
import json, sys
import homodyne_bell.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {{"import": [0, loaded()]}}
for name, argv in [
        ("verify", ["verify"]),
        ("figure", ["figure", "--grid", "3x3"]),
        ("split", ["split"]),
        *((f"optimize {{family}}", ["optimize", "--family", family,
                                   "--restarts", "2"])
          for family in {sorted(FAMILIES)!r})]:
    code = cli.main([*argv, "--config", {config!r},
                     "--out", {str(tmp_path / "out")!r}])
    stages[name] = [code, loaded()]
print(json.dumps(stages))
"""
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr
        stages = json.loads(result.stdout.strip().splitlines()[-1])
        assert len(stages) == 4 + len(FAMILIES)
        for name, (code, loaded) in stages.items():
            assert (name, code, loaded) == (name, 0, [])

    @pytest.mark.parametrize("preset", [None, "OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS"])
    def test_one_blas_thread_unless_chosen(self, monkeypatch, preset):
        # the package pins BLAS to one thread before numpy loads, unless the
        # user has set any of the thread counts, which are then left alone
        names = homodyne_bell.BLAS_THREAD_VARS
        for name in names:
            monkeypatch.delenv(name, raising=False)
        if preset:
            monkeypatch.setenv(preset, "2")
        script = ("import json, os, sys\n"
                  "import homodyne_bell.cli\n"
                  "assert 'numpy' in sys.modules\n"
                  f"print(json.dumps([os.environ.get(n) for n in {names!r}]))\n")
        result = run_python(["-c", script])
        assert result.returncode == 0, result.stderr
        seen = dict(zip(names, json.loads(result.stdout)))
        if preset is None:
            assert seen == dict.fromkeys(names, "1")
        else:
            assert seen == {name: "2" if name == preset else None
                            for name in names}

    def test_module_invocation(self, tmp_path):
        result = run_python(["-m", "homodyne_bell.cli", "figure",
                             "--grid", "3x3", "--out", str(tmp_path / "g.csv")])
        assert result.returncode == 0
        assert (tmp_path / "g.csv").exists()
