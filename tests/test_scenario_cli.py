"""Scenario parsing, validation, CLI exit codes and output formats."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from lrsim.cli import main
from lrsim.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    build_scenario,
    load_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_FREE_TOP = {
    "system": "lr",
    "n": 3,
    "inertia": {"kind": "bivector-diag", "values": [1.0, 2.0, 3.0]},
    "constraints": {"generators": []},
    "initial": {"g": "identity", "omega": {"pairs": [[1, 2, 0.3], [1, 3, 1.0]]}},
    "integrator": {"h": 1e-3, "steps": 100},
}


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def shipped(name):
    return yaml.safe_load((SCENARIO_DIR / name).read_text())


def _set_inertia_value(data):
    data["inertia"]["values"][1] = float("nan")


def _set_omega_pair_value(data):
    data["initial"]["omega"]["pairs"][0][2] = float("inf")


def _set_mass(data):
    data["mass"] = float("nan")


def _set_quadric_axis(data):
    data["inertia"]["A"] = [1.2, float("inf"), 1.5]


NON_FINITE_CASES = [
    ("veselova.yaml", _set_inertia_value, "inertia.values[1]"),
    ("veselova.yaml", _set_omega_pair_value, "initial.omega.pairs[0][2]"),
    ("rubber_chaplygin3.yaml", _set_mass, "mass"),
    ("cotangent.yaml", _set_quadric_axis, "inertia.A[1]"),
]


class TestScenarioBuilding:
    def test_minimal_free_top(self):
        scenario = build_scenario(MINIMAL_FREE_TOP)
        assert scenario.system.kind == "lr"
        assert scenario.integrator.steps == 100

    def test_all_shipped_scenarios_build(self):
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            scenario = load_scenario(path)
            assert scenario.system.dim == scenario.initial.size

    def test_unknown_system_is_schema_error(self):
        data = dict(MINIMAL_FREE_TOP, system="quaternionic")
        with pytest.raises(ScenarioParseError, match="unknown system"):
            build_scenario(data)

    def test_missing_key_is_schema_error(self):
        data = {k: v for k, v in MINIMAL_FREE_TOP.items() if k != "initial"}
        with pytest.raises(ScenarioParseError, match="initial"):
            build_scenario(data)

    def test_dimension_mismatch_is_validation_error(self):
        data = dict(MINIMAL_FREE_TOP)
        data["inertia"] = {"kind": "bivector-diag", "values": [1.0, 2.0]}
        with pytest.raises(ScenarioParseError, match="3 entries"):
            build_scenario(data)

    def test_violated_constraint_named(self):
        data = dict(MINIMAL_FREE_TOP)
        data["constraints"] = {"generators": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}
        # omega_12 = 0.3 violates the right-invariant constraint
        with pytest.raises(ScenarioValidationError, match="right_invariant_1"):
            build_scenario(data)

    def test_non_unit_gamma_rejected(self):
        data = {
            "system": "cotangent",
            "n": 3,
            "inertia": {"kind": "identity"},
            "mass": 1.0,
            "radius": 1.0,
            "initial": {"gamma": [0.0, 0.0, 2.0], "p": [0.1, 0.0, 0.0]},
        }
        with pytest.raises(ScenarioValidationError, match="gamma_norm"):
            build_scenario(data)

    def test_non_skew_matrix_rejected(self):
        data = dict(MINIMAL_FREE_TOP)
        data["initial"] = {"g": "identity", "omega": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}
        with pytest.raises(ScenarioValidationError, match="skew"):
            build_scenario(data)

    def test_overrides_take_precedence(self):
        scenario = build_scenario(MINIMAL_FREE_TOP, overrides={"steps": 7, "h": 0.5, "method": None})
        assert scenario.integrator.steps == 7
        assert scenario.integrator.h == 0.5


class TestParseErrors:
    def test_yaml_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("system: [unclosed\n")
        with pytest.raises(ScenarioParseError, match=r"line \d+"):
            load_scenario(path)

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioParseError, match="mapping"):
            load_scenario(path)


class TestCliRun:
    def test_row_count_and_exit_zero(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 101  # header + steps + 1 data rows
        header = rows[0].split(",")
        assert header[0] == "t"
        assert "omega_12" in header and "g_11" in header

    def test_reports_written(self, tmp_path):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out = tmp_path / "out"
        main(["run", scen, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["system"] == "lr"
        assert report["quantities"]["energy"]["max_rel_drift"] < 1e-10
        txt = (out / "report.txt").read_text()
        assert "energy" in txt

    def test_byte_identical_reruns(self, tmp_path):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", scen, "--out", str(out_a)])
        main(["run", scen, "--out", str(out_b)])
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    def test_csv_is_locale_independent_and_round_trips(self, tmp_path):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out = tmp_path / "out"
        main(["run", scen, "--out", str(out)])
        body = (out / "trajectory.csv").read_text()
        assert "," in body and ";" not in body
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert data.shape[0] == 101
        # 17 significant digits round-trip doubles exactly
        assert data["omega_13"][0] == 1.0

    def test_unknown_system_exit_2(self, tmp_path):
        scen = write_yaml(tmp_path / "bad.yaml", dict(MINIMAL_FREE_TOP, system="nope"))
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2

    def test_nonfinite_step_exit_2(self, tmp_path):
        data = dict(MINIMAL_FREE_TOP, integrator={"h": float("nan"), "steps": 10})
        scen = write_yaml(tmp_path / "bad.yaml", data)
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "source, edit, where", NON_FINITE_CASES, ids=[case[2] for case in NON_FINITE_CASES]
    )
    def test_non_finite_scenario_number_exit_2(self, tmp_path, capsys, source, edit, where):
        data = shipped(source)
        edit(data)
        scen = write_yaml(tmp_path / "bad.yaml", data)
        assert main(["run", scen, "--out", str(tmp_path / "o"), "--steps", "5"]) == 2
        assert f"{where} must be a finite number" in capsys.readouterr().err
        with pytest.raises(ScenarioParseError, match="finite"):
            load_scenario(scen)

    def test_run_that_left_its_manifold_exit_1(self, tmp_path, capsys):
        data = shipped("free_top.yaml")
        data["integrator"].update(renormalize_every=0, h=0.5, steps=400)
        scen = write_yaml(tmp_path / "top.yaml", data)
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "constraint[g_orthogonality]" in err and "outside its tolerance" in err
        report = json.loads((out / "report.json").read_text())
        assert report["constraints"]["g_orthogonality"] > 1e-9
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 401

    def test_wrong_typed_support_body_exit_2(self, tmp_path):
        cases = [{
            "system": "support",
            "n": 3,
            "bodies": [5],
            "initial": {"g": "identity", "omega": {"pairs": [[1, 2, 0.3]]}},
        }]
        # wrong-typed numbers in shipped files: (file, path to the value, value)
        for name, path, value in [
            ("rubber_chaplygin3.yaml", ["mass"], "heavy"),
            ("free_top.yaml", ["initial", "omega"], "fast"),
            ("support.yaml", ["bodies", 0, "gamma"], "up"),
            ("free_top.yaml", ["inertia", "values"], "abc"),
            ("free_top.yaml", ["inertia", "values"], [True, 2.0, 3.0]),
            ("free_top.yaml", ["initial", "omega", "pairs", 0], [1, "a", 0.3]),
            ("free_top.yaml", ["integrator", "steps"], 2.5),
            ("free_top.yaml", ["integrator", "steps"], True),
            ("free_top.yaml", ["integrator", "renormalize_every"], True),
        ]:
            data = shipped(name)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            cases.append(data)
        for idx, data in enumerate(cases):
            scen = write_yaml(tmp_path / f"bad{idx}.yaml", data)
            assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2, data
            with pytest.raises(ScenarioParseError, match="wrong-typed"):
                load_scenario(scen)

    def test_diverged_run_exit_4_with_finite_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["run", str(SCENARIO_DIR / "lstar_geodesic.yaml"), "--h", "3",
                         "--out", str(out)])
        assert code == 4
        assert "non-finite state" in capsys.readouterr().err
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", skip_header=1)
        assert data.shape[0] >= 1 and np.isfinite(data).all()

    @pytest.mark.parametrize("name, entry", [
        pytest.param("free_top.yaml", "bogus", id="bogus"),
        pytest.param("free_top.yaml", 5, id="5"),
        pytest.param("free_top.yaml", "constraint:bogus", id="constraint:bogus"),
        pytest.param("support.yaml", "trace9_mu0", id="trace9_mu0"),
    ])
    def test_unknown_diagnostics_entry_exit_2(self, tmp_path, name, entry):
        data = shipped(name)
        data["diagnostics"] = [entry]
        scen = write_yaml(tmp_path / "bad.yaml", data)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", "run", scen, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "scenario error" in proc.stderr and "Traceback" not in proc.stderr
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_unallocatable_step_count_exit_4(self, tmp_path, command):
        # 2**62 steps overflow the array size limit whatever the host's memory
        out = tmp_path / "out"
        args = [str(SCENARIO_DIR / "free_top.yaml"), "--steps", str(2**62)]
        if command == "run":
            args += ["--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", command, *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert f"trajectory of {2**62} steps" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "trajectory.csv").exists()

    def test_known_diagnostics_entries_are_reported(self, tmp_path):
        for name, entries in [
            ("free_top.yaml", ["momentum_norm", "constraint:g_orthogonality"]),
            ("support.yaml", ["energy", "trace3_mu2", "constraint:gamma1_norm"]),
        ]:
            data = shipped(name)
            data["diagnostics"] = entries
            scen = write_yaml(tmp_path / name, data)
            out = tmp_path / f"out-{name}"
            assert main(["run", scen, "--out", str(out), "--steps", "20"]) == 0
            report = json.loads((out / "report.json").read_text())
            assert sorted(report["quantities"]) == sorted(entries)

    def test_invalid_initial_state_exit_3(self, tmp_path):
        data = dict(MINIMAL_FREE_TOP)
        data["constraints"] = {"generators": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}
        scen = write_yaml(tmp_path / "bad.yaml", data)
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 3

    def test_pi0_indefinite_at_some_rotation_exit_3(self, tmp_path, capsys):
        # I + Pi0 is positive definite at g = identity, but not for every g
        data = shipped("geodesic_lpr.yaml")
        data["inertia"]["values"] = [1.0, 2.0, 3.0]
        data["pi0"]["values"] = [0.0, 0.0, -2.5]
        scen = write_yaml(tmp_path / "indefinite.yaml", data)
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 3
        assert "every rotation" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_integration_failure_exit_4_with_partial_csv(self, tmp_path, monkeypatch, capsys):
        from lrsim import cli
        from lrsim.integrators import IntegrationError, Trajectory

        def exploding(system, y0, cfg, hook=None):
            partial = Trajectory(system, np.array([0.0]), y0[None, :].copy())
            raise IntegrationError("stage blew up", partial, 3)

        monkeypatch.setattr(cli, "integrate", exploding)
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out = tmp_path / "out"
        assert main(["run", scen, "--out", str(out)]) == 4
        assert "step 3" in capsys.readouterr().err
        assert (out / "trajectory.csv").exists()

    def test_rolling_demo_scenario_energy_drift(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(SCENARIO_DIR / "rubber_chaplygin3.yaml"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["quantities"]["energy"]["max_rel_drift"] < 1e-8

    def test_step_overrides(self, tmp_path):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        out = tmp_path / "out"
        main(["run", scen, "--out", str(out), "--steps", "10", "--method", "lie-rk4"])
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 11


class TestCliVerify:
    def test_free_top_passes(self, tmp_path, capsys):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        assert main(["verify", scen]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_coupled_scenario_includes_equivalence_check(self, capsys):
        assert main(["verify", str(SCENARIO_DIR / "coupled.yaml")]) == 0
        out = capsys.readouterr().out
        assert "reduction_equivalence" in out
        assert "W_reconstruction" in out

    def test_penalty_scenario_prints_decreasing_table(self, capsys):
        assert main(["verify", str(SCENARIO_DIR / "lplusr_penalty.yaml")]) == 0
        out = capsys.readouterr().out
        assert "penalty-limit error table" in out
        assert "epsilon_limit[decreasing]" in out

    def test_diverged_run_fails_its_constraint_checks(self, capsys):
        # the first non-finite state stops the integration, so no check runs
        scen = str(SCENARIO_DIR / "lstar_geodesic.yaml")
        with np.errstate(all="ignore"):
            assert main(["verify", scen, "--h", "3"]) == 4
        captured = capsys.readouterr()
        assert "non-finite state" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize(
        "scenario", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda path: path.stem
    )
    def test_every_shipped_scenario_passes(self, capsys, scenario):
        steps = shipped(scenario.name).get("integrator", {}).get("steps", 1000) // 8
        assert main(["verify", str(scenario), "--steps", str(steps)]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert checks and all(line.startswith("PASS  ") for line in checks)
        assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"

    def test_hamiltonization_verify_loads_no_scipy(self):
        code = (
            "import sys\n"
            "from lrsim.cli import main\n"
            f"code = main(['verify', {str(SCENARIO_DIR / 'rubber_chaplygin3.yaml')!r},"
            " '--steps', '250'])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print('scipy modules:', loaded)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "PASS  reparametrization_dual_path" in proc.stdout
        assert "scipy modules: []" in proc.stdout

    def test_entry_point_runs_as_subprocess(self, tmp_path):
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", "verify", scen],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout
