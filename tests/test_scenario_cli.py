"""Scenario parsing, validation, CLI exit codes and output formats."""

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import RotatingFrame
from lrsim.cli import CHECKS_BY_KIND, main, verification_checks
from lrsim.integrators import integrate
from lrsim.scenario import (
    SYSTEM_KINDS,
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


_REDUCED_SPHERE_CHECKS = [
    "measure[reduced]", "measure_ratio_spread", "hamiltonization",
    "reparametrization_dual_path", "drift[geodesic_energy]",
]

# per shipped file, in order, the checks verify runs after the shared drift and
# constraint checks: the rows of its kind in cli.CHECKS_BY_KIND. free_top is
# the lr kind without constraints; geodesic_lpr's measure[lplusr] samples the
# L+R chart field, not the geodesic flow it integrates
KIND_CHECKS = {
    "cotangent": _REDUCED_SPHERE_CHECKS,
    "coupled": ["reduction_equivalence", "W_reconstruction"],
    "free_top": [],
    "geodesic_lpr": ["measure[lplusr]"],
    "gsr": [],
    "lplusr_penalty": ["measure[lplusr]", "epsilon_limit[decreasing]", "epsilon_limit[final]"],
    "lstar_geodesic": [],
    "ncoupled_commutator": ["closed_form_field"],
    "rubber_chaplygin3": [*_REDUCED_SPHERE_CHECKS, "contact_last_coordinate"],
    "rubber_chaplygin4": [*_REDUCED_SPHERE_CHECKS, "contact_last_coordinate"],
    "rubber_support": ["independent_integrals"],
    "support": [],
    "veselova": ["measure[lr]", "epsilon_limit[decreasing]", "epsilon_limit[final]"],
}


def after_shared_checks(names):
    """The check names that follow the leading drift and constraint checks."""
    shared = ("drift[", "constraint[")
    return list(itertools.dropwhile(lambda name: name.startswith(shared), names))


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


# finite values whose square overflows: (file, path to the value)
OVERFLOW_CASES = [
    ("cotangent.yaml", ["radius"]),
    ("gsr.yaml", ["radius"]),
    ("rubber_chaplygin3.yaml", ["radius"]),
    ("rubber_chaplygin4.yaml", ["radius"]),
    ("coupled.yaml", ["coupling", "rhos", 0]),
    ("rubber_support.yaml", ["bodies", 0, "rho"]),
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


# operator specs: (scenario, key, bivector-diag values, bivector-dense matrix),
# both forms valid in their scenario
OPERATOR_SPECS = [
    ("free_top", "inertia", [1.0, 2.0, 3.0],
     [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.8]]),
    ("geodesic_lpr", "pi0", [0.4, -0.2, 0.3],
     [[0.4, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.3]]),
]


def _operator_scenario(source, key, kind, entries):
    data = dict(MINIMAL_FREE_TOP) if source == "free_top" else shipped(f"{source}.yaml")
    data[key] = {"kind": kind, "values" if kind == "bivector-diag" else "matrix": entries}
    return data


class TestOperatorSpecs:
    @pytest.mark.parametrize("kind", ["bivector-diag", "bivector-dense"])
    @pytest.mark.parametrize("source, key, values, matrix", OPERATOR_SPECS,
                             ids=[spec[1] for spec in OPERATOR_SPECS])
    def test_valid_spec_builds_its_matrix_exactly(
        self, tmp_path, source, key, values, matrix, kind
    ):
        entries = values if kind == "bivector-diag" else matrix
        scen = write_yaml(tmp_path / "op.yaml", _operator_scenario(source, key, kind, entries))
        assert main(["run", scen, "--out", str(tmp_path / "o"), "--steps", "2"]) == 0
        system = load_scenario(scen).system
        built = system.inertia.matrix if key == "inertia" else system.pi0
        expected = np.diag(values) if kind == "bivector-diag" else np.array(matrix)
        np.testing.assert_array_equal(built, expected)

    @pytest.mark.parametrize("kind, field, entries", [
        ("bivector-diag", "values", [1.0, 2.0]),
        ("bivector-dense", "matrix", [[1.0, 0.0], [0.0, 1.0]]),
    ])
    @pytest.mark.parametrize("source, key", [spec[:2] for spec in OPERATOR_SPECS],
                             ids=[spec[1] for spec in OPERATOR_SPECS])
    def test_wrong_shape_exit_2_names_its_key(
        self, tmp_path, capsys, source, key, kind, field, entries
    ):
        scen = write_yaml(tmp_path / "op.yaml", _operator_scenario(source, key, kind, entries))
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2
        assert f"{key}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, entries", [
        ("bivector-diag", [1.0, -0.2, 2.0]),
        ("bivector-dense", [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    def test_non_definite_inertia_exit_3(self, tmp_path, capsys, kind, entries):
        scen = write_yaml(tmp_path / "op.yaml",
                          _operator_scenario("free_top", "inertia", kind, entries))
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 3
        assert "positive definite" in capsys.readouterr().err


class TestBallParameters:
    @pytest.mark.parametrize("key, value", [("mass", 0), ("radius", -1)])
    @pytest.mark.parametrize("name", ["rubber_chaplygin3", "cotangent", "gsr"])
    def test_nonpositive_mass_or_radius_exit_3(self, tmp_path, capsys, name, key, value):
        data = shipped(f"{name}.yaml")
        data[key] = value
        scen = write_yaml(tmp_path / "ball.yaml", data)
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 3
        assert "mass and radius must be positive" in capsys.readouterr().err


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
        err = capsys.readouterr().err
        assert "non-finite state" in err
        assert err.count("step ") == 1  # only in "(step i)"
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
        assert proc.stderr.count("step ") == 1  # only in "(step i)"
        assert "Traceback" not in proc.stderr
        assert not (out / "trajectory.csv").exists()

    def test_overflowing_lie_exponent_exit_4(self, tmp_path):
        # h = 1e300 makes the first stage's exponent h omega / 2 overflow
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", "run", str(SCENARIO_DIR / "support.yaml"),
             "--method", "lie-rk4", "--h", "1e300", "--steps", "3", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert "non-finite or overflowing exponent" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("name, path", OVERFLOW_CASES, ids=[case[0] for case in OVERFLOW_CASES])
    def test_overflowing_finite_value_exit_3(self, tmp_path, name, path, command):
        # finite, but its square overflows Python's float ** in the constructor
        data = shipped(name)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 1.0e308
        scen = write_yaml(tmp_path / "huge.yaml", data)
        out = tmp_path / "out"
        args = [scen, "--out", str(out)] if command == "run" else [scen]
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", command, *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "scenario validation error" in proc.stderr and "overflows" in proc.stderr
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
        err = capsys.readouterr().err
        assert "step 3" in err
        assert err.count("step ") == 1  # only in "(step i)"
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

    @staticmethod
    def record_reduction_steps(monkeypatch):
        from lrsim import diagnostics

        steps = []
        real = diagnostics.reduction_equivalence

        def record(full, reduced, y0, cfg):
            steps.append(cfg.steps)
            return real(full, reduced, y0, cfg)

        monkeypatch.setattr(diagnostics, "reduction_equivalence", record)
        return steps

    def test_coupled_scenario_includes_equivalence_check(self, monkeypatch, capsys):
        steps = self.record_reduction_steps(monkeypatch)
        assert main(["verify", str(SCENARIO_DIR / "coupled.yaml")]) == 0
        out = capsys.readouterr().out
        assert "reduction_equivalence" in out
        assert "W_reconstruction" in out
        # the shipped h = 1e-3 and steps = 1000: min(steps, 1000)
        assert steps == [1000]

    @pytest.mark.parametrize("h", ["2", "3", "50"])
    def test_reduction_checks_at_large_h_compare_something(self, monkeypatch, capsys, h):
        # round(1 / h) is 0 for h >= 2: with no step the full and reduced runs
        # compared only their initial states and W_reconstruction passed at 0
        steps = self.record_reduction_steps(monkeypatch)
        code = main(["verify", str(SCENARIO_DIR / "coupled.yaml"), "--h", h, "--steps", "2"])
        assert code != 0
        assert steps and steps[0] >= 1
        assert "PASS  W_reconstruction" not in capsys.readouterr().out

    def test_integration_failure_inside_a_study_exit_4(self):
        # the run at h = 5 succeeds; the penalty-limit study's run does not
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", "verify", str(SCENARIO_DIR / "veselova.yaml"),
             "--h", "5", "--steps", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "integration failed: effective inertia is singular" in proc.stderr
        assert "PASS" not in proc.stdout

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
        assert captured.err.count("step ") == 1  # only in "(step i)"
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("nan_from", [0, 2], ids=["every state", "later states"])
    def test_nan_divergence_estimate_fails_its_check(self, nan_from):
        # max(0.0, nan) is 0.0: a worst value kept with Python's max drops NaN
        from lrsim.cli import _divergence_checks

        def field(z):
            # NaN at the stencils of states nan_from, nan_from + 1, ...
            return np.where(z[:, :1] > nan_from - 0.5, np.nan, 0.0) * z

        states = [np.full(3, float(i)) for i in range(4)]
        check = _divergence_checks("measure[x]", field, lambda z: 1.0, states)
        assert np.isnan(check.value)
        assert not check.passed

    @staticmethod
    def assert_every_check_passed(out):
        lines = out.splitlines()
        checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert checks and all(line.startswith("PASS  ") for line in checks)
        assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"

    @pytest.mark.parametrize(
        "scenario", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda path: path.stem
    )
    def test_every_shipped_scenario_passes(self, capsys, scenario):
        steps = shipped(scenario.name).get("integrator", {}).get("steps", 1000) // 8
        assert main(["verify", str(scenario), "--steps", str(steps)]) == 0
        out = capsys.readouterr().out
        self.assert_every_check_passed(out)
        names = [line.split()[1].rstrip(":") for line in out.splitlines()[:-1]
                 if line.startswith("PASS")]
        assert after_shared_checks(names) == KIND_CHECKS[scenario.stem]

    def test_coupled_reduced_gets_only_the_shared_checks(self):
        data = shipped("coupled.yaml")
        data["variant"] = "reduced"
        data["integrator"]["steps"] = 125
        scenario = build_scenario(data)
        assert scenario.system.kind == "coupled-reduced"
        checks = verification_checks(scenario, integrate(
            scenario.system, scenario.initial, scenario.integrator
        ))
        assert checks and all(check.passed for check in checks)
        assert after_shared_checks([check.name for check in checks]) == []

    def test_check_table_has_one_row_per_buildable_kind(self):
        # coupled-reduced is the `variant: reduced` of the coupled kind
        assert sorted(CHECKS_BY_KIND) == sorted([*SYSTEM_KINDS, "coupled-reduced"])

    @pytest.mark.parametrize(
        "scenario", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda path: path.stem
    )
    def test_every_shipped_scenario_passes_under_lie_rk4(self, capsys, scenario):
        assert main(["verify", str(scenario), "--method", "lie-rk4", "--steps", "200"]) == 0
        self.assert_every_check_passed(capsys.readouterr().out)

    def test_lie_step_outside_the_kernel_exit_4(self, tmp_path, monkeypatch, capsys):
        # a rotation whose g' the kernel does not set: lie-rk4 refuses the
        # step rather than take it with a wrong slope
        from lrsim import cli

        system = RotatingFrame()

        def load(path, overrides):
            scenario = load_scenario(path, overrides=overrides)
            return dataclasses.replace(
                scenario, system=system, initial=system.pack(g=np.eye(3), omega=np.ones(3))
            )

        monkeypatch.setattr(cli, "load_scenario", load)
        scen = write_yaml(tmp_path / "top.yaml", MINIMAL_FREE_TOP)
        assert main(["verify", scen, "--method", "lie-rk4"]) == 4
        captured = capsys.readouterr()
        assert "lie-rk4 needs g' = g omega" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("name, h", [("rubber_chaplygin4.yaml", "2"), ("cotangent.yaml", "5")])
    def test_hamiltonization_at_large_h_compares_something(self, name, h):
        # round(tau / h) is 0 for h >= 2: with no step on a grid the checks
        # compared nothing and passed at 0, or interpolated over an empty grid
        proc = subprocess.run(
            [sys.executable, "-m", "lrsim.cli", "verify", str(SCENARIO_DIR / name),
             "--h", h, "--steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        for check in ("hamiltonization", "reparametrization_dual_path", "drift[geodesic_energy]"):
            assert f"FAIL  {check}: " in proc.stdout
            assert f"PASS  {check}: " not in proc.stdout

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
