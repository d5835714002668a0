"""Self-tests of the benchmark.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import json
import re
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bytes_of(paths):
    return {p.name: p.read_bytes() for p in paths}


def test_generator_is_deterministic(tmp_path):
    for seed in (0, 1, 7):
        a = gen.scenario_files(ROOT / "scenarios", tmp_path / f"a{seed}", seed)
        b = gen.scenario_files(ROOT / "scenarios", tmp_path / f"b{seed}", seed)
        assert _bytes_of(a) == _bytes_of(b)
        assert gen.ensemble_members(seed, 50) == gen.ensemble_members(seed, 50)
    other = gen.scenario_files(ROOT / "scenarios", tmp_path / "c", 2)
    assert _bytes_of(other) != _bytes_of(gen.scenario_files(ROOT / "scenarios", tmp_path / "d", 1))
    assert gen.ensemble_members(1, 50) != gen.ensemble_members(2, 50)


def test_seed_zero_is_the_shipped_scenarios(tmp_path):
    paths = gen.scenario_files(ROOT / "scenarios", tmp_path, 0)
    shipped = sorted((ROOT / "scenarios").glob("*.yaml"))
    assert [p.name for p in paths] == [p.name for p in shipped]
    assert _bytes_of(paths) == _bytes_of(shipped)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_inputs_validate(tmp_path, seed):
    from lrsim.scenario import build_scenario, load_scenario

    for path in gen.scenario_files(ROOT / "scenarios", tmp_path, seed):
        load_scenario(path)
        # the sparsity of the initial velocities is structure, and is kept
        with open(path) as fh, open(ROOT / "scenarios" / path.name) as orig:
            new, old = yaml.safe_load(fh)["initial"], yaml.safe_load(orig)["initial"]
        for name, spec in old.items():
            if isinstance(spec, dict) and "pairs" in spec:
                assert [p[:2] for p in new[name]["pairs"]] == [p[:2] for p in spec["pairs"]]
    kinds = set()
    for name, data in gen.ensemble_members(seed, 10):
        scenario = build_scenario(data, name=name)
        assert scenario.integrator.method == "lie-rk4"
        assert any(c.kind == "rotation" for c in scenario.system.components)
        kinds.add(scenario.system.kind)
    assert kinds == set(gen.ENSEMBLE_KINDS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _, _ in tracer.layer_metric_specs()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**dict(run.END_TO_END),
                     **{n: u for n, u, _ in tracer.layer_metric_specs()}}
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def _write_csv(path, rows):
    path.write_text("t,x\n" + "".join(f"{a},{b}\n" for a, b in rows))


def test_gate_flags_nan_csv(tmp_path):
    _write_csv(tmp_path / "trajectory.csv", [(0.0, 1.0), (0.001, "nan")])
    (tmp_path / "report.json").write_text('{"a": 1.0}\n')
    assert gate.run_problems(0, tmp_path, 2)
    _write_csv(tmp_path / "trajectory.csv", [(0.0, 1.0), (0.001, 2.0)])
    assert gate.run_problems(0, tmp_path, 2) == []
    (tmp_path / "report.json").write_text('{"a": NaN}\n')
    assert gate.run_problems(0, tmp_path, 2)


def test_gate_flags_nonzero_exit(tmp_path):
    _write_csv(tmp_path / "trajectory.csv", [(0.0, 1.0)])
    (tmp_path / "report.json").write_text("{}\n")
    assert gate.run_problems(4, tmp_path, 1)
    assert gate.verify_problems(1, "PASS  a: 1e-16 (tol 1e-8)\n1/1 checks passed\n")


def test_gate_flags_fail_line():
    ok = "PASS  a: 1.0e-16 (tol 1.0e-08)\nPASS  b: 2.0e-16 (tol 1.0e-08)\n2/2 checks passed\n"
    assert gate.verify_problems(0, ok) == []
    bad = "PASS  a: 1.0e-16 (tol 1.0e-08)\nFAIL  b: nan (tol 1.0e-08)\n1/2 checks passed\n"
    assert gate.verify_problems(0, bad)
    assert gate.verify_problems(0, "no checks applicable to this scenario\n")
    assert gate.member_problems(float("nan"), {})
    assert gate.member_problems(1e-12, {"g_orthogonality": 1e-7})
    assert gate.member_problems(1e-12, {"g_orthogonality": 1e-15}) == []


COUNTS = ("integrators.steps", "integrators.expm.calls", "systems.trace_coefficients.calls",
          "integrators.rhs_per_step", "integrators.expm.per_rotation_step",
          "systems.trace_coefficients.per_state", "systems.trace_polynomial.per_state")


def _traced_counts(tmp_path, tag):
    """Traced counts of ``lrsim run`` on support.yaml and of two ensemble members."""
    cli = run.CliWorkload(0, tmp_path / f"cli-{tag}")
    cli.files = [p for p in cli.files if p.name == "support.yaml"]
    cli.steps = [20]
    cli.ops = [("run", 0)]
    ens = run.EnsembleWorkload(0, tmp_path / f"ens-{tag}")
    ens.members = [(name, dict(data, integrator=dict(data["integrator"], steps=20)))
                   for name, data in ens.members if name in ("lr-n3", "coupled-n4")]
    out = {}
    for label, workload in (("run", cli), ("ensemble", ens)):
        attempted, failed, metrics, _ = run.traced_run(workload, 0, f"selftest-{label}")
        assert failed == 0
        out[label] = {name: metrics[name][0] for name in COUNTS}
        out[label]["rhs"] = sum(v for k, (v, _) in metrics.items()
                                if k.startswith("systems.rhs.") and k.endswith(".calls"))
    return out


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    assert first["run"]["integrators.rhs_per_step"] == 4
    assert first["run"]["systems.trace_coefficients.per_state"] == 12
    assert first["run"]["systems.trace_polynomial.per_state"] == 74
    assert first["ensemble"]["integrators.expm.per_rotation_step"] == 5
    assert first["ensemble"]["systems.trace_coefficients.calls"] == 0
    assert first["run"]["integrators.expm.calls"] == 0
