"""Golden-state regression: every shipped scenario's state after a short run.

``data/golden_states.json`` holds, for each ``scenarios/*.yaml``, the state
after ``min(steps, GOLDEN_STEPS)`` steps with the file's own step size and
method.  A refactor that changes no physics must reproduce it to 1e-12.

Regenerate (only when a change is meant to move the trajectories) with

    PYTHONPATH=src python tests/test_golden_states.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lrsim.integrators import integrate
from lrsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_states.json"
GOLDEN_STEPS = 64
TOL = 1e-12


def short_run(path):
    """State after min(steps, GOLDEN_STEPS) steps of the scenario at ``path``."""
    sc = load_scenario(path)
    cfg = replace(sc.integrator, steps=min(sc.integrator.steps, GOLDEN_STEPS))
    return integrate(sc.system, sc.initial, cfg).states[-1]


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_scenario_has_a_golden_state():
    assert sorted(_golden()) == [p.name for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_short_run_matches_golden_state(path):
    expected = np.array(_golden()[path.name])
    got = short_run(path)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= TOL


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    states = {p.name: short_run(p).tolist() for p in SCENARIOS}
    GOLDEN_PATH.write_text(json.dumps(states, indent=1) + "\n")
