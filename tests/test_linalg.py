"""The numpy Cholesky kernel, and a library that runs without scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from lrsim.linalg import cho_factor, cho_solve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"


def rand_spd(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(0.5, 3.0, n)) @ q.T


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("rhs_shape", [(), (4,)])
def test_solve_matches_scipy(n, rhs_shape, rng):
    a = rand_spd(n, rng)
    b = rng.normal(size=(n,) + rhs_shape)
    ours = cho_solve(cho_factor(a), b)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_indefinite_matrix_raises():
    a = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(a)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(a)


def test_cli_import_loads_no_scipy():
    # the command line imports no scipy, and neither does a lie-rk4 run,
    # whose exponential is integrators.expm
    code = (
        "import sys, lrsim.cli\n"
        "from lrsim.integrators import integrate\n"
        "from lrsim.scenario import load_scenario\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        f"scenario = load_scenario({str(SCENARIOS / 'support.yaml')!r},"
        " overrides={'method': 'lie-rk4', 'steps': 5})\n"
        "traj = integrate(scenario.system, scenario.initial, scenario.integrator)\n"
        "assert len(traj) == 6\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_library_source_imports_no_scipy():
    for path in sorted((SRC / "lrsim").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (path, node.lineno)
