"""The numpy Cholesky kernel, and the scipy-free import of the command line."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from lrsim.linalg import cho_factor, cho_solve


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
    code = "import sys, lrsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
