"""Constraint residuals over a stack of states, and the worst-residual report.

``System.constraints`` takes one state or a (..., dim) stack.  A stack must
reproduce every state's residuals bit for bit, and ``constraint_report``,
which makes one call per block of states, the dict of the per-state loop in
:mod:`oracles`.
"""

import numpy as np
import pytest

import oracles
from helpers import KERNEL_MAKERS, MAKERS, rand_rotation, rand_skew, rand_spd_operator
from lrsim import diagnostics as diag
from lrsim import liecore as lie
from lrsim.cli import _constraint_checks
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.systems import LRSystem

STACK_KINDS = sorted(KERNEL_MAKERS) + ["cotangent", "gsr", "lstar-geodesic"]
# gsr carries no constrained component, so it reports no residual
RESIDUAL_KINDS = [kind for kind in STACK_KINDS if kind != "gsr"]


def short_trajectory(kind, n, steps=5):
    maker = KERNEL_MAKERS.get(kind, MAKERS.get(kind))
    system, y0 = maker(np.random.default_rng([23, n, len(kind)]), n)
    return integrate(system, y0, IntegratorConfig(h=0.01, steps=steps))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_equals_state_by_state(kind, n, rng):
    traj = short_trajectory(kind, n)
    system = traj.system
    # the trajectory, and one state off the constraint set in every component
    off = traj.states[-1] + 0.1 * rng.normal(size=system.dim)
    states = np.vstack([traj.states, off])
    singles = [system.constraints(y) for y in states]
    assert min(singles[-1].values(), default=1.0) > 1e-6
    for stack in (states, states[1:].reshape(2, 3, system.dim)):
        got = system.constraints(stack)
        assert list(got) == list(singles[0])
        for name, resid in got.items():
            assert resid.shape == stack.shape[:-1]
            np.testing.assert_array_equal(
                resid.reshape(-1), [one[name] for one in singles[-resid.size:]]
            )


# 2.5 blocks of states: the report makes one constraints call per block
REPORT_STEPS = 5 * diag.REPORT_BLOCK // 2


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_report_equals_the_state_by_state_loop(kind):
    traj = short_trajectory(kind, 4, REPORT_STEPS)
    got = diag.constraint_report(traj)
    want = oracles.constraint_report_loop(traj)
    assert list(got) == list(want)
    assert got == want
    assert all(type(v) is float for v in got.values())


@pytest.mark.parametrize("kind", RESIDUAL_KINDS)
def test_nan_state_makes_every_worst_residual_nan(kind):
    traj = short_trajectory(kind, 3, REPORT_STEPS)
    # in a later block than the first
    traj.states[diag.REPORT_BLOCK + 2] = np.nan
    worst = diag.constraint_report(traj)
    assert worst and all(np.isnan(v) for v in worst.values())
    assert not any(check.passed for check in _constraint_checks(worst))


def test_alpha_orthonormality_reads_norms_and_angles(rng):
    # the worst Gram deviation covers the diagonal (norms) and the pairs
    basis = lie.orthonormal_basis_of([rand_skew(rng, 4), rand_skew(rng, 4)], n=4)
    system = LRSystem(rand_spd_operator(rng, 4), basis)
    y = system.initial_state(rand_rotation(rng, 4), rand_skew(rng, 4))
    a1, a2 = system.slice_of("alpha1"), system.slice_of("alpha2")
    longer = y.copy()
    longer[a1] *= 1.1
    tilted = y.copy()
    tilted[a2] += 0.1 * y[a1]
    worst = system.constraints(np.stack([y, longer, tilted]))["alpha_orthonormality"]
    np.testing.assert_allclose(worst, [0.0, 0.21, 0.1], atol=1e-12)
