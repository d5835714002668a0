"""State functions over a stack of states, and the two reports built on them.

Every ``System.rhs``, ``System.constraints``, every conserved callable and
the kernel's ``pi`` and ``measure_density`` take one state or a (..., dim)
stack.  A stack must
reproduce every state's values bit for bit, and ``constraint_report`` and
``conservation_report``, which make one call per block of states, the
results of the per-state loops in :mod:`oracles`.
"""

import math

import numpy as np
import pytest

import oracles
from helpers import KERNEL_MAKERS, MAKERS, rand_rotation, rand_skew, rand_spd_operator
from lrsim import diagnostics as diag
from lrsim import liecore as lie
from lrsim.cli import _constraint_checks, _drift_checks
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.systems import LRSystem

STACK_KINDS = sorted(KERNEL_MAKERS) + ["cotangent", "gsr", "lstar-geodesic"]
# gsr carries no constrained component, so it reports no residual
RESIDUAL_KINDS = [kind for kind in STACK_KINDS if kind != "gsr"]


def short_trajectory(kind, n, steps=5):
    maker = KERNEL_MAKERS.get(kind, MAKERS.get(kind))
    system, y0 = maker(np.random.default_rng([23, n, len(kind)]), n)
    return integrate(system, y0, IntegratorConfig(h=0.01, steps=steps))


def off_trajectory_states(kind, n, rng):
    """The states of a short trajectory, and one state off the constraint set
    in every component."""
    traj = short_trajectory(kind, n)
    off = traj.states[-1] + 0.1 * rng.normal(size=traj.system.dim)
    return traj.system, np.vstack([traj.states, off])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_stack_equals_state_by_state(kind, n, rng):
    system, states = off_trajectory_states(kind, n, rng)
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


def assert_stacks_equal_singles(fn, states):
    """``fn`` on (m, dim) and (2, 3, dim) stacks equals its one-state calls bit for bit."""
    singles = [fn(y) for y in states]
    for stack in (states, states[1:].reshape(2, 3, -1)):
        got = fn(stack)
        lead = stack.shape[:-1]
        assert got.shape == lead + np.shape(singles[0])
        want = singles[-math.prod(lead):]
        np.testing.assert_array_equal(got.reshape((-1,) + np.shape(singles[0])), want)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_conserved_stack_equals_state_by_state(kind, n, rng):
    system, states = off_trajectory_states(kind, n, rng)
    for fn in [system.rhs, *system.conserved().values()]:
        assert_stacks_equal_singles(fn, states)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", sorted(KERNEL_MAKERS))
def test_pi_stack_equals_state_by_state(kind, n, rng):
    system, states = off_trajectory_states(kind, n, rng)
    for part in range(2):  # Pi, and the frame the other hooks receive
        if system.pi(states[0])[part] is None:
            assert system.pi(states)[part] is None
        else:
            assert_stacks_equal_singles(lambda y: system.pi(y)[part], states)


def selections(system, y):
    """The default selection, and every conserved entry in reverse order
    followed by every constraint residual."""
    names = list(system.conserved_entries())[::-1]
    return [None, names + [f"constraint:{name}" for name in system.constraints(y)]]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_conservation_report_equals_the_state_by_state_loop(kind, n):
    traj = short_trajectory(kind, n, REPORT_STEPS)
    for quantities in selections(traj.system, traj.states[0]):
        got = diag.conservation_report(traj, quantities)
        assert got == oracles.conservation_report_loop(traj, quantities)
        assert all(type(v) is float for q in got for v in (q.initial, q.max_abs_drift, q.max_rel_drift))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_conservation_report_calls_each_callable_once_per_block(kind, n, monkeypatch):
    traj = short_trajectory(kind, n, REPORT_STEPS)
    system = traj.system
    conserved = system.conserved()
    calls = dict.fromkeys(conserved, 0)

    def counting(key, fn):
        def counted(y):
            calls[key] += 1
            return fn(y)
        return counted

    monkeypatch.setattr(
        system, "conserved", lambda: {key: counting(key, fn) for key, fn in conserved.items()}
    )
    diag.conservation_report(traj)
    assert calls == dict.fromkeys(conserved, math.ceil(len(traj) / diag.REPORT_BLOCK))


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_nan_state_makes_every_drift_nan(kind):
    traj = short_trajectory(kind, 3, REPORT_STEPS)
    # in a later block than the first
    traj.states[diag.REPORT_BLOCK + 2] = np.nan
    drifts = diag.conservation_report(traj)
    assert drifts and all(np.isnan([q.max_abs_drift, q.max_rel_drift]).all() for q in drifts)
    checks = _drift_checks(traj)
    assert checks and not any(check.passed for check in checks)


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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", sorted(KERNEL_MAKERS))
def test_measure_density_stack_equals_state_by_state(kind, n, rng):
    system, states = off_trajectory_states(kind, n, rng)
    assert_stacks_equal_singles(system.measure_density, states)
