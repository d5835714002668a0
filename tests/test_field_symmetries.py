"""Symmetries every field keeps: scaling of the velocities and of time.

Every flow is of second order, its field homogeneous in the velocities:
scaling each velocity slot by c scales the derivative of a position slot by
c and of a velocity slot by c^2.  So a run from (2 v0, h/2) is the run from
(v0, h) with its velocities doubled.  For c = +-2^k scaling commutes with
rounding, so both hold bit for bit.
"""

import numpy as np
import pytest

from helpers import KERNEL_MAKERS, MAKERS
from lrsim.integrators import METHODS, IntegratorConfig, integrate

KINDS = {**MAKERS, **KERNEL_MAKERS}

# the velocity slots of each kind; every other component is a position
VELOCITIES = {
    "lr": ("omega",),
    "lplusr": ("omega",),
    "geodesic-lpr": ("omega",),
    "coupled": ("omega", "W"),
    "coupled-reduced": ("omega",),
    "ncoupled": ("omega", "W1"),
    "support": ("omega",),
    "rubber-support": ("omega",),
    "rubber-chaplygin": ("omega",),
    "cotangent": ("p",),
    "lstar-geodesic": ("v",),
    "gsr": ("omega",),
}


def system_and_state(kind, n, rng):
    """A system, one of its states and the mask of its velocity entries."""
    system, y0 = KINDS[kind](rng, n)
    velocity = np.zeros(system.dim, dtype=bool)
    for name in VELOCITIES[kind]:
        velocity[system.slice_of(name)] = True
    return system, y0, velocity


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_field_scales_with_the_velocities(kind, n, rng):
    system, y0, velocity = system_and_state(kind, n, rng)
    states = integrate(system, y0, IntegratorConfig(h=0.01, steps=2)).states
    field = system.rhs(states)
    for c in (-1.0, 2.0, -0.5):
        scaled = states.copy()
        scaled[:, velocity] *= c
        np.testing.assert_array_equal(system.rhs(scaled), np.where(velocity, c * c, c) * field)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_doubled_velocities_at_half_the_step_give_the_same_run(kind, n, method, rng):
    system, y0, velocity = system_and_state(kind, n, rng)
    fast = y0.copy()
    fast[velocity] *= 2.0
    run = integrate(system, y0, IntegratorConfig(method=method, h=0.01, steps=50))
    fast_run = integrate(system, fast, IntegratorConfig(method=method, h=0.005, steps=50))
    want = run.states.copy()
    want[:, velocity] *= 2.0
    np.testing.assert_array_equal(fast_run.states, want)
