"""The lie-rk4 step and the constrained-Euler field against their reference forms.

The references in :mod:`oracles` are the step with an exponential at every
stage and the field through Cholesky factors of B and of the Gram matrix.
The step must reproduce its reference bit for bit; the field agrees to
roundoff, since it solves B once against [torque | C] instead.
"""

import numpy as np
import pytest

import oracles
from helpers import KERNEL_MAKERS, rand_skew, rand_spd_operator
from lrsim import integrators
from lrsim import liecore as lie
from lrsim.systems import LRSystem, MultiplierError

ENSEMBLE_KINDS = (
    "lr", "lplusr", "geodesic-lpr", "coupled", "ncoupled", "support", "rubber-support",
    "rubber-chaplygin",
)


def kernel_case(kind, n, seed):
    return KERNEL_MAKERS[kind](np.random.default_rng([seed, n, len(kind)]), n)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_lie_step_matches_reference_bitwise(kind, n):
    system, y = kernel_case(kind, n, 11)
    for h in (1e-3, 0.05):
        z = y
        for _ in range(3):
            new = integrators.step(system, z, h, method="lie-rk4", project=False)
            np.testing.assert_array_equal(new, oracles.lie_rk4_step(system, z, h))
            z = system.project(new)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_lie_step_takes_four_exponentials_per_rotation(kind, monkeypatch):
    system, y = kernel_case(kind, 4, 12)
    calls = []
    expm = integrators.expm
    monkeypatch.setattr(integrators, "expm", lambda a: calls.append(a) or expm(a))
    integrators.integrate(system, y, integrators.IntegratorConfig("lie-rk4", 1e-3, 5))
    assert len(calls) == 4 * 5
    assert not any(np.all(a == 0.0) for a in calls)


# rubber-chaplygin overrides the solve with its own n x n one
SOLVE_KINDS = sorted(set(KERNEL_MAKERS) - {"rubber-chaplygin"})


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", SOLVE_KINDS)
def test_acceleration_matches_factored_reference(kind, n):
    rng = np.random.default_rng([13, n])
    system, y0 = kernel_case(kind, n, 13)
    if kind in ("lr", "coupled", "coupled-reduced"):
        # these carry a constraint basis, so the Gram solve is compared too
        assert system.constraint_basis(y0, system.pi(y0)[1]).shape[1] >= 1
    # along a short trajectory, and at a state off the constraint set
    cfg = integrators.IntegratorConfig(h=0.01, steps=5)
    off = y0.copy()
    off[system.slice_of("omega")] += rng.normal(size=system.N)
    for y in list(integrators.integrate(system, y0, cfg).states) + [off]:
        wv = y[system.slice_of("omega")]
        omega = lie.vec_to_skew(wv, n)
        got, _ = system.acceleration(y, wv, omega)
        ref = oracles.factored_acceleration(system, y)
        # relative to B^-1 torque: with constraints, omega' is what is left
        # after the reaction cancels most of it
        torque = system.torque(wv, omega, system.pi(y)[0])
        scale = np.linalg.norm(np.linalg.solve(system.effective_inertia(y), torque))
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", sorted(KERNEL_MAKERS))
def test_effective_inertia_is_spd_at_random_states(kind, n):
    # the invariant that lets the kernel solve B without testing it; each
    # kind's guarantee is listed in the lrsim.systems.lr docstring
    rng = np.random.default_rng([15, n])
    for seed in range(5):
        system, y = kernel_case(kind, n, 100 + seed)
        for _ in range(4):
            z = y.copy()
            z[system.slice_of("g")] = lie.random_rotation(rng, n).ravel()
            for comp in system.components:
                if comp.kind == "unit":
                    v = rng.normal(size=n)
                    z[system.slice_of(comp.name)] = v / np.linalg.norm(v)
            b = system.effective_inertia(z)
            # symmetric up to the roundoff of Ad_g^T Pi0 Ad_g
            assert np.max(np.abs(b - b.T)) <= 1e-14 * np.max(np.abs(b))
            assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] > 0.0


def test_singular_gram_system_is_a_multiplier_error():
    rng = np.random.default_rng(16)
    basis = lie.orthonormal_basis_of([rand_skew(rng, 4), rand_skew(rng, 4)], n=4)
    system = LRSystem(rand_spd_operator(rng, 4), basis)
    y = system.initial_state(lie.random_rotation(rng, 4), rand_skew(rng, 4))
    # two equal constraint columns make C^T B^-1 C exactly singular
    y[system.slice_of("alpha2")] = y[system.slice_of("alpha1")]
    with pytest.raises(MultiplierError, match="multiplier system is singular"):
        system.rhs(y)
