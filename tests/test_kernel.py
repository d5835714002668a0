"""The lie-rk4 step and the constrained-Euler field against their reference forms.

The references in :mod:`oracles` are the step with an exponential at every
stage, with its slopes read from omega or, in n x n matrices, from
skew(g^T g'), and the field through Cholesky factors of B and of the Gram
matrix.  The step reproduces the omega-slope reference, which shares its
``integrators.expm``, bit for bit, and the matrix one, which takes scipy's
exponential, to roundoff, as the field does its reference, which it solves
with B once against [torque | C] instead.  The shared solve on a stack of
states equals its one-state calls bit for bit.
"""

import numpy as np
import pytest

import oracles
from helpers import (
    KERNEL_MAKERS,
    MAKERS,
    RotatingFrame,
    rand_pi0,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
)
from lrsim import integrators
from lrsim import liecore as lie
from lrsim.systems import LRSystem, MultiplierError, base
from lrsim.systems.lr import constrained_acceleration

ENSEMBLE_KINDS = (
    "lr", "lplusr", "geodesic-lpr", "coupled", "ncoupled", "support", "rubber-support",
    "rubber-chaplygin",
)


def kernel_case(kind, n, seed):
    return KERNEL_MAKERS[kind](np.random.default_rng([seed, n, len(kind)]), n)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_lie_step_matches_reference_bitwise(kind, n):
    # the same slopes from omega, with every stage through exp and a fresh
    # copy of each stage state
    system, y = kernel_case(kind, n, 11)
    for h in (1e-3, 0.05):
        z = y
        for _ in range(3):
            new = integrators.step(system, z, h, method="lie-rk4", project=False)
            np.testing.assert_array_equal(new, oracles.lie_rk4_step_omega(system, z, h))
            z = system.project(new)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_lie_step_matches_reference(kind, n):
    # the slopes skew(g^T g') of the reference equal omega up to the
    # rounding of g^T g, so the step agrees with it to roundoff
    system, y = kernel_case(kind, n, 11)
    for h in (1e-3, 0.05):
        z = y
        for _ in range(3):
            new = integrators.step(system, z, h, method="lie-rk4", project=False)
            np.testing.assert_allclose(new, oracles.lie_rk4_step(system, z, h), rtol=0, atol=1e-14)
            z = system.project(new)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", ["cotangent", "gsr", "lstar-geodesic"])
def test_lie_step_without_a_rotation_is_the_classical_step(kind, n):
    system, y = MAKERS[kind](np.random.default_rng([19, n, len(kind)]), n)
    for project in (False, True):
        for h in (1e-3, 0.05):
            np.testing.assert_array_equal(
                integrators.step(system, y, h, method="lie-rk4", project=project),
                integrators.step(system, y, h, method="rk4-projected", project=project),
            )


def test_lie_step_rejects_a_rotation_outside_the_kernel():
    # the step reads its slopes from omega, which only the kernel's rhs ties to g'
    system = RotatingFrame()
    y = system.pack(g=np.eye(3), omega=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="lie-rk4 needs g' = g omega"):
        integrators.step(system, y, 1e-3, method="lie-rk4")
    cfg = integrators.IntegratorConfig("lie-rk4", 1e-3, 5)
    with pytest.raises(integrators.IntegrationError, match="lie-rk4 needs") as info:
        integrators.integrate(system, y, cfg)
    assert info.value.step_index == 0
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_lie_step_takes_four_exponentials_per_rotation(kind, monkeypatch):
    system, y = kernel_case(kind, 4, 12)
    calls = []
    expm = integrators.expm
    monkeypatch.setattr(integrators, "expm", lambda a: calls.append(a) or expm(a))
    integrators.integrate(system, y, integrators.IntegratorConfig("lie-rk4", 1e-3, 5))
    assert len(calls) == 4 * 5
    assert not any(np.all(a == 0.0) for a in calls)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("kind", ["lr", "support", "ncoupled", "rubber-chaplygin"])
def test_lie_rk4_stays_orthogonal_without_a_polar_factor(kind, n, monkeypatch):
    # g exp(u) is orthogonal to roundoff, so the step never polar-projects;
    # only the unit vectors (the support gammas) are renormalized
    def no_polar(g):
        raise AssertionError("lie-rk4 took a polar factor")

    monkeypatch.setattr(base, "polar_project", no_polar)
    system, y = kernel_case(kind, n, 17)
    traj = integrators.integrate(system, y, integrators.IntegratorConfig("lie-rk4", 1e-3, 10_000))
    units = [c.name for c in system.components if c.kind == "unit"]
    if kind == "support":
        assert units
    for z in traj.states[::250]:
        residuals = system.constraints(z)
        assert residuals["g_orthogonality"] < 1e-12
        for name in units:
            assert residuals[f"{name}_norm"] < 1e-15


def test_only_rk4_projected_takes_polar_factors(monkeypatch):
    calls = []
    polar = base.polar_project
    monkeypatch.setattr(base, "polar_project", lambda g: calls.append(g) or polar(g))
    system, y = kernel_case("support", 4, 18)
    # a rotation off SO(n) by 1e-7: the polar factor removes the defect, the
    # Lie step carries it along
    y = y.copy()
    y[system.slice_of("g")] *= 1.0 + 1e-7
    projected = integrators.step(system, y, 1e-3, method="rk4-projected")
    assert len(calls) == 1
    assert system.constraints(projected)["g_orthogonality"] < 1e-14
    lie_step = integrators.step(system, y, 1e-3, method="lie-rk4")
    assert len(calls) == 1
    assert system.constraints(lie_step)["g_orthogonality"] > 1e-7
    for comp in system.components:
        if comp.kind == "unit":
            assert system.constraints(lie_step)[f"{comp.name}_norm"] < 1e-15


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
        adw = lie.ad_vec(wv)
        got, _ = system.acceleration(y, wv, adw)
        ref = oracles.factored_acceleration(system, y)
        # relative to B^-1 torque: with constraints, omega' is what is left
        # after the reaction cancels most of it
        torque = system.torque(wv, adw, system.pi(y)[0])
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
            z[system.slice_of("g")] = rand_rotation(rng, n).ravel()
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
    y = system.initial_state(rand_rotation(rng, 4), rand_skew(rng, 4))
    # two equal constraint columns make C^T B^-1 C exactly singular
    y[system.slice_of("alpha2")] = y[system.slice_of("alpha1")]
    with pytest.raises(MultiplierError, match="multiplier system is singular"):
        system.rhs(y)


def test_zero_constraint_column_is_a_multiplier_error():
    rng = np.random.default_rng(16)
    basis = lie.orthonormal_basis_of([rand_skew(rng, 4), rand_skew(rng, 4)], n=4)
    system = LRSystem(rand_spd_operator(rng, 4), basis)
    y = system.initial_state(rand_rotation(rng, 4), rand_skew(rng, 4))
    # a zero constraint column makes C^T B^-1 C singular under any rounding
    y[system.slice_of("alpha2")] = 0.0
    with pytest.raises(MultiplierError, match="multiplier system is singular"):
        system.rhs(y)


def _solve_cases(rng, n, lead):
    """(inertia, pi, torque, basis) stacks for the three uses of the shared solve."""
    inertia = rand_spd_operator(rng, n)
    N = inertia.N
    torque = rng.normal(size=lead + (N, 1))
    # Pi = Ad_g^T Pi0 Ad_g at one rotation g per state, as the L+R kinds build it
    rotations = np.array([rand_rotation(rng, n) for _ in range(int(np.prod(lead)))])
    q = lie.adjoint_matrix(rotations.reshape(lead + (n, n)))
    pis = np.swapaxes(q, -1, -2) @ rand_pi0(rng, inertia) @ q
    # two orthonormal columns per state, as the LR alphas or a rotated h0 basis
    bases = np.linalg.qr(rng.normal(size=lead + (N, 2)))[0]
    return {
        "lr": (inertia, None, torque, bases),
        "lplusr": (inertia, pis, torque, None),
        "coupled": (inertia, pis, torque, bases),
    }


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3", "2x3"])
@pytest.mark.parametrize("case", ["lr", "lplusr", "coupled"])
@pytest.mark.parametrize("n", [3, 4])
def test_stacked_solve_equals_row_by_row(n, case, lead):
    rng = np.random.default_rng([17, n, len(lead)])
    inertia, pi, torque, basis = _solve_cases(rng, n, lead)[case]
    got = constrained_acceleration(inertia, pi, torque, basis)
    assert got.shape == lead + (inertia.N,)
    for idx in np.ndindex(*lead):
        row = constrained_acceleration(
            inertia, None if pi is None else pi[idx], torque[idx],
            None if basis is None else basis[idx],
        )
        np.testing.assert_array_equal(got[idx], row)
    if basis is not None:
        # the solution obeys the constraints C^T omega' = 0
        np.testing.assert_allclose(
            np.einsum("...ik,...i->...k", basis, got), 0.0, atol=1e-13 * np.abs(got).max()
        )


@pytest.mark.parametrize("case", ["lr", "lplusr", "coupled"])
def test_singular_system_in_a_stack_is_a_multiplier_error(case):
    inertia, pi, torque, basis = _solve_cases(np.random.default_rng(18), 4, (2, 3))[case]
    if basis is None:
        # B = I + Pi = 0 at one state
        pi = pi.copy()
        pi[1, 2] = -inertia.matrix
        match = "effective inertia is singular"
    else:
        # a zero column makes one Gram matrix C^T B^-1 C exactly singular; equal
        # columns need not, as the products round independently
        basis = basis.copy()
        basis[1, 2, :, 1] = 0.0
        match = "multiplier system is singular"
    with pytest.raises(MultiplierError, match=match):
        constrained_acceleration(inertia, pi, torque, basis)
