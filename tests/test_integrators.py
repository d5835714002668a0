"""Fixed-step integration: order, projection, determinism, reparametrization."""

import numpy as np
import pytest

import oracles
from helpers import (
    KERNEL_MAKERS,
    MAKERS,
    iso3,
    iso3_inv,
    make_cotangent,
    make_lplusr,
    rand_rotation,
    rand_skew,
    special_from_vector_inertia,
    special_inertia,
)
from lrsim import liecore as lie
from lrsim.integrators import (
    METHODS,
    THETA,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    expm,
    hermite_interpolate,
    integrate,
    reparametrize_trajectory,
    step,
)
from lrsim.operators import InertiaOperator
from lrsim.systems import LRSystem, polar_project
from lrsim.systems.base import ROTATION, VECTOR, Component, System, normalize_units

STACK_MAKERS = {**MAKERS, **KERNEL_MAKERS}


def free_top_system(inertia3=(1.0, 2.0, 3.0), c=0.4):
    op = special_from_vector_inertia(np.array(inertia3), c)
    basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
    return LRSystem(op, basis)


class TestStep:
    def test_frozen_body_velocity_is_exact_for_lie_step(self, rng):
        # isotropic inertia: omega stays constant, so one Lie step must
        # land exactly on g exp(h omega)
        basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
        system = LRSystem(InertiaOperator.identity(3), basis)
        g0 = rand_rotation(rng, 3)
        omega = rand_skew(rng, 3)
        y0 = system.pack(g=g0, omega=omega)
        h = 0.25
        y1 = step(system, y0, h, method="lie-rk4")
        expected = g0 @ oracles.rodrigues(iso3_inv(omega) * h)
        np.testing.assert_allclose(
            y1[system.slice_of("g")].reshape(3, 3), expected, atol=1e-12
        )

    def test_zero_step_is_identity(self, rng):
        system, y0 = make_lplusr(rng, 3)
        for method in ("rk4-projected", "lie-rk4"):
            y1 = step(system, y0, 0.0, method=method)
            np.testing.assert_allclose(y1, y0, atol=1e-13)

    def test_methods_agree_to_fourth_order(self):
        system = free_top_system()
        y0 = system.pack(g=np.eye(3), omega=iso3(np.array([0.3, 1.0, -0.2])))
        h = 1e-2
        cfg_a = IntegratorConfig(method="rk4-projected", h=h, steps=100)
        cfg_b = IntegratorConfig(method="lie-rk4", h=h, steps=100)
        dev = np.max(
            np.abs(integrate(system, y0, cfg_a).states - integrate(system, y0, cfg_b).states)
        )
        assert dev < 10 * h**4

    def test_unknown_method_rejected(self, rng):
        system, y0 = make_lplusr(rng, 3)
        with pytest.raises(ValueError):
            step(system, y0, 1e-3, method="euler")


class TestExpm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("max_norm, tol", [(0.1, 2e-15), (10.0, 1e-13)])
    def test_matches_scipy_and_stays_orthogonal(self, n, max_norm, tol, rng):
        # below 0.05 no squaring, up to 10 eight squarings; random skew
        # exponents with Frobenius norms spread over [0, max_norm]
        from scipy.linalg import expm as scipy_expm

        for _ in range(40):
            u = rand_skew(rng, n)
            u *= max_norm * rng.uniform() / np.linalg.norm(u)
            e = expm(u)
            assert np.max(np.abs(e - scipy_expm(u))) <= tol
            assert np.max(np.abs(e.T @ e - np.eye(n))) <= tol

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_diagonal_exponent_at_the_threshold_matches_np_exp(self, n, rng):
        # a diagonal X has ||X||_2 = ||X||_F, which a skew one never has, so
        # its Taylor remainder reaches THETA^9 / 9! < 1 ulp; one degree less
        # would leave THETA^8 / 8! ~ 4 ulps
        for _ in range(40):
            t = rng.uniform(-1.0, 1.0, n)
            t *= THETA * rng.uniform(0.9, 1.0) / np.linalg.norm(t)
            err = np.max(np.abs(expm(np.diag(t)) - np.diag(np.exp(t))))
            assert err <= 3 * np.spacing(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exp_of_zero_is_the_identity(self, n):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))

    @pytest.mark.parametrize("entry", [np.inf, np.nan, 1e200])
    def test_non_finite_or_overflowing_exponent_raises(self, entry):
        # the Frobenius norm of 1e200 entries overflows to inf
        u = np.zeros((3, 3))
        u[0, 1], u[1, 0] = entry, -entry
        with pytest.raises(FloatingPointError, match="non-finite or overflowing exponent"):
            expm(u)


class TestOrder:
    @pytest.mark.parametrize("method", ["rk4-projected", "lie-rk4"])
    def test_self_convergence_ratio_near_sixteen(self, method):
        system = free_top_system()
        y0 = system.pack(g=np.eye(3), omega=iso3(np.array([0.4, 1.1, -0.3])))
        t_end = 1.0
        ref = integrate(
            system, y0, IntegratorConfig(method=method, h=t_end / 6400, steps=6400)
        ).states[-1]
        errs = []
        for steps in (50, 100):
            out = integrate(
                system, y0, IntegratorConfig(method=method, h=t_end / steps, steps=steps)
            ).states[-1]
            errs.append(np.max(np.abs(out - ref)))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0


class TestProjection:
    def test_polar_projection_idempotent(self, rng):
        g = rand_rotation(rng, 4)
        np.testing.assert_allclose(polar_project(g), g, atol=1e-14)

    def test_projection_restores_orthogonality(self, rng):
        g = rand_rotation(rng, 4) + 1e-6 * rng.normal(size=(4, 4))
        p = polar_project(g)
        np.testing.assert_allclose(p.T @ p, np.eye(4), atol=1e-12)
        assert np.linalg.det(p) == pytest.approx(1.0, abs=1e-12)

    def test_long_run_orthogonality_drift(self, rng):
        system, y0 = make_lplusr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        worst = max(system.constraints(y)["g_orthogonality"] for y in traj.states)
        assert worst < 1e-9


class TestIntegrate:
    def test_zero_steps_single_state(self, rng):
        system, y0 = make_lplusr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=0))
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.states[0], y0)

    def test_free_top_momentum_drift(self):
        system = free_top_system()
        y0 = system.pack(g=np.eye(3), omega=iso3(np.array([0.2, 0.9, -0.4])))
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        fn = system.conserved()["momentum_norm"]
        vals = np.array([fn(y) for y in traj.states])
        assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) < 1e-9

    def test_times_strictly_increasing(self, rng):
        system, y0 = make_lplusr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=50))
        assert np.all(np.diff(traj.times) > 0)

    def test_determinism_bitwise(self, rng):
        system, y0 = make_lplusr(rng, 4)
        for method in ("rk4-projected", "lie-rk4"):
            cfg = IntegratorConfig(method, h=1e-3, steps=200)
            a = integrate(system, y0, cfg)
            b = integrate(system, y0, cfg)
            np.testing.assert_array_equal(a.states, b.states)

    def test_hook_sees_every_step(self, rng):
        system, y0 = make_lplusr(rng, 3)
        seen = []
        integrate(system, y0, IntegratorConfig(h=1e-3, steps=17), hook=lambda i, t, y: seen.append(i))
        assert seen == list(range(1, 18))

    def test_failure_carries_partial_trajectory_and_index(self):
        class Exploding(System):
            def __init__(self):
                super().__init__(2, [Component("x", VECTOR, 1)])

            def rhs(self, y):
                if y[0] > 1.5:
                    raise RuntimeError("boom")
                return np.ones(1)

        system = Exploding()
        with pytest.raises(IntegrationError) as info:
            integrate(system, np.zeros(1), IntegratorConfig(h=1.0, steps=10))
        err = info.value
        # step 1 probes y = 2.0 in its trailing stage and explodes there
        assert err.step_index == 1
        assert len(err.partial) == err.step_index + 1
        np.testing.assert_allclose(err.partial.states[:, 0], [0.0, 1.0])


class Squaring(System):
    """x' = x^2, over stacks too: a member from x(0) = 1 diverges at t = 1."""

    def __init__(self):
        super().__init__(1, [Component("x", VECTOR, 1)])

    def rhs(self, y):
        return y * y


class Refusing(Squaring):
    """x' = x^2, raising for the whole stack once any member passes 1.5."""

    def rhs(self, y):
        if np.any(y > 1.5):
            raise RuntimeError("x passed 1.5")
        return y * y


class TestStackedIntegration:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", (3, 4))
    @pytest.mark.parametrize("kind", sorted(STACK_MAKERS))
    def test_each_member_equals_its_solo_run(self, kind, n, method, rng):
        system, y0 = STACK_MAKERS[kind](rng, n)
        cfg = IntegratorConfig(method, h=1e-2, steps=20)
        solo = integrate(system, y0, cfg).states
        stack = np.stack([y0, solo[10], solo[20]])
        traj = integrate(system, stack, cfg)
        assert traj.states.shape == (21, 3, system.dim)
        for b, member in enumerate(stack):
            np.testing.assert_array_equal(traj.states[:, b], integrate(system, member, cfg).states)

    @pytest.mark.parametrize("n", (3, 4))
    @pytest.mark.parametrize("kind", sorted(STACK_MAKERS))
    def test_projection_of_a_stack_equals_each_members(self, kind, n, rng):
        system, y0 = STACK_MAKERS[kind](rng, n)
        stack = y0 + 1e-3 * rng.normal(size=(4, system.dim))
        for comp in system.components:
            if comp.kind == ROTATION:
                # one member's rotation turned into a reflection: its polar factor flips a column
                g = system.part(stack[1], comp.name)
                g[0] = -g[0]
        projected = system.project(stack)
        normalized = normalize_units(system, stack.copy())
        for b, member in enumerate(stack):
            np.testing.assert_array_equal(projected[b], system.project(member))
            np.testing.assert_array_equal(normalized[b], normalize_units(system, member.copy()))

    def test_one_state_keeps_its_shapes(self, rng):
        system, y0 = make_lplusr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=5))
        assert traj.states.shape == (6, system.dim)
        assert traj.component("g").shape == (6, 3, 3)
        assert step(system, y0, 1e-3).shape == (system.dim,)

    @pytest.mark.parametrize("cls, message", [
        (Squaring, "non-finite state"), (Refusing, "x passed 1.5"),
    ])
    def test_failing_member_is_named_and_every_partial_kept(self, cls, message):
        system = cls()
        cfg = IntegratorConfig(h=0.25, steps=10)
        stack = np.array([[0.1], [1.0], [0.2]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match=message) as info:
                integrate(system, stack, cfg)
        err = info.value
        assert err.member == 1
        assert str(err).endswith(f"(step {err.step_index}, member 1)")
        assert err.partial.states.shape == (err.step_index + 1, 3, 1)
        for b in (0, 2):
            solo = integrate(system, stack[b], cfg).states
            np.testing.assert_array_equal(err.partial.states[:, b], solo[: err.step_index + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as solo_info:
                integrate(system, stack[1], cfg)
        assert solo_info.value.member is None
        assert solo_info.value.step_index == err.step_index


class TestReparametrization:
    def test_identity_axes_give_physical_time(self, rng):
        system, y0 = make_cotangent(rng, 3)
        cfg = IntegratorConfig(h=1e-3, steps=500)
        traj_t = integrate(system, y0, cfg)
        traj_tau = oracles.integrate_reparametrized(system, y0, np.ones(3), cfg)
        np.testing.assert_allclose(traj_tau.states, traj_t.states, atol=1e-13)
        fields = np.array([system.rhs(y) for y in traj_t.states])
        tau = reparametrize_trajectory(traj_t, np.ones(3), fields)
        np.testing.assert_allclose(tau, traj_t.times, atol=1e-12)

    def test_dual_paths_agree(self, rng):
        from scipy.interpolate import CubicSpline

        inertia, axes, c = special_inertia(rng, 3)
        system, y0 = make_cotangent(rng, 3, inertia=inertia, mass=c, radius=1.0)
        h = 1e-3
        cfg = IntegratorConfig(h=h, steps=800)
        traj_tau = oracles.integrate_reparametrized(system, y0, axes, cfg)
        traj_t = integrate(system, y0, IntegratorConfig(h=h, steps=3000))
        fields = np.array([system.rhs(y) for y in traj_t.states])
        tau = reparametrize_trajectory(traj_t, axes, fields)
        assert tau[-1] > traj_tau.times[-1]
        spline = CubicSpline(tau, traj_t.states, axis=0)
        dev = np.max(np.abs(spline(traj_tau.times) - traj_tau.states))
        assert dev < 1e-7

    def test_hermite_reproduces_a_cubic(self):
        local = np.random.default_rng(177)
        coeffs = local.normal(size=(4, 2))
        knots = np.sort(local.uniform(-1.0, 2.0, 9))
        at = np.linspace(knots[0], knots[-1], 41)

        def cubic(x):
            return np.stack([np.polyval(c, x) for c in coeffs.T], axis=-1)

        def slope(x):
            return np.stack([np.polyval(np.polyder(c), x) for c in coeffs.T], axis=-1)

        got = hermite_interpolate(knots, cubic(knots), slope(knots), at)
        np.testing.assert_allclose(got, cubic(at), rtol=0, atol=1e-13)

    def test_hermite_matches_cubic_spline_on_dual_path_data(self):
        # built as in test_dual_paths_agree, from this test's own generator;
        # the Hermite slopes are the exact tau-field
        from scipy.interpolate import CubicSpline

        local = np.random.default_rng(178)
        inertia, axes, c = special_inertia(local, 3)
        system, y0 = make_cotangent(local, 3, inertia=inertia, mass=c, radius=1.0)
        h = 1e-3
        cfg = IntegratorConfig(h=h, steps=800)
        traj_tau = oracles.integrate_reparametrized(system, y0, axes, cfg)
        traj_t = integrate(system, y0, IntegratorConfig(h=h, steps=3000))
        fields = np.array([system.rhs(y) for y in traj_t.states])
        tau = reparametrize_trajectory(traj_t, axes, fields)
        gammas = traj_t.component("gamma")
        rescale = np.sqrt(np.einsum("ki,i,ki->k", gammas, axes, gammas))
        slopes = rescale[:, None] * fields
        hermite = hermite_interpolate(tau, traj_t.states, slopes, traj_tau.times)
        spline = CubicSpline(tau, traj_t.states, axis=0)(traj_tau.times)
        assert np.max(np.abs(hermite - spline)) < 1e-9

    def test_hermite_path_matches_rescaled_flow(self):
        # with the O(h^4) tau quadrature the Hermite path follows the flow
        # integrated in tau to about 6e-11
        local = np.random.default_rng(178)
        inertia, axes, c = special_inertia(local, 3)
        system, y0 = make_cotangent(local, 3, inertia=inertia, mass=c, radius=1.0)
        h = 1e-3
        cfg = IntegratorConfig(h=h, steps=800)
        traj_tau = oracles.integrate_reparametrized(system, y0, axes, cfg)
        traj_t = integrate(system, y0, IntegratorConfig(h=h, steps=3000))
        fields = np.array([system.rhs(y) for y in traj_t.states])
        tau = reparametrize_trajectory(traj_t, axes, fields)
        gammas = traj_t.component("gamma")
        rescale = np.sqrt(np.einsum("ki,i,ki->k", gammas, axes, gammas))
        path = hermite_interpolate(tau, traj_t.states, rescale[:, None] * fields, traj_tau.times)
        assert np.max(np.abs(path - traj_tau.states)) < 1e-9

    def test_rejects_nonpositive_axes(self, rng):
        system, y0 = make_cotangent(rng, 3)
        with pytest.raises(ValueError):
            axes = np.array([1.0, -1.0, 2.0])
            oracles.integrate_reparametrized(system, y0, axes, IntegratorConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk5")
    with pytest.raises(ValueError):
        IntegratorConfig(h=0.0)
    for h in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(h=h)
    with pytest.raises(ValueError):
        IntegratorConfig(steps=-1)
