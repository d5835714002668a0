"""Drift reports, invariant-measure divergences, limits, reconstruction."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import (
    KERNEL_MAKERS,
    MAKERS,
    iso3,
    make_cotangent,
    make_coupled,
    make_lr,
    make_rubber_chaplygin,
    make_rubber_support,
    rand_pi0,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
    rand_unit,
    special_inertia,
)
from lrsim import cli
from lrsim import diagnostics as diag
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, Trajectory, integrate
from lrsim.operators import InertiaOperator
from lrsim.cli import DIVERGENCE_TOL
from lrsim.scenario import load_scenario
from lrsim.systems import CotangentSystem, LplusRSystem, LRSystem

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestConservationReport:
    def test_single_state_trajectory_has_zero_drift(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(steps=0))
        for q in diag.conservation_report(traj):
            assert q.max_abs_drift == 0.0
            assert q.max_rel_drift == 0.0

    def test_free_top_momentum_norm_drift_small(self):
        from test_integrators import free_top_system

        system = free_top_system()
        y0 = system.pack(g=np.eye(3), omega=iso3(np.array([0.3, 1.0, -0.2])))
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        report = {q.name: q for q in diag.conservation_report(traj)}
        assert report["momentum_norm"].max_rel_drift < 1e-9

    def test_unknown_quantity_rejected(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(steps=1))
        with pytest.raises(KeyError, match="undefined"):
            diag.conservation_report(traj, ["vorticity"])

    def test_constraint_residual_quantities(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=50))
        report = diag.conservation_report(traj, ["constraint:right_invariant_1"])
        assert report[0].max_abs_drift < 1e-12
        with pytest.raises(KeyError):
            diag.conservation_report(traj, ["constraint:bogus"])

    def test_drift_monotone_under_truncation(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-2, steps=200))
        full = diag.conservation_report(traj)[0].max_abs_drift
        half = Trajectory(system, traj.times[:100], traj.states[:100])
        assert diag.conservation_report(half)[0].max_abs_drift <= full

    def test_rerun_is_identical(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=100))
        a = diag.conservation_report(traj)
        b = diag.conservation_report(traj)
        assert a == b


class TestConstraintReport:
    def test_nan_residual_fails_its_check(self):
        from lrsim.cli import Check

        system, y0 = make_lr(np.random.default_rng(5), 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=3))
        traj.states[2] = np.nan
        worst = diag.constraint_report(traj)
        assert all(np.isnan(v) for v in worst.values())
        assert not any(Check(name, v, 1e-8).passed for name, v in worst.items())


def _flow_states(system, y0, rng):
    """The states of a short run and the same states with omega redrawn, as
    the measure row of ``lrsim verify`` samples them."""
    run = integrate(system, y0, IntegratorConfig(h=0.05, steps=10)).states[::2]
    off = run.copy()
    omega = system.part(off, "omega")
    omega[...] = rng.normal(size=omega.shape)
    return np.concatenate([run, off])


class TestMeasureDivergence:
    def test_unit_density_on_divergence_free_field(self, rng):
        # the free top is divergence-free as it stands, g' = g omega included
        system = LRSystem(rand_spd_operator(rng, 3), None)
        y = system.pack(g=rand_rotation(rng, 3), omega=rng.normal(size=3))
        est = diag.measure_divergence(system.rhs, lambda z: 1.0, y[None])
        assert abs(est.value[0]) < 1e-6
        assert not est.warning

    def test_lr_density_certifies_invariance(self, rng):
        inertia = rand_spd_operator(rng, 3)
        system = LRSystem(inertia, lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3))
        states = [system.initial_state(rand_rotation(rng, 3), rand_skew(rng, 3)) for _ in range(10)]
        est = diag.measure_divergence(system.rhs, system.measure_density, states)
        assert np.max(np.abs(est.value)) < 1e-5

    def test_lplusr_density_certifies_invariance(self, rng):
        inertia = rand_spd_operator(rng, 3)
        system = LplusRSystem(inertia, rand_pi0(rng, inertia))
        states = [system.pack(g=rand_rotation(rng, 3), omega=rng.normal(size=3)) for _ in range(10)]
        est = diag.measure_divergence(system.rhs, system.measure_density, states)
        assert np.max(np.abs(est.value)) < 1e-5

    def test_density_constant_drops_out(self):
        # a power-of-two factor scales every rounded product and sum exactly,
        # and the division by the density takes it out again, bit for bit
        local = np.random.default_rng(124)
        system = LplusRSystem(rand_spd_operator(local, 3), 0.2 * np.eye(3))
        y = system.pack(g=rand_rotation(local, 3), omega=local.normal(size=3))
        density = system.measure_density
        base = diag.measure_divergence(system.rhs, density, y[None]).value
        scaled = diag.measure_divergence(system.rhs, lambda z: 4.0 * density(z), y[None]).value
        np.testing.assert_array_equal(scaled, base)

    def test_reduced_rolling_density(self, rng):
        inertia = rand_spd_operator(rng, 4)
        mass, radius = 1.1, 0.9
        cot = CotangentSystem(inertia, mass, radius)
        density = diag.reduced_chaplygin_density(inertia, mass, radius)
        states = []
        for _ in range(5):
            gamma = rand_unit(rng, 4)
            p = rng.normal(size=4)
            p -= gamma * (gamma @ p)
            states.append(np.concatenate([gamma, p]))
        est = diag.measure_divergence(cot.rhs, density, states)
        assert np.max(np.abs(est.value)) < 1e-5
        # the raw field itself is not divergence-free: the density matters
        gamma = rand_unit(rng, 4)
        p = rng.normal(size=4)
        p -= gamma * (gamma @ p)
        raw = diag.measure_divergence(cot.rhs, lambda z: 1.0, np.concatenate([gamma, p])[None])
        assert abs(raw.value[0]) > 1e-4

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(KERNEL_MAKERS))
    def test_flow_density_passes_and_its_square_fails(self, kind, n):
        # negative control: the check separates the flow's density from a
        # density with the wrong power by more than two orders of magnitude
        local = np.random.default_rng([840, n, len(kind)])
        system, y0 = KERNEL_MAKERS[kind](local, n)
        states = _flow_states(system, y0, local)
        density = system.measure_density
        right = diag.measure_divergence(system.rhs, density, states)
        wrong = diag.measure_divergence(system.rhs, lambda z: density(z) ** 2, states)
        assert np.max(np.abs(right.value)) < DIVERGENCE_TOL
        assert np.max(np.abs(wrong.value)) > 100 * DIVERGENCE_TOL


FIELD_MAKERS = {**MAKERS, **KERNEL_MAKERS}


def _state_functions(system):
    """``rhs``, ``measure_density`` where the flow has one, and every conserved callable."""
    functions = {"rhs": system.rhs, **{str(key): fn for key, fn in system.conserved().items()}}
    if hasattr(system, "measure_density"):
        functions["measure_density"] = system.measure_density
    return functions


class TestComplexStep:
    """Every state function carries complex states, and its imaginary part along
    a complex step is the derivative the central differences approximate."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(FIELD_MAKERS))
    def test_directional_derivatives_match_central_differences(self, kind, n):
        local = np.random.default_rng([860, n, sorted(FIELD_MAKERS).index(kind)])
        system, y0 = FIELD_MAKERS[kind](local, n)
        d = local.normal(size=system.dim)
        h = 1e-5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, fn in _state_functions(system).items():
                step = fn(y0 + 1j * diag.COMPLEX_STEP * d).imag / diag.COMPLEX_STEP
                central = (fn(y0 + h * d) - fn(y0 - h * d)) / (2.0 * h)
                scale = np.max(np.abs(central))
                assert np.max(np.abs(step - central)) <= 1e-6 * scale, name

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(KERNEL_MAKERS))
    def test_divergence_of_the_squared_density_matches_central_differences(self, kind, n):
        # rho^2 keeps the divergence away from 0, so the comparison has a value
        local = np.random.default_rng([865, n, sorted(KERNEL_MAKERS).index(kind)])
        system, y0 = KERNEL_MAKERS[kind](local, n)
        states = _flow_states(system, y0, local)[::4]

        def density(z):
            return system.measure_density(z) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = diag.measure_divergence(system.rhs, density, states)
        want = [oracles.measure_divergence_loop(system.rhs, density, y, 1e-5) for y in states]
        np.testing.assert_allclose(est.value, want, rtol=0, atol=1e-8)
        assert est.warning == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(FIELD_MAKERS))
    def test_independence_rank_matches_central_differences(self, kind, n):
        local = np.random.default_rng([870, n, sorted(FIELD_MAKERS).index(kind)])
        system, y0 = FIELD_MAKERS[kind](local, n)
        states = integrate(system, y0, IntegratorConfig(h=0.05, steps=4)).states[::2]
        functions = list(system.conserved().values())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank = diag.functional_independence_rank(functions, states)
        assert rank == oracles.independence_rank_loop(functions, states, 1e-6, diag.INDEPENDENCE_TOL)


    def test_a_hook_that_drops_the_imaginary_part_raises(self, rng):
        # a float cast loses the derivative; the certificates stop instead of reading 0
        system, y0 = MAKERS["lplusr"](rng, 3)
        states = y0[None]

        def lossy(z):
            return np.asarray(z, dtype=float)[..., 0]

        complex_warning = getattr(np, "exceptions", np).ComplexWarning
        with pytest.raises(complex_warning):
            diag.measure_divergence(system.rhs, lossy, states)
        with pytest.raises(complex_warning):
            diag.functional_independence_rank([lossy], states)


class TestFlowDensity:
    def test_lr_density_matches_entrywise_gram(self, rng):
        # sqrt(det I det <I^-1 alpha_i, alpha_j>), the Gram matrix entry by entry
        system, y = make_lr(rng, 3)
        alphas = [lie.vec_to_skew(system.part(y, f"alpha{i + 1}"), 3) for i in range(system.k)]
        gram = np.array([
            [oracles.inner(lie.vec_to_skew(system.inertia.solve_vec(lie.skew_to_vec(a)), 3), b)
             for b in alphas]
            for a in alphas
        ])
        want = np.sqrt(np.linalg.det(system.inertia.matrix) * np.linalg.det(gram))
        assert system.measure_density(y) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ["lr", "coupled", "coupled-reduced"])
    def test_density_is_det_b_on_the_allowed_velocities(self, kind):
        # by the Schur complement, det B det(C^T B^-1 C) = det(P^T B P) for an
        # orthonormal C and P an orthonormal basis of its complement
        local = np.random.default_rng([850, len(kind)])
        system, y = KERNEL_MAKERS[kind](local, 4)
        pi, frame = system.pi(y)
        b = system.inertia.matrix if pi is None else system.inertia.matrix + pi
        c = system.constraint_basis(y, frame)
        p = np.linalg.svd(c)[0][:, c.shape[1]:]
        assert system.measure_density(y) == pytest.approx(
            np.sqrt(np.linalg.det(p.T @ b @ p)), rel=1e-10
        )


def _assert_rows_match(stacked, rows, tol=1e-13):
    """``stacked`` equals the row-by-row values to ``tol`` relative to their largest entry."""
    rows = np.asarray(rows, dtype=float)
    assert stacked.shape == rows.shape
    np.testing.assert_allclose(stacked, rows, rtol=0, atol=tol * np.abs(rows).max())


class TestStackedCertificate:
    """Fields and densities on a stack of states against one call per state."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_reduced_field_and_density(self, n):
        # the kernel flows' fields and densities: tests/test_residuals.py
        local = np.random.default_rng(810 + n)
        inertia = rand_spd_operator(local, n)
        cot = CotangentSystem(inertia, 1.1, 0.9)
        field, density = cot.rhs, diag.reduced_chaplygin_density(inertia, 1.1, 0.9)
        states = [np.concatenate([1.5 * rand_unit(local, n), local.normal(size=n)]) for _ in range(6)]
        stack = np.array(states).reshape(2, 3, -1)
        _assert_rows_match(field(stack), [[field(z) for z in row] for row in stack])
        _assert_rows_match(density(stack), [[density(z) for z in row] for row in stack])

    @pytest.mark.parametrize("n", [3, 4])
    def test_divergence_matches_per_point_loop(self, n):
        # with the square of the reduced density the divergence is nonzero
        local = np.random.default_rng(830 + n)
        cot, _ = make_cotangent(local, n)
        reduced = diag.reduced_chaplygin_density(cot.inertia, cot.mass, cot.radius)

        def density(z):
            return reduced(z) ** 2

        states = [
            make_cotangent(local, n, inertia=cot.inertia, mass=cot.mass, radius=cot.radius)[1]
            for _ in range(5)
        ]
        est = diag.measure_divergence(cot.rhs, density, states)
        for y, value in zip(states, est.value):
            # the same method one state at a time, and the central-difference oracle
            alone = diag.measure_divergence(cot.rhs, density, y[None]).value[0]
            np.testing.assert_array_equal(value, alone)
            want = oracles.measure_divergence_loop(cot.rhs, density, y, 1e-5)
            assert abs(want) > 1e-4
            assert value == pytest.approx(want, abs=1e-8)


class TestChaplyginMeasure:
    def test_isotropic_axes_constant_densities(self, rng):
        inertia = InertiaOperator.special(np.ones(3), 0.3)
        vals = []
        for _ in range(10):
            state = np.concatenate([rand_unit(rng, 3), np.zeros(3)])
            vals.append(diag.chaplygin_measure_check(state, inertia, 0.3, 1.0))
        general = np.array([v[0] for v in vals])
        closed = np.array([v[1] for v in vals])
        assert np.ptp(general) < 1e-12
        assert np.ptp(closed) < 1e-12

    def test_ratio_constant_for_special_inertia(self, rng):
        inertia, axes, c = special_inertia(rng, 3)
        ratios = []
        for _ in range(100):
            state = np.concatenate([rand_unit(rng, 3), np.zeros(3)])
            general, closed = diag.chaplygin_measure_check(state, inertia, c, 1.0)
            ratios.append(general / closed)
        ratios = np.array(ratios)
        assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-8

    def test_exponent_recovered_by_regression(self, rng):
        for n in (3, 4):
            inertia, axes, c = special_inertia(rng, n)
            density = diag.reduced_chaplygin_density(inertia, c, 1.0)
            logs = []
            for _ in range(100):
                gamma = rand_unit(rng, n)
                state = np.concatenate([gamma, np.zeros(n)])
                logs.append((np.log((axes * gamma) @ gamma), np.log(density(state))))
            logs = np.array(logs)
            slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
            assert abs(slope - (-(n - 2) / 2.0)) < 1e-6

    def test_stack_matches_row_by_row(self):
        local = np.random.default_rng(230)
        for n in (3, 4, 5):
            inertia, axes, c = special_inertia(local, n)
            # gamma off the unit sphere too: both densities normalize it
            states = local.normal(size=(100, 2 * n))
            general, closed = diag.chaplygin_measure_check(states, inertia, c, 1.0)
            assert general.shape == closed.shape == (100,)
            rows = np.array([diag.chaplygin_measure_check(s, inertia, c, 1.0) for s in states])
            np.testing.assert_allclose(general, rows[:, 0], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(closed, rows[:, 1], rtol=1e-15, atol=0.0)
            units = states[:, :n] / np.linalg.norm(states[:, :n], axis=1, keepdims=True)
            formula = [((axes * u) @ u) ** (-(n - 2) / 2.0) for u in units]
            np.testing.assert_allclose(closed, formula, rtol=1e-14, atol=0.0)

    def test_requires_special_kind(self, rng):
        inertia = rand_spd_operator(rng, 3)
        with pytest.raises(ValueError, match="special"):
            diag.chaplygin_measure_check(np.ones(6), inertia, 1.0, 1.0)


class TestEpsilonLimit:
    def test_errors_decrease_and_slope_near_minus_one(self, rng):
        inertia = rand_spd_operator(rng, 3)
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3)
        wv = rng.normal(size=3)
        wv -= (basis.vectors[:, 0] @ wv) * basis.vectors[:, 0]
        study = diag.epsilon_limit_study(
            inertia,
            basis,
            np.eye(3),
            lie.vec_to_skew(wv, 3),
            (1e2, 1e4, 1e6),
            IntegratorConfig(h=1e-3, steps=1000),
        )
        assert study.errors[0] > study.errors[1] > study.errors[2]
        assert study.errors[2] < 1e-4
        # empirical first-order rate in 1/eps
        assert abs(study.slope + 1.0) < 0.2


def verify_study_calls(monkeypatch, study, name):
    """The arguments ``verify`` hands ``diag.<study>`` on a shipped scenario."""
    calls = []
    real = getattr(diag, study)
    monkeypatch.setattr(diag, study, lambda *args: calls.append(args) or real(*args))
    scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    short = IntegratorConfig(h=scenario.integrator.h, steps=10)
    cli.verification_checks(scenario, integrate(scenario.system, scenario.initial, short))
    assert len(calls) == 1
    return calls[0]


def random_hamiltonization_args(rng, n, axes_range):
    axes = rng.uniform(*axes_range, n)
    c = 0.5 * min(axes[i] * axes[j] for i in range(n) for j in range(i + 1, n))
    gamma0 = rand_unit(rng, n)
    p0 = rng.normal(size=n)
    p0 -= gamma0 * (gamma0 @ p0)
    return InertiaOperator.special(axes, c), c, 1.0, gamma0, p0, 1e-3


class TestStackedStudies:
    """The stacked studies return what their member-by-member forms return, bit for bit."""

    @staticmethod
    def assert_hamiltonization_matches_its_loop(args):
        sup_geo, sup_dual, traj_geo = diag.hamiltonization_check(*args)
        loop_geo, loop_dual, loop_traj_geo, loop_tau, loop_t = oracles.hamiltonization_check_loop(
            *args
        )
        assert (sup_geo, sup_dual) == (loop_geo, loop_dual)
        np.testing.assert_array_equal(traj_geo.states, loop_traj_geo.states)
        cot = CotangentSystem(*args[:3])
        steps = (len(loop_tau) - 1, len(loop_t) - 1)
        y0 = cot.pack(gamma=args[3], p=args[4])
        runs = diag._tau_and_t_runs(cot, y0, args[0].axes, args[5], steps)
        for run, loop in zip(runs, (loop_tau, loop_t)):
            np.testing.assert_array_equal(run.times, loop.times)
            np.testing.assert_array_equal(run.states, loop.states)

    @staticmethod
    def assert_epsilon_study_matches_its_loop(args):
        study = diag.epsilon_limit_study(*args)
        loop = oracles.epsilon_limit_study_loop(*args)
        assert study.errors == loop.errors
        assert study.slope == loop.slope

    @pytest.mark.parametrize("name", ["cotangent", "rubber_chaplygin3", "rubber_chaplygin4"])
    def test_hamiltonization_on_shipped_data(self, monkeypatch, name):
        args = verify_study_calls(monkeypatch, "hamiltonization_check", name)
        monkeypatch.undo()
        self.assert_hamiltonization_matches_its_loop(args)

    # axes up to 2.2: the physical-time run is the longer one; below 0.64 the
    # rescaled-time run is, and continues alone
    @pytest.mark.parametrize("axes_range", [(0.8, 2.2), (0.3, 0.6)])
    @pytest.mark.parametrize("n", (3, 4))
    def test_hamiltonization_on_random_special_inertias(self, n, axes_range, rng):
        self.assert_hamiltonization_matches_its_loop(random_hamiltonization_args(rng, n, axes_range))

    @pytest.mark.parametrize("name", ["veselova", "lplusr_penalty"])
    def test_epsilon_study_on_shipped_data(self, monkeypatch, name):
        args = verify_study_calls(monkeypatch, "epsilon_limit_study", name)
        monkeypatch.undo()
        self.assert_epsilon_study_matches_its_loop(args)

    @pytest.mark.parametrize("n", (3, 4))
    def test_epsilon_study_on_random_lr_data(self, n, rng):
        system, y0 = make_lr(rng, n)
        g0 = system.part(y0, "g")
        omega0 = lie.vec_to_skew(system.part(y0, "omega"), n)
        args = (system.inertia, system.h_space, g0, omega0, (1e2, 1e4, 1e6),
                IntegratorConfig(h=1e-3, steps=200))
        self.assert_epsilon_study_matches_its_loop(args)

    def test_stacked_pi0_checks_every_member(self, rng):
        inertia = rand_spd_operator(rng, 3)
        good = rand_pi0(rng, inertia)
        floor = np.linalg.eigvalsh(inertia.matrix)[0]
        bad = good - (np.linalg.eigvalsh(good)[0] + 2.0 * floor) * np.eye(3)
        with pytest.raises(ValueError, match="not positive definite"):
            LplusRSystem(inertia, np.stack([good, bad]))
        asym = good.copy()
        asym[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            LplusRSystem(inertia, np.stack([good, asym]))


class TestReconstruction:
    def test_contact_path_constant_at_rest(self, rng):
        system, y0 = make_rubber_chaplygin(rng, 3)
        y0[system.slice_of("omega")] = 0.0
        traj = integrate(system, y0, IntegratorConfig(h=1e-2, steps=50))
        path = diag.reconstruct_contact(traj)
        np.testing.assert_allclose(path, 0.0, atol=1e-14)

    def test_last_coordinate_is_holonomic(self, rng):
        system, y0 = make_rubber_chaplygin(rng, 4)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        path = diag.reconstruct_contact(traj)
        assert np.max(np.abs(path[:, -1])) < 1e-9
        # the in-plane motion is genuine
        assert np.max(np.abs(path[:, :-1])) > 1e-3

    def test_matches_scipy_cumulative_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid

        system, y0 = make_rubber_chaplygin(np.random.default_rng(6), 4)
        traj = integrate(system, y0, IntegratorConfig(h=1e-2, steps=40))
        vels = np.array([diag.contact_velocity(system, y) for y in traj.states])
        ref = cumulative_trapezoid(vels, traj.times, axis=0, initial=0.0)
        np.testing.assert_array_equal(diag.reconstruct_contact(traj), ref)

    def test_quadrature_self_convergence(self, rng):
        system, y0 = make_rubber_chaplygin(rng, 3)
        fine = integrate(system, y0, IntegratorConfig(h=2.5e-4, steps=4000))
        mid = integrate(system, y0, IntegratorConfig(h=1e-3, steps=1000))
        coarse = integrate(system, y0, IntegratorConfig(h=2e-3, steps=500))
        ref = diag.reconstruct_contact(fine)[-1]
        err_mid = np.max(np.abs(diag.reconstruct_contact(mid)[-1] - ref))
        err_coarse = np.max(np.abs(diag.reconstruct_contact(coarse)[-1] - ref))
        # trapezoid quadrature: halving h divides the error by about four
        assert err_coarse / err_mid > 2.0


class TestReconstructWDispatch:
    def test_support_trajectories_need_no_initial_W(self, rng):
        system, y0 = make_rubber_support(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=100))
        series = diag.reconstruct_W(traj)
        assert len(series) == system.n_bodies
        assert series[0].shape == (len(traj), system.N)

    def test_coupled_trajectories_require_initial_W(self, rng):
        system, y0 = make_coupled(rng, 3, full=False)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10))
        with pytest.raises(ValueError, match="initial W"):
            diag.reconstruct_W(traj)


class TestIndependence:
    def test_rubber_support_has_four_independent_integrals(self, rng):
        system, y0 = make_rubber_support(rng, 3)
        # the energy and the trace groups of k = 2, 3
        functions = list(system.conserved().values())
        rank = diag.functional_independence_rank(functions, [y0])
        assert rank >= 4
