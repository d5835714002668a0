"""Drift reports, invariant-measure divergences, limits, reconstruction."""

import numpy as np
import pytest

import oracles
from helpers import (
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
from lrsim import diagnostics as diag
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, Trajectory, integrate
from lrsim.operators import InertiaOperator
from lrsim.systems import CotangentSystem


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


class TestMeasureDivergence:
    def test_unit_density_on_divergence_free_field(self, rng):
        # the free top momentum equation is divergence-free as it stands
        inertia = rand_spd_operator(rng, 3)
        field, _ = diag.lr_measure_chart(inertia, 0)
        est = diag.measure_divergence(field, lambda z: 1.0, rng.normal(size=3))
        assert abs(est.value) < 1e-6
        assert not est.warning

    def test_lr_density_certifies_invariance(self, rng):
        inertia = rand_spd_operator(rng, 3)
        field, density = diag.lr_measure_chart(inertia, 1)
        for _ in range(10):
            g = rand_rotation(rng, 3)
            a = lie.skew_to_vec(rand_skew(rng, 3))
            a /= np.linalg.norm(a)
            alpha = lie.adjoint_matrix(g).T @ a
            state = np.concatenate([rng.normal(size=3), alpha])
            est = diag.measure_divergence(field, density, state)
            assert abs(est.value) < 1e-5

    def test_lplusr_density_certifies_invariance(self, rng):
        inertia = rand_spd_operator(rng, 3)
        field, density = diag.lplusr_measure_chart(inertia)
        pi0 = rand_pi0(rng, inertia)
        for _ in range(10):
            q = lie.adjoint_matrix(rand_rotation(rng, 3))
            state = np.concatenate(
                [rng.normal(size=3), diag.sym_to_coords(q.T @ pi0 @ q)]
            )
            est = diag.measure_divergence(field, density, state)
            assert abs(est.value) < 1e-5

    def test_density_scaling_is_linear(self):
        # a power-of-two factor scales every rounded product and sum exactly,
        # so the estimate is linear in the density bit for bit
        local = np.random.default_rng(124)
        inertia = rand_spd_operator(local, 3)
        field, density = diag.lplusr_measure_chart(inertia)
        state = np.concatenate([local.normal(size=3), diag.sym_to_coords(0.2 * np.eye(3))])
        base = diag.measure_divergence(field, density, state).value
        scaled = diag.measure_divergence(field, lambda z: 4.0 * density(z), state).value
        assert scaled == 4.0 * base

    def test_reduced_rolling_density(self, rng):
        inertia = rand_spd_operator(rng, 4)
        mass, radius = 1.1, 0.9
        cot = CotangentSystem(inertia, mass, radius)
        density = diag.reduced_chaplygin_density(inertia, mass, radius)
        for _ in range(5):
            gamma = rand_unit(rng, 4)
            p = rng.normal(size=4)
            p -= gamma * (gamma @ p)
            est = diag.measure_divergence(cot.rhs, density, np.concatenate([gamma, p]))
            assert abs(est.value) < 1e-5
        # the raw field itself is not divergence-free: the density matters
        gamma = rand_unit(rng, 4)
        p = rng.normal(size=4)
        p -= gamma * (gamma @ p)
        raw = diag.measure_divergence(cot.rhs, lambda z: 1.0, np.concatenate([gamma, p]))
        assert abs(raw.value) > 1e-4

    def test_cancellation_warning_for_tiny_step(self, rng):
        # at fd_step 1e-13 the estimates are roundoff noise; the halved-step
        # disagreement flags it (statistically, so sample a few states)
        inertia = rand_spd_operator(rng, 3)
        field, density = diag.lplusr_measure_chart(inertia)
        warnings_seen = 0
        for _ in range(5):
            state = np.concatenate([rng.normal(size=3), diag.sym_to_coords(0.1 * np.eye(3))])
            est = diag.measure_divergence(field, density, state, fd_step=1e-13)
            warnings_seen += est.warning
        assert warnings_seen >= 1


def _assert_rows_match(stacked, rows, tol=1e-13):
    """``stacked`` equals the row-by-row values to ``tol`` relative to their largest entry."""
    rows = np.asarray(rows, dtype=float)
    assert stacked.shape == rows.shape
    np.testing.assert_allclose(stacked, rows, rtol=0, atol=tol * np.abs(rows).max())


class TestStackedCertificate:
    """Fields and densities on a stack of states against one call per state."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_chart_fields_and_densities(self, n):
        local = np.random.default_rng(810 + n)
        inertia = rand_spd_operator(local, n)
        pi0 = rand_pi0(local, inertia)
        N = lie.so_dim(n)
        charts = {
            "lr": (diag.lr_measure_chart(inertia, 2), []),
            "lplusr": (diag.lplusr_measure_chart(inertia), []),
        }
        for _ in range(6):
            q = lie.adjoint_matrix(rand_rotation(local, n))
            charts["lr"][1].append(np.concatenate([local.normal(size=N), q[:, 0], q[:, 1]]))
            charts["lplusr"][1].append(
                np.concatenate([local.normal(size=N), diag.sym_to_coords(q.T @ pi0 @ q)])
            )
        cot = CotangentSystem(inertia, 1.1, 0.9)
        charts["cotangent"] = (
            (cot.rhs, diag.reduced_chaplygin_density(inertia, 1.1, 0.9)),
            [np.concatenate([1.5 * rand_unit(local, n), local.normal(size=n)]) for _ in range(6)],
        )
        for (field, density), states in charts.values():
            stack = np.array(states).reshape(2, 3, -1)
            _assert_rows_match(field(stack), [[field(z) for z in row] for row in stack])
            _assert_rows_match(density(stack), [[density(z) for z in row] for row in stack])

    def test_sym_coords_round_trip_on_stacks(self):
        local = np.random.default_rng(820)
        mats = local.normal(size=(4, 3, 3))
        mats = mats + np.swapaxes(mats, -1, -2)
        coords = diag.sym_to_coords(mats)
        np.testing.assert_array_equal(diag.coords_to_sym(coords, 3), mats)
        for mat, row in zip(mats, coords):
            np.testing.assert_array_equal(row, diag.sym_to_coords(mat))

    @pytest.mark.parametrize("n", [3, 4])
    def test_divergence_matches_per_point_loop(self, n):
        # the raw cotangent field with unit density has a nonzero divergence
        local = np.random.default_rng(830 + n)
        cot, _ = make_cotangent(local, n)
        for _ in range(5):
            _, y = make_cotangent(local, n, inertia=cot.inertia, mass=cot.mass, radius=cot.radius)
            est = diag.measure_divergence(cot.rhs, lambda z: 1.0, y)
            value, refined = oracles.measure_divergence_loop(
                cot.rhs, lambda z: 1.0, y, diag.FD_STEP
            )
            assert abs(value) > 1e-4
            assert est.value == pytest.approx(value, rel=1e-9)
            assert est.refined == pytest.approx(refined, rel=1e-9)


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
