"""Rolling-ball family: group equations, cotangent reduction, geodesics."""

import numpy as np
import pytest

import oracles
from helpers import (
    iso3,
    iso3_inv,
    make_cotangent,
    make_gsr,
    make_lstar,
    make_rubber_chaplygin,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
    rand_unit,
    special_from_vector_inertia,
    special_inertia,
    tilted_rotation,
)
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.operators import InertiaOperator
from lrsim.systems import (
    CotangentSystem,
    GsrSystem,
    LstarGeodesicSystem,
    MultiplierError,
    RubberChaplyginSystem,
    vertical_vector,
)
from lrsim.systems.chaplygin import tangent_inertia


def rubber_chaplygin_kkt_omega_dot(system, y):
    """Independent multiplier formulation: rolling + no-twist constraints.

    Blocks omega and the center velocity w; rolling rows come from the
    coordinates of Omega Gamma, no-twist rows from the complement of the
    wedge subspace of Gamma.
    """
    n = system.n
    g = y[system.slice_of("g")].reshape(n, n)
    wv = y[system.slice_of("omega")]
    omega = lie.vec_to_skew(wv, n)
    iw = lie.vec_to_skew(system.inertia.apply_vec(wv), n)
    gamma_space = vertical_vector(n)
    frame = np.eye(n)
    rows = []
    for j in range(n):
        skew_row = lie.skew_to_vec(lie.Ad(g.T, lie.wedge(frame[:, j], gamma_space)))
        w_row = np.zeros(n)
        w_row[j] = 1.0
        rows.append([-system.radius * skew_row, w_row])
    twist = lie.wedge_complement_basis(gamma_space)
    for j in range(twist.dim):
        b = lie.vec_to_skew(twist.vectors[:, j], n)
        rows.append([lie.skew_to_vec(lie.Ad(g.T, b)), np.zeros(n)])
    out = oracles.kkt_accelerations(
        [system.inertia.matrix, system.mass * np.eye(n)],
        [lie.skew_to_vec(lie.ad(iw, omega)), np.zeros(n)],
        rows,
    )
    return out[0]


class TestRubberChaplygin:
    def test_equilibrium_at_rest(self, rng):
        system, y0 = make_rubber_chaplygin(rng, 3)
        y0[system.slice_of("omega")] = 0.0
        np.testing.assert_allclose(system.rhs(y0), 0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "n, tilt", [(3, None), (4, None), (5, None), (5, 1e-9)], ids=["3", "4", "5", "5-near-pole"]
    )
    def test_matches_kkt_oracle(self, n, tilt, rng):
        # tilt: gamma placed that far from e_n, where gamma_n - 1 cancels
        g = None if tilt is None else tilted_rotation(rng, n, tilt)
        system, y0 = make_rubber_chaplygin(rng, n, g=g)
        np.testing.assert_allclose(
            system.rhs(y0)[system.slice_of("omega")],
            rubber_chaplygin_kkt_omega_dot(system, y0),
            atol=1e-11,
        )

    def test_no_twist_preserved_over_long_run_n4(self, rng):
        system, y0 = make_rubber_chaplygin(rng, 4)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        worst = max(system.constraints(y)["no_twist"] for y in traj.states)
        assert worst < 1e-8
        ortho = max(system.constraints(y)["g_orthogonality"] for y in traj.states)
        assert ortho < 1e-9

    def test_momentum_equals_shifted_inertia_on_constraint(self, rng):
        # with the no-twist condition in force, k = (I + m rho^2) omega
        system, y0 = make_rubber_chaplygin(rng, 3)
        wv = y0[system.slice_of("omega")]
        expected = system.inertia.apply_vec(wv) + system.mr2 * wv
        np.testing.assert_allclose(system.momentum_vec(y0), expected, atol=1e-12)

    def test_trajectory_matches_classical_vector_equations(self, rng):
        # n = 3 cross-check through the hat map against the vector form
        inertia3 = np.array([1.2, 1.7, 2.5])
        mass, radius = 0.9, 1.1
        op = special_from_vector_inertia(inertia3, mass * radius**2)
        system = RubberChaplyginSystem(op, mass, radius)
        g0 = rand_rotation(rng, 3)
        gamma0 = g0.T @ vertical_vector(3)
        v = rng.normal(size=3)
        omega_vec0 = np.cross(gamma0, v)  # orthogonal to gamma: no twist
        y0 = system.pack(g=g0, omega=iso3(omega_vec0))
        system.validate(y0)
        h, steps = 1e-3, 1000
        traj = integrate(system, y0, IntegratorConfig(h=h, steps=steps))

        def vector_rhs(z):
            wd, gd = oracles.rubber_ball_rhs(z[:3], z[3:], inertia3, mass, radius)
            return np.concatenate([wd, gd])

        z = np.concatenate([omega_vec0, gamma0])
        worst = 0.0
        for i in range(steps):
            z = oracles.rk4_step(vector_rhs, z, h)
            y = traj.states[i + 1]
            omega_vec = iso3_inv(lie.vec_to_skew(y[system.slice_of("omega")], 3))
            gamma = system.gamma_of(y)
            worst = max(worst, np.max(np.abs(omega_vec - z[:3])), np.max(np.abs(gamma - z[3:])))
        assert worst < 1e-8

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            RubberChaplyginSystem(InertiaOperator.identity(3), -1.0, 1.0)


class TestCotangent:
    def test_zero_momentum_is_fixed_point(self, rng):
        system, y0 = make_cotangent(rng, 4)
        y0[system.slice_of("p")] = 0.0
        np.testing.assert_allclose(system.rhs(y0), 0.0, atol=1e-13)

    def test_isotropic_inertia_great_circle(self, rng):
        # I = c Id on bivectors: p = (m rho^2 + c) gamma', great circles
        c = 1.3
        mass, radius = 0.7, 1.0
        system = CotangentSystem(InertiaOperator.scalar(3, c), mass, radius)
        gamma0 = rand_unit(rng, 3)
        gdot0 = rng.normal(size=3)
        gdot0 -= gamma0 * (gamma0 @ gdot0)
        p0 = (mass * radius**2 + c) * gdot0
        np.testing.assert_allclose(system.gamma_dot_of(gamma0, p0), gdot0, atol=1e-12)
        y0 = system.pack(gamma=gamma0, p=p0)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        speed = np.linalg.norm(gdot0)
        axis = gdot0 / speed
        for t, y in zip(traj.times, traj.states):
            expected = np.cos(speed * t) * gamma0 + np.sin(speed * t) * axis
            np.testing.assert_allclose(y[system.slice_of("gamma")], expected, atol=1e-9)
            np.testing.assert_allclose(
                y[system.slice_of("p")],
                (mass * radius**2 + c) * (
                    -speed * np.sin(speed * t) * gamma0 + speed * np.cos(speed * t) * axis
                ),
                atol=1e-8,
            )

    def test_group_trajectory_projects_onto_reduced_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        mass, radius = 1.2, 0.9
        group = RubberChaplyginSystem(inertia, mass, radius)
        _, y0 = make_rubber_chaplygin(rng, 3, inertia=inertia)
        y0 = group.pack(
            g=y0[group.slice_of("g")].reshape(3, 3), omega=y0[group.slice_of("omega")]
        )
        cot = CotangentSystem(inertia, mass, radius)
        gamma0, p0 = group.to_cotangent(y0)
        cfg = IntegratorConfig(h=1e-3, steps=1000)
        traj_g = integrate(group, y0, cfg)
        traj_c = integrate(cot, cot.pack(gamma=gamma0, p=p0), cfg)
        worst = 0.0
        for yg, yc in zip(traj_g.states, traj_c.states):
            gamma, p = group.to_cotangent(yg)
            worst = max(
                worst,
                np.max(np.abs(gamma - yc[cot.slice_of("gamma")])),
                np.max(np.abs(p - yc[cot.slice_of("p")])),
            )
        assert worst < 1e-7

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rhs_equals_one_state_oracle_bitwise(self, n):
        # one body serves a state and a stack; at one state it reproduces the
        # 1-D numpy calls of the oracle bit for bit, on and off the constraint set
        local = np.random.default_rng(420 + n)
        system, y0 = make_cotangent(local, n)
        off = np.concatenate([1.7 * rand_unit(local, n), local.normal(size=n)])
        for y in [y0, off, *integrate(system, y0, IntegratorConfig(h=1e-2, steps=4)).states]:
            np.testing.assert_array_equal(system.rhs(y), oracles.cotangent_rhs_one_state(system, y))

    def test_constraints_preserved(self, rng):
        system, y0 = make_cotangent(rng, 4)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        worst = max(
            max(system.constraints(y).values()) for y in traj.states
        )
        assert worst < 1e-10


class TestTangentInertia:
    """The closed-form L(gamma) against the Householder-frame construction."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_frame_oracles(self, n):
        from lrsim.diagnostics import reduced_chaplygin_density

        local = np.random.default_rng(410 + n)
        inertia = rand_spd_operator(local, n)
        mass, radius = float(local.uniform(0.5, 1.5)), float(local.uniform(0.6, 1.2))
        system = CotangentSystem(inertia, mass, radius)
        density = reduced_chaplygin_density(inertia, mass, radius)
        for _ in range(5):
            gamma = rand_unit(local, n)
            lmat = tangent_inertia(system.inertia, system.mr2, lie.wedge_map(gamma))
            expected = np.column_stack(
                [oracles.momentum_of_velocity(inertia, system.mr2, gamma, e) for e in np.eye(n)]
            )
            np.testing.assert_allclose(lmat, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
            # an unnormalized gamma and a p off T_gamma exercise the extension
            gamma = 1.7 * gamma
            p = local.normal(size=n)
            expected = oracles.householder_gamma_dot(inertia, system.mr2, gamma, p)
            np.testing.assert_allclose(
                system.gamma_dot_of(gamma, p), expected, rtol=0,
                atol=1e-13 * np.abs(expected).max(),
            )
            z = np.concatenate([gamma, p])
            assert density(z) == pytest.approx(
                oracles.wedge_basis_density(inertia, system.mr2, gamma), rel=1e-13
            )

    def test_maps_tangent_space_to_itself(self):
        local = np.random.default_rng(415)
        system, y0 = make_cotangent(local, 4)
        gamma = y0[system.slice_of("gamma")]
        lmat = tangent_inertia(system.inertia, system.mr2, lie.wedge_map(gamma))
        np.testing.assert_allclose(lmat, lmat.T, atol=1e-15)
        np.testing.assert_allclose(lmat @ gamma, system.mr2 * gamma, atol=1e-14)
        v = local.normal(size=4)
        v -= gamma * (gamma @ v)
        assert abs(gamma @ (lmat @ v)) < 1e-14


class TestLstarGeodesic:
    def test_round_sphere_great_circles(self, rng):
        system = LstarGeodesicSystem(np.ones(3))
        gamma0 = rand_unit(rng, 3)
        v0 = rng.normal(size=3)
        v0 -= gamma0 * (gamma0 @ v0)
        y0 = system.pack(gamma=gamma0, v=v0)
        assert system.lagrangian(y0) == pytest.approx(0.5 * v0 @ v0, rel=1e-12)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        speed = np.linalg.norm(v0)
        axis = v0 / speed
        for t, y in zip(traj.times, traj.states):
            expected = np.cos(speed * t) * gamma0 + np.sin(speed * t) * axis
            np.testing.assert_allclose(y[system.slice_of("gamma")], expected, atol=1e-9)

    def test_energy_flat_over_ten_thousand_steps(self, rng):
        system, y0 = make_lstar(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        vals = np.array([system.lagrangian(y) for y in traj.states])
        assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) < 1e-9

    def test_rejects_nonpositive_axes(self):
        with pytest.raises(ValueError):
            LstarGeodesicSystem(np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_matches_bordered_solve(self, n):
        local = np.random.default_rng(520 + n)
        for _ in range(5):
            system, y = make_lstar(local, n)
            # an unnormalized gamma and a v off T_gamma exercise the extension
            off = np.concatenate([1.3 * y[:n], local.normal(size=n)])
            for state in (y, off):
                expected = oracles.lstar_bordered_acceleration(system.axes, state[:n], state[n:])
                got = system.rhs(state)[system.slice_of("v")]
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=1e-13 * np.abs(expected).max()
                )

    def test_zero_gamma_is_degenerate(self):
        system = LstarGeodesicSystem(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(MultiplierError, match="degenerate"):
            system.rhs(np.concatenate([np.zeros(3), np.ones(3)]))

    def test_reparametrized_reduced_flow_is_this_geodesic_flow(self, rng):
        from lrsim.diagnostics import hamiltonization_check

        for n in (3, 4):
            inertia, axes, c = special_inertia(rng, n)
            mass, radius = c, 1.0
            cot = CotangentSystem(inertia, mass, radius)
            gamma0 = rand_unit(rng, n)
            p0 = rng.normal(size=n)
            p0 -= gamma0 * (gamma0 @ p0)
            sup_geo, sup_dual, traj_geo = hamiltonization_check(
                inertia, mass, radius, gamma0, p0, h=1e-3
            )
            assert sup_geo < 1e-6
            assert sup_dual < 1e-7
            # the geodesic energy equals the physical reduced energy
            geo = traj_geo.system
            assert geo.lagrangian(traj_geo.states[0]) == pytest.approx(
                cot.energy(cot.pack(gamma=gamma0, p=p0)), rel=1e-12
            )


class TestGsr:
    def test_commuting_isotropic_case_is_stationary(self):
        system = GsrSystem(InertiaOperator.identity(3), 1.0, 1.0)
        gamma = lie.wedge(np.eye(3)[:, 0], np.eye(3)[:, 1])
        omega = 0.8 * gamma  # commutes with gamma
        y0 = system.pack(gamma=gamma, omega=omega)
        ydot = system.rhs(y0)
        np.testing.assert_allclose(ydot[system.slice_of("omega")], 0.0, atol=1e-13)
        np.testing.assert_allclose(ydot[system.slice_of("gamma")], 0.0, atol=1e-13)

    def test_orbit_norm_derivative_vanishes(self, rng):
        system, y0 = make_gsr(rng, 4)
        h = 1e-5
        fn = system.conserved()["orbit_norm"]
        y_p = oracles.rk4_step(system.rhs, y0, h)
        y_m = oracles.rk4_step(system.rhs, y0, -h)
        assert abs(fn(y_p) - fn(y_m)) / (2 * h) < 1e-10

    def test_matches_classical_chaplygin_sphere_field_pointwise(self, rng):
        # at n = 3 with gamma the hat of a unit vector, the flow is the
        # classical no-slip Chaplygin sphere with coefficient m rho^2
        inertia3 = np.array([0.9, 1.4, 2.2])
        mass, radius = 1.1, 0.8
        op = special_from_vector_inertia(inertia3, 0.3)
        system = GsrSystem(op, mass, radius)
        for _ in range(10):
            gamma_vec = rand_unit(rng, 3)
            omega_vec = rng.normal(size=3)
            y0 = system.pack(gamma=iso3(gamma_vec), omega=iso3(omega_vec))
            ydot = system.rhs(y0)
            wdot = iso3_inv(lie.vec_to_skew(ydot[system.slice_of("omega")], 3))
            gdot = iso3_inv(lie.vec_to_skew(ydot[system.slice_of("gamma")], 3))
            wdot_o, gdot_o = oracles.chaplygin_sphere_rhs(
                omega_vec, gamma_vec, inertia3, mass * radius**2
            )
            np.testing.assert_allclose(wdot, wdot_o, atol=1e-10)
            np.testing.assert_allclose(gdot, gdot_o, atol=1e-12)

    def test_invariants_conserved(self, rng):
        system, y0 = make_gsr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        for name, fn in system.conserved().items():
            vals = np.array([fn(y) for y in traj.states])
            assert np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1.0) < 1e-10, name
