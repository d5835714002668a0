"""LR and L+R flows: multipliers, conservation, penalty limit."""

import numpy as np
import pytest

import oracles
from helpers import (
    iso3,
    iso3_inv,
    make_lplusr,
    make_lr,
    rand_pi0,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
    special_from_vector_inertia,
)
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.operators import InertiaOperator
from lrsim.systems import GeodesicLplusRSystem, LplusRSystem, LRSystem, penalty_pi0


class TestLRField:
    def test_isotropic_inertia_is_stationary(self, rng):
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3)
        system = LRSystem(InertiaOperator.identity(3), basis)
        g = rand_rotation(rng, 3)
        wv = rng.normal(size=3)
        alpha = lie.adjoint_matrix(g).T @ basis.vectors[:, 0]
        wv -= (alpha @ wv) * alpha
        y0 = system.initial_state(g, lie.vec_to_skew(wv, 3))
        ydot = system.rhs(y0)
        np.testing.assert_allclose(ydot[system.slice_of("omega")], 0.0, atol=1e-14)

    def test_unconstrained_reduces_to_euler_top(self, rng):
        inertia3 = np.array([1.0, 2.0, 3.0])
        # vector inertia realized exactly on so(3) through the hat map
        op = special_from_vector_inertia(inertia3, 0.4)
        basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
        system = LRSystem(op, basis)
        omega_vec = rng.normal(size=3)
        y0 = system.pack(g=np.eye(3), omega=iso3(omega_vec))
        ydot = system.rhs(y0)
        wdot = iso3_inv(lie.vec_to_skew(ydot[system.slice_of("omega")], 3))
        np.testing.assert_allclose(wdot, oracles.euler_top_rhs(omega_vec, inertia3), atol=1e-12)

    def test_unconstrained_conserves_momentum_norm(self, rng):
        basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
        system = LRSystem(rand_spd_operator(rng, 3), basis)
        y0 = system.pack(g=np.eye(3), omega=rand_skew(rng, 3))
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        fn = system.conserved()["momentum_norm"]
        vals = [fn(y) for y in traj.states]
        assert abs(vals[-1] - vals[0]) / abs(vals[0]) < 1e-10

    def test_constraint_derivative_vanishes_along_micro_step(self, rng):
        system, y0 = make_lr(rng, 3)
        h = 1e-4
        y1 = oracles.rk4_step(system.rhs, y0, h)
        for name, resid in system.constraints(y1).items():
            if name.startswith("right_invariant"):
                assert resid < 1e-10

    def test_multipliers_match_kkt_oracle(self, rng):
        for n in (3, 4):
            system, y0 = make_lr(rng, n)
            wv = y0[system.slice_of("omega")]
            omega = lie.vec_to_skew(wv, n)
            iw = lie.vec_to_skew(system.inertia.apply_vec(wv), n)
            rows = [
                [y0[system.slice_of(f"alpha{i + 1}")]]
                for i in range(system.k)
            ]
            (wdot_oracle,) = oracles.kkt_accelerations(
                [system.inertia.matrix],
                [lie.skew_to_vec(lie.ad(iw, omega))],
                rows,
            )
            wdot = system.rhs(y0)[system.slice_of("omega")]
            np.testing.assert_allclose(wdot, wdot_oracle, atol=1e-12)

    def test_noether_integrals_constant(self, rng):
        system, y0 = make_lr(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        for name, (fn, idx) in system.conserved_entries().items():
            vals = np.array([fn(y)[idx] for y in traj.states])
            assert np.max(np.abs(vals - vals[0])) < 1e-10, name


class TestLplusRField:
    def test_zero_pi_is_euler_poincare(self, rng):
        inertia = rand_spd_operator(rng, 3)
        basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
        lr = LRSystem(inertia, basis)
        lpr = LplusRSystem(inertia, np.zeros((3, 3)))
        g = rand_rotation(rng, 3)
        omega = rand_skew(rng, 3)
        y_lr = lr.pack(g=g, omega=omega)
        y_lpr = lpr.pack(g=g, omega=omega)
        np.testing.assert_allclose(
            lpr.rhs(y_lpr)[lpr.slice_of("omega")],
            lr.rhs(y_lr)[lr.slice_of("omega")],
            atol=1e-13,
        )

    def test_rejects_pi0_that_some_rotation_makes_indefinite(self):
        # eig(I + Pi0) = (0.5, 1, 2) > 0, but I is not conjugated with Pi0:
        # the cyclic rotations carry E_12 onto E_23 or back, where
        # B(g) = I + Ad_g^T Pi0 Ad_g has the diagonal entry 1 - 2.5
        inertia = InertiaOperator(3, np.diag([1.0, 2.0, 3.0]))
        pi0 = np.diag([0.0, 0.0, -2.5])
        assert np.linalg.eigvalsh(inertia.matrix + pi0)[0] > 0
        cyclic = np.roll(np.eye(3), 1, axis=0)
        worst = min(
            np.linalg.eigvalsh(inertia.matrix + q.T @ pi0 @ q)[0]
            for q in (lie.adjoint_matrix(cyclic), lie.adjoint_matrix(cyclic.T))
        )
        assert worst < 0
        with pytest.raises(ValueError, match="every rotation"):
            LplusRSystem(inertia, pi0)

    def test_isotropic_inertia_is_stationary(self, rng):
        lpr = LplusRSystem(InertiaOperator.identity(3), rand_pi0(rng, InertiaOperator.identity(3)))
        y0 = lpr.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3))
        np.testing.assert_allclose(lpr.rhs(y0)[lpr.slice_of("omega")], 0.0, atol=1e-13)

    def test_momentum_norm_derivative_vanishes(self, rng):
        system, y0 = make_lplusr(rng, 3)
        h = 1e-5
        y_plus = oracles.rk4_step(system.rhs, y0, h)
        y_minus = oracles.rk4_step(system.rhs, y0, -h)
        deriv = (system.momentum_norm(y_plus) - system.momentum_norm(y_minus)) / (2 * h)
        assert abs(deriv) < 1e-9

    def test_conserves_energy_and_momentum(self, rng):
        system, y0 = make_lplusr(rng, 4)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        e = [system.energy(y) for y in traj.states]
        m = [system.momentum_norm(y) for y in traj.states]
        assert abs(e[-1] - e[0]) / abs(e[0]) < 1e-10
        assert abs(m[-1] - m[0]) / abs(m[0]) < 1e-10


class TestGeodesicLplusR:
    def test_zero_pi_is_free_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        geo = GeodesicLplusRSystem(inertia, np.zeros((3, 3)))
        lpr = LplusRSystem(inertia, np.zeros((3, 3)))
        y0 = geo.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3))
        np.testing.assert_allclose(geo.rhs(y0), lpr.rhs(y0), atol=1e-13)

    def test_scalar_operators_are_stationary(self, rng):
        geo = GeodesicLplusRSystem(InertiaOperator.scalar(3, 1.4), 0.8 * np.eye(3))
        y0 = geo.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3))
        np.testing.assert_allclose(geo.rhs(y0)[geo.slice_of("omega")], 0.0, atol=1e-13)

    def test_energy_conserved_over_long_run(self, rng):
        system, y0 = make_lplusr(rng, 3, geodesic=True)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        e = [system.energy(y) for y in traj.states]
        assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-8

    def test_differs_from_modified_flow(self, rng):
        # the geodesic flow keeps the configuration-dependent force; the
        # modified flow drops it, so the fields differ for generic data
        inertia = rand_spd_operator(rng, 3)
        pi0 = rand_pi0(rng, inertia)
        geo = GeodesicLplusRSystem(inertia, pi0)
        lpr = LplusRSystem(inertia, pi0)
        y0 = geo.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3))
        assert np.max(np.abs(geo.rhs(y0) - lpr.rhs(y0))) > 1e-4


class TestPenaltyLimit:
    def test_constrained_isotropic_data_identical_for_every_epsilon(self, rng):
        inertia = InertiaOperator.identity(3)
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3)
        wv = rng.normal(size=3)
        wv -= (basis.vectors[:, 0] @ wv) * basis.vectors[:, 0]
        omega = lie.vec_to_skew(wv, 3)
        lr = LRSystem(inertia, basis)
        y_lr = lr.initial_state(np.eye(3), omega)
        cfg = IntegratorConfig(h=1e-3, steps=200)
        ref = integrate(lr, y_lr, cfg)
        for eps in (1e2, 1e4):
            lpr = LplusRSystem(inertia, penalty_pi0(basis, eps))
            traj = integrate(lpr, lpr.pack(g=np.eye(3), omega=omega), cfg)
            np.testing.assert_allclose(
                traj.component("omega"), ref.component("omega"), atol=1e-12
            )
