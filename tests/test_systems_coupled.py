"""Coupled systems: multiplier structure, reduction, slaved reconstruction."""

import numpy as np
import pytest

import oracles
from helpers import (
    make_coupled,
    make_ncoupled,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
    rand_subspaces,
)
from lrsim import liecore as lie
from lrsim.diagnostics import reconstruct_W, reduction_equivalence
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.operators import InertiaOperator
from lrsim.systems import (
    CoupledFullSystem,
    CoupledReducedSystem,
    LplusRSystem,
    NCoupledSystem,
    commutator_constraint_matrices,
)


def coupled_kkt_omega_W_dot(system, y):
    """Independent multiplier solve for the full coupled field."""
    n = system.n
    g = y[system.slice_of("g")].reshape(n, n)
    wv = y[system.slice_of("omega")]
    omega = lie.vec_to_skew(wv, n)
    iw = lie.vec_to_skew(system.inertia.apply_vec(wv), n)
    q = lie.adjoint_matrix(g)
    rows = []
    if system.h0 is not None:
        for j in range(system.h0.dim):
            rows.append([q.T @ system.h0.vectors[:, j], np.zeros(system.N)])
    for h, rho in zip(system.subspaces, system.rhos):
        for j in range(h.dim):
            rows.append([q.T @ h.vectors[:, j], rho * h.vectors[:, j]])
    return oracles.kkt_accelerations(
        [system.inertia.matrix, system.coupling * np.eye(system.N)],
        [lie.skew_to_vec(lie.ad(iw, omega)), np.zeros(system.N)],
        rows,
    )


class TestCoupledFull:
    def test_no_constraints_is_free_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        system = CoupledFullSystem(inertia, None, [], 1.0, [])
        y0 = system.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3), W=rand_skew(rng, 3))
        ydot = system.rhs(y0)
        np.testing.assert_allclose(ydot[system.slice_of("W")], 0.0, atol=1e-14)
        wv = y0[system.slice_of("omega")]
        omega = lie.vec_to_skew(wv, 3)
        iw = lie.vec_to_skew(inertia.apply_vec(wv), 3)
        expected = inertia.solve_vec(lie.skew_to_vec(lie.ad(iw, omega)))
        np.testing.assert_allclose(ydot[system.slice_of("omega")], expected, atol=1e-13)

    def test_isotropic_inertia_is_stationary(self, rng):
        h1, = rand_subspaces(rng, 3, [1])
        system = CoupledFullSystem(InertiaOperator.identity(3), None, [h1], 1.2, [0.7])
        g = rand_rotation(rng, 3)
        q = lie.adjoint_matrix(g)
        wv = rng.normal(size=3)
        Wv = rng.normal(size=3)
        Wv -= h1.vectors @ (h1.vectors.T @ Wv)
        Wv -= (1 / 0.7) * h1.vectors @ (h1.vectors.T @ (q @ wv))
        y0 = system.pack(g=g, omega=lie.vec_to_skew(wv, 3), W=lie.vec_to_skew(Wv, 3))
        ydot = system.rhs(y0)
        np.testing.assert_allclose(ydot[system.slice_of("omega")], 0.0, atol=1e-13)
        np.testing.assert_allclose(ydot[system.slice_of("W")], 0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4])
    def test_field_matches_kkt_oracle(self, n, rng):
        system, y0 = make_coupled(rng, n, full=True)
        wdot_o, Wdot_o = coupled_kkt_omega_W_dot(system, y0)
        ydot = system.rhs(y0)
        np.testing.assert_allclose(ydot[system.slice_of("omega")], wdot_o, atol=1e-11)
        np.testing.assert_allclose(ydot[system.slice_of("W")], Wdot_o, atol=1e-11)

    def test_constraints_preserved_along_micro_step(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        y1 = oracles.rk4_step(system.rhs, y0, 1e-4)
        for name, resid in system.constraints(y1).items():
            if name.endswith("_constraint"):
                assert resid < 1e-10, name

    def test_energy_and_noether_conserved(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        for name, (fn, idx) in system.conserved_entries().items():
            vals = np.array([fn(y)[idx] for y in traj.states])
            scale = max(abs(vals[0]), 1.0)
            assert np.max(np.abs(vals - vals[0])) / scale < 1e-10, name


class TestReduction:
    def test_full_and_reduced_trajectories_agree(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        reduced = CoupledReducedSystem(
            system.inertia, system.h0, system.subspaces, system.coupling, system.rhos
        )
        dev, _, _ = reduction_equivalence(
            system, reduced, y0, IntegratorConfig(h=1e-3, steps=1000)
        )
        assert dev < 1e-6

    def test_without_lock_reduced_flow_is_lplusr(self, rng):
        # no h_0 constraint: the reduced flow is an L+R system whose
        # right-invariant operator is the projector sum
        inertia = rand_spd_operator(rng, 3)
        h1, = rand_subspaces(rng, 3, [1])
        coupling, rho = 1.3, 0.8
        reduced = CoupledReducedSystem(inertia, None, [h1], coupling, [rho])
        pi0 = (coupling / rho**2) * (h1.vectors @ h1.vectors.T)
        lpr = LplusRSystem(inertia, pi0)
        g = rand_rotation(rng, 3)
        omega = rand_skew(rng, 3)
        y_red = reduced.pack(g=g, omega=omega)
        y_lpr = lpr.pack(g=g, omega=omega)
        np.testing.assert_allclose(reduced.rhs(y_red), lpr.rhs(y_lpr), atol=1e-12)

    def test_reduced_energy_conserved(self, rng):
        system, y0 = make_coupled(rng, 4, full=False)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=2000))
        e = [system.energy(y) for y in traj.states]
        assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-10

    def test_spatial_momentum_component_conserved(self, rng):
        system, y0 = make_coupled(rng, 3, full=False)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=1000))
        for name, (fn, idx) in system.conserved_entries().items():
            if not name.startswith("noether_k0"):
                continue
            vals = np.array([fn(y)[idx] for y in traj.states])
            assert np.max(np.abs(vals - vals[0])) < 1e-10, name


class TestWReconstruction:
    def test_zero_free_component_stays_zero(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        w0 = y0[system.slice_of("W")]
        w0_locked = w0 - system.k_space.vectors @ (system.k_space.vectors.T @ w0)
        y0[system.slice_of("W")] = w0_locked
        reduced = CoupledReducedSystem(
            system.inertia, system.h0, system.subspaces, system.coupling, system.rhos
        )
        y_red = reduced.pack(
            g=y0[system.slice_of("g")].reshape(3, 3),
            omega=y0[system.slice_of("omega")],
        )
        traj = integrate(reduced, y_red, IntegratorConfig(h=1e-3, steps=200))
        w_rec = reconstruct_W(traj, lie.vec_to_skew(w0_locked, 3))
        proj = system.k_space.vectors.T @ w_rec.T
        assert np.max(np.abs(proj)) < 1e-12

    def test_matches_integrated_W(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        reduced = CoupledReducedSystem(
            system.inertia, system.h0, system.subspaces, system.coupling, system.rhos
        )
        cfg = IntegratorConfig(h=1e-3, steps=1000)
        traj_full = integrate(system, y0, cfg)
        y_red = reduced.pack(
            g=y0[system.slice_of("g")].reshape(3, 3),
            omega=y0[system.slice_of("omega")],
        )
        traj_red = integrate(reduced, y_red, cfg)
        w_rec = reconstruct_W(traj_red, lie.vec_to_skew(y0[system.slice_of("W")], 3))
        assert np.max(np.abs(w_rec - traj_full.component("W"))) < 1e-7

    def test_reconstructed_W_satisfies_constraints_exactly(self, rng):
        system, y0 = make_coupled(rng, 3, full=True)
        reduced = CoupledReducedSystem(
            system.inertia, system.h0, system.subspaces, system.coupling, system.rhos
        )
        y_red = reduced.pack(
            g=y0[system.slice_of("g")].reshape(3, 3),
            omega=y0[system.slice_of("omega")],
        )
        traj = integrate(reduced, y_red, IntegratorConfig(h=1e-3, steps=300))
        w_rec = reconstruct_W(traj, lie.vec_to_skew(y0[system.slice_of("W")], 3))
        for i, y in enumerate(traj.states):
            g = y[reduced.slice_of("g")].reshape(3, 3)
            omega_space = lie.adjoint_matrix(g) @ y[reduced.slice_of("omega")]
            for h, rho in zip(system.subspaces, system.rhos):
                resid = h.vectors.T @ (omega_space + rho * w_rec[i])
                assert np.max(np.abs(resid)) < 1e-12


class TestNCoupled:
    def test_zero_constraint_matrices_give_free_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        a = np.zeros((2, 3))
        b = np.eye(2)
        system = NCoupledSystem(inertia, [a], [np.eye(2)[:, :2] @ b], [1.0])
        y0 = system.pack(g=np.eye(3), omega=rand_skew(rng, 3), W1=np.zeros(2))
        ydot = system.rhs(y0)
        wv = y0[system.slice_of("omega")]
        omega = lie.vec_to_skew(wv, 3)
        iw = lie.vec_to_skew(inertia.apply_vec(wv), 3)
        np.testing.assert_allclose(
            ydot[system.slice_of("omega")],
            inertia.solve_vec(lie.skew_to_vec(lie.ad(iw, omega))),
            atol=1e-13,
        )
        np.testing.assert_allclose(ydot[system.slice_of("W1")], 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_commutator_family_matches_projector_closed_form(self, n, rng):
        # constraints [Omega, Gamma_i] + rho_i W_i = 0 must reproduce the
        # closed-form operator I + sum D_i/rho_i^2 [[gamma_i, .], gamma_i]
        inertia = rand_spd_operator(rng, n)
        gammas = [rand_skew(rng, n) for _ in range(2)]
        rhos = [0.7, -1.1]
        couplings = [0.9, 1.4]
        a_mats, b_mats = commutator_constraint_matrices(gammas, rhos)
        system = NCoupledSystem(inertia, a_mats, b_mats, couplings)
        g = rand_rotation(rng, n)
        q = lie.adjoint_matrix(g)
        wv = rng.normal(size=system.N)
        parts = {"g": g, "omega": lie.vec_to_skew(wv, n)}
        for i, (gamma, rho) in enumerate(zip(gammas, rhos)):
            parts[f"W{i + 1}"] = -(a_mats[i] @ (q @ wv)) / rho
        y0 = system.pack(**parts)
        system.validate(y0)
        b = inertia.matrix.copy()
        omega = lie.vec_to_skew(wv, n)
        for gamma, rho, d in zip(gammas, rhos, couplings):
            gamma_body = lie.Ad(g.T, gamma)
            adg = lie.ad_matrix(gamma_body)
            b += (d / rho**2) * (adg.T @ adg)
        iw = lie.vec_to_skew(inertia.apply_vec(wv), n)
        expected = np.linalg.solve(b, lie.skew_to_vec(lie.ad(iw, omega)))
        np.testing.assert_allclose(
            system.rhs(y0)[system.slice_of("omega")], expected, atol=1e-11
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_general_constraints_reduce_to_lplusr(self, n):
        # for any A_i, B_i the (g, omega) field is the L+R flow with
        # Pi0 = sum_i D_i A_i^T (B_i B_i^T)^-1 A_i
        local = np.random.default_rng(40 + n)
        inertia = rand_spd_operator(local, n)
        N = lie.so_dim(n)
        shapes = [(2, 3), (N, N + 1)]
        a_mats = [local.normal(size=(m, N)) for m, _ in shapes]
        b_mats = [local.normal(size=shape) for shape in shapes]
        couplings = [0.8, 1.3]
        system = NCoupledSystem(inertia, a_mats, b_mats, couplings)
        pi0 = sum(d * a.T @ np.linalg.solve(b @ b.T, a) for a, b, d in zip(a_mats, b_mats, couplings))
        lpr = LplusRSystem(inertia, pi0)
        g, wv = rand_rotation(local, n), local.normal(size=N)
        parts = {"g": g, "omega": lie.vec_to_skew(wv, n)}
        parts.update({f"W{i + 1}": local.normal(size=p) for i, (_, p) in enumerate(shapes)})
        ydot = system.rhs(system.pack(**parts))
        expected = lpr.rhs(lpr.pack(g=g, omega=parts["omega"]))
        for name in ("g", "omega"):
            np.testing.assert_allclose(
                ydot[system.slice_of(name)], expected[lpr.slice_of(name)], rtol=0, atol=1e-12
            )

    def test_constraint_preserved_along_micro_step(self, rng):
        inertia = rand_spd_operator(rng, 3)
        gamma = rand_skew(rng, 3)
        a_mats, b_mats = commutator_constraint_matrices([gamma], [0.6])
        system = NCoupledSystem(inertia, a_mats, b_mats, [1.2])
        g = rand_rotation(rng, 3)
        q = lie.adjoint_matrix(g)
        wv = rng.normal(size=3)
        y0 = system.pack(
            g=g, omega=lie.vec_to_skew(wv, 3), W1=-(a_mats[0] @ (q @ wv)) / 0.6
        )
        y1 = oracles.rk4_step(system.rhs, y0, 1e-4)
        assert system.constraints(y1)["body1_constraint"] < 1e-10

    def test_rejects_singular_coupler(self, rng):
        inertia = rand_spd_operator(rng, 3)
        a = rng.normal(size=(2, 3))
        b_singular = np.zeros((2, 2))
        with pytest.raises(ValueError, match="not invertible"):
            NCoupledSystem(inertia, [a], [b_singular], [1.0])


class TestPartnerModel:
    @pytest.mark.parametrize("n", [3, 4])
    def test_coupled_pi0_is_the_weighted_projector_sum(self, n):
        # one partner with rows h_i^T in A and rho_i h_i^T in B
        local = np.random.default_rng(50 + n)
        h0, h1, h2 = rand_subspaces(local, n, [1, 1, n - 2])
        coupling, rhos = 1.1, [0.7, -1.3]
        system = CoupledReducedSystem(rand_spd_operator(local, n), h0, [h1, h2], coupling, rhos)
        expected = sum(
            (coupling / rho**2) * (h.vectors @ h.vectors.T) for h, rho in zip([h1, h2], rhos)
        )
        np.testing.assert_allclose(system.pi0, expected, rtol=0, atol=1e-14)

    def test_reconstruct_W_matches_integrated_ncoupled_W1(self):
        # the commutator family has B = rho Id: W1 is slaved entirely
        system, y0 = make_ncoupled(np.random.default_rng(55), 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=1000))
        (w_rec,) = reconstruct_W(traj)
        assert np.max(np.abs(w_rec - traj.component("W1"))) < 1e-7

    def test_reconstruct_W_carries_the_free_part_of_ncoupled_W1(self):
        # B is 2 x 4, so W1 keeps a two-dimensional free part
        local = np.random.default_rng(56)
        a, b = local.normal(size=(2, 3)), local.normal(size=(2, 4))
        system = NCoupledSystem(rand_spd_operator(local, 3), [a], [b], [0.9])
        g, wv = rand_rotation(local, 3), local.normal(size=3)
        pinv_b = np.linalg.pinv(b)
        w1 = -pinv_b @ (a @ (lie.adjoint_matrix(g) @ wv))
        w1 += (np.eye(4) - pinv_b @ b) @ local.normal(size=4)
        y0 = system.pack(g=g, omega=wv, W1=w1)
        system.validate(y0)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=1000))
        (w_rec,) = reconstruct_W(traj, [w1])
        assert np.max(np.abs(w_rec - traj.component("W1"))) < 1e-7
