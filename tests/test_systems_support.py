"""Spherical support flows: contact transport, trace integrals, no-twist."""

import numpy as np
import pytest

import oracles
from helpers import (
    iso3,
    iso3_inv,
    make_rubber_support,
    make_support,
    rand_rotation,
    rand_skew,
    rand_spd_operator,
    rand_unit,
    special_from_vector_inertia,
)
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.operators import InertiaOperator
from lrsim.systems import RubberSupportSystem, SupportSystem


def support_kkt_omega_dot(system, y, rubber):
    """From-scratch multiplier formulation of the support constraints.

    Velocity blocks: omega plus one W_i per contact.  No-slip rows pair the
    wedge subspace of each contact direction; the rubber variant adds
    no-twist rows over the complementary subspace.
    """
    n = system.n
    g = y[system.slice_of("g")].reshape(n, n)
    wv = y[system.slice_of("omega")]
    omega = lie.vec_to_skew(wv, n)
    iw = lie.vec_to_skew(system.inertia.apply_vec(wv), n)
    masses = [system.inertia.matrix]
    forces = [lie.skew_to_vec(lie.ad(iw, omega))]
    rows = []
    n_b = system.n_bodies
    for i in range(n_b):
        masses.append(system.couplings[i] * np.eye(system.N))
        forces.append(np.zeros(system.N))
    for i in range(n_b):
        gamma_space = g @ y[system.slice_of(f"gamma{i + 1}")]
        gamma_space /= np.linalg.norm(gamma_space)
        wedge_basis = lie.wedge_subspace_basis(gamma_space)
        for j in range(wedge_basis.dim):
            a = wedge_basis.vectors[:, j]
            row = [np.zeros(system.N) for _ in range(n_b + 1)]
            row[0] = lie.skew_to_vec(lie.Ad(g.T, lie.vec_to_skew(a, n)))
            row[i + 1] = system.rhos[i] * a
            rows.append(row)
        if rubber:
            twist_basis = lie.wedge_complement_basis(gamma_space)
            for j in range(twist_basis.dim):
                b = twist_basis.vectors[:, j]
                row = [np.zeros(system.N) for _ in range(n_b + 1)]
                row[0] = lie.skew_to_vec(lie.Ad(g.T, lie.vec_to_skew(b, n)))
                row[i + 1] = -b
                rows.append(row)
    return oracles.kkt_accelerations(masses, forces, rows)[0]


class TestSupportField:
    def test_no_bodies_is_free_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        system = SupportSystem(inertia, [], [])
        y0 = system.pack(g=rand_rotation(rng, 3), omega=rand_skew(rng, 3))
        wv = y0[system.slice_of("omega")]
        omega = lie.vec_to_skew(wv, 3)
        iw = lie.vec_to_skew(inertia.apply_vec(wv), 3)
        np.testing.assert_allclose(
            system.rhs(y0)[system.slice_of("omega")],
            inertia.solve_vec(lie.skew_to_vec(lie.ad(iw, omega))),
            atol=1e-13,
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_kkt_oracle(self, n, rng):
        system, y0 = make_support(rng, n)
        np.testing.assert_allclose(
            system.rhs(y0)[system.slice_of("omega")],
            support_kkt_omega_dot(system, y0, rubber=False),
            atol=1e-11,
        )

    def test_contact_projector_transport_identity(self, rng):
        # X_i = gamma_i gamma_i^T obeys X' = [X, omega] along the flow
        system, y0 = make_support(rng, 3)
        h = 1e-5
        y_p = oracles.rk4_step(system.rhs, y0, h)
        y_m = oracles.rk4_step(system.rhs, y0, -h)
        sl = system.slice_of("gamma1")
        x_p = np.outer(y_p[sl], y_p[sl])
        x_m = np.outer(y_m[sl], y_m[sl])
        omega = lie.vec_to_skew(y0[system.slice_of("omega")], 3)
        x0 = np.outer(y0[sl], y0[sl])
        np.testing.assert_allclose(
            (x_p - x_m) / (2 * h), x0 @ omega - omega @ x0, atol=1e-9
        )

    def test_trace_polynomial_conserved_at_sample_parameters(self, rng):
        system, y0 = make_support(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=1000))
        for mu in (0.0, 1.0, 2.0):
            vals = np.array([system.trace_polynomial(y, mu, 2) for y in traj.states])
            assert np.max(np.abs(vals - vals[0])) < 1e-8

    def test_linear_trace_is_structural(self, rng):
        # tr(B omega + sum mu^i X_i) = sum mu^i independently of the motion
        system, y0 = make_support(rng, 3)
        mu = 0.7
        expected = sum(mu ** (i + 1) for i in range(system.n_bodies))
        assert system.trace_polynomial(y0, mu, 1) == pytest.approx(expected, rel=1e-12)

    def test_matches_classical_chaplygin_sphere_with_substituted_coefficient(self, rng):
        # one contact with D/rho^2 replaced by m rho^2 reproduces the
        # classical no-slip rolling ball reduced field
        inertia3 = np.array([1.1, 1.6, 2.3])
        coeff = 0.8
        op = special_from_vector_inertia(inertia3, 0.4)
        system = SupportSystem(op, [coeff], [1.0])
        gamma = rand_unit(rng, 3)
        omega_vec = rng.normal(size=3)
        y0 = system.pack(g=np.eye(3), omega=iso3(omega_vec), gamma1=gamma)
        ydot = system.rhs(y0)
        wdot = iso3_inv(lie.vec_to_skew(ydot[system.slice_of("omega")], 3))
        wdot_o, gdot_o = oracles.chaplygin_sphere_rhs(omega_vec, gamma, inertia3, coeff)
        np.testing.assert_allclose(wdot, wdot_o, atol=1e-11)
        np.testing.assert_allclose(ydot[system.slice_of("gamma1")], gdot_o, atol=1e-12)


class TestRubberSupportField:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_kkt_oracle(self, n, rng):
        # the projector coefficient D (1 - rho^2)/rho^2 is cross-validated
        # against the raw no-slip + no-twist multiplier formulation
        system, y0 = make_rubber_support(rng, n)
        np.testing.assert_allclose(
            system.rhs(y0)[system.slice_of("omega")],
            support_kkt_omega_dot(system, y0, rubber=True),
            atol=1e-11,
        )

    def test_unit_radius_contacts_shift_inertia(self, rng):
        # rho_i = 1 removes the projector terms entirely
        inertia = rand_spd_operator(rng, 3)
        system = RubberSupportSystem(inertia, [0.6, 0.3], [1.0, 1.0])
        gammas = [rand_unit(rng, 3), rand_unit(rng, 3)]
        y0 = system.pack(
            g=np.eye(3), omega=rand_skew(rng, 3), gamma1=gammas[0], gamma2=gammas[1]
        )
        wv = y0[system.slice_of("omega")]
        omega = lie.vec_to_skew(wv, 3)
        iw = lie.vec_to_skew(inertia.apply_vec(wv), 3)
        shifted = inertia.matrix + 0.9 * np.eye(3)
        expected = np.linalg.solve(shifted, lie.skew_to_vec(lie.ad(iw, omega)))
        np.testing.assert_allclose(system.rhs(y0)[system.slice_of("omega")], expected, atol=1e-12)

    def test_vanishing_moments_give_free_flow(self, rng):
        inertia = rand_spd_operator(rng, 3)
        with pytest.raises(ValueError):
            RubberSupportSystem(inertia, [0.0], [0.5])

    def test_large_radius_keeps_operator_positive(self, rng):
        # the negative projector coefficient D (1 - rho^2)/rho^2 can never
        # outweigh the D Id shift: on the wedge subspace the two combine to
        # D / rho^2 > 0, so the flow stays well posed for any radius
        inertia = InertiaOperator.scalar(3, 0.5)
        system = RubberSupportSystem(inertia, [2.0], [3.0])
        gamma = rand_unit(rng, 3)
        y0 = system.pack(g=np.eye(3), omega=rand_skew(rng, 3), gamma1=gamma)
        assert np.linalg.eigvalsh(system.effective_inertia(y0))[0] > 0
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=500))
        e = [system.energy(y) for y in traj.states]
        assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-10

    def test_four_conserved_quantities_flat_over_long_run(self, rng):
        system, y0 = make_rubber_support(rng, 3)
        traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=10000))
        conserved = system.conserved_entries()
        flat = 0
        for name in ("energy", "trace2_mu0", "trace2_mu1", "trace3_mu1", "trace3_mu2"):
            if name not in conserved:
                continue
            fn, idx = conserved[name]
            vals = np.array([fn(y)[idx] for y in traj.states])
            scale = max(abs(vals[0]), 1.0)
            if np.max(np.abs(vals - vals[0])) / scale < 1e-8:
                flat += 1
        assert flat >= 4


@pytest.mark.parametrize("make", [make_support, make_rubber_support],
                         ids=["support", "rubber-support"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_coefficients_match_trace_polynomial(n, make):
    # the coefficients, summed at sample mu, give the directly formed trace
    local = np.random.default_rng(40 + n)
    system, y = make(local, n)
    for k in range(1, n + 1):
        coeffs = system.trace_coefficients(y, k)
        assert coeffs.shape == (k * system.n_bodies + 1,)
        for mu in (-1.7, -0.3, 0.55, 2.0):
            powers = mu ** np.arange(coeffs.size)
            scale = np.abs(coeffs) @ np.abs(powers)
            assert abs(coeffs @ powers - system.trace_polynomial(y, mu, k)) <= 1e-13 * scale


def test_five_dimensional_support_runs_and_conserves(rng):
    system, y0 = make_support(rng, 5)
    traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=200))
    e = [system.energy(y) for y in traj.states]
    assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-10
    coeffs0 = system.trace_coefficients(traj.states[0], 4)
    coeffs1 = system.trace_coefficients(traj.states[-1], 4)
    np.testing.assert_allclose(coeffs1, coeffs0, atol=1e-9 * max(1.0, np.max(np.abs(coeffs0))))


def test_support_reconstructed_W_conserves_complement_component(rng):
    from lrsim.diagnostics import reconstruct_W

    system, y0 = make_support(rng, 3)
    traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=500))
    w_series = reconstruct_W(traj, [np.zeros(system.N)] * system.n_bodies)
    # the complement component of each W_i is the (zero) initial value
    g0 = traj.states[0][system.slice_of("g")].reshape(3, 3)
    for i in range(system.n_bodies):
        gamma_space = g0 @ traj.states[0][system.slice_of(f"gamma{i + 1}")]
        gamma_space /= np.linalg.norm(gamma_space)
        comp = lie.wedge_complement_basis(gamma_space)
        if comp.dim == 0:
            continue
        proj = comp.vectors.T @ w_series[i].T
        assert np.max(np.abs(proj)) < 1e-12


def test_rubber_support_reconstructed_W_satisfies_both_constraint_families(rng):
    from lrsim.diagnostics import reconstruct_W

    system, y0 = make_rubber_support(rng, 3)
    traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=500))
    w_series = reconstruct_W(traj)
    g0 = traj.states[0][system.slice_of("g")].reshape(3, 3)
    for i, rho in enumerate(system.rhos):
        gamma_space = g0 @ traj.states[0][system.slice_of(f"gamma{i + 1}")]
        gamma_space /= np.linalg.norm(gamma_space)
        wedge_b = lie.wedge_subspace_basis(gamma_space)
        twist_b = lie.wedge_complement_basis(gamma_space)
        for k, y in enumerate(traj.states):
            g = y[system.slice_of("g")].reshape(3, 3)
            omega_space = lie.adjoint_matrix(g) @ y[system.slice_of("omega")]
            no_slip = wedge_b.vectors.T @ (omega_space + rho * w_series[i][k])
            no_twist = twist_b.vectors.T @ (omega_space - w_series[i][k])
            assert np.max(np.abs(no_slip)) < 1e-10
            if twist_b.dim:
                assert np.max(np.abs(no_twist)) < 1e-10


def test_report_fits_trace_coefficients_once_per_block_and_power(monkeypatch):
    from lrsim import diagnostics as diag
    from lrsim.systems.support import _SupportBase

    local = np.random.default_rng(7)
    system = SupportSystem(rand_spd_operator(local, 3), [0.5, 0.3], [0.8, 1.2])
    y0 = system.pack(g=rand_rotation(local, 3), omega=rand_skew(local, 3),
                     gamma1=rand_unit(local, 3), gamma2=rand_unit(local, 3))
    traj = integrate(system, y0, IntegratorConfig(h=1e-3, steps=9))
    fit = _SupportBase.trace_coefficients
    calls = []

    def counting(self, y, k):
        calls.append(k)
        return fit(self, y, k)

    monkeypatch.setattr(_SupportBase, "trace_coefficients", counting)
    report = {q.name: q for q in diag.conservation_report(traj)}
    assert len(calls) == 2  # k = 2, 3 on the one block of 10 states
    for k in (2, 3):
        ref = np.array([fit(system, y, k) for y in traj.states])
        for j in range(2 * k + 1):
            q = report[f"trace{k}_mu{j}"]
            assert q.initial == ref[0, j]
            assert q.max_abs_drift == np.max(np.abs(ref[:, j] - ref[0, j]))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("make", [make_support, make_rubber_support])
def test_body_frame_pi_is_the_conjugated_partner_sum(n, make):
    # each contact is a partner with A = V^T, B = rho V^T (plus the no-twist
    # rows U^T, -U^T for rubber); the flow carries their Pi0 in the body
    # frame, with gamma_i = g^T Gamma_i
    local = np.random.default_rng(60 + n)
    system, y = make(local, n)
    g = y[system.slice_of("g")].reshape(n, n)
    for i in range(system.n_bodies):
        y[system.slice_of(f"gamma{i + 1}")] = g.T @ rand_unit(local, n)
    q = lie.adjoint_matrix(g)
    pi0 = sum(partner.pi0 for partner in system.partners(y))
    np.testing.assert_allclose(system.pi(y)[0], q.T @ pi0 @ q, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rubber_no_twist_rows_are_the_closed_form_complement(n):
    # after the n - 1 no-slip rows V^T, A holds U^T and B holds -U^T, with the
    # columns of U the Householder basis of (R^n ^ Gamma_i)^perp
    local = np.random.default_rng(70 + n)
    system, y = make_rubber_support(local, n)
    g = y[system.slice_of("g")].reshape(n, n)
    for i, partner in enumerate(system.partners(y)):
        gamma_space = g @ y[system.slice_of(f"gamma{i + 1}")]
        u = lie.wedge_complement_basis(gamma_space / np.linalg.norm(gamma_space)).vectors
        np.testing.assert_array_equal(partner.a[n - 1:], u.T)
        np.testing.assert_array_equal(partner.b[n - 1:], -u.T)
