"""Acceptance battery: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to stream them).
Long trajectories (T = 10, h = 1e-3) are shared between criteria through a
module-scoped fixture; scenario generation is deterministic per seed.  The
criteria evaluate each state function on a trajectory's states in one
stacked call, which gives each state's value bit for bit.
"""

import zlib

import numpy as np
import pytest

import oracles
from helpers import (
    MAKERS,
    iso3,
    iso3_inv,
    make_coupled,
    rand_skew,
    rand_spd_operator,
    rand_unit,
    special_from_vector_inertia,
    special_inertia,
)
from lrsim import diagnostics as diag
from lrsim import liecore as lie
from lrsim.integrators import IntegratorConfig, integrate
from lrsim.systems import (
    CoupledReducedSystem,
    GsrSystem,
    LplusRSystem,
    LRSystem,
    NCoupledSystem,
    RubberChaplyginSystem,
    commutator_constraint_matrices,
    vertical_vector,
)

H = 1e-3
T_STEPS = 10000  # T = 10
DIMS = (3, 4, 3, 4, 3)  # five random scenarios per system, both dimensions


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion:>2} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def long_runs():
    """T = 10 trajectories: five random scenarios per acceptance system."""
    runs = {}
    for kind, maker in MAKERS.items():
        cases = []
        for i, n in enumerate(DIMS):
            rng = np.random.default_rng(1000 + 17 * i + zlib.crc32(kind.encode()) % 97)
            system, y0 = maker(rng, n)
            traj = integrate(system, y0, IntegratorConfig(h=H, steps=T_STEPS))
            cases.append((system, traj))
        runs[kind] = cases
    return runs


@pytest.fixture(scope="module")
def coupled_full_runs():
    """T = 10 trajectories of the full coupled system (criterion 5)."""
    cases = []
    for i, n in enumerate(DIMS):
        rng = np.random.default_rng(2000 + 31 * i)
        system, y0 = make_coupled(rng, n, full=True)
        traj = integrate(system, y0, IntegratorConfig(h=H, steps=T_STEPS))
        cases.append((system, traj))
    return cases


def test_criterion_01_energy_conservation(long_runs):
    worst = 0.0
    worst_case = ""
    for kind, cases in long_runs.items():
        for idx, (system, traj) in enumerate(cases):
            e = system.energy(traj.states)
            drift = np.max(np.abs(e - e[0])) / abs(e[0])
            if drift > worst:
                worst, worst_case = drift, f"{kind}[{idx}] n={system.n}"
    report(1, worst < 1e-8, f"energy drift over T=10: worst {worst:.2e} ({worst_case}) < 1e-8")


def test_criterion_02_constraint_preservation(long_runs):
    worst = 0.0
    worst_case = ""
    for kind, cases in long_runs.items():
        for idx, (system, traj) in enumerate(cases):
            for name, resid in system.constraints(traj.states[:: 10]).items():
                if np.max(resid) > worst:
                    worst, worst_case = np.max(resid), f"{kind}[{idx}].{name}"
    report(2, worst < 1e-8, f"constraint residuals over T=10: worst {worst:.2e} ({worst_case}) < 1e-8")


def test_criterion_03_momentum_integral(long_runs):
    worst = 0.0
    for system, traj in long_runs["lplusr"]:
        m = system.momentum_norm(traj.states)
        worst = max(worst, np.max(np.abs(m - m[0])) / abs(m[0]))
    report(3, worst < 1e-8, f"momentum-norm drift over T=10: worst {worst:.2e} < 1e-8")


def test_criterion_04_trace_integrals(long_runs):
    worst = 0.0
    for kind in ("support", "rubber-support"):
        for system, traj in long_runs[kind]:
            states = traj.states[:: 20]
            for k in range(1, system.n + 1):
                coeffs = system.trace_coefficients(states, k)
                drift = np.max(np.abs(coeffs - coeffs[0]), axis=0)
                scale = np.maximum(np.abs(coeffs[0]), 1.0)
                worst = max(worst, float(np.max(drift / scale)))
    # functional independence for the three-dimensional rubber variant
    ranks = []
    for system, traj in long_runs["rubber-support"]:
        if system.n != 3:
            continue
        # the energy and the trace groups of k = 2, 3
        functions = list(system.conserved().values())
        ranks.append(diag.functional_independence_rank(functions, [traj.states[0], traj.states[-1]]))
    ok = worst < 1e-8 and all(r >= 4 for r in ranks)
    report(4, ok, f"trace-integral drift {worst:.2e} < 1e-8; independence ranks {ranks} >= 4")


def test_criterion_05_noether_laws(coupled_full_runs):
    worst = 0.0
    worst_name = ""
    for system, traj in coupled_full_runs:
        for name, (fn, idx) in system.conserved_entries().items():
            if not name.startswith("noether"):
                continue
            vals = fn(traj.states)[idx]
            drift = float(np.max(np.abs(vals - vals[0])))
            if drift > worst:
                worst, worst_name = drift, name
    report(5, worst < 1e-8, f"linear conservation laws: worst drift {worst:.2e} ({worst_name}) < 1e-8")


def test_criterion_06_reduction_equivalence():
    worst_traj = 0.0
    for i in range(3):
        rng = np.random.default_rng(3000 + i)
        system, y0 = make_coupled(rng, 3, full=True)
        reduced = CoupledReducedSystem(
            system.inertia, system.h0, system.subspaces, system.coupling, system.rhos
        )
        dev, _, _ = diag.reduction_equivalence(
            system, reduced, y0, IntegratorConfig(h=H, steps=1000)
        )
        worst_traj = max(worst_traj, dev)
    # commutator-constrained couplings must reproduce the closed-form operator
    rng = np.random.default_rng(3100)
    worst_field = 0.0
    for n in (3, 4):
        inertia = rand_spd_operator(rng, n)
        gammas = [rand_skew(rng, n) for _ in range(2)]
        rhos = [0.7, -1.2]
        couplings = [1.1, 0.6]
        a_mats, b_mats = commutator_constraint_matrices(gammas, rhos)
        system = NCoupledSystem(inertia, a_mats, b_mats, couplings)
        for _ in range(10):
            from helpers import rand_rotation

            g = rand_rotation(rng, n)
            q = lie.adjoint_matrix(g)
            wv = rng.normal(size=system.N)
            parts = {"g": g, "omega": lie.vec_to_skew(wv, n)}
            for j, (gamma, rho) in enumerate(zip(gammas, rhos)):
                parts[f"W{j + 1}"] = -(a_mats[j] @ (q @ wv)) / rho
            y = system.pack(**parts)
            b = inertia.matrix.copy()
            for gamma, rho, d in zip(gammas, rhos, couplings):
                adg = lie.ad_matrix(lie.Ad(g.T, gamma))
                b += (d / rho**2) * (adg.T @ adg)
            omega = lie.vec_to_skew(wv, n)
            iw = lie.vec_to_skew(inertia.apply_vec(wv), n)
            expected = np.linalg.solve(b, lie.skew_to_vec(lie.ad(iw, omega)))
            got = system.rhs(y)[system.slice_of("omega")]
            worst_field = max(worst_field, float(np.max(np.abs(got - expected))))
    ok = worst_traj < 1e-6 and worst_field < 1e-10
    report(
        6,
        ok,
        f"full-vs-reduced sup {worst_traj:.2e} < 1e-6; closed-form field gap {worst_field:.2e} < 1e-10",
    )


def test_criterion_07_penalty_limit():
    rng = np.random.default_rng(4000)
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
        IntegratorConfig(h=H, steps=1000),
    )
    decreasing = study.errors[0] > study.errors[1] > study.errors[2]
    ok = decreasing and study.errors[2] < 1e-4
    report(
        7,
        ok,
        "penalty-limit errors "
        + " > ".join(f"{e:.2e}" for e in study.errors)
        + f" decreasing, final < 1e-4 (rate {study.slope:.2f})",
    )


def test_criterion_08_invariant_measures():
    from helpers import rand_pi0, rand_rotation

    rng = np.random.default_rng(5000)
    n = 3
    worst = {}
    # the constrained rigid body: the LR flow and the density of Fedorov and
    # Jovanovic, at 100 states off the constraint level
    inertia = rand_spd_operator(rng, n)
    lr = LRSystem(inertia, lie.orthonormal_basis_of([rand_skew(rng, n)], n=n))
    states = [lr.initial_state(rand_rotation(rng, n), rand_skew(rng, n)) for _ in range(100)]
    worst["lr"] = np.max(np.abs(diag.measure_divergence(lr.rhs, lr.measure_density, states).value))
    # the L+R flow and its density sqrt det B
    lpr = LplusRSystem(inertia, rand_pi0(rng, inertia))
    states = [lpr.pack(g=rand_rotation(rng, n), omega=rand_skew(rng, n)) for _ in range(100)]
    worst["lplusr"] = np.max(
        np.abs(diag.measure_divergence(lpr.rhs, lpr.measure_density, states).value)
    )
    # reduced rolling chart
    from lrsim.systems import CotangentSystem

    inertia4 = rand_spd_operator(rng, n)
    cot = CotangentSystem(inertia4, 1.1, 0.9)
    density = diag.reduced_chaplygin_density(inertia4, 1.1, 0.9)
    states = []
    for _ in range(100):
        gamma = rand_unit(rng, n)
        p = rng.normal(size=n)
        p -= gamma * (gamma @ p)
        states.append(np.concatenate([gamma, p]))
    worst["reduced"] = np.max(np.abs(diag.measure_divergence(cot.rhs, density, states).value))
    # closed-form exponent
    slopes = {}
    for dim in (3, 4):
        inertia_s, axes, c = special_inertia(rng, dim)
        dens = diag.reduced_chaplygin_density(inertia_s, c, 1.0)
        logs = []
        for _ in range(100):
            gamma = rand_unit(rng, dim)
            state = np.concatenate([gamma, np.zeros(dim)])
            logs.append((np.log((axes * gamma) @ gamma), np.log(dens(state))))
        logs = np.array(logs)
        slopes[dim] = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    ok = max(worst.values()) < 1e-5 and all(
        abs(slopes[d] + (d - 2) / 2.0) < 1e-6 for d in slopes
    )
    report(
        8,
        ok,
        "divergences "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" < 1e-5; exponents {slopes[3]:.8f}, {slopes[4]:.8f}",
    )


def test_criterion_09_hamiltonization():
    rng = np.random.default_rng(6000)
    sups, drifts = [], []
    for n in (3, 4):
        inertia, axes, c = special_inertia(rng, n)
        gamma0 = rand_unit(rng, n)
        p0 = rng.normal(size=n)
        p0 -= gamma0 * (gamma0 @ p0)
        sup_geo, _, traj_geo = diag.hamiltonization_check(
            inertia, c, 1.0, gamma0, p0, h=H
        )
        sups.append(sup_geo)
        drifts.append(diag.conservation_report(traj_geo)[0].max_rel_drift)
    ok = max(sups) < 1e-6 and max(drifts) < 1e-8
    report(
        9,
        ok,
        f"rescaled flow vs geodesic flow sup {max(sups):.2e} < 1e-6; "
        f"geodesic energy drift {max(drifts):.2e} < 1e-8",
    )


def test_criterion_10_three_dimensional_cross_checks():
    rng = np.random.default_rng(7000)
    # rubber rolling ball against the classical vector equations over T = 1
    inertia3 = np.array([1.2, 1.7, 2.5])
    mass, radius = 0.9, 1.1
    op = special_from_vector_inertia(inertia3, mass * radius**2)
    system = RubberChaplyginSystem(op, mass, radius)
    from helpers import rand_rotation

    g0 = rand_rotation(rng, 3)
    gamma0 = g0.T @ vertical_vector(3)
    omega_vec0 = np.cross(gamma0, rng.normal(size=3))
    y0 = system.pack(g=g0, omega=iso3(omega_vec0))
    steps = 1000
    traj = integrate(system, y0, IntegratorConfig(h=H, steps=steps))

    def vector_rhs(z):
        wd, gd = oracles.rubber_ball_rhs(z[:3], z[3:], inertia3, mass, radius)
        return np.concatenate([wd, gd])

    z = np.concatenate([omega_vec0, gamma0])
    worst_traj = 0.0
    for i in range(steps):
        z = oracles.rk4_step(vector_rhs, z, H)
        y = traj.states[i + 1]
        omega_vec = iso3_inv(lie.vec_to_skew(y[system.slice_of("omega")], 3))
        worst_traj = max(
            worst_traj,
            float(np.max(np.abs(omega_vec - z[:3]))),
            float(np.max(np.abs(system.gamma_of(y) - z[3:]))),
        )
    # orbit-form generalization against the classical no-slip reduced field
    inertia_g = special_from_vector_inertia(np.array([0.9, 1.4, 2.2]), 0.3)
    gsr = GsrSystem(inertia_g, 1.1, 0.8)
    worst_field = 0.0
    for _ in range(20):
        gamma_vec = rand_unit(rng, 3)
        omega_vec = rng.normal(size=3)
        y = gsr.pack(gamma=iso3(gamma_vec), omega=iso3(omega_vec))
        ydot = gsr.rhs(y)
        wdot = iso3_inv(lie.vec_to_skew(ydot[gsr.slice_of("omega")], 3))
        gdot = iso3_inv(lie.vec_to_skew(ydot[gsr.slice_of("gamma")], 3))
        wdot_o, gdot_o = oracles.chaplygin_sphere_rhs(
            omega_vec, gamma_vec, np.array([0.9, 1.4, 2.2]), 1.1 * 0.8**2
        )
        worst_field = max(
            worst_field,
            float(np.max(np.abs(wdot - wdot_o))),
            float(np.max(np.abs(gdot - gdot_o))),
        )
    ok = worst_traj < 1e-8 and worst_field < 1e-10
    report(
        10,
        ok,
        f"rubber ball vs vector equations {worst_traj:.2e} < 1e-8; "
        f"orbit form vs classical field {worst_field:.2e} < 1e-10",
    )


def test_criterion_11_contact_reconstruction(long_runs):
    worst = 0.0
    for system, traj in long_runs["rubber-chaplygin"]:
        path = diag.reconstruct_contact(traj)
        worst = max(worst, float(np.max(np.abs(path[:, -1]))))
    report(11, worst < 1e-9, f"normal coordinate of the contact path {worst:.2e} < 1e-9 over T=10")


def test_criterion_12_integrator_order():
    from test_integrators import free_top_system

    system = free_top_system()
    y0 = system.pack(g=np.eye(3), omega=iso3(np.array([0.4, 1.1, -0.3])))
    t_end = 1.0
    ref = integrate(system, y0, IntegratorConfig(h=t_end / 6400, steps=6400)).states[-1]
    errs = []
    for steps in (50, 100):
        out = integrate(system, y0, IntegratorConfig(h=t_end / steps, steps=steps)).states[-1]
        errs.append(float(np.max(np.abs(out - ref))))
    ratio = errs[0] / errs[1]
    report(12, 14.0 <= ratio <= 18.0, f"self-convergence ratio {ratio:.2f} in [14, 18]")
