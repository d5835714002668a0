"""Numerical certification of the flows.

Conservation drift reports, invariant-measure divergence checks in flat
redundant charts, the penalty-limit comparison between L+R and LR flows,
reduction equivalences, time-reparametrized cross-checks, and contact-point
reconstruction.

The certificate evaluates its fields on stacked states.  The chart fields
and densities, and the reduced rubber Chaplygin field, map a (m, dim) array
of states to (m, dim) derivatives and (m,) densities in one sequence of
numpy calls.  :func:`measure_divergence` sends its whole central-difference
stencil through them at once, and :func:`hamiltonization_check` evaluates
the field along its physical-time path in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liecore as lie
from .integrators import (
    IntegratorConfig,
    Trajectory,
    hermite_interpolate,
    integrate,
    integrate_reparametrized,
    reparametrize_trajectory,
)
from .operators import MeasureDensity, restricted_inverse_det
from .systems import (
    CotangentSystem,
    LplusRSystem,
    LRSystem,
    LstarGeodesicSystem,
    contact_velocity,
    penalty_pi0,
    reconstruct_coupled_W,
    reconstruct_support_W,
)
from .systems.chaplygin import tangent_inertia

FD_STEP = 1e-5


@dataclass(frozen=True)
class QuantityDrift:
    name: str
    initial: float
    max_abs_drift: float
    max_rel_drift: float


def conservation_report(traj, quantities=None):
    """Drift of named conserved quantities along a trajectory.

    ``quantities`` may list names from the system's conserved set, names of
    the form ``constraint:<residual>``, or (name, callable) pairs; by
    default the full conserved set is reported.  Each selected callable runs
    once per state, however many of its entries are selected.  Relative
    drift is measured against |initial value| when that is meaningful, else
    against the trajectory's own scale.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    system = traj.system
    available = system.conserved_entries()
    if quantities is None:
        selected = list(available.items())
    else:
        selected = []
        for q in quantities:
            if not isinstance(q, str):
                name, fn = q
                selected.append((name, (fn, None)))
            elif q.startswith("constraint:"):
                resid = q.split(":", 1)[1]
                if resid not in system.constraints(traj.states[0]):
                    raise KeyError(
                        f"constraint {resid!r} undefined for system {system.kind!r}"
                    )
                selected.append((q, (system.constraints, resid)))
            elif q not in available:
                raise KeyError(
                    f"quantity {q!r} undefined for system {system.kind!r}; "
                    f"available: {sorted(available)}"
                )
            else:
                selected.append((q, available[q]))
    fns = dict.fromkeys(fn for _, (fn, _) in selected)
    table = []
    for y in traj.states:
        out = {fn: fn(y) for fn in fns}
        table.append([out[fn] if idx is None else out[fn][idx] for _, (fn, idx) in selected])
    table = np.array(table, dtype=float)
    report = []
    for (name, _), values in zip(selected, table.T):
        initial = float(values[0])
        drift = float(np.max(np.abs(values - initial)))
        scale = abs(initial) if abs(initial) > 1e-12 else max(np.max(np.abs(values)), 1.0)
        report.append(QuantityDrift(name, initial, drift, drift / scale))
    return report


def constraint_report(traj):
    """Worst residual of every named constraint along the trajectory.

    A NaN residual at any state makes that constraint's worst value NaN, so
    a check against a tolerance fails.
    """
    worst = {}
    for y in traj.states:
        for name, resid in traj.system.constraints(y).items():
            worst[name] = float(np.maximum(worst.get(name, 0.0), resid))
    return worst


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    refined: float
    warning: bool


def measure_divergence(field, density, state, fd_step=FD_STEP):
    """Central-difference divergence of (density * field) at a flat state.

    A vanishing value certifies that density * (coordinate volume) is
    preserved by the flow.  The estimate is repeated at half the step; a
    large disagreement flags cancellation trouble.

    Both stencils, +-h and +-h/2 along each of the dim coordinates, go out
    as one (4 dim, dim) stack of states: ``field`` maps (m, dim) states to
    (m, dim) derivatives, and ``density`` maps them to (m,) values or
    returns a scalar that holds at every state.
    """
    state = np.asarray(state, dtype=float)
    dim = state.size
    steps = np.array([fd_step, -fd_step, 0.5 * fd_step, -0.5 * fd_step])
    points = state + (steps[:, None, None] * np.eye(dim)).reshape(4 * dim, dim)
    densities = np.broadcast_to(density(points), (4 * dim,)).reshape(4, dim)
    # component i of the field at the states shifted along coordinate i
    flux = densities * np.diagonal(field(points).reshape(4, dim, dim), axis1=1, axis2=2)
    value = float(np.sum((flux[0] - flux[1]) / (2.0 * steps[0])))
    refined = float(np.sum((flux[2] - flux[3]) / (2.0 * steps[2])))
    # roundoff-corrupted estimates are both large and mutually inconsistent;
    # a genuinely vanishing divergence gives two tiny values, a genuinely
    # nonzero one gives two values that agree
    magnitude = max(abs(value), abs(refined))
    warning = bool(abs(value - refined) > 0.5 * magnitude and magnitude > 1e-8)
    return DivergenceEstimate(value, refined, warning)


# --- flat charts carrying the invariant measures ---------------------------

def lr_measure_chart(inertia, k):
    """Extended LR flow on the flat (m, alpha_1..alpha_k) chart.

    Returns (field, density): the momentum equation with multipliers solved
    from the Gram system, the transport equations for the alpha, and the
    density sqrt(det <I^-1 alpha_i, alpha_j>).  Both take one state or a
    stack of them along leading axes.
    """
    n = inertia.n
    N = inertia.N

    def field(z):
        lead = z.shape[:-1]
        mv = z[..., :N]
        alphas = z[..., N:].reshape(lead + (k, N))
        omega = lie.vec_to_skew(inertia.solve_vec(mv[..., None])[..., 0], n)
        torque = lie.skew_to_vec(lie.ad(lie.vec_to_skew(mv, n), omega))
        if not k:
            return torque
        # the reaction C lambda over C = (alpha_i) with
        # (C^T I^-1 C) lambda = -C^T I^-1 torque, as in the kernel's acceleration
        basis = np.swapaxes(alphas, -1, -2)
        binv_basis = inertia.solve_vec(basis)
        lam = np.linalg.solve(
            alphas @ binv_basis, -(np.swapaxes(binv_basis, -1, -2) @ torque[..., None])
        )
        torque = torque + (basis @ lam)[..., 0]
        alpha_mats = lie.vec_to_skew(alphas, n)
        omegas = np.broadcast_to(omega[..., None, :, :], alpha_mats.shape)
        adots = lie.skew_to_vec(lie.ad(alpha_mats, omegas))
        return np.concatenate([torque, adots.reshape(lead + (k * N,))], axis=-1)

    def density(z):
        alphas = z[..., N:].reshape(z.shape[:-1] + (k, N))
        return np.sqrt(restricted_inverse_det(inertia, np.swapaxes(alphas, -1, -2)))

    return field, MeasureDensity("lr", density)


_SYM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _sym_indices(N):
    if N not in _SYM_CACHE:
        indices = np.triu_indices(N)
        for arr in indices:
            arr.setflags(write=False)
        _SYM_CACHE[N] = indices
    return _SYM_CACHE[N]


def sym_to_coords(mat):
    """Upper-triangle entries of a symmetric (..., N, N) stack, shape (..., N(N+1)/2)."""
    rows, cols = _sym_indices(mat.shape[-1])
    return mat[..., rows, cols]


def coords_to_sym(coords, N):
    """Symmetric (..., N, N) stack from upper-triangle entries (inverse of sym_to_coords)."""
    mat = np.zeros(coords.shape[:-1] + (N, N))
    rows, cols = _sym_indices(N)
    mat[..., rows, cols] = coords
    mat[..., cols, rows] = coords
    return mat


def lplusr_measure_chart(inertia):
    """L+R flow on the flat (omega, Pi) chart with density sqrt(det(I + Pi)).

    Pi is a symmetric operator on the algebra; its upper-triangle entries
    are the chart coordinates.  Field and density take one state or a stack
    of them along leading axes.
    """
    n = inertia.n
    N = inertia.N

    def field(z):
        wv = z[..., :N]
        pi = coords_to_sym(z[..., N:], N)
        omega = lie.vec_to_skew(wv, n)
        iw = lie.vec_to_skew(wv @ inertia.matrix, n)  # I is symmetric
        torque = lie.skew_to_vec(lie.ad(iw, omega))
        wdot = np.linalg.solve(inertia.matrix + pi, torque[..., None])[..., 0]
        adw = lie.ad_matrix(omega)
        pidot = pi @ adw - adw @ pi
        return np.concatenate([wdot, sym_to_coords(pidot)], axis=-1)

    def density(z):
        return np.sqrt(np.linalg.det(inertia.matrix + coords_to_sym(z[..., N:], N)))

    return field, MeasureDensity("lplusr", density)


def reduced_chaplygin_density(inertia, mass, radius):
    """Density 1 / sqrt(det (I + m rho^2 Id)|_{R^n ^ gamma}) on (gamma, p).

    Evaluated as (det L(gamma) / m rho^2)^{-1/2} with L of
    :func:`~lrsim.systems.chaplygin.tangent_inertia`.  Only gamma enters; it
    is normalized first, making the density invariant under rescaling of
    gamma (the same extension the cotangent field uses).  It takes one state
    or a stack of them along leading axes.
    """
    mr2 = mass * radius**2
    n = inertia.n

    def density(z):
        gamma = z[..., :n]
        e = lie.wedge_map(gamma / np.linalg.norm(gamma, axis=-1, keepdims=True))
        return np.sqrt(mr2 / np.linalg.det(tangent_inertia(inertia, mr2, e)))

    return MeasureDensity("cotangent", density)


def special_chaplygin_density(axes):
    """Closed-form density (A gamma, gamma)^{-(n-2)/2} for the special inertia.

    gamma is taken normalized, as (A gamma, gamma) / |gamma|^2.  It takes one
    state or a stack of them along leading axes.
    """
    axes = np.asarray(axes, dtype=float)
    n = axes.size

    def density(z):
        gamma = z[..., :n]
        ratio = np.sum(axes * gamma * gamma, axis=-1) / np.sum(gamma * gamma, axis=-1)
        return ratio ** (-(n - 2) / 2.0)

    return MeasureDensity("cotangent-special", density)


def chaplygin_measure_check(states, inertia, mass, radius):
    """Both reduced-measure densities at a (gamma, p) state or a stack of them.

    The first is the general restricted-determinant form, the second the
    closed form available for the special inertia; for that inertia their
    ratio is independent of gamma.
    """
    if inertia.kind != "special":
        raise ValueError("the closed-form density requires the special inertia kind")
    states = np.asarray(states, dtype=float)
    general = reduced_chaplygin_density(inertia, mass, radius)(states)
    closed = special_chaplygin_density(inertia.params["A"])(states)
    return general, closed


# --- penalty limit ----------------------------------------------------------

@dataclass(frozen=True)
class EpsilonStudy:
    epsilons: tuple
    errors: tuple
    slope: float


def epsilon_limit_study(inertia, constraint_basis, g0, omega0, epsilons, cfg):
    """Sup-norm distance between penalized L+R and constrained LR trajectories.

    The L+R flow built on eps * sum_i a_i (x) a_i approaches the LR flow with
    constraints <a_i, Omega> = 0 as eps grows; the errors should decrease.
    """
    lr = LRSystem(inertia, constraint_basis)
    y_lr = lr.initial_state(g0, omega0)
    traj_lr = integrate(lr, y_lr, cfg)
    ref = np.column_stack([traj_lr.component("g"), traj_lr.component("omega")])
    errors = []
    for eps in epsilons:
        lpr = LplusRSystem(inertia, penalty_pi0(constraint_basis, eps))
        y0 = lpr.pack(g=g0, omega=omega0)
        traj = integrate(lpr, y0, cfg)
        cur = np.column_stack([traj.component("g"), traj.component("omega")])
        errors.append(float(np.max(np.abs(cur - ref))))
    slope = float(np.polyfit(np.log(np.asarray(epsilons, dtype=float)), np.log(errors), 1)[0])
    return EpsilonStudy(tuple(float(e) for e in epsilons), tuple(errors), slope)


# --- reconstruction ---------------------------------------------------------

def reconstruct_contact(traj):
    """Contact-point path r(t) - r(0) of a rolling-ball trajectory.

    Cumulative trapezoidal quadrature of rho * Ad_g(omega) Gamma; the last
    coordinate is conserved (the corresponding constraint is holonomic).
    """
    vels = np.array([contact_velocity(traj.system, y) for y in traj.states])
    steps = np.diff(traj.times)[:, None] * (vels[1:] + vels[:-1]) / 2.0
    return np.concatenate([np.zeros((1, vels.shape[1])), np.cumsum(steps, axis=0)])


def reconstruct_W(traj, w0=None):
    """Partner velocities slaved to a coupled or support trajectory.

    For coupled systems ``w0`` supplies the initial second-factor velocity
    whose free component is transported; for support systems the contact
    constraints determine everything and a list of per-body W arrays is
    returned (see :mod:`lrsim.systems`).
    """
    system = traj.system
    if hasattr(system, "n_bodies"):
        return reconstruct_support_W(system, traj.states, w0)
    if w0 is None:
        raise ValueError("coupled reconstruction needs the initial W")
    w0 = np.asarray(w0, dtype=float)
    w0_vec = lie.skew_to_vec(w0) if w0.ndim == 2 else w0
    return reconstruct_coupled_W(system, traj.states, w0_vec)


# --- cross-checks -----------------------------------------------------------

def reduction_equivalence(full_system, reduced_system, y0_full, cfg):
    """Sup-norm deviation of (g, omega) between full and reduced trajectories."""
    traj_full = integrate(full_system, y0_full, cfg)
    y0_red = reduced_system.pack(
        g=y0_full[full_system.slice_of("g")].reshape(full_system.n, full_system.n),
        omega=y0_full[full_system.slice_of("omega")],
    )
    traj_red = integrate(reduced_system, y0_red, cfg)
    dev = 0.0
    for name in ("g", "omega"):
        dev = max(dev, float(np.max(np.abs(traj_full.component(name) - traj_red.component(name)))))
    return dev, traj_full, traj_red


def hamiltonization_check(inertia, mass, radius, gamma0, p0, tau_end=1.0, h=1e-3):
    """Compare the rescaled reduced flow with the quadric geodesic flow.

    Requires the special inertia.  Integrates the (gamma, p) flow directly
    in the rescaled time, and runs the Lagrangian geodesic flow from matched
    initial data.  As an independent path it integrates in physical time,
    maps the grid to tau by the O(h^4) Hermite quadrature of
    :func:`reparametrize_trajectory` and interpolates gamma with the
    piecewise cubic Hermite interpolant whose node slopes are the exact
    field dgamma/dtau = (dgamma/dt) sqrt((A gamma, gamma)); its error is
    O(h^4) as well.  Both read the field, evaluated on the whole
    physical-time path in one call.
    Returns the sup deviation of gamma between the rescaled flow and the
    geodesic flow, the dual-path deviation, and the geodesic trajectory
    for further checks.
    """
    if inertia.kind != "special":
        raise ValueError("the Hamiltonization check requires the special inertia kind")
    axes = inertia.params["A"]
    cot = CotangentSystem(inertia, mass, radius)
    y0 = cot.pack(gamma=gamma0, p=p0)
    steps = int(round(tau_end / h))
    cfg_tau = IntegratorConfig(h=h, steps=steps)
    traj_tau = integrate_reparametrized(cot, y0, axes, cfg_tau)

    gdot0 = cot.gamma_dot_of(np.asarray(gamma0, dtype=float), np.asarray(p0, dtype=float))
    v0 = float(np.sqrt((axes * gamma0) @ gamma0)) * gdot0
    geo = LstarGeodesicSystem(axes)
    traj_geo = integrate(geo, geo.pack(gamma=gamma0, v=v0), cfg_tau)

    sup_geo = float(np.max(np.abs(traj_tau.component("gamma") - traj_geo.component("gamma"))))

    # independent path: physical-time trajectory reparametrized by quadrature
    rate_min = 1.0 / np.sqrt(float(np.max(axes)))
    t_end = 1.25 * tau_end / rate_min
    cfg_t = IntegratorConfig(h=h, steps=int(round(t_end / h)))
    traj_t = integrate(cot, y0, cfg_t)
    fields = cot.rhs(traj_t.states)
    tau_of_t = reparametrize_trajectory(traj_t, axes, fields)
    gammas = traj_t.component("gamma")
    rescale = np.sqrt(np.einsum("ki,i,ki->k", gammas, axes, gammas))
    slopes = rescale[:, None] * fields[:, cot.slice_of("gamma")]
    path = hermite_interpolate(tau_of_t, gammas, slopes, traj_tau.times)
    sup_dual = float(np.max(np.abs(path - traj_tau.component("gamma"))))
    return sup_geo, sup_dual, traj_geo


def functional_independence_rank(functions, states, fd_step=1e-6, tol=1e-8):
    """Rank of the Jacobian of state functions at sample states.

    Each function returns a float or a vector of them; every entry is one
    row.  Gradients are taken by central differences in the flat chart; the
    rank is the count of singular values above ``tol`` relative to the
    largest, minimized over the sample states.
    """
    ranks = []
    for y in states:
        cols = [
            np.concatenate([np.atleast_1d(fn(y + e)) - np.atleast_1d(fn(y - e)) for fn in functions])
            for e in fd_step * np.eye(y.size)
        ]
        sv = np.linalg.svd(np.array(cols).T / (2.0 * fd_step), compute_uv=False)
        ranks.append(int(np.sum(sv > tol * sv[0])))
    return min(ranks)
