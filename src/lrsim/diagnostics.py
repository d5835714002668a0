"""Numerical certification of the flows.

Conservation drift reports, invariant-measure divergence checks of a
flow's own field against its density, the penalty-limit comparison between
L+R and LR flows, reduction equivalences, time-reparametrized cross-checks,
and contact-point reconstruction.

The certificate evaluates its fields on stacked states: every ``rhs`` and
``measure_density`` of :mod:`lrsim.systems`, and the reduced rubber
Chaplygin densities here, map a (m, dim) array of states to (m, dim)
derivatives and (m,) densities in one sequence of numpy calls.  They keep
the dtype of the states, so a complex state y + i eta e_j carries the
derivative along e_j in its imaginary part, exact to roundoff for the tiny
``COMPLEX_STEP`` eta (Squire and Trapp, SIAM Rev. 40, 1998).
:func:`measure_divergence` sends those complex points of its sample states
through them one block of ``MEASURE_BLOCK`` states at a time,
:func:`functional_independence_rank` those of all its states at once, and
:func:`hamiltonization_check` evaluates the field along its path in one
call.

The two studies integrate their runs as stacks (:func:`integrate` over a
(B, dim) stack): :func:`hamiltonization_check` its rescaled-time and
physical-time runs as two members for the steps they share, and
:func:`epsilon_limit_study` its L+R members as one ``LplusRSystem`` with a
stacked ``Pi0``.  Each member runs bit for bit as it would alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import liecore as lie
from .integrators import (
    IntegratorConfig,
    Trajectory,
    hermite_interpolate,
    integrate,
    reparametrize_trajectory,
    time_rescaled,
)
from .systems import (
    CotangentSystem,
    LplusRSystem,
    LRSystem,
    LstarGeodesicSystem,
    contact_velocity,
    penalty_pi0,
)
from .systems.chaplygin import tangent_inertia

# eta of the complex-step derivative Im f(y + i eta e_j) / eta: it takes no
# difference, so no eta is too small
COMPLEX_STEP = 1e-30
# raised, not printed, inside the complex-step certificates: a hook that casts
# its complex input to float has dropped the derivative, and the value read
# without it would be wrong (np.exceptions appeared in numpy 1.25)
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning
HAMILTONIZATION_TAU = 1.0
INDEPENDENCE_TOL = 1e-8
# states per call in both reports: the temporaries of a stacked call grow
# with its length (an N x N adjoint matrix per state for the partner flows),
# so blocks bound the reports' memory on long runs
REPORT_BLOCK = 64
# sample states per field call of measure_divergence: each brings its dim
# complex points, so the temporaries grow with the block; one call over the
# 42 states a rubber_chaplygin4 verify samples allocates 2.1 MB, a block of 8
# 0.4 MB
MEASURE_BLOCK = 8


@dataclass(frozen=True)
class QuantityDrift:
    name: str
    initial: float
    max_abs_drift: float
    max_rel_drift: float


def _by_block(fn, states, block):
    """``fn`` over a stack of states, one call per ``block`` states."""
    return [fn(states[i:i + block]) for i in range(0, len(states), block)]


def conservation_report(traj, quantities=None):
    """Drift of named conserved quantities along a trajectory.

    ``quantities`` may list names from the system's conserved set and names
    of the form ``constraint:<residual>``; by default the full conserved set
    is reported.  Each selected callable runs once per ``REPORT_BLOCK``
    states, however many of its entries are selected.  Relative drift is
    measured against |initial value| when that is meaningful, else against
    the trajectory's own scale; a NaN value makes the drifts NaN.
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
            if q.startswith("constraint:"):
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
    blocks = {fn: _by_block(fn, traj.states, REPORT_BLOCK) for fn in fns}
    report = []
    for name, (fn, idx) in selected:
        values = np.concatenate([block[idx] for block in blocks[fn]], dtype=float)
        initial = float(values[0])
        drift = float(np.max(np.abs(values - initial)))
        scale = abs(initial) if abs(initial) > 1e-12 else max(np.max(np.abs(values)), 1.0)
        report.append(QuantityDrift(name, initial, drift, drift / scale))
    return report


def constraint_report(traj):
    """Worst residual of every named constraint along the trajectory.

    ``constraints`` evaluates the states in blocks of ``REPORT_BLOCK``, one
    call per block.  A NaN residual at any state makes that constraint's
    worst value NaN, as ``np.max`` propagates it, so a check against a
    tolerance fails.
    """
    blocks = _by_block(traj.system.constraints, traj.states, REPORT_BLOCK)
    return {name: float(np.max([np.max(block[name]) for block in blocks])) for name in blocks[0]}


@dataclass(frozen=True)
class DivergenceEstimate:
    value: np.ndarray
    # flagged estimates, always 0: a complex step has no cancellation to flag
    warning: ClassVar[int] = 0


def _complex_step_divergence(field, density, states):
    """div(density * field) / density at a (m, dim) block of states."""
    m, dim = states.shape
    # (m dim, dim): state j shifted by i eta along coordinate i
    points = (states[:, None, :] + (1j * COMPLEX_STEP) * np.eye(dim)).reshape(-1, dim)
    rho = np.broadcast_to(density(points), (m * dim,)).reshape(m, dim)
    # component i of the field at the state shifted along coordinate i
    flux = rho * np.diagonal(field(points).reshape(m, dim, dim), axis1=-2, axis2=-1)
    # the real part of the density at a shifted point is its value at the state
    return np.sum(flux.imag, axis=-1) / COMPLEX_STEP / rho[:, 0].real


def measure_divergence(field, density, states):
    """Complex-step div(density * field) / density at a (m, dim) stack of states.

    A vanishing value certifies that density * (coordinate volume) is
    preserved by the flow; dividing by the density at the state makes the
    value independent of the density's constant factor.  The derivative of
    component j along coordinate j is Im[density * field_j](y + i eta e_j) /
    eta, exact to roundoff; ``value`` holds one estimate per state.

    The points of a block of ``MEASURE_BLOCK`` states, one per coordinate,
    go out as one complex (block dim, dim) stack: ``field`` maps (k, dim)
    states to (k, dim) derivatives, and ``density``, called once per block,
    maps them to (k,) values or returns a scalar that holds at every state.
    Both must keep the imaginary part of their input, as every ``rhs`` and
    ``measure_density`` of :mod:`lrsim.systems` does; a cast of it to float
    raises ``ComplexWarning`` here instead of returning a wrong value.
    """
    states = np.asarray(states, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", _COMPLEX_WARNING)
        blocks = _by_block(
            lambda block: _complex_step_divergence(field, density, block), states, MEASURE_BLOCK
        )
    return DivergenceEstimate(np.concatenate(blocks))


# --- the reduced rubber Chaplygin densities --------------------------------

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
        e = lie.wedge_map(gamma / np.sqrt((gamma * gamma).sum(axis=-1, keepdims=True)))
        return np.sqrt(mr2 / np.linalg.det(tangent_inertia(inertia, mr2, e)))

    return density


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

    return density


def chaplygin_measure_check(states, inertia, mass, radius):
    """Both reduced-measure densities at a (gamma, p) state or a stack of them.

    The first is the general restricted-determinant form, the second the
    closed form available for the special inertia; for that inertia their
    ratio is independent of gamma.
    """
    if inertia.axes is None:
        raise ValueError("the closed-form density requires the special inertia")
    states = np.asarray(states, dtype=float)
    general = reduced_chaplygin_density(inertia, mass, radius)(states)
    closed = special_chaplygin_density(inertia.axes)(states)
    return general, closed


def _sup_deviation(traj, ref, names):
    """Largest |difference| of the named components between two trajectories."""
    devs = [np.max(np.abs(traj.component(name) - ref.component(name))) for name in names]
    return float(np.max(devs))


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
    The L+R members run as one stack, one ``Pi0`` per eps.
    """
    lr = LRSystem(inertia, constraint_basis)
    y_lr = lr.initial_state(g0, omega0)
    traj_lr = integrate(lr, y_lr, cfg)
    lpr = LplusRSystem(inertia, np.stack([penalty_pi0(constraint_basis, eps) for eps in epsilons]))
    y0 = lpr.pack(g=g0, omega=omega0)
    traj = integrate(lpr, np.stack([y0] * len(epsilons)), cfg)
    errors = [
        _sup_deviation(Trajectory(lpr, traj.times, traj.states[:, b]), traj_lr, ("g", "omega"))
        for b in range(len(epsilons))
    ]
    slope = float(np.polyfit(np.log(np.asarray(epsilons, dtype=float)), np.log(errors), 1)[0])
    return EpsilonStudy(tuple(float(e) for e in epsilons), tuple(errors), slope)


# --- reconstruction ---------------------------------------------------------

def reconstruct_contact(traj):
    """Contact-point path r(t) - r(0) of a rolling-ball trajectory.

    Cumulative trapezoidal quadrature of rho * Ad_g(omega) Gamma; the last
    coordinate is conserved (the corresponding constraint is holonomic).
    """
    vels = contact_velocity(traj.system, traj.states)
    steps = np.diff(traj.times)[:, None] * (vels[1:] + vels[:-1]) / 2.0
    return np.concatenate([np.zeros((1, vels.shape[1])), np.cumsum(steps, axis=0)])


def reconstruct_W(traj, w0=None):
    """Partner velocities slaved to a coupled, N-coupled or support trajectory.

    Each partner of the flow (:class:`~lrsim.systems.coupled.Partner`) keeps
    the free part of its velocity and follows the body in the rest,

        W_i(t) = free_i W_i(0) + slave_i Ad_g(t) omega(t),

    over all states at once.  ``w0`` is one W(0) as an array (a skew matrix
    or its coordinates) for a flow with one partner, and the result one
    (steps, m) array; or a list of W_i(0), and the result a list.  Without
    ``w0`` the W_i(0) are zero, which only a flow whose partners have no
    free part may leave out.
    """
    system = traj.system
    partners = system.partners(traj.states[0])
    single = isinstance(w0, np.ndarray)
    if single:
        w0 = [lie.skew_to_vec(w0) if w0.ndim == 2 else w0]
    elif w0 is None:
        if not all(p.slaved for p in partners):
            raise ValueError("reconstruction needs the initial W of partners with a free part")
        w0 = [np.zeros(p.b.shape[1]) for p in partners]
    if len(w0) != len(partners):
        raise ValueError(f"need one initial W per partner, {len(partners)} in all")
    omega_space = system.spatial_velocity(traj.states)[..., None]
    series = [p.free @ w + p.slave(omega_space)[..., 0] for p, w in zip(partners, w0)]
    return series[0] if single else series


# --- cross-checks -----------------------------------------------------------

def reduction_equivalence(full_system, reduced_system, y0_full, cfg):
    """Sup-norm deviation of (g, omega) between full and reduced trajectories.

    For the coupled flows it reads exactly 0: ``CoupledFullSystem`` and
    ``CoupledReducedSystem`` share one (g, omega) field, which never reads
    the slaved W, so both runs step the same field from the same state.  It
    only guards that shared kernel, and ``lrsim verify`` no longer calls it:
    :func:`reconstruct_W` on the full run against its own W is what
    certifies the reduction.
    """
    traj_full = integrate(full_system, y0_full, cfg)
    y0_red = reduced_system.pack(
        g=full_system.part(y0_full, "g"), omega=full_system.part(y0_full, "omega")
    )
    traj_red = integrate(reduced_system, y0_red, cfg)
    return _sup_deviation(traj_full, traj_red, ("g", "omega")), traj_full, traj_red


def hamiltonization_check(inertia, mass, radius, gamma0, p0, h):
    """Compare the rescaled reduced flow with the quadric geodesic flow.

    Requires the special inertia.  Integrates the (gamma, p) flow directly
    in the rescaled time up to tau = ``HAMILTONIZATION_TAU`` with step
    ``h``, and runs the Lagrangian geodesic flow from matched initial data.
    As an independent path it integrates in physical time, in one stack
    with the rescaled run for the steps they share, maps the grid
    to tau by the O(h^4) Hermite quadrature of
    :func:`reparametrize_trajectory` and interpolates gamma with the
    piecewise cubic Hermite interpolant whose node slopes are the exact
    field dgamma/dtau = (dgamma/dt) sqrt((A gamma, gamma)); its error is
    O(h^4) as well.  Both read the field, evaluated on the whole
    physical-time path in one call.
    Returns the sup deviation of gamma between the rescaled flow and the
    geodesic flow, the dual-path deviation, and the geodesic trajectory
    for further checks.  Its runs carry no rotation, so both methods of
    :mod:`lrsim.integrators` take the same classical step there, and it
    integrates with the default method.
    """
    axes = inertia.axes
    if axes is None:
        raise ValueError("the Hamiltonization check requires the special inertia")
    cot = CotangentSystem(inertia, mass, radius)
    y0 = cot.pack(gamma=gamma0, p=p0)
    # at least one step on each grid, or a check compares nothing at h >= 2
    steps = max(1, int(round(HAMILTONIZATION_TAU / h)))
    cfg_tau = IntegratorConfig(h=h, steps=steps)
    rate_min = 1.0 / np.sqrt(float(np.max(axes)))
    t_end = 1.25 * HAMILTONIZATION_TAU / rate_min
    traj_tau, traj_t = _tau_and_t_runs(cot, y0, axes, h, (steps, max(1, int(round(t_end / h)))))

    gdot0 = cot.gamma_dot_of(np.asarray(gamma0, dtype=float), np.asarray(p0, dtype=float))
    v0 = float(np.sqrt((axes * gamma0) @ gamma0)) * gdot0
    geo = LstarGeodesicSystem(axes)
    traj_geo = integrate(geo, geo.pack(gamma=gamma0, v=v0), cfg_tau)

    sup_geo = float(np.max(np.abs(traj_tau.component("gamma") - traj_geo.component("gamma"))))

    # independent path: physical-time trajectory reparametrized by quadrature
    fields = cot.rhs(traj_t.states)
    tau_of_t = reparametrize_trajectory(traj_t, axes, fields)
    gammas = traj_t.component("gamma")
    rescale = np.sqrt(np.einsum("ki,i,ki->k", gammas, axes, gammas))
    slopes = rescale[:, None] * cot.part(fields, "gamma")
    path = hermite_interpolate(tau_of_t, gammas, slopes, traj_tau.times)
    sup_dual = float(np.max(np.abs(path - traj_tau.component("gamma"))))
    return sup_geo, sup_dual, traj_geo


def _tau_and_t_runs(cot, y0, axes, h, steps):
    """The rescaled-time and the physical-time runs of ``cot`` from ``y0``, of
    ``steps`` = (tau steps, t steps): one two-member stack for the steps they
    share, then the longer member alone from its stacked state."""
    pair = time_rescaled(cot, axes, [True, False])
    shared = min(steps)
    traj = integrate(pair, np.stack([y0, y0]), IntegratorConfig(h=h, steps=shared))
    runs = [traj.states[:, b] for b in (0, 1)]
    longer = int(steps[1] > steps[0])
    if steps[longer] > shared:
        rest = integrate(
            pair.member(0) if longer == 0 else cot,
            traj.states[-1, longer],
            IntegratorConfig(h=h, steps=steps[longer] - shared),
        )
        runs[longer] = np.concatenate([runs[longer], rest.states[1:]])
    return tuple(
        Trajectory(cot, h * np.arange(count + 1), np.ascontiguousarray(states))
        for count, states in zip(steps, runs)
    )


def functional_independence_rank(functions, states):
    """Rank of the Jacobian of state functions at sample states.

    Each function maps a (..., dim) stack of states to a float or a vector
    of them per state; every entry is one row.  Gradients are complex-step
    derivatives in the flat chart, each function called once on the dim
    complex points of all states, so each must keep the imaginary part of
    its input (a cast of it to float raises ``ComplexWarning``); the rank is
    the count of singular values above ``INDEPENDENCE_TOL`` relative to the
    largest, minimized over the sample states.
    """
    states = np.asarray(states, dtype=float)
    m, dim = states.shape
    points = states[:, None] + (1j * COMPLEX_STEP) * np.eye(dim)
    # (states, dim, rows): the derivatives along each coordinate, one row per entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", _COMPLEX_WARNING)
        values = [fn(points) for fn in functions]
    grads = np.concatenate([v.imag.reshape(m, dim, -1) for v in values], axis=-1)
    sv = np.linalg.svd(np.swapaxes(grads, -1, -2) / COMPLEX_STEP, compute_uv=False)
    return int(np.min(np.sum(sv > INDEPENDENCE_TOL * sv[:, :1], axis=-1)))
