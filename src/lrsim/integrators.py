"""Deterministic fixed-step time integration.

Two fourth-order methods:

* ``rk4-projected`` -- classical four-stage step on the flat state, followed
  by polar re-orthogonalization of rotation components and renormalization
  of unit vectors;
* ``lie-rk4`` -- a Munthe-Kaas step: rotation components are updated
  multiplicatively, g <- g exp(u), with the algebra increment u built from
  staged body velocities corrected by the truncated inverse differential of
  exp; the remaining components take the classical update.  The first stage
  is the field at the state itself (u = 0), so it takes no exponential and
  a step costs four: one per later stage and one for the update.

Both are O(h^5) per step.  A trajectory records the uniform time grid and
every state; integration aborts cleanly on field errors and on non-finite
states, keeping the partial trajectory and the failing step index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import liecore as lie
from .systems.base import ROTATION

METHODS = ("rk4-projected", "lie-rk4")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4-projected"
    h: float = 1e-3
    steps: int = 1000
    renormalize_every: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose one of {METHODS}")
        if not np.isfinite(self.h) or self.h <= 0:
            raise ValueError(f"step size h must be positive and finite, got {self.h!r}")
        if self.steps < 0:
            raise ValueError("step count must be nonnegative")


@dataclass
class Trajectory:
    system: object
    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return self.times.size

    def component(self, name):
        """Per-time array of one named state component (flat coordinates)."""
        sl = self.system.slice_of(name)
        return self.states[:, sl]

    def final(self):
        return self.states[-1]


class IntegrationError(RuntimeError):
    """A step failed; carries the partial trajectory (None when none could be
    allocated) and the failing step index."""

    def __init__(self, message, partial, step_index):
        super().__init__(f"{message} (step {step_index})")
        self.partial = partial
        self.step_index = step_index


def expm(a):
    """Matrix exponential; scipy is imported on the first ``lie-rk4`` step."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _rk4_flat(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dexpinv(u, v):
    """Algebra slope u' with d/dt (g0 exp(u)) = g0 exp(u) v, truncated for order 4.

    For the left convention g' = g v the slope is dexpinv_{-u}(v)
    = v + 1/2 [u, v] + 1/12 [u, [u, v]] + O(u^3).
    """
    uv = u @ v - v @ u
    return v + 0.5 * uv + (1.0 / 12.0) * (u @ uv - uv @ u)


def _lie_rk4(system, y, h):
    n = system.n
    rot = [system.slice_of(comp.name) for comp in system.components if comp.kind == ROTATION]
    g0 = [y[sl].reshape(n, n) for sl in rot]

    def eval_stage(us, y_lin):
        """Field at (g0 exp(u), linear part); returns (algebra slopes, flat slope)."""
        y_stage = y_lin.copy()
        gs = []
        for g, u, sl in zip(g0, us, rot):
            gs.append(g @ expm(u))
            y_stage[sl] = gs[-1].ravel()
        ydot = system.rhs(y_stage)
        return [
            _dexpinv(u, lie.skew_part(g.T @ ydot[sl].reshape(n, n)))
            for g, u, sl in zip(gs, us, rot)
        ], ydot

    # the first stage sits at y itself: exp(0) = I and dexpinv(0, v) = v
    k1 = system.rhs(y)
    k1a = [lie.skew_part(g.T @ k1[sl].reshape(n, n)) for g, sl in zip(g0, rot)]
    k2a, k2 = eval_stage([0.5 * h * k for k in k1a], y + 0.5 * h * k1)
    k3a, k3 = eval_stage([0.5 * h * k for k in k2a], y + 0.5 * h * k2)
    k4a, k4 = eval_stage([h * k for k in k3a], y + h * k3)

    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for g, sl, a1, a2, a3, a4 in zip(g0, rot, k1a, k2a, k3a, k4a):
        y_new[sl] = (g @ expm((h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4))).ravel()
    return y_new


def step(system, y, h, method="rk4-projected", project=True):
    """One integration step; projection keeps states on their manifolds."""
    if method == "rk4-projected":
        y_new = _rk4_flat(system.rhs, y, h)
    elif method == "lie-rk4":
        y_new = _lie_rk4(system, y, h)
    else:
        raise ValueError(f"unknown method {method!r}")
    return system.project(y_new) if project else y_new


def integrate(system, y0, cfg, hook=None):
    """Fixed-step trajectory of ``steps`` steps from ``y0``.

    ``hook(i, t, y)`` runs after each accepted step.  Field errors and
    non-finite states abort with an :class:`IntegrationError` carrying the
    partial trajectory, which holds only the states before the failing step.
    A step count whose trajectory cannot be allocated is an
    :class:`IntegrationError` at step 0 with no partial trajectory.
    """
    y0 = np.asarray(y0, dtype=float)
    try:
        states = np.empty((cfg.steps + 1, system.dim))
        times = cfg.h * np.arange(cfg.steps + 1)
    except (MemoryError, ValueError) as exc:
        raise IntegrationError(
            f"cannot allocate a trajectory of {cfg.steps} steps ({exc})", None, 0
        ) from exc
    states[0] = y0
    y = y0
    for i in range(cfg.steps):
        project = cfg.renormalize_every > 0 and (i + 1) % cfg.renormalize_every == 0
        try:
            y = step(system, y, cfg.h, method=cfg.method, project=project)
            if not np.isfinite(y).all():
                raise FloatingPointError("non-finite state")
        except Exception as exc:
            partial = Trajectory(system, times[: i + 1].copy(), states[: i + 1].copy())
            raise IntegrationError(str(exc), partial, i) from exc
        states[i + 1] = y
        if hook is not None:
            hook(i + 1, times[i + 1], y)
    return Trajectory(system, times, states)


# --- time reparametrization -------------------------------------------------

def _rescale_factor(system, axes, y):
    gamma = y[system.slice_of("gamma")]
    return float(np.sqrt((axes * gamma) @ gamma))


def integrate_reparametrized(system, y0, axes, cfg, hook=None):
    """Integrate a gamma-carrying flow in the rescaled time tau.

    dtau = dt / sqrt((A gamma, gamma)), so the tau-field is the original
    field scaled by sqrt((A gamma, gamma)).
    """
    axes = np.asarray(axes, dtype=float)
    if np.any(axes <= 0):
        raise ValueError("the rescaling axes must be positive")

    class _Rescaled:
        def __init__(self, base):
            self._base = base
            self.dim = base.dim
            self.components = base.components
            self.n = base.n

        def rhs(self, y):
            factor = _rescale_factor(self._base, axes, y)
            if factor <= 0.0 or not np.isfinite(factor):
                raise ValueError("(A gamma, gamma) must stay positive")
            return factor * self._base.rhs(y)

        def project(self, y):
            return self._base.project(y)

        def slice_of(self, name):
            return self._base.slice_of(name)

    traj = integrate(_Rescaled(system), y0, cfg, hook=hook)
    return Trajectory(system, traj.times, traj.states)


def reparametrize_trajectory(traj, axes, fields=None):
    """Rescaled times tau(t) along a t-trajectory by cumulative quadrature.

    tau(t) is the integral of the rate r = (A gamma, gamma)^{-1/2}.  Each
    grid step integrates the cubic Hermite interpolant of r, whose end
    slopes r' = -(A gamma, gamma') (A gamma, gamma)^{-3/2} take gamma' from
    the exact field:

        dtau = h/2 (r_k + r_{k+1}) + h^2/12 (r'_k - r'_{k+1}),

    the trapezoid rule plus its end correction, with O(h^4) error.
    ``fields`` holds the field at every state, one row each; it is
    evaluated here when omitted.
    """
    axes = np.asarray(axes, dtype=float)
    if fields is None:
        fields = np.array([traj.system.rhs(y) for y in traj.states])
    sl = traj.system.slice_of("gamma")
    gammas = traj.states[:, sl]
    agg = np.einsum("ki,i,ki->k", gammas, axes, gammas)
    rates = 1.0 / np.sqrt(agg)
    slopes = -np.einsum("ki,i,ki->k", gammas, axes, fields[:, sl]) * rates / agg
    dt = np.diff(traj.times)
    dtau = 0.5 * dt * (rates[:-1] + rates[1:]) + (dt * dt / 12.0) * (slopes[:-1] - slopes[1:])
    return np.concatenate([[0.0], np.cumsum(dtau)])


def hermite_interpolate(knots, values, slopes, at):
    """Piecewise cubic Hermite interpolant evaluated at the points ``at``.

    ``knots`` is increasing; ``values`` and ``slopes`` hold the function and
    its derivative at the knots along their first axis.  On each interval
    the interpolant is the cubic matching both ends, so cubics are
    reproduced exactly and the error for smooth data is O(h^4).  Points
    outside the knots use the nearest end interval.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    at = np.asarray(at, dtype=float)
    k = np.clip(np.searchsorted(knots, at, side="right") - 1, 0, knots.size - 2)
    shape = at.shape + (1,) * (values.ndim - 1)
    width = (knots[k + 1] - knots[k]).reshape(shape)
    s = (at - knots[k]).reshape(shape) / width
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * values[k]
        + (s3 - 2.0 * s2 + s) * width * slopes[k]
        + (3.0 * s2 - 2.0 * s3) * values[k + 1]
        + (s3 - s2) * width * slopes[k + 1]
    )
