"""Deterministic fixed-step time integration.

Two fourth-order methods:

* ``rk4-projected`` -- classical four-stage step on the flat state, followed
  by polar re-orthogonalization of rotation components and renormalization
  of unit vectors;
* ``lie-rk4`` -- a Munthe-Kaas step: rotation components are updated
  multiplicatively, g <- g exp(u), with the algebra increment u built from
  staged body velocities corrected by the truncated inverse differential of
  exp; the remaining components take the classical update.

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
    """A step failed; carries the partial trajectory and failing step index."""

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
    uv = lie.ad(u, v)
    return v + 0.5 * uv + (1.0 / 12.0) * lie.ad(u, uv)


def _lie_rk4(system, y, h):
    rot = [(comp, off) for comp, off in zip(system.components, system._offsets)
           if comp.kind == ROTATION]
    n = system.n

    g0 = {comp.name: y[off:off + comp.size].reshape(n, n) for comp, off in rot}

    def eval_stage(u_map, y_lin):
        """Field at (g0 exp(u), linear part); returns (algebra slopes, flat slope)."""
        y_stage = y_lin.copy()
        gs = {}
        for comp, off in rot:
            g = g0[comp.name] @ expm(u_map[comp.name])
            gs[comp.name] = g
            y_stage[off:off + comp.size] = g.ravel()
        ydot = system.rhs(y_stage)
        slopes = {}
        for comp, off in rot:
            gdot = ydot[off:off + comp.size].reshape(n, n)
            v = lie.skew_part(gs[comp.name].T @ gdot)
            slopes[comp.name] = _dexpinv(u_map[comp.name], v)
        return slopes, ydot

    zero = {comp.name: np.zeros((n, n)) for comp, _ in rot}

    k1a, k1 = eval_stage(zero, y)
    u2 = {name: 0.5 * h * k1a[name] for name in zero}
    k2a, k2 = eval_stage(u2, y + 0.5 * h * k1)
    u3 = {name: 0.5 * h * k2a[name] for name in zero}
    k3a, k3 = eval_stage(u3, y + 0.5 * h * k2)
    u4 = {name: h * k3a[name] for name in zero}
    k4a, k4 = eval_stage(u4, y + h * k3)

    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for comp, off in rot:
        u = (h / 6.0) * (
            k1a[comp.name] + 2.0 * k2a[comp.name] + 2.0 * k3a[comp.name] + k4a[comp.name]
        )
        y_new[off:off + comp.size] = (g0[comp.name] @ expm(u)).ravel()
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
    """
    y0 = np.asarray(y0, dtype=float)
    states = np.empty((cfg.steps + 1, system.dim))
    states[0] = y0
    times = cfg.h * np.arange(cfg.steps + 1)
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
            self._offsets = base._offsets
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


def reparametrize_trajectory(traj, axes):
    """Rescaled times tau(t) along a t-trajectory by cumulative quadrature.

    tau(t) = integral of 1 / sqrt((A gamma, gamma)) dt, trapezoidal on the
    trajectory grid; monotone since the integrand is positive.
    """
    axes = np.asarray(axes, dtype=float)
    rates = np.array(
        [1.0 / _rescale_factor(traj.system, axes, y) for y in traj.states]
    )
    dt = np.diff(traj.times)
    tau = np.concatenate([[0.0], np.cumsum(0.5 * dt * (rates[:-1] + rates[1:]))])
    return tau
