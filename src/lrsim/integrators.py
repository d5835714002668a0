"""Deterministic fixed-step time integration.

Two fourth-order methods:

* ``rk4-projected`` -- classical four-stage step on the flat state, followed
  by polar re-orthogonalization of rotation components and renormalization
  of unit vectors;
* ``lie-rk4`` -- a Munthe-Kaas step (Munthe-Kaas, Appl. Numer. Math. 29,
  1999): the rotation g is updated multiplicatively, g <- g exp(u), with
  the algebra increment u built from staged body velocities corrected by
  the truncated inverse differential of exp; the remaining components
  take the classical update.  It works in bivector coordinates and relies
  on the contract of :class:`~lrsim.systems.lr.ConstrainedEulerSystem`,
  whose ``rhs`` sets g' = g omega: the body velocity of a stage is the
  omega part of its state.  A rotation outside that kernel is a
  ``ValueError``; a system with no rotation takes the classical step.  The
  first stage is the field at the state itself (u = 0), so it takes no
  exponential and a step costs four: one per later stage and one for the
  update.  As g exp(u) stays orthogonal to roundoff, only unit vectors are
  renormalized after it; rotations get no polar factor.

Only ``rk4-projected`` polar-projects rotations.

The exponential is :func:`expm`, on numpy alone, by scaling and squaring
(Higham, *Functions of Matrices*, SIAM 2008, ch. 10): the exponent is
halved s times until its Frobenius norm is at most THETA = 0.05, the
degree-8 Taylor polynomial is evaluated there in Paterson-Stockmeyer form,
and the result is squared s times.  The Taylor remainder is at most
THETA^9 / 9! ~ 5e-18.  An exponent already inside the threshold, such as
h Omega with h = 1e-3 and ||Omega||_F <= 50, takes no squaring.

Both are O(h^5) per step.  A trajectory records the uniform time grid and
every state; integration aborts cleanly on field errors and on non-finite
states, keeping the partial trajectory and the failing step index.

Both methods also step a (B, dim) stack of members of one system, which
``integrate`` records as (steps + 1, B, dim) states.  Every call of a step
takes the stack at once: the field and the projection evaluate it bit for
bit as they do each member (:mod:`lrsim.systems.base`), and ``expm``
exponentiates each member's exponent as it would alone, so each member's
states equal its solo run's bit for bit.  When a stacked step fails,
``integrate`` retries it member by member to name the member that failed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import liecore as lie
from .systems.base import ROTATION, dot, normalize_units
from .systems.lr import ConstrainedEulerSystem

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
        """Per-time array of one named state component, in its natural shape."""
        return self.system.part(self.states, name)


class IntegrationError(RuntimeError):
    """A step failed; carries the partial trajectory (None when none could be
    allocated), the failing step index and, for a stack, the failing member
    (None for one state, or when no member fails alone)."""

    def __init__(self, message, partial, step_index, member=None):
        where = f"step {step_index}" if member is None else f"step {step_index}, member {member}"
        super().__init__(f"{message} ({where})")
        self.partial = partial
        self.step_index = step_index
        self.member = member


# scaling threshold on the Frobenius norm, and the Taylor coefficients 1/k!
# of the low sum (k = 0..4) and of the high sum over X^4 (k = 5..8)
THETA = 0.05
_TAYLOR = np.array([
    [1.0, 1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24],
    [0.0, 1.0 / 120, 1.0 / 720, 1.0 / 5040, 1.0 / 40320],
])


@cache
def _identity(n):
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def expm(a):
    """Matrix exponential of an n x n matrix by scaling and squaring.

    X = a / 2^s with the least s >= 0 that gives ||X||_F <= THETA = 0.05;
    exp(X) is the degree-8 Taylor polynomial in Paterson-Stockmeyer form,

        T8(X) = sum_{k<=4} X^k / k! + X^4 sum_{k=5..8} X^(k-4) / k!,

    with I, X, X^2, X^3 and X^4 in one (5, n, n) buffer and the two sums as
    one coefficient product over it, and exp(a) = T8(X)^(2^s).  The
    truncation error is at most THETA^9 / 9! ~ 5e-18 (Higham, *Functions
    of Matrices*, SIAM 2008, ch. 10).  exp(0) is I exactly.  An exponent
    whose norm is not finite, or overflows, is a ``FloatingPointError``.
    A (..., n, n) stack takes one exponential per member, each with its own s.
    """
    if a.ndim > 2:
        return np.stack([expm(x) for x in a.reshape(-1, *a.shape[-2:])]).reshape(a.shape)
    n = a.shape[0]
    norm = math.sqrt(np.vdot(a, a))
    if not math.isfinite(norm):
        raise FloatingPointError(
            f"matrix exponential of a non-finite or overflowing exponent (Frobenius norm {norm})"
        )
    s = math.ceil(math.log2(norm / THETA)) if norm > THETA else 0
    powers = np.empty((5, n, n))
    powers[0] = _identity(n)
    x = powers[1]
    if s:
        np.multiply(a, math.ldexp(1.0, -s), out=x)
    else:
        x[...] = a
    np.matmul(x, x, out=powers[2])
    np.matmul(powers[2], x, out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    low, high = (_TAYLOR @ powers.reshape(5, n * n)).reshape(2, n, n)
    e = low + powers[4] @ high
    for _ in range(s):
        e = e @ e
    return e


def _rk4_flat(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _lie_rk4(system, y, h):
    """Munthe-Kaas RK4 step in bivector coordinates.

    A constrained-Euler field sets g' = g omega, so the algebra slope of a
    stage is the omega coordinates of its state.  It is corrected by the
    truncated dexpinv_{-u}(v) = v + 1/2 [u, v] + 1/12 [u, [u, v]], with
    [u, .] = ``lie.ad_vec(u)``; each exponent becomes a skew matrix once,
    for ``expm``.  A system with no rotation takes the classical step.
    """
    if not any(comp.kind == ROTATION for comp in system.components):
        return _rk4_flat(system.rhs, y, h)
    if not isinstance(system, ConstrainedEulerSystem):
        raise ValueError(
            f"lie-rk4 needs g' = g omega from a constrained-Euler flow; {system.kind!r} is not one"
        )
    n = system.n
    g0 = system.part(y, "g")

    def eval_stage(u, y_stage):
        """Field at (g0 exp(u), the rest of the fresh state ``y_stage``) and
        the algebra slope there."""
        np.matmul(g0, expm(lie.vec_to_skew(u, n)), out=system.part(y_stage, "g"))
        w = system.part(y_stage, "omega")[..., None]
        adu = lie.ad_vec(u)
        uw = adu @ w
        return (w + 0.5 * uw + (1.0 / 12.0) * (adu @ uw))[..., 0], system.rhs(y_stage)

    # the first stage sits at y itself: exp(0) = I and dexpinv(0, v) = v
    k1 = system.rhs(y)
    k1a = system.part(y, "omega")
    k2a, k2 = eval_stage(0.5 * h * k1a, y + 0.5 * h * k1)
    k3a, k3 = eval_stage(0.5 * h * k2a, y + 0.5 * h * k2)
    k4a, k4 = eval_stage(h * k3a, y + h * k3)

    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u = (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    np.matmul(g0, expm(lie.vec_to_skew(u, n)), out=system.part(y_new, "g"))
    return y_new


def step(system, y, h, method="rk4-projected", project=True):
    """One integration step of a state or a (B, dim) stack; projection keeps
    states on their manifolds.

    With ``project``, ``rk4-projected`` applies ``system.project`` (polar
    factors of the rotations, unit vectors renormalized) and ``lie-rk4``
    renormalizes the unit vectors only.
    """
    if method == "rk4-projected":
        y_new = _rk4_flat(system.rhs, y, h)
        return system.project(y_new) if project else y_new
    if method == "lie-rk4":
        y_new = _lie_rk4(system, y, h)
        return normalize_units(system, y_new) if project else y_new
    raise ValueError(f"unknown method {method!r}")


def integrate(system, y0, cfg, hook=None):
    """Fixed-step trajectory of ``steps`` steps from ``y0``.

    ``y0`` is one state, or a (B, dim) stack of members of ``system``, whose
    states come out as (steps + 1, B, dim), each member's bit for bit those
    of its solo run.  ``hook(i, t, y)`` runs after each accepted step.
    Field errors and non-finite states abort with an :class:`IntegrationError`
    carrying the partial trajectory, which holds only the states before the
    failing step, of every member of a stack; the step is then retried member
    by member, and the error names the first member that fails alone.  A step
    count whose trajectory cannot be allocated is an :class:`IntegrationError`
    at step 0 with no partial trajectory.
    """
    y0 = np.asarray(y0, dtype=float)
    try:
        states = np.empty((cfg.steps + 1,) + y0.shape)
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
            member = _failing_member(system, states[i], cfg, project) if y0.ndim > 1 else None
            raise IntegrationError(str(exc), partial, i, member) from exc
        states[i + 1] = y
        if hook is not None:
            hook(i + 1, times[i + 1], y)
    return Trajectory(system, times, states)


def _failing_member(system, y, cfg, project):
    """The first member of the stack ``y`` whose step fails alone, or None."""
    for b, y_b in enumerate(y):
        try:
            y_b = step(system.member(b), y_b, cfg.h, method=cfg.method, project=project)
            if np.isfinite(y_b).all():
                continue
        except Exception:
            pass
        return b
    return None


# --- time reparametrization -------------------------------------------------

def time_rescaled(system, axes, rescaled):
    """A gamma-carrying flow in the rescaled time tau on the members where
    ``rescaled`` holds, and in its own time on the others.

    dtau = dt / sqrt((A gamma, gamma)), so the tau-field is the original
    field scaled by sqrt((A gamma, gamma)); the other members' field is
    scaled by exactly 1.0.  ``rescaled`` is a bool for every member, or one
    per member of a (B, dim) stack.  The field is the ``rhs`` of a shallow
    copy of ``system``, whose ``member(b)`` is member b's flow alone.
    """
    axes = np.asarray(axes, dtype=float)
    if np.any(axes <= 0):
        raise ValueError("the rescaling axes must be positive")
    rescaled = np.asarray(rescaled, dtype=bool)

    def rhs(y):
        gamma = system.part(y, "gamma")
        factor = np.where(rescaled[..., None], np.sqrt(dot(axes * gamma, gamma)), 1.0)
        if not (np.isfinite(factor) & (factor > 0.0)).all():
            raise ValueError("(A gamma, gamma) must stay positive")
        return factor * system.rhs(y)

    flow = copy.copy(system)
    flow.rhs = rhs
    flow.member = lambda b: time_rescaled(
        system.member(b), axes, rescaled if rescaled.ndim == 0 else rescaled[b]
    )
    return flow


def reparametrize_trajectory(traj, axes, fields):
    """Rescaled times tau(t) along a t-trajectory by cumulative quadrature.

    tau(t) is the integral of the rate r = (A gamma, gamma)^{-1/2}.  Each
    grid step integrates the cubic Hermite interpolant of r, whose end
    slopes r' = -(A gamma, gamma') (A gamma, gamma)^{-3/2} take gamma' from
    the exact field:

        dtau = h/2 (r_k + r_{k+1}) + h^2/12 (r'_k - r'_{k+1}),

    the trapezoid rule plus its end correction, with O(h^4) error.
    ``fields`` holds the field at every state, one row each.
    """
    axes = np.asarray(axes, dtype=float)
    gammas = traj.component("gamma")
    gamma_dots = traj.system.part(fields, "gamma")
    agg = np.einsum("ki,i,ki->k", gammas, axes, gammas)
    rates = 1.0 / np.sqrt(agg)
    slopes = -np.einsum("ki,i,ki->k", gammas, axes, gamma_dots) * rates / agg
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
