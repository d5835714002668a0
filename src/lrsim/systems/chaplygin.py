"""Rubber Chaplygin sphere in n dimensions and its reductions.

A ball of mass m and radius rho rolls on a hyperplane with normal Gamma
without slipping or twisting.  With gamma = g^{-1} Gamma the vertical
direction in the body frame and

    k = I omega + m rho^2 pr_{R^n ^ gamma} omega

the momentum relative to the contact point, the motion obeys

    k' = [k, omega] + lambda_0,   gamma' = -omega gamma,   g' = g omega,

where lambda_0 lies in the orthogonal complement of R^n ^ gamma and is
solved from preserving the no-twist condition pr_{k^gamma} omega = 0.

The quotient by the residual symmetry lives on the cotangent bundle of the
sphere in redundant coordinates (gamma, p), p = m rho^2 gamma' - I(Phi) gamma
with Phi = gamma ^ gamma', and flows by

    gamma' = -Phi gamma,   p' = -Phi p.

For the distinguished inertia I(x ^ y) = A x ^ A y - m rho^2 x ^ y the flow
becomes, after the time substitution dtau = dt / sqrt((A gamma, gamma)),
the geodesic flow on the sphere of the rescaled kinetic energy

    L*(gamma, gamma') = 1/2 [ (A gamma', gamma')
                              - (A gamma, gamma')^2 / (A gamma, gamma) ],

whose value along matched trajectories equals the physical reduced energy.

A companion generalization keeps gamma as an adjoint-orbit element of the
algebra:  k' = [k, omega], gamma' = [gamma, omega] with
k = I omega + m rho^2 [[gamma, omega], gamma]; at n = 3 it recovers the
classical Chaplygin sphere.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
# unused here, but bound so that perfbench/tracer.py finds both names in
# every systems module
from ..linalg import cho_factor, cho_solve  # noqa: F401
from ..operators import wedge_projector_matrix
from .base import Component, System, UNIT, VECTOR, dot, rotation_component, skew_component
from .lr import ConstrainedEulerSystem, MultiplierError, constrained_acceleration


def vertical_vector(n):
    gamma = np.zeros(n)
    gamma[-1] = 1.0
    return gamma


def tangent_inertia(inertia, mr2, e):
    """L(gamma) = m rho^2 Id + E I E^T from the wedge map E = E(gamma).

    A (..., n, N) stack of wedge maps gives a (..., n, n) stack.
    """
    lmat = e @ inertia.matrix @ e.swapaxes(-1, -2)
    n = e.shape[-2]
    # the diagonals, as a strided view of the flattened (fresh, contiguous) matrices
    lmat.reshape(e.shape[:-2] + (n * n,))[..., :: n + 1] += mr2
    return lmat


def _set_ball(system, inertia, mass, radius):
    """Give a rolling-ball system its inertia, mass, radius and mr2 = m rho^2."""
    if mass <= 0 or radius <= 0:
        raise ValueError("mass and radius must be positive")
    system.inertia = inertia
    system.mass = float(mass)
    system.radius = float(radius)
    system.mr2 = system.mass * system.radius**2


class RubberChaplyginSystem(ConstrainedEulerSystem):
    """Rubber Chaplygin sphere in group variables; components g, omega.

    Pi = m rho^2 pr, pr = E^T E the projector onto R^n ^ gamma, E = E(gamma)
    the wedge map.  As (d pr/dt) omega = [pr omega, omega], k' = [k, omega]
    + lambda_0 with k = B omega reads B omega' = [I omega, omega] + lambda_0,
    lambda_0 in (R^n ^ gamma)^perp = ker E; no-twist keeps omega' in
    range E^T.  So omega' = E^T x, and applying E leaves the reduced flow's
    n x n solve L(gamma) x = E [I omega, omega] in place of the kernel's.
    """

    kind = "rubber-chaplygin"

    def __init__(self, inertia, mass, radius):
        _set_ball(self, inertia, mass, radius)
        n = inertia.n
        super().__init__(n, [rotation_component(n), skew_component("omega", n)])

    def gamma_of(self, y):
        """The unit vertical direction gamma = g^-1 e_n in the body frame."""
        gamma = self.part(y, "g").swapaxes(-1, -2) @ vertical_vector(self.n)
        return gamma / np.sqrt(dot(gamma, gamma))

    def pi(self, y):
        gamma = self.gamma_of(y)
        return self.mr2 * wedge_projector_matrix(gamma), gamma

    def acceleration(self, y, wv, adw):
        """(omega', gamma) with omega' = E^T x, L(gamma) x = E [I omega, omega]."""
        gamma = self.gamma_of(y)
        e = lie.wedge_map(gamma)
        lmat = tangent_inertia(self.inertia, self.mr2, e)
        x = np.linalg.solve(lmat, e @ self.torque(wv, adw, None))
        return (e.swapaxes(-1, -2) @ x)[..., 0], gamma

    def measure_density(self, y):
        """sqrt det L(gamma), with det L(gamma) = m rho^2 det(P^T B P), P an
        orthonormal basis of R^n ^ gamma: the kernel's density with C the
        no-twist complement, through the n x n operator the field solves."""
        e = lie.wedge_map(self.gamma_of(y))
        return np.sqrt(np.linalg.det(tangent_inertia(self.inertia, self.mr2, e)))

    def constraints(self, y):
        out = super().constraints(y)
        if self.n > 2:  # so(2) = R^2 ^ gamma leaves no twist
            e = lie.wedge_map(self.gamma_of(y))
            wv = self.part(y, "omega")[..., None]
            twist = wv - np.swapaxes(e, -1, -2) @ (e @ wv)
            out["no_twist"] = np.sqrt(dot(twist[..., 0], twist[..., 0]))[..., 0]
        return out

    def to_cotangent(self, y):
        """Project a group state to the reduced (gamma, p) chart: p = L(gamma) gamma'."""
        gamma = self.gamma_of(y)
        e = lie.wedge_map(gamma)
        gamma_dot = -e @ self.part(y, "omega")
        return gamma, tangent_inertia(self.inertia, self.mr2, e) @ gamma_dot


class CotangentSystem(System):
    """Reduced rubber Chaplygin flow on T*S^{n-1}; components gamma, p.

    For unit gamma the momentum is p = L(gamma) gamma' with
    L(gamma) = m rho^2 Id + E I E^T (:func:`tangent_inertia`) and
    E = E(gamma) the wedge map, so gamma' is the n x n solve that also
    gives the group-variable field.  L is symmetric positive definite, maps
    T_gamma to itself and gamma to m rho^2 gamma, so det L / (m rho^2) is
    the determinant of I + m rho^2 Id restricted to R^n ^ gamma, and the
    invariant density of the flow is (det L(gamma) / m rho^2)^{-1/2}.

    The field extends smoothly off the constraint set {|gamma| = 1,
    (gamma, p) = 0}: every formula uses the normalized gamma, making the
    extension invariant under rescaling of gamma, and the flow preserves
    both constraint functions exactly.
    """

    kind = "cotangent"

    def __init__(self, inertia, mass, radius):
        _set_ball(self, inertia, mass, radius)
        n = inertia.n
        super().__init__(n, [Component("gamma", UNIT, n), Component("p", VECTOR, n)])

    def gamma_dot_of(self, gamma, p):
        """Invert p = m rho^2 gamma' - I(gamma ^ gamma') gamma on T_gamma."""
        return self._velocity(gamma, p)[2]

    def _velocity(self, gamma, p):
        """(gh, (gh, p), gamma') with gh = gamma / |gamma|; the norm is a ``dot`` too."""
        gh = gamma / np.sqrt(dot(gamma, gamma))
        ghp = dot(gh, p)
        lmat = tangent_inertia(self.inertia, self.mr2, lie.wedge_map(gh))
        return gh, ghp, np.linalg.solve(lmat, (p - ghp * gh)[..., None])[..., 0]

    def rhs(self, y):
        gamma = self.part(y, "gamma")
        p = self.part(y, "p")
        gh, ghp, gamma_dot = self._velocity(gamma, p)
        # -Phi x = gamma' (gamma, x) - gamma (gamma', x) for Phi = gamma ^ gamma'
        out = np.empty(y.shape, dtype=y.dtype)
        self.part(out, "gamma")[...] = gamma_dot * dot(gh, gamma) - gh * dot(gamma_dot, gamma)
        self.part(out, "p")[...] = gamma_dot * ghp - gh * dot(gamma_dot, p)
        return out

    def energy(self, y):
        p = self.part(y, "p")
        return 0.5 * dot(p, self.gamma_dot_of(self.part(y, "gamma"), p))[..., 0]

    def constraints(self, y):
        out = super().constraints(y)
        gamma = self.part(y, "gamma")
        out["gamma_p_orthogonality"] = np.abs(dot(gamma, self.part(y, "p"))[..., 0])
        return out


class LstarGeodesicSystem(System):
    """Geodesic flow of the rescaled kinetic energy on the unit sphere.

    Components gamma and v = dgamma/dtau; the Lagrangian is
    1/2 [(A v, v) - (A gamma, v)^2 / (A gamma, gamma)], conserved along the
    flow, and its value equals the reduced energy of the rolling ball the
    flow is the Hamiltonization of.
    """

    kind = "lstar-geodesic"

    def __init__(self, axes):
        axes = np.asarray(axes, dtype=float)
        if axes.ndim != 1 or np.any(axes <= 0):
            raise ValueError("the quadric axes must be a vector of positive reals")
        self.axes = axes
        n = axes.size
        super().__init__(n, [Component("gamma", UNIT, n), Component("v", VECTOR, n)])

    def lagrangian(self, y):
        gamma = self.part(y, "gamma")
        v = self.part(y, "v")
        a_g = self.axes * gamma
        return 0.5 * (dot(self.axes * v, v) - dot(a_g, v) ** 2 / dot(a_g, gamma))[..., 0]

    def rhs(self, y):
        gamma = self.part(y, "gamma")
        v = self.part(y, "v")
        # Euler-Lagrange system with the unit-sphere multiplier lambda:
        #   M gamma'' = r a + lambda gamma,  (gamma, gamma'') = -|v|^2,
        #   a = A gamma, s = (a, gamma), r = (Av, v)/s - ((a, v)/s)^2,
        #   M = A - a a^T / s.
        # M gamma = 0 and M A^-1 gamma = gamma - |gamma|^2 a / s (as A^-1 a =
        # gamma), so pairing with gamma gives lambda = -r s / |gamma|^2, and
        # gamma'' = mu gamma + lambda A^-1 gamma with mu from the second row.
        gg = dot(gamma, gamma)
        if not gg.all():
            raise MultiplierError("degenerate geodesic configuration")
        a = self.axes * gamma
        s = dot(a, gamma)
        ratio = dot(a, v) / s
        # libm's pow, the square the shipped L* runs are computed with;
        # ratio * ratio differs in the last bit for some ratios
        lam = -(dot(self.axes * v, v) / s - np.float_power(ratio, 2)) * s / gg
        ainv_gamma = gamma / self.axes
        mu = (-dot(v, v) - lam * dot(gamma, ainv_gamma)) / gg
        out = np.empty(y.shape, dtype=y.dtype)
        self.part(out, "gamma")[...] = v
        self.part(out, "v")[...] = mu * gamma + lam * ainv_gamma
        return out

    def energy(self, y):
        return self.lagrangian(y)

    def constraints(self, y):
        out = super().constraints(y)
        gamma = self.part(y, "gamma")
        out["gamma_v_orthogonality"] = np.abs(dot(gamma, self.part(y, "v"))[..., 0])
        return out


class GsrSystem(System):
    """Chaplygin-sphere generalization on an adjoint orbit.

    State components gamma (an algebra element, not a unit vector) and
    omega.  The flow k' = [k, omega], gamma' = [gamma, omega] with
    k = I omega + m rho^2 [[gamma, omega], gamma] conserves <k, k>,
    <gamma, gamma> and the energy 1/2 <k, omega>.
    """

    kind = "gsr"

    def __init__(self, inertia, mass, radius):
        _set_ball(self, inertia, mass, radius)
        n = inertia.n
        super().__init__(n, [skew_component("gamma", n), skew_component("omega", n)])

    def _pi(self, adg):
        """Pi = m rho^2 ad_gamma^T ad_gamma, the orbit-dependent part of B."""
        return self.mr2 * (adg.swapaxes(-1, -2) @ adg)

    def momentum_vec(self, y):
        b = self.inertia.matrix + self._pi(lie.ad_vec(self.part(y, "gamma")))
        return (b @ self.part(y, "omega")[..., None])[..., 0]

    def rhs(self, y):
        wv = self.part(y, "omega")
        adg = lie.ad_vec(self.part(y, "gamma"))
        adw = lie.ad_vec(wv)
        pi = self._pi(adg)
        wcol = wv[..., None]
        gamma_dot = adg @ wcol
        # d/dt of the orbit-dependent part of the operator applied to omega,
        # m rho^2 [[gamma', omega], gamma]; its other term [[gamma, omega], gamma']
        # is [gamma', gamma'] = 0
        bdot_w = self.mr2 * (adg @ (adw @ gamma_dot))
        # [k, omega] - bdot_w
        torque = -(adw @ ((self.inertia.matrix + pi) @ wcol)) - bdot_w
        out = np.empty(y.shape, dtype=y.dtype)
        self.part(out, "gamma")[...] = gamma_dot[..., 0]
        self.part(out, "omega")[...] = constrained_acceleration(self.inertia, pi, torque)
        return out

    def energy(self, y):
        return 0.5 * dot(self.momentum_vec(y), self.part(y, "omega"))[..., 0]

    def conserved(self):
        return {
            "energy": self.energy,
            "momentum_norm": lambda y: np.sum(self.momentum_vec(y) ** 2, axis=-1),
            "orbit_norm": lambda y: 2.0 * np.sum(self.part(y, "gamma") ** 2, axis=-1),
        }


def contact_velocity(system, y):
    """Space-frame velocity of the rolling ball center, rho * Ad_g(omega) Gamma.

    It takes one state or a stack of them along leading axes: Gamma = e_n
    picks the last column of the skew matrix of the kernel's
    ``spatial_velocity``, whose diagonal is exactly zero.
    """
    return system.radius * lie.vec_to_skew(system.spatial_velocity(y), system.n)[..., :, -1]
