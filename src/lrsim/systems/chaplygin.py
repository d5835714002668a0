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
from .base import Component, System, UNIT, VECTOR, rotation_component, skew_component
from .lr import ConstrainedEulerSystem, MultiplierError


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
        if mass <= 0 or radius <= 0:
            raise ValueError("mass and radius must be positive")
        self.inertia = inertia
        self.mass = float(mass)
        self.radius = float(radius)
        self.mr2 = self.mass * self.radius**2
        n = inertia.n
        super().__init__(n, [rotation_component(n), skew_component("omega", n)])

    def gamma_of(self, y):
        """The unit vertical direction gamma = g^-1 e_n in the body frame."""
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        gamma = g.T @ vertical_vector(self.n)
        return gamma / np.linalg.norm(gamma)

    def pi(self, y):
        gamma = self.gamma_of(y)
        return self.mr2 * wedge_projector_matrix(gamma), gamma

    def acceleration(self, y, wv, omega):
        """(omega', gamma) with omega' = E^T x, L(gamma) x = E [I omega, omega]."""
        gamma = self.gamma_of(y)
        e = lie.wedge_map(gamma)
        lmat = tangent_inertia(self.inertia, self.mr2, e)
        return e.T @ np.linalg.solve(lmat, e @ self.torque(wv, omega, None)), gamma

    def constraints(self, y):
        out = super().constraints(y)
        if self.n > 2:  # so(2) = R^2 ^ gamma leaves no twist
            e = lie.wedge_map(self.gamma_of(y))
            wv = y[self.slice_of("omega")]
            out["no_twist"] = float(np.linalg.norm(wv - e.T @ (e @ wv)))
        return out

    def to_cotangent(self, y):
        """Project a group state to the reduced (gamma, p) chart: p = L(gamma) gamma'."""
        gamma = self.gamma_of(y)
        e = lie.wedge_map(gamma)
        gamma_dot = -e @ y[self.slice_of("omega")]
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

    ``rhs`` also takes a (..., dim) stack of states and evaluates it in one
    sequence of numpy calls; a single state keeps its own, cheaper path.
    """

    kind = "cotangent"

    def __init__(self, inertia, mass, radius):
        if mass <= 0 or radius <= 0:
            raise ValueError("mass and radius must be positive")
        self.inertia = inertia
        self.mass = float(mass)
        self.radius = float(radius)
        self.mr2 = self.mass * self.radius**2
        n = inertia.n
        super().__init__(n, [Component("gamma", UNIT, n), Component("p", VECTOR, n)])

    def tangent_inertia(self, gamma):
        """The velocity-to-momentum matrix L(gamma) at a unit gamma."""
        return tangent_inertia(self.inertia, self.mr2, lie.wedge_map(gamma))

    def gamma_dot_of(self, gamma, p):
        """Invert p = m rho^2 gamma' - I(gamma ^ gamma') gamma on T_gamma."""
        return self._unit_gamma_dot(gamma / np.linalg.norm(gamma), p)

    def _unit_gamma_dot(self, gh, p):
        """gamma_dot_of for a gamma already normalized to ``gh``."""
        return np.linalg.solve(self.tangent_inertia(gh), p - (gh @ p) * gh)

    def rhs(self, y):
        if y.ndim > 1:
            return self._stacked_rhs(y)
        gamma = y[self.slice_of("gamma")]
        p = y[self.slice_of("p")]
        gh = gamma / np.linalg.norm(gamma)
        gamma_dot = self._unit_gamma_dot(gh, p)
        # -Phi x = gamma' (gamma, x) - gamma (gamma', x) for Phi = gamma ^ gamma'
        out = np.empty(self.dim)
        out[self.slice_of("gamma")] = gamma_dot * (gh @ gamma) - gh * (gamma_dot @ gamma)
        out[self.slice_of("p")] = gamma_dot * (gh @ p) - gh * (gamma_dot @ p)
        return out

    def _stacked_rhs(self, y):
        """``rhs`` over a (..., dim) stack of states.

        Each dot product, the norm included, is a (1, n) @ (n, 1) matmul: the
        same BLAS dot that ``@`` and ``np.linalg.norm`` call on one state, and
        the solve is the same LAPACK call, so each row reproduces its
        one-state call.
        """

        def dot(a, b):
            return (a[..., None, :] @ b[..., :, None])[..., 0]

        gamma = y[..., self.slice_of("gamma")]
        p = y[..., self.slice_of("p")]
        gh = gamma / np.sqrt(dot(gamma, gamma))
        lmat = tangent_inertia(self.inertia, self.mr2, lie.wedge_map(gh))
        gamma_dot = np.linalg.solve(lmat, (p - dot(gh, p) * gh)[..., None])[..., 0]
        out = np.empty(y.shape)
        out[..., self.slice_of("gamma")] = gamma_dot * dot(gh, gamma) - gh * dot(gamma_dot, gamma)
        out[..., self.slice_of("p")] = gamma_dot * dot(gh, p) - gh * dot(gamma_dot, p)
        return out

    def energy(self, y):
        gamma = y[self.slice_of("gamma")]
        p = y[self.slice_of("p")]
        return 0.5 * float(p @ self.gamma_dot_of(gamma, p))

    def constraints(self, y):
        out = super().constraints(y)
        gamma = y[self.slice_of("gamma")]
        p = y[self.slice_of("p")]
        out["gamma_p_orthogonality"] = abs(float(gamma @ p))
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
        gamma = y[self.slice_of("gamma")]
        v = y[self.slice_of("v")]
        a_g = self.axes * gamma
        return 0.5 * (float((self.axes * v) @ v) - float(a_g @ v) ** 2 / float(a_g @ gamma))

    def rhs(self, y):
        gamma = y[self.slice_of("gamma")]
        v = y[self.slice_of("v")]
        # Euler-Lagrange system with the unit-sphere multiplier lambda:
        #   M gamma'' = r a + lambda gamma,  (gamma, gamma'') = -|v|^2,
        #   a = A gamma, s = (a, gamma), r = (Av, v)/s - ((a, v)/s)^2,
        #   M = A - a a^T / s.
        # M gamma = 0 and M A^-1 gamma = gamma - |gamma|^2 a / s (as A^-1 a =
        # gamma), so pairing with gamma gives lambda = -r s / |gamma|^2, and
        # gamma'' = mu gamma + lambda A^-1 gamma with mu from the second row.
        gg = float(gamma @ gamma)
        if gg == 0.0:
            raise MultiplierError("degenerate geodesic configuration")
        a = self.axes * gamma
        s = float(a @ gamma)
        ratio = float(a @ v) / s
        lam = -(float((self.axes * v) @ v) / s - ratio**2) * s / gg
        ainv_gamma = gamma / self.axes
        mu = (-float(v @ v) - lam * float(gamma @ ainv_gamma)) / gg
        out = np.empty(self.dim)
        out[self.slice_of("gamma")] = v
        out[self.slice_of("v")] = mu * gamma + lam * ainv_gamma
        return out

    def energy(self, y):
        return self.lagrangian(y)

    def constraints(self, y):
        out = super().constraints(y)
        gamma = y[self.slice_of("gamma")]
        v = y[self.slice_of("v")]
        out["gamma_v_orthogonality"] = abs(float(gamma @ v))
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
        if mass <= 0 or radius <= 0:
            raise ValueError("mass and radius must be positive")
        self.inertia = inertia
        self.mass = float(mass)
        self.radius = float(radius)
        self.mr2 = self.mass * self.radius**2
        n = inertia.n
        super().__init__(n, [skew_component("gamma", n), skew_component("omega", n)])

    def _b_matrix(self, gamma_mat):
        adg = lie.ad_matrix(gamma_mat)
        return self.inertia.matrix + self.mr2 * (adg.T @ adg)

    def momentum_vec(self, y):
        gamma = lie.vec_to_skew(y[self.slice_of("gamma")], self.n)
        return self._b_matrix(gamma) @ y[self.slice_of("omega")]

    def rhs(self, y):
        n = self.n
        gamma = lie.vec_to_skew(y[self.slice_of("gamma")], n)
        wv = y[self.slice_of("omega")]
        omega = lie.vec_to_skew(wv, n)
        b = self._b_matrix(gamma)
        kmat = lie.vec_to_skew(b @ wv, n)
        gamma_dot = lie.ad(gamma, omega)
        # d/dt of the orbit-dependent part of the operator applied to omega
        bdot_w = self.mr2 * (
            lie.ad(lie.ad(gamma_dot, omega), gamma) + lie.ad(lie.ad(gamma, omega), gamma_dot)
        )
        try:
            wdot = np.linalg.solve(b, lie.skew_to_vec(lie.ad(kmat, omega) - bdot_w))
        except np.linalg.LinAlgError as exc:
            raise MultiplierError("effective inertia is singular") from exc
        out = np.empty(self.dim)
        out[self.slice_of("gamma")] = lie.skew_to_vec(gamma_dot)
        out[self.slice_of("omega")] = wdot
        return out

    def energy(self, y):
        return 0.5 * float(self.momentum_vec(y) @ y[self.slice_of("omega")])

    def conserved(self):
        return {
            "energy": self.energy,
            "momentum_norm": lambda y: float(np.sum(self.momentum_vec(y) ** 2)),
            "orbit_norm": lambda y: 2.0 * float(np.sum(y[self.slice_of("gamma")] ** 2)),
        }


def contact_velocity(system, y):
    """Space-frame velocity of the rolling ball center, rho * Ad_g(omega) Gamma."""
    n = system.n
    g = y[system.slice_of("g")].reshape(n, n)
    omega = lie.vec_to_skew(y[system.slice_of("omega")], n)
    return system.radius * (lie.Ad(g, omega) @ vertical_vector(n))
