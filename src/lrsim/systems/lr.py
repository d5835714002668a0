"""LR systems and L+R systems on SO(n).

An LR system is the nonholonomic geodesic flow of a left-invariant metric
<I omega, omega> with right-invariant constraints <alpha_i, omega> = 0,
alpha_i = Ad_{g^-1} a_i.  In the left trivialization, with m = I omega,

    dm/dt      = [m, omega] + sum_i lambda_i alpha_i,
    dalpha_i/dt = [alpha_i, omega],
    dg/dt      = g omega,

where the multipliers keep every <alpha_i, omega> constant; they are solved
from the Gram system <I^-1 alpha_i, alpha_j>, which makes the field well
defined on the whole phase space, not just the constraint submanifold.

An L+R system adds a conjugated right-invariant operator to the inertia,
B = I + Ad_{g^-1} Pi0 Ad_g, and evolves

    d(B omega)/dt = [B omega, omega],  dg/dt = g omega,

which resolves to  omega' = B^{-1} [I omega, omega].  The geodesic flow of
the same L+R metric keeps the force term the modified equations drop; in
(g, omega) variables it reads  omega' = B^{-1}([B omega, omega]
+ 2 [omega, Pi omega]).

Both, and the coupled, support and rubber Chaplygin flows, are one field

    B omega' = [I omega, omega] + C lambda,   B = I + Pi,   g' = g omega,

with the multipliers lambda over a body-frame basis C solved from the Gram
system C^T B^-1 C.  :func:`constrained_acceleration` is the one solve for
omega', over any leading stack axes; :class:`ConstrainedEulerSystem`
evaluates the field with it for all of them (the LR flow is Pi = 0,
C = (alpha_i)), and each flow supplies its Pi, its C and the transport of
its extra components.  The same two hooks give the density of the measure
each flow preserves on its flat state,

    rho = sqrt(det B * det(C^T B^-1 C)),

(:meth:`ConstrainedEulerSystem.measure_density`), which ``lrsim verify``
checks against the flow's own field: for the LR flow it is Fedorov and
Jovanovic's sqrt det(C^T I^-1 C), for the L+R flow Fedorov's sqrt det B.
The geodesic L+R flow preserves det B instead, the Liouville density of
p = B omega, and the rubber Chaplygin sphere sqrt det L(gamma).

B is symmetric positive definite at every finite state, by construction
for each flow, so the kernel solves with it and never tests it:

* ``lr``: B = I, positive definite as every :class:`InertiaOperator` is;
* ``lplusr``, ``geodesic-lpr``: lambda_min(I) + lambda_min(Pi0) > 0,
  checked by :class:`LplusRSystem`, bounds lambda_min(B) from below
  (Weyl's inequality);
* ``coupled``, ``coupled-reduced``, ``ncoupled``: I plus
  Ad_g^T (sum_i D_i A_i^T (B_i B_i^T)^-1 A_i) Ad_g over their partners, a
  positive semidefinite sum with D_i > 0 and B_i B_i^T invertible checked
  by :class:`~lrsim.systems.coupled.Partner`;
* ``support``: I plus projectors weighted by D_i / rho_i^2, with D_i > 0
  checked;
* ``rubber-support``: its constructor checks the worst case over all
  contact directions;
* ``rubber-chaplygin``: I + m rho^2 pr, whose field solves the n x n
  matrix L(gamma) = m rho^2 Id + E I E^T instead
  (:mod:`lrsim.systems.chaplygin`).

The ``gsr`` flow, outside the kernel, solves with the same function for
Pi = m rho^2 ad_gamma^T ad_gamma, a positive semidefinite term.

A singular B or Gram matrix raises :class:`MultiplierError`.
"""

from __future__ import annotations

import copy

import numpy as np

from .. import liecore as lie
# cho_factor is unused here, but bound so that perfbench/tracer.py finds
# both names in every systems module
from ..linalg import cho_factor, cho_solve  # noqa: F401
from .base import System, dot, rotation_component, skew_component


class MultiplierError(RuntimeError):
    """A Lagrange-multiplier linear system is singular."""


# --- the constrained-Euler kernel ------------------------------------------

def constrained_acceleration(inertia, pi, torque, basis=None):
    """omega' with B omega' = torque + C lambda and C^T omega' = 0, B = I + Pi.

    ``pi`` is a (..., N, N) stack or None for Pi = 0, ``torque`` a
    (..., N, 1) column and ``basis`` C (..., N, k) or None; the leading
    axes are a stack and the result is (..., N).  One solve of B against
    the columns [torque | C] gives B^-1 torque and B^-1 C; lambda solves the Gram
    system (C^T B^-1 C) lambda = -C^T B^-1 torque, and omega' = B^-1 torque
    + B^-1 C lambda.  For Pi = 0 the solve reuses the stored factor of I.
    """
    constrained = basis is not None and basis.shape[-1] > 0
    cols = np.concatenate([torque, basis], axis=-1) if constrained else torque
    if pi is None:
        sol = cho_solve(inertia._cho, cols)
    else:
        try:
            sol = np.linalg.solve(inertia.matrix + pi, cols)
        except np.linalg.LinAlgError as exc:
            raise MultiplierError("effective inertia is singular") from exc
    if not constrained:
        return sol[..., 0]
    binv_torque = sol[..., :1]
    binv_basis = sol[..., 1:]
    basis_t = np.swapaxes(basis, -1, -2)
    try:
        lam = np.linalg.solve(basis_t @ binv_basis, -(basis_t @ binv_torque))
    except np.linalg.LinAlgError as exc:
        raise MultiplierError("constraint multiplier system is singular") from exc
    return (binv_torque + binv_basis @ lam)[..., 0]


class ConstrainedEulerSystem(System):
    """Shared field  B omega' = [I omega, omega] + C lambda,  g' = g omega.

    Every rotation-carrying flow is this one with B = I + Pi; the geodesic
    L+R flow overrides ``torque``, the rubber Chaplygin sphere the solve
    step ``acceleration``.  A subclass gives what differs through three hooks:

    * ``pi(y)`` -- Pi, or None for Pi = 0, whose factor of I is reused; it
      also returns per-state data (the Ad_g matrix, the LR alphas, the
      contact directions) that the other two hooks receive as ``frame``;
    * ``constraint_basis(y, frame)`` -- the body-frame basis C, or None;
    * ``transport(y, frame, omega, adw, wdot, out)`` -- fills the derivatives
      of the components after g and omega.

    ``rhs``, ``acceleration``, ``torque`` and the hooks take a state or a
    stack (:mod:`lrsim.systems.base`): ``wv``, ``wdot`` (..., N), ``omega``
    (..., n, n), ``adw`` (..., N, N); ``torque`` gives a (..., N, 1) column.

    ``rhs`` builds omega twice, once as a skew matrix for g' = g omega and
    once as ad_omega = ``lie.ad_vec(wv)`` for every bracket with it; the hooks
    receive both.  That g' = g omega, with omega the state's own ``omega``
    component, is a contract: the ``lie-rk4`` step of
    :mod:`lrsim.integrators` reads its algebra slopes from ``omega`` and
    never from g', so no subclass may change how g moves.

    The default ``pi`` is Ad_g^T Pi0 Ad_g for systems that set ``pi0``.
    ``measure_density`` reads the same hooks; a flow that overrides
    ``torque`` or ``acceleration`` overrides it too.
    The kernel also reports the integrals every flow shares, over stacks
    too: the energy 1/2 <B omega, omega>, the momentum B omega and its norm,
    and the Noether integrals <d, Ad_g I omega> over fixed directions d.
    """

    pi0 = None  # right-invariant operator in the fixed frame, if any

    def pi(self, y):
        if self.pi0 is None:
            return None, None
        q = lie.adjoint_matrix(self.part(y, "g"))
        return q.swapaxes(-1, -2) @ self.pi0 @ q, q

    def constraint_basis(self, y, frame):
        return None

    def transport(self, y, frame, omega, adw, wdot, out):
        pass

    def torque(self, wv, adw, pi):
        """[I omega, omega] = -ad_omega I omega, as a (..., N, 1) column."""
        return -(adw @ self.inertia.apply_vec(wv[..., None]))

    def effective_inertia(self, y):
        """B = I + Pi at a state."""
        pi, _ = self.pi(y)
        return self.inertia.matrix if pi is None else self.inertia.matrix + pi

    def momentum_vec(self, y):
        """B omega."""
        return (self.effective_inertia(y) @ self.part(y, "omega")[..., None])[..., 0]

    def energy(self, y):
        """1/2 <B omega, omega>."""
        return 0.5 * dot(self.momentum_vec(y), self.part(y, "omega"))[..., 0]

    def momentum_norm(self, y):
        """|B omega|^2, conserved by the isospectral L+R flow."""
        bw = self.momentum_vec(y)
        return dot(bw, bw)[..., 0]

    def spatial_velocity(self, y):
        """Ad_g omega."""
        q = lie.adjoint_matrix(self.part(y, "g"))
        return (q @ self.part(y, "omega")[..., None])[..., 0]

    def spatial_momentum_vec(self, y):
        """Ad_g I omega."""
        iw = self.inertia.apply_vec(self.part(y, "omega")[..., None])
        return (lie.adjoint_matrix(self.part(y, "g")) @ iw)[..., 0]

    def noether(self, basis, prefix):
        """Integrals prefix_j = <d_j, Ad_g I omega> over the columns d_j of a fixed
        basis, as one group: {(prefix_1, ...): y -> basis^T Ad_g I omega}."""
        if not basis.shape[1]:
            return {}
        names = tuple(f"{prefix}_{j + 1}" for j in range(basis.shape[1]))
        return {names: lambda y: (basis.T @ self.spatial_momentum_vec(y)[..., None])[..., 0]}

    def measure_density(self, y):
        """sqrt(det B * det(C^T B^-1 C)) from the ``pi`` and ``constraint_basis``
        hooks, sqrt det B without a C: the density, on the flat state, of the
        measure the flow preserves; one value per state of a stack."""
        pi, frame = self.pi(y)
        b = self.inertia.matrix if pi is None else self.inertia.matrix + pi
        det = np.linalg.det(b)
        basis = self.constraint_basis(y, frame)
        if basis is not None and basis.shape[-1]:
            det = det * np.linalg.det(np.swapaxes(basis, -1, -2) @ np.linalg.solve(b, basis))
        return np.sqrt(np.broadcast_to(det, y.shape[:-1]))

    def acceleration(self, y, wv, adw):
        """(omega', frame): :func:`constrained_acceleration` with the hooks' Pi and C."""
        pi, frame = self.pi(y)
        basis = self.constraint_basis(y, frame)
        return constrained_acceleration(self.inertia, pi, self.torque(wv, adw, pi), basis), frame

    def rhs(self, y):
        wv = self.part(y, "omega")
        omega = lie.vec_to_skew(wv, self.n)
        adw = lie.ad_vec(wv)
        wdot, frame = self.acceleration(y, wv, adw)
        out = np.empty(y.shape, dtype=y.dtype)
        np.matmul(self.part(y, "g"), omega, out=self.part(out, "g"))
        self.part(out, "omega")[...] = wdot
        self.transport(y, frame, omega, adw, wdot, out)
        return out


class LRSystem(ConstrainedEulerSystem):
    """Nonholonomic LR flow; state components g, omega, alpha1..alphak."""

    kind = "lr"

    def __init__(self, inertia, constraint_basis):
        self.inertia = inertia
        self.h_space = constraint_basis  # subspace spanned by the a_i, space frame
        self.k = constraint_basis.dim if constraint_basis is not None else 0
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n)]
        comps += [skew_component(f"alpha{i + 1}", n) for i in range(self.k)]
        super().__init__(n, comps)
        # complement of the constraint subspace carries the Noether integrals
        self.d_space = lie.complement(self.h_space) if self.k else None

    def initial_state(self, g, omega):
        """State with alpha_i = Ad_{g^-1} a_i from the constraint subspace."""
        parts = {"g": np.asarray(g, dtype=float), "omega": omega}
        for i in range(self.k):
            a = lie.vec_to_skew(self.h_space.vectors[:, i], self.n)
            parts[f"alpha{i + 1}"] = lie.Ad(parts["g"].T, a)
        return self.pack(**parts)

    def _alpha_block(self, y):
        """The alpha components, stored one after another after omega, as (..., k, N) rows."""
        start = self.slice_of("omega").stop
        return y[..., start:start + self.k * self.N].reshape(y.shape[:-1] + (self.k, self.N))

    def pi(self, y):
        """Pi = 0, with the alphas as the frame of the other hooks."""
        return None, self._alpha_block(y)

    def constraint_basis(self, y, frame):
        return frame.swapaxes(-1, -2)

    def transport(self, y, frame, omega, adw, wdot, out):
        # alpha_i' = [alpha_i, omega] = -ad_omega alpha_i is row i of
        # alphas @ ad_omega, as ad_omega is skew: all of them in one matmul
        np.matmul(frame, adw, out=self._alpha_block(out))

    def conserved(self):
        out = {"energy": self.energy}
        if self.k:
            out.update(self.noether(self.d_space.vectors, "noether"))
        else:
            out["momentum_norm"] = self.momentum_norm
        return out

    def constraints(self, y):
        out = super().constraints(y)
        alphas = self._alpha_block(y)
        # <alpha_i, omega> and the Gram entries <alpha_i, alpha_j>, each one dot
        right = dot(alphas, self.part(y, "omega")[..., None, :])[..., 0]
        for i in range(self.k):
            out[f"right_invariant_{i + 1}"] = np.abs(right[..., i])
        if self.k:
            gram = dot(alphas[..., :, None, :], alphas[..., None, :, :])[..., 0]
            rows, cols = np.triu_indices(self.k)
            dev = np.abs(gram - np.eye(self.k))[..., rows, cols]
            out["alpha_orthonormality"] = np.max(dev, axis=-1)
        return out


class LplusRSystem(ConstrainedEulerSystem):
    """L+R flow omega' = B^{-1} [I omega, omega]; state components g, omega."""

    kind = "lplusr"

    def __init__(self, inertia, pi0):
        """``pi0`` is one (N, N) operator, or a (B, N, N) stack of them, one for each
        member of a (B, dim) stack of states; each is checked on its own."""
        self.inertia = inertia
        pi0 = np.asarray(pi0, dtype=float)
        if pi0.ndim not in (2, 3) or pi0.shape[-2:] != (inertia.N, inertia.N):
            raise ValueError(f"Pi0 must be ({inertia.N}, {inertia.N}), got {pi0.shape}")
        pi0_t = pi0.swapaxes(-1, -2)
        if np.max(np.abs(pi0 - pi0_t)) > 1e-10:
            raise ValueError("Pi0 must be symmetric")
        self.pi0 = 0.5 * (pi0 + pi0_t)
        # B(g) = I + Ad_g^T Pi0 Ad_g conjugates Pi0 but not I.  By Weyl's
        # inequality lambda_min(B(g)) >= lambda_min(I) + lambda_min(Pi0) for
        # every g.  At n = 3, where Ad(SO(3)) is all of SO(3), some g aligns
        # the two lowest eigenvectors and attains the bound, so there the
        # check is exact; for n > 3 it is sufficient.
        bound = np.min(
            np.linalg.eigvalsh(inertia.matrix)[0] + np.linalg.eigvalsh(self.pi0)[..., 0]
        )
        if bound <= 0:
            raise ValueError(
                "total operator I + Pi is not positive definite for every rotation "
                f"(lambda_min(I) + lambda_min(Pi0) = {bound:.6g})"
            )
        super().__init__(inertia.n, [rotation_component(inertia.n), skew_component("omega", inertia.n)])

    def member(self, b):
        """With a stack of Pi0, the flow of member b's Pi0."""
        if self.pi0.ndim == 2:
            return self
        solo = copy.copy(self)
        solo.pi0 = self.pi0[b]
        return solo

    def conserved(self):
        return {"energy": self.energy, "momentum_norm": self.momentum_norm}


class GeodesicLplusRSystem(LplusRSystem):
    """Geodesic flow of the L+R metric (force term kept); state g, omega."""

    kind = "geodesic-lpr"

    def torque(self, wv, adw, pi):
        """[B omega, omega] + 2 [omega, Pi omega] = ad_omega (Pi omega - I omega)."""
        wcol = wv[..., None]
        return adw @ (pi @ wcol - self.inertia.apply_vec(wcol))

    def measure_density(self, y):
        """det B, the Liouville density of the momentum p = B omega."""
        return np.linalg.det(self.effective_inertia(y))

    def conserved(self):
        return {"energy": self.energy}


def penalty_pi0(basis, epsilon):
    """Rank-k right-invariant operator eps * sum_i a_i (x) a_i.

    With eps -> infinity the L+R flow built on it approaches the LR flow
    constrained to <a_i, Omega> = 0.
    """
    v = basis.vectors
    return float(epsilon) * (v @ v.T)
