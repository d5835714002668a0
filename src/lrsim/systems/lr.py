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
system C^T B^-1 C.  :class:`ConstrainedEulerSystem` evaluates it once for
all of them (the LR flow is Pi = 0, C = (alpha_i)); each flow supplies its
Pi, its C and the transport of its extra components.

B is symmetric positive definite at every finite state, by construction
for each flow, so the kernel solves with it and never tests it:

* ``lr``: B = I, positive definite as every :class:`InertiaOperator` is;
* ``lplusr``, ``geodesic-lpr``: lambda_min(I) + lambda_min(Pi0) > 0,
  checked by :class:`LplusRSystem`, bounds lambda_min(B) from below
  (Weyl's inequality);
* ``coupled``, ``coupled-reduced``: I plus projectors weighted by
  D / rho_i^2, with D > 0 checked;
* ``ncoupled``: I plus Ad_g^T (sum_i D_i A_i^T (B_i B_i^T)^-1 A_i) Ad_g, a
  positive semidefinite sum with D_i > 0 and B_i B_i^T invertible checked;
* ``support``: I plus projectors weighted by D_i / rho_i^2, with D_i > 0
  checked;
* ``rubber-support``: its constructor checks the worst case over all
  contact directions;
* ``rubber-chaplygin``: I + m rho^2 pr, whose field solves the n x n
  matrix L(gamma) = m rho^2 Id + E I E^T instead
  (:mod:`lrsim.systems.chaplygin`).

The ``gsr`` flow, outside the kernel, solves its B = I + m rho^2
ad_gamma^T ad_gamma, I plus a positive semidefinite term, the same way.

A singular B or Gram matrix raises :class:`MultiplierError`.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
# cho_factor is unused here, but bound so that perfbench/tracer.py finds
# both names in every systems module
from ..linalg import cho_factor, cho_solve  # noqa: F401
from .base import System, rotation_component, skew_component


class MultiplierError(RuntimeError):
    """A Lagrange-multiplier linear system is singular."""


# --- the constrained-Euler kernel ------------------------------------------

class ConstrainedEulerSystem(System):
    """Shared field  B omega' = [I omega, omega] + C lambda,  g' = g omega.

    Every rotation-carrying flow is this one with B = I + Pi; the geodesic
    L+R flow overrides ``torque``, the rubber Chaplygin sphere the solve
    step ``acceleration``.  A subclass gives what differs through three hooks:

    * ``pi(y)`` -- Pi at a state, or None for Pi = 0, whose factor of I is
      reused; it also returns per-state data (the Ad_g matrix, the contact
      directions) that the other two hooks receive as ``frame``;
    * ``constraint_basis(y, frame)`` -- the body-frame basis C, or None;
    * ``transport(y, frame, omega, wdot, out)`` -- fills the derivatives of
      the components after g and omega.

    The default ``pi`` is Ad_g^T Pi0 Ad_g for systems that set ``pi0``.
    The kernel also reports the integrals every flow shares: the energy
    1/2 <B omega, omega>, the momentum B omega and its norm, and the
    Noether integrals <d, Ad_g I omega> over fixed directions d.
    """

    pi0 = None  # right-invariant operator in the fixed frame, if any

    def pi(self, y):
        if self.pi0 is None:
            return None, None
        q = lie.adjoint_matrix(y[self.slice_of("g")].reshape(self.n, self.n))
        return q.T @ self.pi0 @ q, q

    def constraint_basis(self, y, frame):
        return None

    def transport(self, y, frame, omega, wdot, out):
        pass

    def torque(self, wv, omega, pi):
        """[I omega, omega]."""
        iw = lie.vec_to_skew(self.inertia.apply_vec(wv), self.n)
        return lie.skew_to_vec(lie.ad(iw, omega))

    def effective_inertia(self, y):
        """B = I + Pi at a state."""
        pi, _ = self.pi(y)
        return self.inertia.matrix if pi is None else self.inertia.matrix + pi

    def momentum_vec(self, y):
        """B omega."""
        return self.effective_inertia(y) @ y[self.slice_of("omega")]

    def energy(self, y):
        """1/2 <B omega, omega>."""
        return 0.5 * float(self.momentum_vec(y) @ y[self.slice_of("omega")])

    def momentum_norm(self, y):
        """|B omega|^2, conserved by the isospectral L+R flow."""
        bw = self.momentum_vec(y)
        return float(bw @ bw)

    def spatial_momentum_vec(self, y):
        """Ad_g I omega."""
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        return lie.adjoint_matrix(g) @ self.inertia.apply_vec(y[self.slice_of("omega")])

    def noether(self, basis, prefix):
        """Integrals prefix_j = <d_j, Ad_g I omega> over the columns d_j of a fixed
        basis, as one group: {(prefix_1, ...): y -> basis^T Ad_g I omega}."""
        if not basis.shape[1]:
            return {}
        names = tuple(f"{prefix}_{j + 1}" for j in range(basis.shape[1]))
        return {names: lambda y: basis.T @ self.spatial_momentum_vec(y)}

    def acceleration(self, y, wv, omega):
        """(omega', frame): B omega' = torque + C lambda, C^T omega' = 0.

        One solve of B against the columns [torque | C] gives B^-1 torque and
        B^-1 C; lambda solves the Gram system (C^T B^-1 C) lambda
        = -C^T B^-1 torque, and omega' = B^-1 torque + B^-1 C lambda.  For
        Pi = 0 the solve reuses the stored factor of I.
        """
        pi, frame = self.pi(y)
        torque = self.torque(wv, omega, pi)
        basis = self.constraint_basis(y, frame)
        constrained = basis is not None and basis.shape[1] > 0
        cols = np.column_stack([torque, basis]) if constrained else torque
        if pi is None:
            sol = cho_solve(self.inertia._cho, cols)
        else:
            try:
                sol = np.linalg.solve(self.inertia.matrix + pi, cols)
            except np.linalg.LinAlgError as exc:
                raise MultiplierError("effective inertia is singular") from exc
        if not constrained:
            return sol, frame
        binv_torque, binv_basis = sol[:, 0], sol[:, 1:]
        try:
            lam = np.linalg.solve(basis.T @ binv_basis, -(basis.T @ binv_torque))
        except np.linalg.LinAlgError as exc:
            raise MultiplierError("constraint multiplier system is singular") from exc
        return binv_torque + binv_basis @ lam, frame

    def rhs(self, y):
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        wv = y[self.slice_of("omega")]
        omega = lie.vec_to_skew(wv, self.n)
        wdot, frame = self.acceleration(y, wv, omega)
        out = np.empty(self.dim)
        out[self.slice_of("g")] = (g @ omega).ravel()
        out[self.slice_of("omega")] = wdot
        self.transport(y, frame, omega, wdot, out)
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

    def _alphas(self, y):
        return [
            y[self.slice_of(f"alpha{i + 1}")]
            for i in range(self.k)
        ]

    def constraint_basis(self, y, frame):
        # the alpha components are stored one after another after omega
        start = self.slice_of("omega").stop
        return y[start:start + self.k * self.N].reshape(self.k, self.N).T

    def transport(self, y, frame, omega, wdot, out):
        for i, a in enumerate(self._alphas(y)):
            out[self.slice_of(f"alpha{i + 1}")] = lie.skew_to_vec(
                lie.ad(lie.vec_to_skew(a, self.n), omega)
            )

    def conserved(self):
        out = {"energy": self.energy}
        if self.k:
            out.update(self.noether(self.d_space.vectors, "noether"))
        else:
            out["momentum_norm"] = self.momentum_norm
        return out

    def constraints(self, y):
        out = super().constraints(y)
        wv = y[self.slice_of("omega")]
        alphas = self._alphas(y)
        for i, a in enumerate(alphas):
            out[f"right_invariant_{i + 1}"] = abs(float(a @ wv))
        for i in range(self.k):
            for j in range(i, self.k):
                dev = abs(float(alphas[i] @ alphas[j]) - (1.0 if i == j else 0.0))
                out["alpha_orthonormality"] = float(
                    np.maximum(out.get("alpha_orthonormality", 0.0), dev)
                )
        return out


class LplusRSystem(ConstrainedEulerSystem):
    """L+R flow omega' = B^{-1} [I omega, omega]; state components g, omega."""

    kind = "lplusr"

    def __init__(self, inertia, pi0):
        self.inertia = inertia
        pi0 = np.asarray(pi0, dtype=float)
        if pi0.shape != (inertia.N, inertia.N):
            raise ValueError(f"Pi0 must be ({inertia.N}, {inertia.N}), got {pi0.shape}")
        if np.max(np.abs(pi0 - pi0.T)) > 1e-10:
            raise ValueError("Pi0 must be symmetric")
        self.pi0 = 0.5 * (pi0 + pi0.T)
        # B(g) = I + Ad_g^T Pi0 Ad_g conjugates Pi0 but not I.  By Weyl's
        # inequality lambda_min(B(g)) >= lambda_min(I) + lambda_min(Pi0) for
        # every g.  At n = 3, where Ad(SO(3)) is all of SO(3), some g aligns
        # the two lowest eigenvectors and attains the bound, so there the
        # check is exact; for n > 3 it is sufficient.
        bound = np.linalg.eigvalsh(inertia.matrix)[0] + np.linalg.eigvalsh(self.pi0)[0]
        if bound <= 0:
            raise ValueError(
                "total operator I + Pi is not positive definite for every rotation "
                f"(lambda_min(I) + lambda_min(Pi0) = {bound:.6g})"
            )
        super().__init__(inertia.n, [rotation_component(inertia.n), skew_component("omega", inertia.n)])

    def conserved(self):
        return {"energy": self.energy, "momentum_norm": self.momentum_norm}


class GeodesicLplusRSystem(LplusRSystem):
    """Geodesic flow of the L+R metric (force term kept); state g, omega."""

    kind = "geodesic-lpr"

    def torque(self, wv, omega, pi):
        """[B omega, omega] + 2 [omega, Pi omega]."""
        bw = lie.vec_to_skew((self.inertia.matrix + pi) @ wv, self.n)
        piw = lie.vec_to_skew(pi @ wv, self.n)
        return lie.skew_to_vec(lie.ad(bw, omega) + 2.0 * lie.ad(omega, piw))

    def conserved(self):
        return {"energy": self.energy}


def penalty_pi0(basis, epsilon):
    """Rank-k right-invariant operator eps * sum_i a_i (x) a_i.

    With eps -> infinity the L+R flow built on it approaches the LR flow
    constrained to <a_i, Omega> = 0.
    """
    v = basis.vectors
    return float(epsilon) * (v @ v.T)
