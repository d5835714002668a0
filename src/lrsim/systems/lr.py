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
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
from ..linalg import cho_factor, cho_solve
from .base import System, rotation_component, skew_component


class MultiplierError(RuntimeError):
    """A Lagrange-multiplier linear system is singular."""


class LRSystem(System):
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

    def rhs(self, y):
        n, N = self.n, self.N
        g = y[self.slice_of("g")].reshape(n, n)
        wv = y[self.slice_of("omega")]
        omega = lie.vec_to_skew(wv, n)
        m = lie.vec_to_skew(self.inertia.apply_vec(wv), n)
        torque = lie.skew_to_vec(lie.ad(m, omega))
        alphas = self._alphas(y)
        if self.k:
            sols = [self.inertia.solve_vec(a) for a in alphas]
            gram = np.array([[sols[i] @ alphas[j] for j in range(self.k)] for i in range(self.k)])
            rhs_mult = np.array([-(sols[i] @ torque) for i in range(self.k)])
            try:
                lam = cho_solve(cho_factor(gram), rhs_mult)
            except np.linalg.LinAlgError as exc:
                raise MultiplierError("degenerate constraint configuration") from exc
            torque = torque + sum(lam[i] * alphas[i] for i in range(self.k))
        wdot = self.inertia.solve_vec(torque)
        out = np.empty(self.dim)
        out[self.slice_of("g")] = (g @ omega).ravel()
        out[self.slice_of("omega")] = wdot
        for i, a in enumerate(alphas):
            out[self.slice_of(f"alpha{i + 1}")] = lie.skew_to_vec(
                lie.ad(lie.vec_to_skew(a, n), omega)
            )
        return out

    def energy(self, y):
        wv = y[self.slice_of("omega")]
        return 0.5 * float(wv @ self.inertia.apply_vec(wv))

    def spatial_momentum_vec(self, y):
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        mv = self.inertia.apply_vec(y[self.slice_of("omega")])
        return lie.adjoint_matrix(g) @ mv

    def conserved(self):
        out = {"energy": self.energy}
        if self.k:
            d_vectors = self.d_space.vectors

            def noether(y, j):
                return float(d_vectors[:, j] @ self.spatial_momentum_vec(y))

            for j in range(self.d_space.dim):
                out[f"noether_{j + 1}"] = (lambda y, j=j: noether(y, j))
        else:
            out["momentum_norm"] = lambda y: float(
                np.sum(self.spatial_momentum_vec(y) ** 2)
            )
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


class LplusRSystem(System):
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
        # B SPD for every g since conjugation preserves the Pi0 spectrum
        eigs = np.linalg.eigvalsh(inertia.matrix + self.pi0)
        if eigs[0] <= 0:
            raise ValueError(
                f"total operator I + Pi is not positive definite (min eigenvalue {eigs[0]:.6g})"
            )
        super().__init__(inertia.n, [rotation_component(inertia.n), skew_component("omega", inertia.n)])

    def _b_matrix(self, g):
        q = lie.adjoint_matrix(g)
        return self.inertia.matrix + q.T @ self.pi0 @ q

    def rhs(self, y):
        n = self.n
        g = y[self.slice_of("g")].reshape(n, n)
        wv = y[self.slice_of("omega")]
        omega = lie.vec_to_skew(wv, n)
        b = self._b_matrix(g)
        iw = lie.vec_to_skew(self.inertia.apply_vec(wv), n)
        try:
            wdot = cho_solve(cho_factor(b), lie.skew_to_vec(lie.ad(iw, omega)))
        except np.linalg.LinAlgError as exc:
            raise MultiplierError("total operator I + Pi lost positive definiteness") from exc
        out = np.empty(self.dim)
        out[self.slice_of("g")] = (g @ omega).ravel()
        out[self.slice_of("omega")] = wdot
        return out

    def energy(self, y):
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        wv = y[self.slice_of("omega")]
        return 0.5 * float(wv @ self._b_matrix(g) @ wv)

    def momentum_norm(self, y):
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        wv = y[self.slice_of("omega")]
        bw = self._b_matrix(g) @ wv
        return float(bw @ bw)

    def conserved(self):
        return {"energy": self.energy, "momentum_norm": self.momentum_norm}


class GeodesicLplusRSystem(LplusRSystem):
    """Geodesic flow of the L+R metric (force term kept); state g, omega."""

    kind = "geodesic-lpr"

    def rhs(self, y):
        n = self.n
        g = y[self.slice_of("g")].reshape(n, n)
        wv = y[self.slice_of("omega")]
        omega = lie.vec_to_skew(wv, n)
        q = lie.adjoint_matrix(g)
        pi = q.T @ self.pi0 @ q
        b = self.inertia.matrix + pi
        bw = lie.vec_to_skew(b @ wv, n)
        piw = lie.vec_to_skew(pi @ wv, n)
        rhs_vec = lie.skew_to_vec(lie.ad(bw, omega) + 2.0 * lie.ad(omega, piw))
        try:
            wdot = cho_solve(cho_factor(b), rhs_vec)
        except np.linalg.LinAlgError as exc:
            raise MultiplierError("total operator I + Pi lost positive definiteness") from exc
        out = np.empty(self.dim)
        out[self.slice_of("g")] = (g @ omega).ravel()
        out[self.slice_of("omega")] = wdot
        return out

    def conserved(self):
        return {"energy": self.energy}


def penalty_pi0(basis, epsilon):
    """Rank-k right-invariant operator eps * sum_i a_i (x) a_i.

    With eps -> infinity the L+R flow built on it approaches the LR flow
    constrained to <a_i, Omega> = 0.
    """
    v = basis.vectors
    return float(epsilon) * (v @ v.T)
