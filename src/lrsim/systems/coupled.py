"""Coupled nonholonomic systems on SO(n) x G1 and their reductions.

The two-factor system couples a body with inertia I to a second factor with
isotropic inertia D through right-invariant constraints

    <Ad_g omega, h_0> = 0,
    <Ad_g omega + rho_i W, h_i> = 0,   i = 1..q,

with h_1..h_q mutually orthogonal subspaces fixed in space.  Eliminating
the reaction forces of the h_i family yields

    B omega' = [I omega, omega] + lambda_0,
    W'       = -sum_i (1/rho_i) pr_{h_i} Ad_g(omega'),
    g'       = g omega,

where B = I + sum_i (D/rho_i^2) pr_{h_i^g} and lambda_0 in h_0^g is solved
from <omega', h_0^g> = 0.  The (g, omega) equations close by themselves:
that closed system is the reduced flow, an L+R flow constrained by h_0^g,
and W is slaved to it.

The N-coupled generalization takes constraints A_i Omega + B_i W_i = 0 with
matrices in fixed orthonormal bases; it reduces to an L+R flow whose
right-invariant operator is sum_i D_i A_i^T (B_i B_i^T)^{-1} A_i.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
from ..linalg import cho_factor, cho_solve
from .base import Component, VECTOR, rotation_component, skew_component
from .lr import ConstrainedEulerSystem


def _check_mutually_orthogonal(subspaces):
    for i in range(len(subspaces)):
        for j in range(i + 1, len(subspaces)):
            cross = subspaces[i].vectors.T @ subspaces[j].vectors
            if cross.size and np.max(np.abs(cross)) > 1e-10:
                raise ValueError(f"constraint subspaces {i + 1} and {j + 1} are not orthogonal")


class _CoupledBase(ConstrainedEulerSystem):
    def __init__(self, inertia, h0, subspaces, coupling, rhos, components):
        if len(subspaces) != len(rhos):
            raise ValueError("need one rho per constraint subspace")
        if coupling <= 0:
            raise ValueError("coupling constant D must be positive")
        if any(r == 0 for r in rhos):
            raise ValueError("rho parameters must be nonzero")
        _check_mutually_orthogonal(subspaces)
        self.inertia = inertia
        self.h0 = h0
        self.subspaces = list(subspaces)
        self.coupling = float(coupling)
        self.rhos = [float(r) for r in rhos]
        super().__init__(inertia.n, components)
        # Pi0 = sum_i (D / rho_i^2) pr_{h_i} in the fixed frame
        self.pi0 = sum(
            (self.coupling / r**2) * (h.vectors @ h.vectors.T)
            for h, r in zip(self.subspaces, self.rhos)
        ) if self.subspaces else np.zeros((self.N, self.N))
        h_vectors = [v for h in self.subspaces for v in h.vectors.T]
        h0_vectors = list(h0.vectors.T) if h0 is not None else []
        self.k_space = self._complement_of(h_vectors)
        self.k0_space = self._complement_of(h0_vectors + h_vectors)

    def _complement_of(self, vectors):
        return lie.complement(lie.SubspaceBasis(self.n, lie.gram_schmidt(vectors, self.N)))

    def constraint_basis(self, y, frame):
        # frame is Ad_g, so the columns span h_0^g
        return frame.T @ self.h0.vectors if self.h0 is not None and self.h0.dim else None

    def reduced_energy(self, y):
        wv = y[self.slice_of("omega")]
        return 0.5 * float(wv @ self.effective_inertia(y) @ wv)

    def spatial_momentum_vec(self, y):
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        return lie.adjoint_matrix(g) @ self.inertia.apply_vec(y[self.slice_of("omega")])

    def _noether_k0(self):
        out = {}
        for j in range(self.k0_space.dim):
            out[f"noether_k0_{j + 1}"] = (
                lambda y, j=j: float(self.k0_space.vectors[:, j] @ self.spatial_momentum_vec(y))
            )
        return out

    def constraints(self, y):
        out = super().constraints(y)
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        wv = y[self.slice_of("omega")]
        omega_space = lie.adjoint_matrix(g) @ wv
        if self.h0 is not None and self.h0.dim:
            out["h0_constraint"] = float(np.max(np.abs(self.h0.vectors.T @ omega_space)))
        return out, omega_space


class CoupledFullSystem(_CoupledBase):
    """Two-factor coupled flow; state components g, omega, W (space frame)."""

    kind = "coupled"

    def __init__(self, inertia, h0, subspaces, coupling, rhos):
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n), skew_component("W", n)]
        super().__init__(inertia, h0, subspaces, coupling, rhos, comps)

    def transport(self, y, frame, omega, wdot, out):
        omega_dot_space = frame @ wdot
        w_dot = np.zeros(self.N)
        for h, rho in zip(self.subspaces, self.rhos):
            w_dot -= (1.0 / rho) * (h.vectors @ (h.vectors.T @ omega_dot_space))
        out[self.slice_of("W")] = w_dot

    def energy(self, y):
        wv = y[self.slice_of("omega")]
        Wv = y[self.slice_of("W")]
        return 0.5 * float(wv @ self.inertia.apply_vec(wv)) + 0.5 * self.coupling * float(Wv @ Wv)

    def conserved(self):
        out = {"energy": self.energy}
        for j in range(self.k_space.dim):
            out[f"noether_k_{j + 1}"] = (
                lambda y, j=j: float(self.k_space.vectors[:, j] @ y[self.slice_of("W")])
            )
        out.update(self._noether_k0())
        return out

    def constraints(self, y):
        out, omega_space = super().constraints(y)
        Wv = y[self.slice_of("W")]
        for i, (h, rho) in enumerate(zip(self.subspaces, self.rhos)):
            resid = h.vectors.T @ (omega_space + rho * Wv)
            out[f"h{i + 1}_constraint"] = float(np.max(np.abs(resid))) if resid.size else 0.0
        return out


class CoupledReducedSystem(_CoupledBase):
    """Closed (g, omega) flow of the coupled system; W reconstructable."""

    kind = "coupled-reduced"

    def __init__(self, inertia, h0, subspaces, coupling, rhos):
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n)]
        super().__init__(inertia, h0, subspaces, coupling, rhos, comps)

    def energy(self, y):
        return self.reduced_energy(y)

    def conserved(self):
        out = {"energy": self.energy}
        out.update(self._noether_k0())
        return out

    def constraints(self, y):
        out, _ = super().constraints(y)
        return out


class NCoupledSystem(ConstrainedEulerSystem):
    """N-coupled system with matrix constraints A_i Omega + B_i W_i = 0.

    State components: g, omega, W1..WN (coordinate vectors of the
    right-trivialized velocities of the coupled factors).
    """

    kind = "ncoupled"

    def __init__(self, inertia, a_mats, b_mats, couplings):
        if not (len(a_mats) == len(b_mats) == len(couplings)):
            raise ValueError("need matching lists of A_i, B_i, D_i")
        self.inertia = inertia
        n = inertia.n
        self.bodies = []
        pi0 = np.zeros((inertia.N, inertia.N))
        comps = [rotation_component(n), skew_component("omega", n)]
        for idx, (a, b, d) in enumerate(zip(a_mats, b_mats, couplings)):
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if d <= 0:
                raise ValueError("coupling constants D_i must be positive")
            if a.shape[1] != inertia.N or a.shape[0] != b.shape[0]:
                raise ValueError(
                    f"constraint matrices of body {idx + 1} have inconsistent shapes "
                    f"{a.shape}, {b.shape}"
                )
            c = b @ b.T
            try:
                c_cho = cho_factor(c)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"B_{idx + 1} B_{idx + 1}^T is not invertible") from exc
            cinv_a = cho_solve(c_cho, a)
            pi0 += d * (a.T @ cinv_a)
            self.bodies.append({"a": a, "b": b, "d": float(d), "cinv_a": cinv_a})
            comps.append(Component(f"W{idx + 1}", VECTOR, b.shape[1]))
        self.pi0 = pi0
        super().__init__(n, comps)

    def transport(self, y, frame, omega, wdot, out):
        omega_dot_space = frame @ wdot
        for idx, body in enumerate(self.bodies):
            out[self.slice_of(f"W{idx + 1}")] = -(body["b"].T @ (body["cinv_a"] @ omega_dot_space))

    def energy(self, y):
        wv = y[self.slice_of("omega")]
        total = 0.5 * float(wv @ self.inertia.apply_vec(wv))
        for idx, body in enumerate(self.bodies):
            Wv = y[self.slice_of(f"W{idx + 1}")]
            total += 0.5 * body["d"] * float(Wv @ Wv)
        return total

    def constraints(self, y):
        out = super().constraints(y)
        g = y[self.slice_of("g")].reshape(self.n, self.n)
        omega_space = lie.adjoint_matrix(g) @ y[self.slice_of("omega")]
        for idx, body in enumerate(self.bodies):
            Wv = y[self.slice_of(f"W{idx + 1}")]
            resid = body["a"] @ omega_space + body["b"] @ Wv
            out[f"body{idx + 1}_constraint"] = float(np.max(np.abs(resid)))
        return out


def commutator_constraint_matrices(gamma_algebra_elements, rhos):
    """Constraint matrices for [Omega, Gamma_i] + rho_i W_i = 0.

    Returns (A_mats, B_mats) in bivector coordinates, one pair per fixed
    algebra element Gamma_i.
    """
    a_mats = []
    b_mats = []
    for gamma, rho in zip(gamma_algebra_elements, rhos):
        gamma = np.asarray(gamma, dtype=float)
        N = lie.so_dim(gamma.shape[0])
        a_mats.append(-lie.ad_matrix(gamma))
        b_mats.append(float(rho) * np.eye(N))
    return a_mats, b_mats


def reconstruct_coupled_W(system, trajectory_states, w0_vec):
    """Slaved second-factor velocity along a reduced coupled trajectory.

    pr_k W stays at its initial value while the h_i components follow
    -(1/rho_i) pr_{h_i} Ad_g(omega).  Returns bivector coordinates, one row
    per state.
    """
    k_proj = system.k_space.vectors @ system.k_space.vectors.T
    const_part = k_proj @ w0_vec
    rows = []
    for y in trajectory_states:
        g = y[system.slice_of("g")].reshape(system.n, system.n)
        omega_space = lie.adjoint_matrix(g) @ y[system.slice_of("omega")]
        w = const_part.copy()
        for h, rho in zip(system.subspaces, system.rhos):
            w -= (1.0 / rho) * (h.vectors @ (h.vectors.T @ omega_space))
        rows.append(w)
    return np.array(rows)
