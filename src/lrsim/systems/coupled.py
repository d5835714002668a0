"""Coupled nonholonomic systems: a body on SO(n) geared to partner factors.

Partner i has a velocity W_i in a fixed orthonormal basis, kinetic energy
D_i/2 |W_i|^2 and the right-invariant constraint A_i Ad_g(omega) + B_i W_i
= 0, with fixed A_i (k_i x N) and B_i (k_i x m_i) and B_i B_i^T invertible
(:class:`Partner`).  Eliminating the reaction forces closes the (g, omega)
equations as the L+R flow of Pi0 = sum_i D_i A_i^T (B_i B_i^T)^-1 A_i, and
slaves every partner to the body:

    W_i = free_i W_i(0) + slave_i Ad_g(omega),
    slave_i = -B_i^T (B_i B_i^T)^-1 A_i,  free_i = I - B_i^T (B_i B_i^T)^-1 B_i.

``ncoupled`` takes the A_i, B_i, D_i as given; the commutator family
[Omega, Gamma_i] + rho_i W_i = 0 is A_i = -ad_{Gamma_i}, B_i = rho_i Id.
The two-factor ``coupled`` flow is one partner with isotropic inertia D,
geared through mutually orthogonal subspaces h_1..h_q fixed in space by
<Ad_g omega + rho_i W, h_i> = 0: A stacks the rows h_i^T and B the rows
rho_i h_i^T, so Pi0 = sum_i (D/rho_i^2) pr_{h_i} and free = pr_k, k the
complement of the h_i.  The body alone also keeps <Ad_g omega, h_0> = 0,
whose multiplier the kernel solves over h_0^g; ``coupled-reduced`` is the
closed (g, omega) flow, W reconstructable.  The spherical support flows of
:mod:`lrsim.systems.support` are partners too, one per contact.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
from ..linalg import cho_factor, cho_solve
from .base import Component, VECTOR, dot, rotation_component, skew_component
from .lr import ConstrainedEulerSystem


class Partner:
    """A factor geared to the body by A Ad_g(omega) + B W = 0, energy D/2 |W|^2.

    A is (k, N) and B (k, m), in fixed orthonormal bases of the fixed frame;
    ``label`` names the partner in errors.  It holds ``cinv_a`` =
    (B B^T)^-1 A, its L+R term ``pi0`` = D A^T (B B^T)^-1 A, and ``free`` =
    I - B^T (B B^T)^-1 B; ``slave`` applies -B^T (B B^T)^-1 A to a column
    or over the leading axes of a stack of them.  ``slaved`` is true when B
    is square, so that the constraints fix all of W.
    """

    def __init__(self, a, b, d, N, label):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if d <= 0:
            raise ValueError(f"coupling constant D of {label} must be positive")
        if a.ndim != 2 or b.ndim != 2 or a.shape != (b.shape[0], N):
            raise ValueError(
                f"constraint matrices of {label} have inconsistent shapes {a.shape}, {b.shape}"
            )
        self.a, self.b, self.d = a, b, float(d)
        try:
            with np.errstate(over="raise"):
                c_cho = cho_factor(b @ b.T)
                self.cinv_a = cho_solve(c_cho, a)
                self.pi0 = self.d * (a.T @ self.cinv_a)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"B B^T of {label} is not invertible") from exc
        except FloatingPointError as exc:
            raise OverflowError(f"the constraint matrices of {label} overflow") from exc
        self.free = np.eye(b.shape[1]) - b.T @ cho_solve(c_cho, b)
        self.slaved = b.shape[0] == b.shape[1]

    def slave(self, omega_space):
        """-B^T (B B^T)^-1 A Ad_g(omega) from Ad_g(omega), (..., N, 1) to (..., m, 1) columns."""
        return -(self.b.T @ (self.cinv_a @ omega_space))

    def residual(self, omega_space, w):
        """A Ad_g(omega) + B W at one state or over the leading axes of a stack."""
        return (self.a @ omega_space[..., None] + self.b @ w[..., None])[..., 0]


class _PartnerVelocities:
    """Transport and energy D_i/2 |W_i|^2 of partner velocities carried in the
    state: ``partner_components`` pairs each :class:`Partner` with its W's name."""

    def transport(self, y, frame, omega, adw, wdot, out):
        omega_dot_space = frame @ wdot[..., None]
        for partner, name in self.partner_components:
            self.part(out, name)[...] = partner.slave(omega_dot_space)[..., 0]

    def energy(self, y):
        wv = self.part(y, "omega")
        total = 0.5 * dot(wv, self.inertia.apply_vec(wv[..., None])[..., 0])[..., 0]
        for partner, name in self.partner_components:
            w = self.part(y, name)
            total += 0.5 * partner.d * dot(w, w)[..., 0]
        return total


def _check_mutually_orthogonal(subspaces):
    for i in range(len(subspaces)):
        for j in range(i + 1, len(subspaces)):
            cross = subspaces[i].vectors.T @ subspaces[j].vectors
            if cross.size and np.max(np.abs(cross)) > 1e-10:
                raise ValueError(f"constraint subspaces {i + 1} and {j + 1} are not orthogonal")


class _CoupledBase(ConstrainedEulerSystem):
    partner_components = ()

    def __init__(self, inertia, h0, subspaces, coupling, rhos, components):
        if len(subspaces) != len(rhos):
            raise ValueError("need one rho per constraint subspace")
        _check_mutually_orthogonal(subspaces)
        self.inertia = inertia
        self.h0 = h0
        self.subspaces = list(subspaces)
        self.coupling = float(coupling)
        self.rhos = [float(r) for r in rhos]
        super().__init__(inertia.n, components)
        # one row of A per basis vector of each h_i, and rho_i times it in B
        a = np.concatenate([np.zeros((0, self.N))] + [h.vectors.T for h in self.subspaces])
        dims = [h.dim for h in self.subspaces]
        self._row_ends = np.cumsum(dims[:-1], dtype=int)
        b = np.repeat(self.rhos, dims)[:, None] * a
        self.partner = Partner(a, b, self.coupling, self.N, "the second factor")
        self.pi0 = self.partner.pi0
        h0_vectors = list(h0.vectors.T) if h0 is not None else []
        self.k_space = self._complement_of(list(self.partner.a))
        self.k0_space = self._complement_of(h0_vectors + list(self.partner.a))

    def _complement_of(self, vectors):
        return lie.complement(lie.SubspaceBasis(self.n, lie.gram_schmidt(vectors, self.N)))

    def partners(self, y):
        return [self.partner]

    def constraint_basis(self, y, frame):
        # frame is Ad_g, so the columns span h_0^g; None without an h_0
        if self.h0 is not None and self.h0.dim:
            return frame.swapaxes(-1, -2) @ self.h0.vectors

    def constraints(self, y):
        out = super().constraints(y)
        omega_space = self.spatial_velocity(y)
        if self.h0 is not None and self.h0.dim:
            h0_part = (self.h0.vectors.T @ omega_space[..., None])[..., 0]
            out["h0_constraint"] = np.max(np.abs(h0_part), axis=-1)
        # only the full flow carries W; the partner's rows come subspace by subspace
        for partner, name in self.partner_components:
            resid = partner.residual(omega_space, self.part(y, name))
            parts = np.split(resid, self._row_ends, axis=-1)[:len(self.subspaces)]
            for i, part in enumerate(parts):
                # a subspace with no rows reports 0.0
                out[f"h{i + 1}_constraint"] = np.max(np.abs(part), axis=-1, initial=0.0)
        return out


class CoupledFullSystem(_PartnerVelocities, _CoupledBase):
    """Two-factor coupled flow; state components g, omega, W (space frame)."""

    kind = "coupled"

    def __init__(self, inertia, h0, subspaces, coupling, rhos):
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n), skew_component("W", n)]
        super().__init__(inertia, h0, subspaces, coupling, rhos, comps)
        self.partner_components = [(self.partner, "W")]

    def conserved(self):
        out = {"energy": self.energy}
        k = self.k_space.vectors
        if k.shape[1]:
            # <k_j, W> as one dot each, not one matrix-vector product, which rounds differently
            names = tuple(f"noether_k_{j + 1}" for j in range(k.shape[1]))
            out[names] = lambda y: dot(k.T, self.part(y, "W")[..., None, :])[..., 0]
        out.update(self.noether(self.k0_space.vectors, "noether_k0"))
        return out


class CoupledReducedSystem(_CoupledBase):
    """Closed (g, omega) flow of the coupled system; W reconstructable."""

    kind = "coupled-reduced"

    def __init__(self, inertia, h0, subspaces, coupling, rhos):
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n)]
        super().__init__(inertia, h0, subspaces, coupling, rhos, comps)

    def conserved(self):
        return {"energy": self.energy, **self.noether(self.k0_space.vectors, "noether_k0")}


class NCoupledSystem(_PartnerVelocities, ConstrainedEulerSystem):
    """N-coupled system with matrix constraints A_i Omega + B_i W_i = 0.

    State components: g, omega, W1..WN (coordinate vectors of the
    right-trivialized velocities of the coupled factors); ``bodies`` holds
    one :class:`Partner` per factor.
    """

    kind = "ncoupled"

    def __init__(self, inertia, a_mats, b_mats, couplings):
        if not (len(a_mats) == len(b_mats) == len(couplings)):
            raise ValueError("need matching lists of A_i, B_i, D_i")
        self.inertia = inertia
        self.bodies = [
            Partner(a, b, d, inertia.N, f"body {idx + 1}")
            for idx, (a, b, d) in enumerate(zip(a_mats, b_mats, couplings))
        ]
        self.pi0 = sum((body.pi0 for body in self.bodies), np.zeros((inertia.N, inertia.N)))
        self.partner_components = [(body, f"W{idx + 1}") for idx, body in enumerate(self.bodies)]
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n)]
        comps += [Component(name, VECTOR, body.b.shape[1]) for body, name in self.partner_components]
        super().__init__(n, comps)

    def partners(self, y):
        return self.bodies

    def constraints(self, y):
        out = super().constraints(y)
        omega_space = self.spatial_velocity(y)
        for idx, (body, name) in enumerate(self.partner_components):
            resid = body.residual(omega_space, self.part(y, name))
            out[f"body{idx + 1}_constraint"] = np.max(np.abs(resid), axis=-1)
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
