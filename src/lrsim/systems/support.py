"""Spherical support systems: a ball spinning about its fixed center while
touching N dynamically symmetric balls without sliding.

With gamma_i the contact directions in the body frame, the no-slip system
reduces to the L+R flow

    d(B omega)/dt = [B omega, omega],   gamma_i' = -omega gamma_i,
    B = I + sum_i (D_i / rho_i^2) pr_{R^n ^ gamma_i},

which resolves to omega' = B^{-1} [I omega, omega].  The rubber variant
adds no-twist conditions at every contact and only changes the operator:

    B* = I + (sum_i D_i) Id + sum_i D_i (1 - rho_i^2) / rho_i^2 pr_{R^n ^ gamma_i}.

Both flows conserve the coefficients of tr(B omega + sum_i mu^i X_i)^k,
X_i = gamma_i gamma_i^T, for k = 1..n.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
# unused here, but bound so that perfbench/tracer.py finds both names in
# every systems module
from ..linalg import cho_factor, cho_solve  # noqa: F401
from ..operators import wedge_projector_matrix
from .base import Component, UNIT, rotation_component, skew_component
from .lr import ConstrainedEulerSystem


class _SupportBase(ConstrainedEulerSystem):
    shift = 0.0  # multiple of the identity in Pi: the rubber no-twist term

    def __init__(self, inertia, couplings, rhos):
        if len(couplings) != len(rhos):
            raise ValueError("need one D per rho")
        if any(d <= 0 for d in couplings):
            raise ValueError("inertia moments D_i must be positive")
        if any(r == 0 for r in rhos):
            raise ValueError("radii rho_i must be nonzero")
        self.inertia = inertia
        self.couplings = [float(d) for d in couplings]
        self.rhos = [float(r) for r in rhos]
        self.n_bodies = len(couplings)
        n = inertia.n
        comps = [rotation_component(n), skew_component("omega", n)]
        comps += [Component(f"gamma{i + 1}", UNIT, n) for i in range(self.n_bodies)]
        super().__init__(n, comps)
        self._trace_cache = {}  # k -> (state bytes, coefficients) of the last state fitted

    def _gammas(self, y):
        return [y[self.slice_of(f"gamma{i + 1}")] for i in range(self.n_bodies)]

    def _coefficients(self):
        raise NotImplementedError

    def _contact_pi(self, gammas):
        pi = self.shift * np.eye(self.N)
        for c, gamma in zip(self._coefficients(), gammas):
            pi += c * wedge_projector_matrix(gamma / np.linalg.norm(gamma))
        return pi

    def pi(self, y):
        gammas = self._gammas(y)
        return self._contact_pi(gammas), gammas

    def transport(self, y, frame, omega, wdot, out):
        for i, gamma in enumerate(frame):
            out[self.slice_of(f"gamma{i + 1}")] = -omega @ gamma

    def momentum_matrix(self, y):
        """B omega as a skew matrix (the conserved-trace building block)."""
        return lie.vec_to_skew(self.momentum_vec(y), self.n)

    def trace_polynomial(self, y, mu, k):
        """tr(B omega + sum_i mu^i X_i)^k at a state, scalar parameter mu."""
        m = self.momentum_matrix(y)
        for i, gamma in enumerate(self._gammas(y)):
            m = m + (mu ** (i + 1)) * np.outer(gamma, gamma)
        return float(np.trace(np.linalg.matrix_power(m, k)))

    def trace_coefficients(self, y, k):
        """Coefficients in mu of tr(B omega + sum mu^i X_i)^k (degree k*N)."""
        deg = k * self.n_bodies
        nodes = np.linspace(-1.0, 1.0, deg + 1) if deg else np.array([0.0])
        vals = np.array([self.trace_polynomial(y, mu, k) for mu in nodes])
        if deg == 0:
            return vals
        v = np.vander(nodes, deg + 1, increasing=True)
        return np.linalg.solve(v, vals)

    def _cached_trace_coefficients(self, y, k):
        """trace_coefficients, fitted once for consecutive queries at one state."""
        key = y.tobytes()
        hit = self._trace_cache.get(k)
        if hit is None or hit[0] != key:
            hit = (key, self.trace_coefficients(y, k))
            self._trace_cache[k] = hit
        return hit[1]

    def conserved(self):
        out = {"energy": self.energy}
        for k in range(2, self.n + 1):
            for j in range(k * self.n_bodies + 1):
                out[f"trace{k}_mu{j}"] = (
                    lambda y, k=k, j=j: float(self._cached_trace_coefficients(y, k)[j])
                )
        return out


class SupportSystem(_SupportBase):
    """No-slip spherical support; state components g, omega, gamma1..gammaN."""

    kind = "support"

    def _coefficients(self):
        return [d / r**2 for d, r in zip(self.couplings, self.rhos)]


class RubberSupportSystem(_SupportBase):
    """Spherical support with no-twist contacts; same state layout."""

    kind = "rubber-support"

    def __init__(self, inertia, couplings, rhos):
        super().__init__(inertia, couplings, rhos)
        self.shift = sum(self.couplings)
        # projector coefficients go negative for rho_i > 1; reject setups
        # whose worst case (projectors are contractions) is not SPD
        worst = self.shift + sum(c for c in self._coefficients() if c < 0)
        eigs = np.linalg.eigvalsh(self.inertia.matrix + worst * np.eye(self.N))
        if eigs[0] <= 0:
            raise ValueError(
                "rubber support operator can lose positive definiteness "
                f"(worst-case min eigenvalue {eigs[0]:.6g}; some rho_i > 1 is too large)"
            )

    def _coefficients(self):
        return [d * (1.0 - r**2) / r**2 for d, r in zip(self.couplings, self.rhos)]


def reconstruct_support_W(system, trajectory_states, w0_vecs=None):
    """Peripheral-body angular velocities slaved to a support trajectory.

    For the no-slip system the component of W_i along R^n ^ Gamma_i follows
    -(1/rho_i) pr Omega while the complementary component keeps its initial
    value (zero when not supplied).  For the rubber variant the no-twist
    condition replaces that constant by pr_k Omega, so W_i is fully slaved:
    W_i = Omega - (1 + 1/rho_i) pr_{h_i} Omega.

    Gamma_i is read off the first state as g gamma_i.  Returns a list of
    (steps, N) arrays of bivector coordinates.
    """
    rubber = isinstance(system, RubberSupportSystem)
    y0 = trajectory_states[0]
    g0 = y0[system.slice_of("g")].reshape(system.n, system.n)
    projs = []
    for i in range(system.n_bodies):
        gamma_space = g0 @ y0[system.slice_of(f"gamma{i + 1}")]
        gamma_space /= np.linalg.norm(gamma_space)
        projs.append(wedge_projector_matrix(gamma_space))
    if w0_vecs is None:
        w0_vecs = [np.zeros(system.N) for _ in range(system.n_bodies)]
    out = [[] for _ in range(system.n_bodies)]
    for y in trajectory_states:
        g = y[system.slice_of("g")].reshape(system.n, system.n)
        omega_space = lie.adjoint_matrix(g) @ y[system.slice_of("omega")]
        for i, (proj, rho) in enumerate(zip(projs, system.rhos)):
            wedge_part = -(1.0 / rho) * (proj @ omega_space)
            if rubber:
                rest = omega_space - proj @ omega_space
            else:
                rest = w0_vecs[i] - proj @ w0_vecs[i]
            out[i].append(wedge_part + rest)
    return [np.array(rows) for rows in out]
