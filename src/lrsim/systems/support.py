"""Spherical support systems: a ball spinning about its fixed center while
touching N dynamically symmetric balls without sliding.

Each ball is a partner of the body in the model of
:mod:`lrsim.systems.coupled` (:meth:`_SupportBase.partners`).  With Gamma_i
the contact direction fixed in space and V_i a basis of R^n ^ Gamma_i, ball i
has velocity W_i, energy D_i/2 |W_i|^2 and the no-slip constraint
V_i^T (Ad_g omega + rho_i W_i) = 0: A_i = V_i^T, B_i = rho_i V_i^T.  The
rubber variant adds the no-twist rows U_i^T (Ad_g omega - W_i) = 0, U_i a
basis of the complement: A_i gains U_i^T and B_i gains -U_i^T.

The flows here are the reduction of that model, carried in the body frame
with gamma_i = g^T Gamma_i.  The partners' Pi0, conjugated by Ad_g, is

    B = I + sum_i (D_i / rho_i^2) pr_{R^n ^ gamma_i},
    d(B omega)/dt = [B omega, omega],   gamma_i' = -omega gamma_i,

which resolves to omega' = B^{-1} [I omega, omega]; with the no-twist rows

    B* = I + (sum_i D_i) Id + sum_i D_i (1 - rho_i^2) / rho_i^2 pr_{R^n ^ gamma_i}.

Both flows conserve the coefficients of tr(B omega + sum_i mu^i X_i)^k,
X_i = gamma_i gamma_i^T, for k = 1..n; ``conserved()`` reports the exact
coefficients of each power k >= 2 as one group ``trace{k}_mu0 .. mu{kN}``.
"""

from __future__ import annotations

import numpy as np

from .. import liecore as lie
# unused here, but bound so that perfbench/tracer.py finds both names in
# every systems module
from ..linalg import cho_factor, cho_solve  # noqa: F401
from .base import Component, UNIT, rotation_component, skew_component
from .coupled import Partner
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
        # c_i once per row of the stacked (bodies * n, N) wedge maps
        self._weights = np.repeat(self._coefficients(), n)[:, None]

    def _gammas(self, y):
        """The contact directions, stored one after another after omega, as (..., bodies, n) rows."""
        start = self.slice_of("omega").stop
        return y[..., start:start + self.n_bodies * self.n].reshape(y.shape[:-1] + (-1, self.n))

    def _coefficients(self):
        raise NotImplementedError

    def _contact_pi(self, gammas):
        """shift Id + sum_i c_i E_i^T E_i over the wedge maps E_i of the unit gammas."""
        units = gammas / np.sqrt((gammas * gammas).sum(axis=-1, keepdims=True))
        e = lie.wedge_map(units).reshape(gammas.shape[:-2] + (-1, self.N))
        pi = e.swapaxes(-1, -2) @ (self._weights * e)
        pi.reshape(pi.shape[:-2] + (-1,))[..., :: self.N + 1] += self.shift  # a view of fresh pi
        return pi

    def pi(self, y):
        gammas = self._gammas(y)
        return self._contact_pi(gammas), gammas

    def partners(self, y):
        """The balls as partners, through Gamma_i = g gamma_i at the state ``y``."""
        g = self.part(y, "g")
        out = []
        for i, (gamma, d, rho) in enumerate(zip(self._gammas(y), self.couplings, self.rhos)):
            gamma_space = g @ gamma
            gamma_space /= np.linalg.norm(gamma_space)
            # no-slip rows V^T (Omega + rho W) = 0; the rubber no-twist rows
            # U^T (Omega - W) = 0 are what gives Pi its shift
            v = lie.wedge_subspace_basis(gamma_space).vectors.T
            u = lie.wedge_complement_basis(gamma_space).vectors.T if self.shift else v[:0]
            out.append(Partner(np.concatenate([v, u]), np.concatenate([rho * v, -u]), d,
                               self.N, f"ball {i + 1}"))
        return out

    def transport(self, y, frame, omega, adw, wdot, out):
        # gamma_i' = -omega gamma_i is row i of gammas @ omega, as omega is skew
        np.matmul(frame, omega, out=self._gammas(out))

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
        """Coefficients in mu of tr(B omega + sum mu^i X_i)^k (degree k*N), exact: the
        matrix polynomial (B omega, X_1, ..., X_N), along axis -3, is multiplied out and traced."""
        gammas = self._gammas(y)[..., None]
        outer = gammas * np.swapaxes(gammas, -1, -2)
        power = poly = np.concatenate([self.momentum_matrix(y)[..., None, :, :], outer], axis=-3)
        for _ in range(k - 1):
            shape = power.shape[:-3] + (power.shape[-3] + self.n_bodies, self.n, self.n)
            prod = np.zeros(shape, dtype=power.dtype)
            for i in range(self.n_bodies + 1):
                prod[..., i:i + power.shape[-3], :, :] += power @ poly[..., i, None, :, :]
            power = prod
        return np.trace(power, axis1=-2, axis2=-1)

    def conserved(self):
        out = {"energy": self.energy}
        for k in range(2, self.n + 1):
            names = tuple(f"trace{k}_mu{j}" for j in range(k * self.n_bodies + 1))
            out[names] = lambda y, k=k: self.trace_coefficients(y, k)
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
