"""Common state layout machinery for the dynamical systems.

Every system evolves a flat float vector.  The vector is a concatenation of
named components of four kinds:

* ``rotation`` -- an n x n special orthogonal matrix, stored row-major;
* ``skew``     -- an element of so(n), stored as bivector coordinates;
* ``unit``     -- a unit vector in R^n;
* ``vector``   -- a plain vector of given size.

Systems implement ``rhs`` (the vector field), an ``energy``, named conserved
quantities for drift reports, and named constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .. import liecore as lie

ROTATION = "rotation"
SKEW = "skew"
UNIT = "unit"
VECTOR = "vector"


@dataclass(frozen=True)
class Component:
    name: str
    kind: str
    size: int


def polar_project(g):
    """Nearest special-orthogonal matrix (polar factor with det +1)."""
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


class System:
    """Base class: flat-state layout plus generic projection and reports."""

    kind = "system"

    def __init__(self, n, components):
        self.n = int(n)
        self.N = lie.so_dim(self.n)
        self.components = tuple(components)
        offsets = []
        pos = 0
        for comp in self.components:
            offsets.append(pos)
            pos += comp.size
        self._offsets = tuple(offsets)
        self._slices = {
            comp.name: slice(off, off + comp.size) for comp, off in zip(self.components, offsets)
        }
        self.dim = pos

    # -- layout --------------------------------------------------------------

    def slice_of(self, name):
        return self._slices[name]

    def unpack(self, y):
        """Named matrix/vector views of a flat state (copies)."""
        out = {}
        for comp, off in zip(self.components, self._offsets):
            chunk = y[off:off + comp.size]
            if comp.kind == ROTATION:
                out[comp.name] = chunk.reshape(self.n, self.n).copy()
            elif comp.kind == SKEW:
                out[comp.name] = lie.vec_to_skew(chunk, self.n)
            else:
                out[comp.name] = chunk.copy()
        return SimpleNamespace(**out)

    def pack(self, **parts):
        """Flat state from named components."""
        y = np.zeros(self.dim)
        seen = set()
        for comp, off in zip(self.components, self._offsets):
            if comp.name not in parts:
                raise KeyError(f"missing component {comp.name!r}")
            val = np.asarray(parts[comp.name], dtype=float)
            if comp.kind == ROTATION:
                y[off:off + comp.size] = val.ravel()
            elif comp.kind == SKEW:
                y[off:off + comp.size] = lie.skew_to_vec(val) if val.ndim == 2 else val
            else:
                y[off:off + comp.size] = val
            seen.add(comp.name)
        extra = set(parts) - seen
        if extra:
            raise KeyError(f"unknown component(s) {sorted(extra)}")
        return y

    def project(self, y):
        """Re-orthogonalize rotations, renormalize unit vectors."""
        y = y.copy()
        for comp, off in zip(self.components, self._offsets):
            if comp.kind == ROTATION:
                g = y[off:off + comp.size].reshape(self.n, self.n)
                y[off:off + comp.size] = polar_project(g).ravel()
            elif comp.kind == UNIT:
                v = y[off:off + comp.size]
                y[off:off + comp.size] = v / np.linalg.norm(v)
        return y

    def column_names(self):
        """CSV column names following the layout (1-based indices)."""
        names = []
        for comp in self.components:
            if comp.kind == ROTATION:
                names += [f"{comp.name}_{i + 1}{j + 1}" for i in range(self.n) for j in range(self.n)]
            elif comp.kind == SKEW:
                names += [f"{comp.name}_{i + 1}{j + 1}" for i, j in lie.bivector_pairs(self.n)]
            else:
                names += [f"{comp.name}_{i + 1}" for i in range(comp.size)]
        return names

    # -- dynamics ------------------------------------------------------------

    def rhs(self, y):
        raise NotImplementedError

    def energy(self, y):
        raise NotImplementedError

    def conserved(self):
        """Conserved quantities as state callables: a name keys one float, a
        tuple of names a callable returning one value per name."""
        return {"energy": self.energy}

    def conserved_entries(self):
        """{name: (callable, index)} over ``conserved()``; index None for a float."""
        return {
            name: (fn, j if isinstance(key, tuple) else None)
            for key, fn in self.conserved().items()
            for j, name in enumerate(key if isinstance(key, tuple) else (key,))
        }

    def constraints(self, y):
        """Named constraint residuals (all should stay ~0)."""
        out = {}
        for comp, off in zip(self.components, self._offsets):
            if comp.kind == ROTATION:
                g = y[off:off + comp.size].reshape(self.n, self.n)
                out[f"{comp.name}_orthogonality"] = float(
                    np.max(np.abs(g.T @ g - np.eye(self.n)))
                )
            elif comp.kind == UNIT:
                v = y[off:off + comp.size]
                out[f"{comp.name}_norm"] = abs(float(v @ v) - 1.0)
        return out

    def validate(self, y, tol=1e-8):
        """Raise ValueError naming the first violated constraint."""
        if y.shape != (self.dim,):
            raise ValueError(f"state must have {self.dim} entries, got {y.shape}")
        for name, resid in self.constraints(y).items():
            if resid > tol:
                raise ValueError(
                    f"initial state violates invariant {name!r} (residual {resid:.3e})"
                )


def rotation_component(n):
    return Component("g", ROTATION, n * n)


def skew_component(name, n):
    return Component(name, SKEW, lie.so_dim(n))
