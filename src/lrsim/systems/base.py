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

import numpy as np

from .. import liecore as lie

ROTATION = "rotation"
SKEW = "skew"
UNIT = "unit"
VECTOR = "vector"

VALIDATION_TOL = 1e-8


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


def dot(a, b):
    """Dot products over the last axis, kept as a trailing axis of length 1.

    Each is a (1, n) @ (n, 1) matmul: the same BLAS dot that ``@`` and
    ``np.linalg.norm`` call on one vector, so a stack reproduces its rows
    bit for bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def normalize_units(system, y):
    """Divide every unit component of the flat state ``y`` by its norm, in place.

    It reads only ``system.components`` and ``system.slice_of``.
    """
    for comp in system.components:
        if comp.kind == UNIT:
            sl = system.slice_of(comp.name)
            y[sl] /= np.linalg.norm(y[sl])
    return y


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
        y = normalize_units(self, y.copy())
        for comp, off in zip(self.components, self._offsets):
            if comp.kind == ROTATION:
                g = y[off:off + comp.size].reshape(self.n, self.n)
                y[off:off + comp.size] = polar_project(g).ravel()
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
        """Conserved quantities as callables of one state or a (..., dim) stack: a
        name keys a float per state, a tuple of names a value per name (last axis)."""
        return {"energy": self.energy}

    def conserved_entries(self):
        """{name: (callable, index)} over ``conserved()``, the value ``callable(y)[index]``."""
        return {
            name: (fn, (..., j) if isinstance(key, tuple) else ...)
            for key, fn in self.conserved().items()
            for j, name in enumerate(key if isinstance(key, tuple) else (key,))
        }

    def constraints(self, y):
        """Named constraint residuals (all should stay ~0) at one state, or
        arrays of them over the leading axes of a (..., dim) stack.

        A stack takes one sequence of numpy calls and reproduces each
        state's residuals bit for bit: every product is the matmul one state
        takes, and every dot product a (1, n) @ (n, 1) one (:func:`dot`).
        """
        out = {}
        lead = y.shape[:-1]
        for comp, off in zip(self.components, self._offsets):
            part = y[..., off:off + comp.size]
            if comp.kind == ROTATION:
                g = part.reshape(lead + (self.n, self.n))
                defect = np.swapaxes(g, -1, -2) @ g - np.eye(self.n)
                out[f"{comp.name}_orthogonality"] = np.max(np.abs(defect), axis=(-2, -1))
            elif comp.kind == UNIT:
                out[f"{comp.name}_norm"] = np.abs(dot(part, part)[..., 0] - 1.0)
        return out

    def validate(self, y):
        """Raise ValueError naming the first constraint residual above ``VALIDATION_TOL``."""
        if y.shape != (self.dim,):
            raise ValueError(f"state must have {self.dim} entries, got {y.shape}")
        for name, resid in self.constraints(y).items():
            if resid > VALIDATION_TOL:
                raise ValueError(
                    f"initial state violates invariant {name!r} (residual {resid:.3e})"
                )


def rotation_component(n):
    return Component("g", ROTATION, n * n)


def skew_component(name, n):
    return Component(name, SKEW, lie.so_dim(n))
