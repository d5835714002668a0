"""Common state layout machinery for the dynamical systems.

Every system evolves a flat float vector.  The vector is a concatenation of
named components of four kinds:

* ``rotation`` -- an n x n special orthogonal matrix, stored row-major;
* ``skew``     -- an element of so(n), stored as bivector coordinates;
* ``unit``     -- a unit vector in R^n;
* ``vector``   -- a plain vector of given size.

Systems implement ``rhs`` (the vector field), an ``energy``, named conserved
quantities for drift reports, and named constraint residuals.

Every state function -- ``rhs`` with the hooks it calls, ``constraints``,
every conserved callable -- takes one state or a (..., dim) stack in one
sequence of numpy calls, each state's values bit for bit: products are the
matmuls one state takes, dot products (1, n) @ (n, 1) ones (:func:`dot`),
matrix-vector products (N, N) @ (N, 1) ones.  :meth:`System.part` reads
and writes the named components; only it knows the layout.

So does the projection after a step, :meth:`System.project` and
:func:`normalize_units`: the polar factor of a (..., n, n) stack takes one
SVD per member.  A (B, dim) stack of members of one system integrates as
one; data of a system that carry a member axis, such as a stacked ``Pi0``,
give member b its own system, :meth:`System.member`.
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
    """Nearest special-orthogonal matrix (polar factor with det +1), over leading axes."""
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    flip = np.linalg.det(r) < 0
    if flip.any():
        u[flip, :, -1] *= -1.0
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
    """Divide every unit component of the flat state ``y``, or of each state of a
    stack, by its norm, in place.

    It reads only ``system.components`` and ``system.part``.
    """
    for comp in system.components:
        if comp.kind == UNIT:
            unit = system.part(y, comp.name)
            unit /= np.sqrt(dot(unit, unit))
    return y


class System:
    """Base class: flat-state layout plus generic projection and reports."""

    kind = "system"

    def __init__(self, n, components):
        self.n = int(n)
        self.N = lie.so_dim(self.n)
        self.components = tuple(components)
        self._slices = {}
        pos = 0
        for comp in self.components:
            self._slices[comp.name] = slice(pos, pos + comp.size)
            pos += comp.size
        self.dim = pos
        # a rotation is stored row-major: its entries, reshaped, are the matrix
        self._rotations = tuple(comp.name for comp in self.components if comp.kind == ROTATION)

    # -- layout --------------------------------------------------------------

    def slice_of(self, name):
        return self._slices[name]

    def part(self, y, name):
        """Component ``name`` of a state or a (..., dim) stack, in its natural
        shape over the leading axes: (..., n, n) for a rotation, (..., size)
        otherwise.  It is a view of ``y``, so writing to it writes ``y``."""
        value = y[..., self._slices[name]]
        if name in self._rotations:
            return value.reshape(y.shape[:-1] + (self.n, self.n))
        return value

    def pack(self, **parts):
        """Flat state from named components."""
        y = np.zeros(self.dim)
        for comp in self.components:
            if comp.name not in parts:
                raise KeyError(f"missing component {comp.name!r}")
            val = np.asarray(parts[comp.name], dtype=float)
            if comp.kind == SKEW and val.ndim == 2:
                val = lie.skew_to_vec(val)
            self.part(y, comp.name)[...] = val
        extra = set(parts) - set(self._slices)
        if extra:
            raise KeyError(f"unknown component(s) {sorted(extra)}")
        return y

    def member(self, b):
        """The system that member ``b`` of a (B, dim) stack runs alone: the system
        itself, unless its data carry a member axis."""
        return self

    def project(self, y):
        """Re-orthogonalize rotations, renormalize unit vectors, of one state or a stack."""
        y = normalize_units(self, y.copy())
        for name in self._rotations:
            g = self.part(y, name)
            g[...] = polar_project(g)
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
        """The vector field at one state or over the leading axes of a stack."""
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
        arrays of them over the leading axes of a (..., dim) stack."""
        out = {}
        for comp in self.components:
            part = self.part(y, comp.name)
            if comp.kind == ROTATION:
                defect = part.swapaxes(-1, -2) @ part - np.eye(self.n)
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
