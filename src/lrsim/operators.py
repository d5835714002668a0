"""Inertia operators on so(n).

An inertia operator is a self-adjoint positive definite linear map
so(n) -> so(n), held as its dense N x N matrix in the ordered bivector
basis (N = n(n-1)/2) and the Cholesky factor of that matrix.  The special
operators I(x ^ y) = A x ^ A y - c x ^ y, A a positive diagonal, are
diagonal in that basis; they also keep A and c as ``axes`` and ``c`` (None
on every other operator), which select and feed the closed-form Chaplygin
density and the Hamiltonization check.
"""

from __future__ import annotations

import numpy as np

from . import liecore as lie
from .linalg import cho_factor, cho_solve

SELF_ADJOINT_TOL = 1e-10


class OperatorError(ValueError):
    """Construction or use of an operator violates its contract."""


class InertiaOperator:
    """Self-adjoint positive definite operator on so(n)."""

    # set by :meth:`special` only
    axes = None
    c = None

    def __init__(self, n, matrix):
        self.n = int(n)
        self.N = lie.so_dim(self.n)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.N, self.N):
            raise OperatorError(
                f"operator matrix must be ({self.N}, {self.N}) for so({n}), got {matrix.shape}"
            )
        dev = np.max(np.abs(matrix - matrix.T))
        if dev > SELF_ADJOINT_TOL:
            raise OperatorError(f"operator is not self-adjoint (|M - M^T| = {dev:.3e})")
        self.matrix = 0.5 * (matrix + matrix.T)
        try:
            self._cho = cho_factor(self.matrix)
        except np.linalg.LinAlgError as exc:
            eigs = np.linalg.eigvalsh(self.matrix)
            raise OperatorError(
                f"operator is not positive definite (min eigenvalue {eigs[0]:.6g})"
            ) from exc
        self.matrix.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls.scalar(n, 1.0)

    @classmethod
    def scalar(cls, n, c):
        if c <= 0:
            raise OperatorError(f"scalar operator needs c > 0, got {c}")
        return cls(n, c * np.eye(lie.so_dim(n)))

    @classmethod
    def special(cls, A, c):
        """Operator I(x ^ y) = A x ^ A y - c x ^ y, A = diag(A_1..A_n) > 0.

        Positive definite provided min_{i<j} A_i A_j > c, which is enforced.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim != 1 or A.size < 2:
            raise OperatorError("special operator needs a vector of at least 2 entries")
        if np.any(A <= 0):
            raise OperatorError("special operator needs positive A entries")
        n = A.size
        pairs = lie.bivector_pairs(n)
        eigs = np.array([A[i] * A[j] - c for i, j in pairs])
        if np.min(eigs) <= 0:
            i, j = pairs[int(np.argmin(eigs))]
            raise OperatorError(
                f"special operator not positive definite: A_{i + 1} A_{j + 1} = "
                f"{A[i] * A[j]:.6g} <= c = {c:.6g}"
            )
        op = cls(n, np.diag(eigs))
        op.axes, op.c = A, float(c)
        return op

    # -- action --------------------------------------------------------------

    def apply_vec(self, v):
        return self.matrix @ v

    def solve_vec(self, v):
        return cho_solve(self._cho, v)


def wedge_projector_matrix(gamma):
    """E^T E, E = E(gamma), over stacks: the matrix of X -> X gamma gamma^T + gamma gamma^T X."""
    e = lie.wedge_map(gamma)
    return e.swapaxes(-1, -2) @ e

