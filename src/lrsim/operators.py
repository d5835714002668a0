"""Inertia operators on so(n).

An inertia operator is a self-adjoint positive definite linear map
so(n) -> so(n).  Internally every operator carries its dense N x N matrix
in the ordered bivector basis (N = n(n-1)/2); structured kinds keep their
defining data so that special forms act exactly:

* ``diag`` / ``dense`` -- matrix given directly in the bivector basis;
* ``special`` -- I(x ^ y) = A x ^ A y - c x ^ y for a positive diagonal A.
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

    def __init__(self, n, matrix, kind="dense", params=None, validate=True):
        self.n = int(n)
        self.N = lie.so_dim(self.n)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.N, self.N):
            raise OperatorError(
                f"operator matrix must be ({self.N}, {self.N}) for so({n}), got {matrix.shape}"
            )
        if validate:
            dev = np.max(np.abs(matrix - matrix.T))
            if dev > SELF_ADJOINT_TOL:
                raise OperatorError(f"operator is not self-adjoint (|M - M^T| = {dev:.3e})")
        matrix = 0.5 * (matrix + matrix.T)
        self.kind = kind
        self.params = params or {}
        self.matrix = matrix
        try:
            self._cho = cho_factor(matrix)
        except np.linalg.LinAlgError as exc:
            eigs = np.linalg.eigvalsh(matrix)
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
        return cls(n, c * np.eye(lie.so_dim(n)), kind="diag", params={"diag": c})

    @classmethod
    def from_bivector_diag(cls, n, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (lie.so_dim(n),):
            raise OperatorError(f"need {lie.so_dim(n)} diagonal values for so({n})")
        return cls(n, np.diag(values), kind="diag", params={"diag": values})

    @classmethod
    def from_bivector_matrix(cls, n, matrix):
        return cls(n, matrix, kind="dense")

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
        return cls(n, np.diag(eigs), kind="special", params={"A": A, "c": float(c)})

    # -- action --------------------------------------------------------------

    def apply(self, x):
        """Image of a skew matrix; structured kinds use their exact form."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.n):
            raise lie.DimensionError(f"operator on so({self.n}) applied to shape {x.shape}")
        if self.kind == "special":
            A = self.params["A"]
            return (A[:, None] * x) * A[None, :] - self.params["c"] * x
        return lie.vec_to_skew(self.matrix @ lie.skew_to_vec(x), self.n)

    def apply_vec(self, v):
        return self.matrix @ v

    def solve(self, y):
        """Solve I X = Y for X."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n, self.n):
            raise lie.DimensionError(f"operator on so({self.n}) solved against shape {y.shape}")
        return lie.vec_to_skew(self.solve_vec(lie.skew_to_vec(y)), self.n)

    def solve_vec(self, v):
        return cho_solve(self._cho, v)

    def __repr__(self):
        return f"InertiaOperator(n={self.n}, kind={self.kind!r})"


def wedge_projector_matrix(gamma):
    """E^T E, E = E(gamma): the matrix of X -> X gamma gamma^T + gamma gamma^T X."""
    e = lie.wedge_map(gamma)
    return e.T @ e


def special_from_vector_inertia(inertia3, c):
    """Special operator matching a 3D vector inertia under the hat map.

    Given a diagonal 3x3 inertia I and c = m rho^2, the diagonal
    A = sqrt(det(I + c)) (I + c)^{-1} makes the bivector operator
    A X A - c X act exactly as I does on angular-velocity vectors.
    """
    inertia3 = np.asarray(inertia3, dtype=float)
    if inertia3.shape == (3, 3):
        inertia3 = np.diag(inertia3)
    if inertia3.shape != (3,):
        raise OperatorError("expected a diagonal 3D inertia")
    shifted = inertia3 + c
    delta = np.sqrt(np.prod(shifted))
    return InertiaOperator.special(delta / shifted, c)


def restricted_inverse_det(operator, vectors):
    """det of the Gram matrix <a_i, I^{-1} a_j> over the (N, k) columns a_i.

    For orthonormal columns it is the determinant of pr o I^{-1} o pr in
    that basis; no columns yield 1 by the 0x0 determinant convention.  A
    (..., N, k) stack of column arrays gives a (...,) stack of determinants.
    """
    if not vectors.shape[-1]:
        return np.ones(vectors.shape[:-2])[()]
    return np.linalg.det(np.swapaxes(vectors, -1, -2) @ cho_solve(operator._cho, vectors))


def restricted_operator_inverse(operator, basis, y, tol=1e-10):
    """Apply the inverse of pr o B^{-1} o pr (restricted to span(basis)) to y.

    ``y`` must lie in span(basis) within ``tol`` relative.
    """
    yv = lie.skew_to_vec(np.asarray(y, dtype=float))
    coords = basis.vectors.T @ yv
    resid = np.linalg.norm(yv - basis.vectors @ coords)
    scale = max(np.linalg.norm(yv), 1.0)
    if resid > tol * scale:
        raise OperatorError(
            f"argument is outside the subspace (residual {resid:.3e} vs tol {tol * scale:.3e})"
        )
    gram = basis.vectors.T @ cho_solve(operator._cho, basis.vectors)
    try:
        sol = cho_solve(cho_factor(gram), coords)
    except np.linalg.LinAlgError as exc:
        raise OperatorError("restricted operator is singular") from exc
    return lie.vec_to_skew(basis.vectors @ sol, basis.n)
