"""Exact linear algebra on so(n) and SO(n).

Skew-symmetric matrices are the Lie algebra so(n); rotations are SO(n).
The scalar product used throughout is the Ad-invariant one,

    <X, Y> = -1/2 tr(X Y),

under which the elementary bivectors E_ij = e_i ^ e_j (i < j, ordered
lexicographically) form an orthonormal basis.  Skew matrices are freely
converted to/from their coordinate vectors in that basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10
RANK_TOL = 1e-10
UNIT_TOL = 1e-12


class DimensionError(ValueError):
    """Operands live in incompatible spaces."""


def check_unit(v, tol=UNIT_TOL):
    """Validate that ``v`` is a unit vector within ``tol``."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    err = abs(np.dot(v, v) - 1.0)
    if err > 2.0 * tol:
        raise ValueError(f"vector is not unit (||v||^2 - 1 = {err:.3e})")
    return v


def skew_part(x):
    """Skew-symmetric part (X - X^T)/2; cheap drift control after products."""
    return 0.5 * (x - x.T)


def wedge(x, y):
    """Wedge product x ^ y = x y^T - y x^T of two n-vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"wedge needs two equal-length vectors, got {x.shape} and {y.shape}")
    return np.outer(x, y) - np.outer(y, x)


def inner(x, y):
    """Ad-invariant scalar product <X, Y> = -1/2 tr(X Y) of skew matrices.

    For skew operands this equals half the Frobenius pairing, which is how
    it is evaluated here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"inner product of mismatched shapes {x.shape} and {y.shape}")
    return 0.5 * float(np.tensordot(x, y))


def norm(x):
    """Norm induced by :func:`inner`."""
    return np.sqrt(max(inner(x, x), 0.0))


def ad(x, y):
    """Commutator [X, Y] = X Y - Y X."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"commutator of mismatched shapes {x.shape} and {y.shape}")
    return x @ y - y @ x


def Ad(g, x):
    """Adjoint action g X g^{-1} of a rotation on a skew matrix."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if g.shape != x.shape:
        raise DimensionError(f"Ad of mismatched shapes {g.shape} and {x.shape}")
    return skew_part(g @ x @ g.T)


def proj_wedge_subspace(gamma, x):
    """Orthogonal projection of a skew matrix onto R^n ^ gamma.

    For a unit vector gamma the projection is
    X gamma gamma^T + gamma gamma^T X.
    """
    gamma = check_unit(gamma, tol=1e-10)
    x = np.asarray(x, dtype=float)
    if x.shape != (gamma.size, gamma.size):
        raise DimensionError(f"projection of shape {x.shape} against vector of size {gamma.size}")
    outer = np.outer(gamma, gamma)
    return x @ outer + outer @ x


# --- bivector coordinates -------------------------------------------------

def so_dim(n):
    """dim so(n) = n(n-1)/2."""
    return n * (n - 1) // 2


def bivector_pairs(n):
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(n):
    if n not in _PAIR_CACHE:
        pairs = bivector_pairs(n)
        rows = np.array([p[0] for p in pairs], dtype=int)
        cols = np.array([p[1] for p in pairs], dtype=int)
        _PAIR_CACHE[n] = (rows, cols)
    return _PAIR_CACHE[n]


_FLAT_CACHE: dict[int, tuple[np.ndarray, ...]] = {}


def _flat_indices(n):
    """Flat positions of the entries (i, j) and (j, i), i < j, of an n x n
    matrix, and of the entries (i, (i, j)) and (j, (i, j)) of an n x N one."""
    if n not in _FLAT_CACHE:
        rows, cols = _pair_indices(n)
        pairs = np.arange(rows.size)
        indices = (rows * n + cols, cols * n + rows, rows * rows.size + pairs, cols * rows.size + pairs)
        for arr in indices:
            arr.setflags(write=False)
        _FLAT_CACHE[n] = indices
    return _FLAT_CACHE[n]


def skew_to_vec(x):
    """Coordinates of a skew matrix in the ordered bivector basis.

    Leading axes are a stack: (..., n, n) maps to (..., N).
    """
    x = np.asarray(x, dtype=float)
    rows, cols = _pair_indices(x.shape[-1])
    return x[..., rows, cols]


def vec_to_skew(v, n):
    """Skew matrix with the given bivector coordinates; (..., N) maps to (..., n, n)."""
    v = np.asarray(v, dtype=float)
    upper, lower, _, _ = _flat_indices(n)
    if v.shape[-1:] != upper.shape:
        raise DimensionError(f"expected {upper.size} coordinates for so({n}), got {v.shape[-1:]}")
    lead = v.shape[:-1]
    x = np.zeros(lead + (n * n,))
    # the transposes put the stack axes last, so one index array on the
    # first axis does the scatter; that is also the cheapest path for one state
    xt = x.T
    xt[upper] = v.T
    xt[lower] = -v.T
    return x.reshape(lead + (n, n))


_BASIS_CACHE: dict[int, np.ndarray] = {}


def bivector_basis(n):
    """Stacked orthonormal basis matrices E_ij, shape (N, n, n)."""
    if n not in _BASIS_CACHE:
        pairs = bivector_pairs(n)
        basis = np.zeros((len(pairs), n, n))
        for a, (i, j) in enumerate(pairs):
            basis[a, i, j] = 1.0
            basis[a, j, i] = -1.0
        basis.setflags(write=False)
        _BASIS_CACHE[n] = basis
    return _BASIS_CACHE[n]


_COMPOUND_CACHE: dict[int, np.ndarray] = {}


def _compound_indices(n):
    """Flat positions of g_ik, g_jl, g_il and g_jk in an n x n matrix, shape
    (4, N, N), for the rows (i, j) and columns (k, l) of its second compound."""
    if n not in _COMPOUND_CACHE:
        rows, cols = _pair_indices(n)
        i, j = rows[:, None] * n, cols[:, None] * n
        k, l = rows[None, :], cols[None, :]
        indices = np.stack([i + k, j + l, i + l, j + k])
        indices.setflags(write=False)
        _COMPOUND_CACHE[n] = indices
    return _COMPOUND_CACHE[n]


def adjoint_matrix(g):
    """Matrix of Ad_g on bivector coordinates: vec(g X g^T) = Q vec(X).

    Q is the second compound matrix of g, Q[(ij), (kl)] = g_ik g_jl - g_il g_jk,
    since g (e_k ^ e_l) g^T = g e_k ^ g e_l; one gather collects the four
    factors.  A (..., n, n) stack of rotations gives a (..., N, N) stack.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    f = g.reshape(g.shape[:-2] + (n * n,)).take(_compound_indices(n), axis=-1)
    return f[..., 0, :, :] * f[..., 1, :, :] - f[..., 2, :, :] * f[..., 3, :, :]


def ad_matrix(x):
    """Matrix of ad_X = [X, .] on bivector coordinates; (..., n, n) maps to (..., N, N)."""
    x = np.asarray(x, dtype=float)[..., None, :, :]
    basis = bivector_basis(x.shape[-1])
    # every basis entry is 0 or +-1, so each product, and the matrix, is exact
    return np.swapaxes(skew_to_vec(x @ basis - basis @ x), -1, -2)


# --- subspaces ------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a linear subspace of so(n).

    ``vectors`` holds the bivector coordinates of the basis elements as
    columns, shape (N, k).
    """

    n: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] != so_dim(self.n):
            raise DimensionError(
                f"basis coordinate array must be ({so_dim(self.n)}, k), got {vecs.shape}"
            )
        gram = vecs.T @ vecs
        if gram.size and np.max(np.abs(gram - np.eye(vecs.shape[1]))) > ORTHO_TOL:
            raise ValueError("basis is not orthonormal under the invariant product")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self):
        return self.vectors.shape[1]

    def elements(self):
        """Basis as a list of skew matrices."""
        return [vec_to_skew(self.vectors[:, j], self.n) for j in range(self.dim)]

    def project_vec(self, v):
        """Coordinates of the orthogonal projection onto the subspace."""
        return self.vectors @ (self.vectors.T @ v)

    def project(self, x):
        """Orthogonal projection of a skew matrix onto the subspace."""
        return vec_to_skew(self.project_vec(skew_to_vec(x)), self.n)


def gram_schmidt(vectors, dim, tol=RANK_TOL):
    """Orthonormal columns, shape (dim, k), spanning the given vectors in order.

    A vector whose residual against the earlier ones has norm at most
    ``tol`` is dropped.
    """
    out = []
    for v in vectors:
        for c in out:
            v = v - np.dot(c, v) * c
        length = np.linalg.norm(v)
        if length > tol:
            out.append(v / length)
    return np.column_stack(out) if out else np.zeros((dim, 0))


def orthonormal_basis_of(generators, n=None, tol=RANK_TOL):
    """Gram-Schmidt orthonormalization of skew-matrix generators.

    Generators that are linearly dependent on earlier ones (residual norm
    below ``tol``) are dropped with a warning.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if n is None:
        if not gens:
            raise ValueError("cannot infer dimension from an empty generator list")
        n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionError(f"generator of shape {g.shape} in so({n})")
    vectors = gram_schmidt([skew_to_vec(g) for g in gens], so_dim(n), tol)
    dropped = len(gens) - vectors.shape[1]
    if dropped:
        warnings.warn(f"dropped {dropped} linearly dependent generator(s)", stacklevel=2)
    return SubspaceBasis(n, vectors)


def complement(basis):
    """Orthonormal basis of the orthogonal complement in so(n)."""
    N = so_dim(basis.n)
    spanning = gram_schmidt([*basis.vectors.T, *np.eye(N)], N)
    return SubspaceBasis(basis.n, spanning[:, basis.dim:])


def random_rotation(rng, n):
    """Rotation from the QR factor of a Gaussian matrix drawn from ``rng``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def householder_frame(gamma):
    """Orthogonal matrix H with H e_n = gamma (a Householder reflection).

    Columns 0..n-2 form an orthonormal frame of the tangent space at gamma;
    deterministic everywhere, smooth away from gamma = e_n where H = Id.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.size
    # u = gamma - e_n for unit gamma, with u_n = -|gamma_perp|^2 / (1 + gamma_n)
    # for gamma_n > 0, which does not cancel near e_n
    u = gamma.copy()
    u[-1] = -(gamma[:-1] @ gamma[:-1]) / (1.0 + gamma[-1]) if gamma[-1] > 0 else gamma[-1] - 1.0
    uu = np.dot(u, u)
    if uu < 1e-28:
        return np.eye(n)
    return np.eye(n) - (2.0 / uu) * np.outer(u, u)


def wedge_map(gamma):
    """The n x N matrix E(gamma) of X -> X gamma on bivector coordinates.

    Column (i, j) is gamma_j e_i - gamma_i e_j; a (..., n) stack of gammas
    gives a (..., n, N) stack of maps.  For unit gamma, E^T E
    projects onto R^n ^ gamma, E E^T = Id - gamma gamma^T and
    ker E = (R^n ^ gamma)^perp.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[-1]
    rows, cols = _pair_indices(n)
    _, _, plus, minus = _flat_indices(n)
    lead = gamma.shape[:-1]
    e = np.zeros(lead + (n * rows.size,))
    # scatter through the transposes, as in vec_to_skew
    et, gt = e.T, gamma.T
    et[plus] = gt[cols]
    et[minus] = -gt[rows]
    return e.reshape(lead + (n, rows.size))


def wedge_subspace_basis(gamma):
    """Orthonormal basis h_j ^ gamma = E^T h_j of R^n ^ gamma, h_j the Householder frame."""
    gamma = check_unit(gamma, tol=1e-10)
    return SubspaceBasis(gamma.size, wedge_map(gamma).T @ householder_frame(gamma)[:, :-1])


def wedge_complement_basis(gamma):
    """Orthonormal basis of (R^n ^ gamma)^perp from the Householder frame H.

    With h_i the columns of H, h_0..h_{n-2} span the tangent space at
    gamma = h_{n-1}, so the bivectors h_i ^ h_j, i < j < n - 1, span the
    complement.  They are the columns of Ad_H for the pairs (i, j) with
    j < n - 1, in the same lexicographic order.  No flow calls it (they use
    the kernel of :func:`wedge_map`); it remains the reference for tests.
    """
    gamma = check_unit(gamma, tol=1e-10)
    n = gamma.size
    _, cols = _pair_indices(n)
    return SubspaceBasis(n, adjoint_matrix(householder_frame(gamma))[:, cols < n - 1])


def iso3(v):
    """so(3) <-> R^3 isomorphism: iso3(a) x = a x for all x (hat map).

    The sign is fixed so that iso3(a x b) = [iso3(a), iso3(b)].
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"iso3 expects a 3-vector, got shape {v.shape}")
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def iso3_inv(x):
    """Inverse of :func:`iso3`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3, 3):
        raise DimensionError(f"iso3_inv expects a 3x3 matrix, got shape {x.shape}")
    return np.array([x[2, 1], x[0, 2], x[1, 0]])
