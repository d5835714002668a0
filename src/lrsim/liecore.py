"""Exact linear algebra on so(n) and SO(n).

Skew-symmetric matrices are the Lie algebra so(n); rotations are SO(n).
The scalar product used throughout is the Ad-invariant one,

    <X, Y> = -1/2 tr(X Y),

under which the elementary bivectors E_ij = e_i ^ e_j (i < j, ordered
lexicographically) form an orthonormal basis.  Skew matrices are freely
converted to/from their coordinate vectors in that basis.

Brackets on the hot paths never leave those coordinates.  The structure
constants of so(n) form an (N, N^2) matrix S whose row a is ad_{E_a}
flattened, so ad_x = (x @ S).reshape(N, N) for a coordinate vector x and
[X, Y] has coordinates ad_x y (:func:`ad_vec`).  Every entry of S is 0 or
+-1 and every entry of ad_x is +-x_a for exactly one a, so the map is exact.

The conversions and brackets keep the dtype of their input, so complex
states pass through them for the complex-step derivatives of
:mod:`lrsim.diagnostics`; the constructors that validate their input
(:func:`check_unit`, :class:`SubspaceBasis`, :func:`householder_frame`)
take floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

ORTHO_TOL = 1e-10
RANK_TOL = 1e-10
UNIT_TOL = 1e-10


class DimensionError(ValueError):
    """Operands live in incompatible spaces."""


def check_unit(v):
    """Validate that ``v`` is a unit vector within ``UNIT_TOL``."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    err = abs(np.dot(v, v) - 1.0)
    if err > 2.0 * UNIT_TOL:
        raise ValueError(f"vector is not unit (||v||^2 - 1 = {err:.3e})")
    return v


def skew_part(x):
    """Skew-symmetric part (X - X^T)/2 over any leading axes; cheap drift control."""
    return 0.5 * (x - np.swapaxes(x, -1, -2))


def wedge(x, y):
    """Wedge product x ^ y = x y^T - y x^T of two n-vectors."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"wedge needs two equal-length vectors, got {x.shape} and {y.shape}")
    return np.outer(x, y) - np.outer(y, x)


def ad(x, y):
    """Commutator [X, Y] = X Y - Y X."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DimensionError(f"commutator of mismatched shapes {x.shape} and {y.shape}")
    return x @ y - y @ x


def Ad(g, x):
    """Adjoint action g X g^{-1} of a rotation on a skew matrix, over leading axes."""
    g = np.asarray(g)
    x = np.asarray(x)
    if g.shape[-2:] != x.shape[-2:]:
        raise DimensionError(f"Ad of mismatched shapes {g.shape} and {x.shape}")
    return skew_part(g @ x @ np.swapaxes(g, -1, -2))


# --- bivector coordinates -------------------------------------------------

def so_dim(n):
    """dim so(n) = n(n-1)/2."""
    return n * (n - 1) // 2


def bivector_pairs(n):
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@cache
def _pair_indices(n):
    """Rows i and columns j of the pairs (i, j), i < j, in lexicographic order."""
    indices = np.array(bivector_pairs(n), dtype=int).reshape(-1, 2).T.copy()
    indices.setflags(write=False)
    return tuple(indices)


@cache
def _flat_indices(n):
    """Flat positions of the entries (i, j) and (j, i), i < j, of an n x n
    matrix, and of the entries (i, (i, j)) and (j, (i, j)) of an n x N one."""
    rows, cols = _pair_indices(n)
    pairs = np.arange(rows.size)
    indices = np.stack([rows * n + cols, cols * n + rows, rows * rows.size + pairs,
                        cols * rows.size + pairs])
    indices.setflags(write=False)
    return tuple(indices)


def skew_to_vec(x):
    """Coordinates of a skew matrix in the ordered bivector basis.

    Leading axes are a stack: (..., n, n) maps to (..., N).
    """
    x = np.asarray(x)
    rows, cols = _pair_indices(x.shape[-1])
    return x[..., rows, cols]


def vec_to_skew(v, n):
    """Skew matrix with the given bivector coordinates; (..., N) maps to (..., n, n)."""
    v = np.asarray(v)
    upper, lower, _, _ = _flat_indices(n)
    if v.shape[-1:] != upper.shape:
        raise DimensionError(f"expected {upper.size} coordinates for so({n}), got {v.shape[-1:]}")
    lead = v.shape[:-1]
    x = np.zeros(lead + (n * n,), dtype=v.dtype)
    # the transposes put the stack axes last, so one index array on the
    # first axis does the scatter; that is also the cheapest path for one state
    xt = x.T
    xt[upper] = v.T
    xt[lower] = -v.T
    return x.reshape(lead + (n, n))


@cache
def bivector_basis(n):
    """Stacked orthonormal basis matrices E_ij, shape (N, n, n)."""
    pairs = bivector_pairs(n)
    basis = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        basis[a, i, j] = 1.0
        basis[a, j, i] = -1.0
    basis.setflags(write=False)
    return basis


@cache
def _compound_indices(n):
    """Flat positions of g_ik, g_jl, g_il and g_jk in an n x n matrix, shape
    (4, N, N), for the rows (i, j) and columns (k, l) of its second compound."""
    rows, cols = _pair_indices(n)
    i, j = rows[:, None] * n, cols[:, None] * n
    k, l = rows[None, :], cols[None, :]
    indices = np.stack([i + k, j + l, i + l, j + k])
    indices.setflags(write=False)
    return indices


def adjoint_matrix(g):
    """Matrix of Ad_g on bivector coordinates: vec(g X g^T) = Q vec(X).

    Q is the second compound matrix of g, Q[(ij), (kl)] = g_ik g_jl - g_il g_jk,
    since g (e_k ^ e_l) g^T = g e_k ^ g e_l; one gather collects the four
    factors.  A (..., n, n) stack of rotations gives a (..., N, N) stack.
    """
    g = np.asarray(g)
    n = g.shape[-1]
    f = g.reshape(g.shape[:-2] + (n * n,)).take(_compound_indices(n), axis=-1)
    return f[..., 0, :, :] * f[..., 1, :, :] - f[..., 2, :, :] * f[..., 3, :, :]


def ad_matrix(x):
    """Matrix of ad_X = [X, .] on bivector coordinates; (..., n, n) maps to (..., N, N)."""
    x = np.asarray(x)[..., None, :, :]
    basis = bivector_basis(x.shape[-1])
    # every basis entry is 0 or +-1, so each product, and the matrix, is exact
    return np.swapaxes(skew_to_vec(x @ basis - basis @ x), -1, -2)


@cache
def structure_constants(n):
    """The (N, N^2) structure-constant matrix S of so(n), S[a] = ad_{E_a} flattened.

    S[a, b N + c] is the E_b coordinate of [E_a, E_c], 0 or +-1.  It is built
    once per n, on first use, and is read-only.
    """
    s = ad_matrix(bivector_basis(n)).reshape(so_dim(n), -1)
    s.setflags(write=False)
    return s


def ad_vec(x):
    """Matrix of ad_x on bivector coordinates from the coordinates x of X.

    (..., N) maps to (..., N, N), and ad_vec(x) @ y are the coordinates of
    [X, Y].  It equals ``ad_matrix(vec_to_skew(x, n))`` bit for bit, with one
    matmul against :func:`structure_constants` instead of a round trip
    through n x n matrices.
    """
    x = np.asarray(x)
    N = x.shape[-1]
    n = (1 + math.isqrt(1 + 8 * N)) // 2
    if so_dim(n) != N:
        raise DimensionError(f"{N} is not the dimension of any so(n)")
    return (x @ structure_constants(n)).reshape(x.shape[:-1] + (N, N))


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


def gram_schmidt(vectors, dim):
    """Orthonormal columns, shape (dim, k), spanning the given vectors in order.

    A vector whose residual against the earlier ones has norm at most
    ``RANK_TOL`` is dropped.
    """
    out = []
    for v in vectors:
        for c in out:
            v = v - np.dot(c, v) * c
        length = np.linalg.norm(v)
        if length > RANK_TOL:
            out.append(v / length)
    return np.column_stack(out) if out else np.zeros((dim, 0))


def orthonormal_basis_of(generators, n):
    """Gram-Schmidt orthonormalization of skew-matrix generators in so(n).

    Generators that are linearly dependent on earlier ones (residual norm
    at most ``RANK_TOL``) are dropped with a warning.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionError(f"generator of shape {g.shape} in so({n})")
    vectors = gram_schmidt([skew_to_vec(g) for g in gens], so_dim(n))
    dropped = len(gens) - vectors.shape[1]
    if dropped:
        warnings.warn(f"dropped {dropped} linearly dependent generator(s)", stacklevel=2)
    return SubspaceBasis(n, vectors)


def complement(basis):
    """Orthonormal basis of the orthogonal complement in so(n)."""
    N = so_dim(basis.n)
    spanning = gram_schmidt([*basis.vectors.T, *np.eye(N)], N)
    return SubspaceBasis(basis.n, spanning[:, basis.dim:])


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
    gamma = np.asarray(gamma)
    n = gamma.shape[-1]
    rows, cols = _pair_indices(n)
    _, _, plus, minus = _flat_indices(n)
    lead = gamma.shape[:-1]
    e = np.zeros(lead + (n * rows.size,), dtype=gamma.dtype)
    # scatter through the transposes, as in vec_to_skew
    et, gt = e.T, gamma.T
    et[plus] = gt[cols]
    et[minus] = -gt[rows]
    return e.reshape(lead + (n, rows.size))


def wedge_subspace_basis(gamma):
    """Orthonormal basis h_j ^ gamma = E^T h_j of R^n ^ gamma, h_j the Householder frame."""
    gamma = check_unit(gamma)
    return SubspaceBasis(gamma.size, wedge_map(gamma).T @ householder_frame(gamma)[:, :-1])


def wedge_complement_basis(gamma):
    """Orthonormal basis of (R^n ^ gamma)^perp from the Householder frame H.

    With h_i the columns of H, h_0..h_{n-2} span the tangent space at
    gamma = h_{n-1}, so the bivectors h_i ^ h_j, i < j < n - 1, span the
    complement.  They are the columns of Ad_H for the pairs (i, j) with
    j < n - 1, in the same lexicographic order.
    """
    gamma = check_unit(gamma)
    n = gamma.size
    _, cols = _pair_indices(n)
    return SubspaceBasis(n, adjoint_matrix(householder_frame(gamma))[:, cols < n - 1])
