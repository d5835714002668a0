"""Random admissible states and systems for the test suite."""

import numpy as np

from lrsim import liecore as lie
from lrsim.operators import InertiaOperator
from lrsim.systems import (
    CotangentSystem,
    CoupledFullSystem,
    CoupledReducedSystem,
    GeodesicLplusRSystem,
    GsrSystem,
    LplusRSystem,
    NCoupledSystem,
    LRSystem,
    LstarGeodesicSystem,
    RubberChaplyginSystem,
    RubberSupportSystem,
    SupportSystem,
    commutator_constraint_matrices,
)


rand_rotation = lie.random_rotation


def rand_skew(rng, n, scale=1.0):
    return lie.vec_to_skew(scale * rng.normal(size=lie.so_dim(n)), n)


def rand_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def rand_spd_operator(rng, n, lo=0.6, hi=2.4):
    N = lie.so_dim(n)
    q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    return InertiaOperator.from_bivector_matrix(n, q @ np.diag(rng.uniform(lo, hi, N)) @ q.T)


def rand_pi0(rng, inertia, lo=-0.3, hi=1.5):
    """Symmetric Pi0 keeping I + Ad Pi0 Ad positive definite for every g."""
    N = inertia.N
    floor = np.linalg.eigvalsh(inertia.matrix)[0]
    q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    return q @ np.diag(rng.uniform(lo * floor, hi, N)) @ q.T


def rand_subspaces(rng, n, dims):
    """Mutually orthogonal subspaces of so(n) with the given dimensions."""
    gens = [rand_skew(rng, n) for _ in range(sum(dims))]
    basis = lie.orthonormal_basis_of(gens, n=n)
    out = []
    pos = 0
    for d in dims:
        out.append(lie.SubspaceBasis(n, basis.vectors[:, pos:pos + d]))
        pos += d
    return out


def special_inertia(rng, n):
    axes = rng.uniform(0.8, 2.2, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    c = 0.5 * min(axes[i] * axes[j] for i, j in pairs)
    return InertiaOperator.special(axes, c), axes, c


# --- random admissible scenarios, one builder per acceptance system -------

def make_lr(rng, n):
    inertia = rand_spd_operator(rng, n)
    k = int(rng.integers(1, 3))
    basis = lie.orthonormal_basis_of([rand_skew(rng, n) for _ in range(k)], n=n)
    system = LRSystem(inertia, basis)
    g = rand_rotation(rng, n)
    q = lie.adjoint_matrix(g)
    wv = rng.normal(size=system.N)
    alphas = q.T @ basis.vectors
    wv -= alphas @ (alphas.T @ wv)
    return system, system.initial_state(g, lie.vec_to_skew(wv, n))


def make_lplusr(rng, n, geodesic=False):
    inertia = rand_spd_operator(rng, n)
    pi0 = rand_pi0(rng, inertia)
    cls = GeodesicLplusRSystem if geodesic else LplusRSystem
    system = cls(inertia, pi0)
    y0 = system.pack(g=rand_rotation(rng, n), omega=rand_skew(rng, n))
    return system, y0


def make_geodesic_lpr(rng, n):
    return make_lplusr(rng, n, geodesic=True)


def make_coupled(rng, n, full=False):
    inertia = rand_spd_operator(rng, n)
    h0, h1 = rand_subspaces(rng, n, [1, 1])
    coupling = float(rng.uniform(0.5, 2.0))
    rho = float(rng.uniform(0.4, 1.5)) * (1 if n > 3 or rng.random() < 0.7 else -1)
    cls = CoupledFullSystem if full else CoupledReducedSystem
    system = cls(inertia, h0, [h1], coupling, [rho])
    g = rand_rotation(rng, n)
    q = lie.adjoint_matrix(g)
    wv = rng.normal(size=system.N)
    basis_g = q.T @ h0.vectors
    wv -= basis_g @ (basis_g.T @ wv)
    parts = {"g": g, "omega": lie.vec_to_skew(wv, n)}
    if full:
        omega_space = q @ wv
        Wv = rng.normal(size=system.N)
        Wv -= h1.vectors @ (h1.vectors.T @ Wv)
        Wv -= (1.0 / rho) * (h1.vectors @ (h1.vectors.T @ omega_space))
        parts["W"] = lie.vec_to_skew(Wv, n)
    return system, system.pack(**parts)


def make_coupled_reduced(rng, n):
    return make_coupled(rng, n, full=False)


def make_coupled_full(rng, n):
    return make_coupled(rng, n, full=True)


def make_ncoupled(rng, n):
    """Commutator-coupled flow, [Omega, Gamma_1] + rho W_1 = 0, W_1 slaved."""
    inertia = rand_spd_operator(rng, n)
    gamma = rand_skew(rng, n)
    rho = float(rng.uniform(0.4, 1.2))
    a_mats, b_mats = commutator_constraint_matrices([gamma], [rho])
    system = NCoupledSystem(inertia, a_mats, b_mats, [float(rng.uniform(0.5, 1.5))])
    g = rand_rotation(rng, n)
    wv = rng.normal(size=system.N)
    w1 = -(a_mats[0] @ (lie.adjoint_matrix(g) @ wv)) / rho
    return system, system.pack(g=g, omega=lie.vec_to_skew(wv, n), W1=w1)


def make_support(rng, n, rubber=False):
    inertia = rand_spd_operator(rng, n)
    n_bodies = int(rng.integers(1, 3))
    couplings = rng.uniform(0.2, 0.8, n_bodies)
    if rubber:
        rhos = rng.uniform(0.4, 1.0, n_bodies)
    else:
        rhos = rng.uniform(0.4, 1.5, n_bodies)
        if n == 3 and rng.random() < 0.3:
            rhos[0] = -rhos[0]
    cls = RubberSupportSystem if rubber else SupportSystem
    system = cls(inertia, list(couplings), list(rhos))
    parts = {"g": rand_rotation(rng, n), "omega": rand_skew(rng, n)}
    for i in range(n_bodies):
        parts[f"gamma{i + 1}"] = rand_unit(rng, n)
    return system, system.pack(**parts)


def make_rubber_support(rng, n):
    return make_support(rng, n, rubber=True)


def tilted_rotation(rng, n, angle):
    """Rotation g whose vertical gamma = g^T e_n lies at ``angle`` from e_n."""
    g = np.eye(n)
    g[:-1, :-1] = rand_rotation(rng, n - 1)
    c, s = np.cos(angle), np.sin(angle)
    tilt = np.eye(n)
    tilt[[0, 0, -1, -1], [0, -1, 0, -1]] = [c, -s, s, c]
    return tilt @ g


def make_rubber_chaplygin(rng, n, inertia=None, g=None):
    if inertia is None:
        inertia = rand_spd_operator(rng, n)
    mass = float(rng.uniform(0.5, 1.5))
    radius = float(rng.uniform(0.6, 1.2))
    system = RubberChaplyginSystem(inertia, mass, radius)
    if g is None:
        g = rand_rotation(rng, n)
    gamma = g.T @ np.append(np.zeros(n - 1), 1.0)
    basis = lie.wedge_subspace_basis(gamma)
    wv = basis.vectors @ rng.normal(size=basis.dim)
    return system, system.pack(g=g, omega=lie.vec_to_skew(wv, n))


def make_cotangent(rng, n, inertia=None, mass=None, radius=None):
    if inertia is None:
        inertia = rand_spd_operator(rng, n)
    mass = float(rng.uniform(0.5, 1.5)) if mass is None else mass
    radius = float(rng.uniform(0.6, 1.2)) if radius is None else radius
    system = CotangentSystem(inertia, mass, radius)
    gamma = rand_unit(rng, n)
    p = rng.normal(size=n)
    p -= gamma * (gamma @ p)
    return system, system.pack(gamma=gamma, p=p)


def make_lstar(rng, n):
    system = LstarGeodesicSystem(rng.uniform(0.6, 2.2, n))
    gamma = rand_unit(rng, n)
    v = rng.normal(size=n)
    v -= gamma * (gamma @ v)
    return system, system.pack(gamma=gamma, v=v)


def make_gsr(rng, n):
    inertia = rand_spd_operator(rng, n)
    system = GsrSystem(inertia, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.6, 1.2)))
    seed = lie.wedge(np.eye(n)[0], np.eye(n)[1])
    gamma = lie.Ad(rand_rotation(rng, n), seed)
    return system, system.pack(gamma=gamma, omega=rand_skew(rng, n))


MAKERS = {
    "lr": make_lr,
    "lplusr": make_lplusr,
    "geodesic-lpr": make_geodesic_lpr,
    "coupled-reduced": make_coupled_reduced,
    "support": make_support,
    "rubber-support": make_rubber_support,
    "rubber-chaplygin": make_rubber_chaplygin,
    "cotangent": make_cotangent,
    "lstar-geodesic": make_lstar,
    "gsr": make_gsr,
}


# every flow the constrained-Euler kernel evaluates, and the kinds lie-rk4
# integrates in the benchmark ensemble
KERNEL_MAKERS = {
    "lr": make_lr,
    "lplusr": make_lplusr,
    "geodesic-lpr": make_geodesic_lpr,
    "coupled": make_coupled_full,
    "coupled-reduced": make_coupled_reduced,
    "ncoupled": make_ncoupled,
    "support": make_support,
    "rubber-support": make_rubber_support,
    "rubber-chaplygin": make_rubber_chaplygin,
}
