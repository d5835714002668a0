"""Independent oracle implementations the tests check the library against.

Nothing here reuses the library's field implementations: multipliers come
from a generic KKT solve over explicit constraint rows, and the 3D systems
are written in classical vector form.
"""

import numpy as np

from lrsim import liecore as lie


def kkt_accelerations(mass_blocks, forces, rows):
    """Solve the constrained Newton system for the block accelerations.

    mass_blocks: list of square mass matrices, one per velocity block;
    forces: list of force vectors (same block sizes);
    rows: list of constraint rows, each a list of per-block row vectors.
    The differentiated constraints are rows . accelerations = 0, which is
    exact for right-invariant constraints paired with body velocities.
    """
    sizes = [m.shape[0] for m in mass_blocks]
    total = sum(sizes)
    k = len(rows)
    mat = np.zeros((total + k, total + k))
    rhs = np.zeros(total + k)
    pos = 0
    for m, f in zip(mass_blocks, forces):
        s = m.shape[0]
        mat[pos:pos + s, pos:pos + s] = m
        rhs[pos:pos + s] = f
        pos += s
    for j, row in enumerate(rows):
        flat = np.concatenate([np.asarray(r, dtype=float) for r in row])
        mat[:total, total + j] = -flat
        mat[total + j, :total] = flat
    sol = np.linalg.solve(mat, rhs)
    out = []
    pos = 0
    for s in sizes:
        out.append(sol[pos:pos + s])
        pos += s
    return out


def moving_covector(g, a):
    """Bivector coordinates of Ad_{g^-1} a for a space-fixed skew a."""
    return lie.skew_to_vec(lie.Ad(g.T, a))


def euler_top_rhs(omega, inertia3):
    """Classical Euler equations I w' = (I w) x w for a 3-vector omega."""
    m = inertia3 * omega
    return np.cross(m, omega) / inertia3


def rubber_ball_rhs(omega, gamma, inertia3, mass, radius):
    """Classical rubber rolling ball in vector form.

    k = (I + m rho^2) w,  k' = k x w + lam gamma,  gamma' = gamma x w,
    with lam keeping (w, gamma) = 0.
    """
    j = inertia3 + mass * radius**2
    k = j * omega
    torque = np.cross(k, omega)
    jinv_t = torque / j
    jinv_g = gamma / j
    lam = -(gamma @ jinv_t) / (gamma @ jinv_g)
    omega_dot = jinv_t + lam * jinv_g
    gamma_dot = np.cross(gamma, omega)
    return omega_dot, gamma_dot


def chaplygin_sphere_rhs(omega, gamma, inertia3, d):
    """Classical no-slip Chaplygin sphere reduced field in vector form.

    k = I w + d (w - (w, gamma) gamma),  k' = k x w,  gamma' = gamma x w.
    Solved for w' from the linear system obtained by differentiating k.
    """
    k = inertia3 * omega + d * (omega - (omega @ gamma) * gamma)
    gamma_dot = np.cross(gamma, omega)
    # d/dt k = M w' + d * (- (w,g') g - (w,g) g')
    mat = np.diag(inertia3 + d) - d * np.outer(gamma, gamma)
    rhs = np.cross(k, omega) + d * ((omega @ gamma_dot) * gamma + (omega @ gamma) * gamma_dot)
    omega_dot = np.linalg.solve(mat, rhs)
    return omega_dot, gamma_dot


def rodrigues(omega_vec):
    """Closed-form exp of a 3D skew matrix."""
    theta = np.linalg.norm(omega_vec)
    k = lie.iso3(omega_vec)
    if theta < 1e-14:
        return np.eye(3) + k + 0.5 * k @ k
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * k
        + ((1.0 - np.cos(theta)) / theta**2) * (k @ k)
    )


def rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def momentum_of_velocity(inertia, mr2, gamma, v):
    """Reduced rubber Chaplygin momentum m rho^2 v - I(gamma ^ v) gamma."""
    return mr2 * v - inertia.apply(lie.wedge(gamma, v)) @ gamma


def householder_gamma_dot(inertia, mr2, gamma, p):
    """Invert the momentum map on T_gamma in a Householder tangent frame.

    Column by column: the map applied to each frame vector, then a solve
    for the frame coefficients of gamma'.
    """
    n = gamma.size
    gh = gamma / np.linalg.norm(gamma)
    tan = lie.householder_frame(gh)[:, : n - 1]
    lmat = np.column_stack(
        [tan.T @ momentum_of_velocity(inertia, mr2, gh, tan[:, j]) for j in range(n - 1)]
    )
    return tan @ np.linalg.solve(lmat, tan.T @ p)


def wedge_basis_density(inertia, mr2, gamma):
    """1 / sqrt(det (I + m rho^2 Id)|_{R^n ^ gamma}) in an orthonormal basis."""
    gh = gamma / np.linalg.norm(gamma)
    basis = lie.wedge_subspace_basis(gh).vectors
    shifted = inertia.matrix + mr2 * np.eye(inertia.N)
    return 1.0 / np.sqrt(np.linalg.det(basis.T @ shifted @ basis))


def wedge_complement_loop(gamma):
    """Columns h_i ^ h_j, i < j < n - 1, of the Householder frame, one at a time."""
    n = gamma.size
    frame = lie.householder_frame(gamma)
    cols = [
        lie.skew_to_vec(lie.wedge(frame[:, i], frame[:, j]))
        for i in range(n - 1)
        for j in range(i + 1, n - 1)
    ]
    return np.column_stack(cols) if cols else np.zeros((lie.so_dim(n), 0))


def measure_divergence_loop(field, density, state, fd_step):
    """Central-difference divergence of density * field, one state per call.

    Returns the estimates at ``fd_step`` and at half of it.
    """
    state = np.asarray(state, dtype=float)

    def estimate(h):
        total = 0.0
        for i in range(state.size):
            up = state.copy()
            up[i] += h
            dn = state.copy()
            dn[i] -= h
            total += (density(up) * field(up)[i] - density(dn) * field(dn)[i]) / (2.0 * h)
        return total

    return estimate(fd_step), estimate(0.5 * fd_step)


def lstar_bordered_acceleration(axes, gamma, v):
    """gamma'' of the L* geodesic flow from the bordered Euler-Lagrange system.

    M gamma'' - lambda gamma = r A gamma, (gamma, gamma'') = -|v|^2, with
    M = A - A gamma (A gamma)^T / (A gamma, gamma) and
    r = (A v, v)/(A gamma, gamma) - ((A gamma, v)/(A gamma, gamma))^2.
    """
    n = gamma.size
    a = axes * gamma
    s = a @ gamma
    mat = np.zeros((n + 1, n + 1))
    mat[:n, :n] = np.diag(axes) - np.outer(a, a) / s
    mat[:n, n] = -gamma
    mat[n, :n] = gamma
    rhs = np.empty(n + 1)
    rhs[:n] = ((axes * v) @ v / s - (a @ v / s) ** 2) * a
    rhs[n] = -(v @ v)
    return np.linalg.solve(mat, rhs)[:n]


def lie_rk4_step(system, y, h):
    """One Munthe-Kaas RK4 step with every stage through exp, exp(0) included.

    The slopes carry the truncated dexpinv v + 1/2 [u, v] + 1/12 [u, [u, v]]
    and each stage builds its state from name-keyed dicts; the exponential
    is scipy's, called directly.
    """
    from scipy.linalg import expm

    rot = [(comp, system.slice_of(comp.name)) for comp in system.components
           if comp.kind == "rotation"]
    n = system.n
    g0 = {comp.name: y[sl].reshape(n, n) for comp, sl in rot}

    def dexpinv(u, v):
        uv = lie.ad(u, v)
        return v + 0.5 * uv + (1.0 / 12.0) * lie.ad(u, uv)

    def eval_stage(u_map, y_lin):
        y_stage = y_lin.copy()
        gs = {}
        for comp, sl in rot:
            g = g0[comp.name] @ expm(u_map[comp.name])
            gs[comp.name] = g
            y_stage[sl] = g.ravel()
        ydot = system.rhs(y_stage)
        slopes = {}
        for comp, sl in rot:
            v = lie.skew_part(gs[comp.name].T @ ydot[sl].reshape(n, n))
            slopes[comp.name] = dexpinv(u_map[comp.name], v)
        return slopes, ydot

    zero = {comp.name: np.zeros((n, n)) for comp, _ in rot}
    k1a, k1 = eval_stage(zero, y)
    k2a, k2 = eval_stage({k: 0.5 * h * v for k, v in k1a.items()}, y + 0.5 * h * k1)
    k3a, k3 = eval_stage({k: 0.5 * h * v for k, v in k2a.items()}, y + 0.5 * h * k2)
    k4a, k4 = eval_stage({k: h * v for k, v in k3a.items()}, y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for comp, sl in rot:
        name = comp.name
        u = (h / 6.0) * (k1a[name] + 2.0 * k2a[name] + 2.0 * k3a[name] + k4a[name])
        y_new[sl] = (g0[name] @ expm(u)).ravel()
    return y_new


def factored_acceleration(system, y):
    """omega' of a constrained-Euler flow through a Cholesky factor of B.

    B = I + Pi is factored; the Gram system C^T B^-1 C is factored too, and
    B is solved once more against torque + C lambda.  Only the flow's
    ``pi``, ``torque`` and ``constraint_basis`` hooks are shared with the
    library's field.
    """
    from lrsim.linalg import cho_factor, cho_solve

    wv = y[system.slice_of("omega")]
    omega = lie.vec_to_skew(wv, system.n)
    pi, frame = system.pi(y)
    b_cho = system.inertia._cho if pi is None else cho_factor(system.inertia.matrix + pi)
    torque = system.torque(wv, omega, pi)
    basis = system.constraint_basis(y, frame)
    if basis is not None and basis.shape[1]:
        binv_basis = cho_solve(b_cho, basis)
        lam = cho_solve(cho_factor(basis.T @ binv_basis), -(binv_basis.T @ torque))
        torque = torque + basis @ lam
    return cho_solve(b_cho, torque)


def adjoint_matrix_einsum(g):
    """Matrix of Ad_g on bivector coordinates, conjugating each basis element."""
    n = g.shape[0]
    conj = np.einsum("ip,apq,jq->aij", g, lie.bivector_basis(n), g)
    rows, cols = zip(*lie.bivector_pairs(n))
    return conj[:, list(rows), list(cols)].T.copy()
