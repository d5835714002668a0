"""Property tests of the liecore identities over generated operands."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import rand_spd_operator
from lrsim import liecore as lie
from lrsim.operators import wedge_projector_matrix
from lrsim.systems.chaplygin import tangent_inertia

# the same examples in every process and no example database; the module
# runs in a few seconds
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

dims = st.sampled_from([3, 4, 5])
coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def skews(n):
    return st.lists(coords, min_size=lie.so_dim(n), max_size=lie.so_dim(n)).map(
        lambda v: lie.vec_to_skew(np.array(v), n)
    )


def rotations(n):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: lie.random_rotation(np.random.default_rng(seed), n)
    )


def units(n):
    return (
        st.lists(coords, min_size=n, max_size=n)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


@PROPERTY
@given(st.data(), dims)
def test_jacobi_identity(data, n):
    x, y, z = (data.draw(skews(n)) for _ in range(3))
    cyclic = lie.ad(x, lie.ad(y, z)) + lie.ad(y, lie.ad(z, x)) + lie.ad(z, lie.ad(x, y))
    np.testing.assert_allclose(cyclic, 0.0, atol=1e-13)


@PROPERTY
@given(st.data(), dims)
def test_inner_is_ad_invariant(data, n):
    g = data.draw(rotations(n))
    x, y = data.draw(skews(n)), data.draw(skews(n))
    assert abs(lie.inner(lie.Ad(g, x), lie.Ad(g, y)) - lie.inner(x, y)) < 1e-13


@PROPERTY
@given(st.lists(coords, min_size=6, max_size=6).map(np.array))
def test_iso3_is_a_bracket_homomorphism(ab):
    a, b = ab[:3], ab[3:]
    np.testing.assert_allclose(
        lie.iso3(np.cross(a, b)), lie.ad(lie.iso3(a), lie.iso3(b)), atol=1e-15
    )


@PROPERTY
@given(st.data(), dims)
def test_no_twist_basis_completes_the_wedge_projector(data, n):
    gamma = data.draw(units(n))
    c = lie.wedge_complement_basis(gamma).vectors
    assert c.shape == (lie.so_dim(n), lie.so_dim(n - 1))
    np.testing.assert_allclose(c.T @ c, np.eye(c.shape[1]), atol=1e-13)
    np.testing.assert_allclose(
        c @ c.T + wedge_projector_matrix(gamma), np.eye(lie.so_dim(n)), atol=1e-13
    )
    np.testing.assert_allclose(c, oracles.wedge_complement_loop(gamma), rtol=0, atol=1e-15)


@PROPERTY
@given(st.data(), dims)
def test_wedge_map_identities(data, n):
    gamma = data.draw(units(n))
    e = lie.wedge_map(gamma)
    proj = np.column_stack(
        [lie.skew_to_vec(lie.proj_wedge_subspace(gamma, b)) for b in lie.bivector_basis(n)]
    )
    np.testing.assert_allclose(e.T @ e, proj, rtol=0, atol=1e-15)
    np.testing.assert_allclose(e @ e.T, np.eye(n) - np.outer(gamma, gamma), rtol=0, atol=1e-15)
    inertia = rand_spd_operator(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    mr2 = data.draw(st.floats(0.1, 2.0))
    np.testing.assert_allclose(
        tangent_inertia(inertia, mr2, e) @ gamma, mr2 * gamma, rtol=0, atol=1e-14
    )


@PROPERTY
@given(st.data(), dims, st.sampled_from([(3,), (3, 2)]))
def test_stacked_helpers_equal_row_by_row(data, n, lead):
    # leading axes are a stack: each entry is exactly the one-state call
    count = int(np.prod(lead))
    xs = np.array([data.draw(skews(n)) for _ in range(count)]).reshape(lead + (n, n))
    gammas = np.array([data.draw(units(n)) for _ in range(count)]).reshape(lead + (n,))
    vecs = lie.skew_to_vec(xs)
    skews_back = lie.vec_to_skew(vecs, n)
    ads = lie.ad_matrix(xs)
    wedges = lie.wedge_map(gammas)
    for idx in np.ndindex(*lead):
        np.testing.assert_array_equal(vecs[idx], lie.skew_to_vec(xs[idx]))
        np.testing.assert_array_equal(skews_back[idx], lie.vec_to_skew(vecs[idx], n))
        np.testing.assert_array_equal(ads[idx], lie.ad_matrix(xs[idx]))
        np.testing.assert_array_equal(wedges[idx], lie.wedge_map(gammas[idx]))


@PROPERTY
@given(st.data(), st.sampled_from([2, 3, 4, 5, 6]))
def test_adjoint_matrix_is_the_conjugation_einsum_exactly(data, n):
    g = data.draw(rotations(n))
    q = lie.adjoint_matrix(g)
    np.testing.assert_array_equal(q, oracles.adjoint_matrix_einsum(g))
    # a stack gives each member's matrix
    h = data.draw(rotations(n))
    np.testing.assert_array_equal(lie.adjoint_matrix(np.array([g, h]))[1], lie.adjoint_matrix(h))
