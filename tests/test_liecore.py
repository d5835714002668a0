"""Algebra primitives: wedge, invariant product, brackets, projectors, bases."""

import numpy as np
import pytest

import oracles
from helpers import iso3, iso3_inv, rand_rotation, rand_skew, rand_unit
from lrsim import liecore as lie


# the per-size tables built once and shared by every caller
MEMO_TABLES = [
    lie._pair_indices,
    lie._flat_indices,
    lie.bivector_basis,
    lie._compound_indices,
    lie.structure_constants,
]


def basis_vec(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestWedge:
    def test_basis_pair(self):
        w = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        np.testing.assert_array_equal(w, expected)

    def test_self_wedge_vanishes(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_array_equal(lie.wedge(x, x), np.zeros((4, 4)))

    def test_elementwise_formula(self, rng):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        expected = np.array([[x[i] * y[j] - y[i] * x[j] for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(lie.wedge(x, y), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(lie.DimensionError):
            lie.wedge(np.ones(3), np.ones(4))


class TestInner:
    def test_unit_basis_element(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        # -1/2 tr(E12^2) = 1 by the direct trace evaluation
        assert oracles.inner(e12, e12) == pytest.approx(1.0)
        assert -0.5 * np.trace(e12 @ e12) == pytest.approx(1.0)

    def test_distinct_basis_elements_orthogonal(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        e13 = lie.wedge(basis_vec(3, 0), basis_vec(3, 2))
        assert oracles.inner(e12, e13) == pytest.approx(0.0)

    def test_matches_trace_definition(self, rng):
        x, y = rand_skew(rng, 5), rand_skew(rng, 5)
        assert oracles.inner(x, y) == pytest.approx(-0.5 * np.trace(x @ y), rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_ad_invariance(self, n, rng):
        g = rand_rotation(rng, n)
        x, y = rand_skew(rng, n), rand_skew(rng, n)
        assert oracles.inner(lie.Ad(g, x), lie.Ad(g, y)) == pytest.approx(
            oracles.inner(x, y), abs=1e-10
        )

    def test_positive_definite(self, rng):
        for _ in range(20):
            x = rand_skew(rng, 5)
            assert oracles.inner(x, x) > 0


class TestBracket:
    def test_self_bracket(self, rng):
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(lie.ad(x, x), np.zeros((4, 4)), atol=1e-15)

    def test_e12_e13_bracket(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        e13 = lie.wedge(basis_vec(3, 0), basis_vec(3, 2))
        e23 = lie.wedge(basis_vec(3, 1), basis_vec(3, 2))
        # direct matrix product: E12 E13 - E13 E12 = -E23
        np.testing.assert_allclose(lie.ad(e12, e13), -e23, atol=1e-15)

    def test_jacobi_identity(self, rng):
        for _ in range(5):
            x, y, z = (rand_skew(rng, 4) for _ in range(3))
            resid = lie.ad(x, lie.ad(y, z)) + lie.ad(y, lie.ad(z, x)) + lie.ad(z, lie.ad(x, y))
            assert np.max(np.abs(resid)) < 1e-12

    def test_skew_adjoint_wrt_inner(self, rng):
        for _ in range(5):
            x, y, z = (rand_skew(rng, 4) for _ in range(3))
            assert oracles.inner(lie.ad(x, y), z) + oracles.inner(y, lie.ad(x, z)) == pytest.approx(
                0.0, abs=1e-10
            )


class TestAd:
    def test_identity(self, rng):
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(lie.Ad(np.eye(4), x), x, atol=1e-15)

    def test_wedge_equivariance(self, rng):
        g = rand_rotation(rng, 4)
        for i, j in [(0, 1), (1, 3), (2, 3)]:
            lhs = lie.Ad(g, lie.wedge(basis_vec(4, i), basis_vec(4, j)))
            rhs = lie.wedge(g[:, i], g[:, j])
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_composition(self, rng):
        g, h = rand_rotation(rng, 4), rand_rotation(rng, 4)
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(lie.Ad(g @ h, x), lie.Ad(g, lie.Ad(h, x)), atol=1e-12)

    def test_returns_exactly_skew(self, rng):
        g = rand_rotation(rng, 5)
        x = rand_skew(rng, 5)
        out = lie.Ad(g, x)
        assert np.max(np.abs(out + out.T)) < 1e-12


class TestWedgeProjector:
    def test_element_already_inside(self):
        gamma = basis_vec(3, 2)
        e13 = lie.wedge(basis_vec(3, 0), gamma)
        np.testing.assert_allclose(oracles.proj_wedge_subspace(gamma, e13), e13, atol=1e-14)

    def test_orthogonal_element_killed(self):
        gamma = basis_vec(3, 2)
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        np.testing.assert_allclose(
            oracles.proj_wedge_subspace(gamma, e12), np.zeros((3, 3)), atol=1e-14
        )

    def test_matches_gram_projector(self, rng):
        gamma = rand_unit(rng, 5)
        x = rand_skew(rng, 5)
        basis = lie.wedge_subspace_basis(gamma)
        expected = lie.vec_to_skew(basis.vectors @ (basis.vectors.T @ lie.skew_to_vec(x)), 5)
        np.testing.assert_allclose(oracles.proj_wedge_subspace(gamma, x), expected, atol=1e-10)

    def test_idempotent_and_self_adjoint(self, rng):
        gamma = rand_unit(rng, 4)
        x, y = rand_skew(rng, 4), rand_skew(rng, 4)
        px = oracles.proj_wedge_subspace(gamma, x)
        np.testing.assert_allclose(oracles.proj_wedge_subspace(gamma, px), px, atol=1e-10)
        assert oracles.inner(px, y) == pytest.approx(
            oracles.inner(x, oracles.proj_wedge_subspace(gamma, y)), abs=1e-10
        )

    def test_rejects_non_unit(self, rng):
        with pytest.raises(ValueError):
            oracles.proj_wedge_subspace(np.array([0.0, 0.0, 2.0]), rand_skew(rng, 3))


class TestBases:
    def test_normalization(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        basis = lie.orthonormal_basis_of([2.0 * e12], n=3)
        assert basis.dim == 1
        np.testing.assert_allclose(lie.vec_to_skew(basis.vectors[:, 0], 3), e12, atol=1e-14)

    def test_gram_schmidt_by_hand(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        e13 = lie.wedge(basis_vec(3, 0), basis_vec(3, 2))
        basis = lie.orthonormal_basis_of([e12, e12 + e13], n=3)
        assert basis.dim == 2
        np.testing.assert_allclose(lie.vec_to_skew(basis.vectors[:, 0], 3), e12, atol=1e-14)
        np.testing.assert_allclose(lie.vec_to_skew(basis.vectors[:, 1], 3), e13, atol=1e-14)

    def test_dependent_generators_dropped_with_warning(self):
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        with pytest.warns(UserWarning):
            basis = lie.orthonormal_basis_of([e12, 3.0 * e12], n=3)
        assert basis.dim == 1

    def test_dimension_count_with_complement(self, rng):
        for n in (3, 4, 5):
            gens = [rand_skew(rng, n) for _ in range(2)]
            basis = lie.orthonormal_basis_of(gens, n=n)
            comp = lie.complement(basis)
            assert basis.dim + comp.dim == lie.so_dim(n)
            if comp.dim:
                cross = basis.vectors.T @ comp.vectors
                assert np.max(np.abs(cross)) < 1e-10

    def test_spans_same_space(self, rng):
        gens = [rand_skew(rng, 4) for _ in range(3)]
        basis = lie.orthonormal_basis_of(gens, n=4)
        for g in gens:
            v = lie.skew_to_vec(g)
            proj = basis.vectors @ (basis.vectors.T @ v)
            np.testing.assert_allclose(proj, v, atol=1e-10)


class TestBivectorCoordinates:
    def test_round_trip(self, rng):
        x = rand_skew(rng, 5)
        np.testing.assert_array_equal(lie.vec_to_skew(lie.skew_to_vec(x), 5), x)

    def test_inner_is_euclidean_in_coordinates(self, rng):
        x, y = rand_skew(rng, 4), rand_skew(rng, 4)
        assert oracles.inner(x, y) == pytest.approx(
            lie.skew_to_vec(x) @ lie.skew_to_vec(y), rel=1e-13
        )

    def test_adjoint_matrix_is_orthogonal(self, rng):
        g = rand_rotation(rng, 4)
        q = lie.adjoint_matrix(g)
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-12)
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(
            q @ lie.skew_to_vec(x), lie.skew_to_vec(lie.Ad(g, x)), atol=1e-12
        )

    def test_ad_matrix_action(self, rng):
        x, y = rand_skew(rng, 4), rand_skew(rng, 4)
        np.testing.assert_allclose(
            lie.ad_matrix(x) @ lie.skew_to_vec(y), lie.skew_to_vec(lie.ad(x, y)), atol=1e-12
        )


class TestStructureConstants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ad_vec_is_ad_matrix_exactly(self, n):
        x = np.random.default_rng([30, n]).normal(size=(2, 3, lie.so_dim(n)))
        # every entry is +-x_a for one a, so no rounding separates the two
        np.testing.assert_array_equal(lie.ad_vec(x[0, 0]), lie.ad_matrix(lie.vec_to_skew(x[0, 0], n)))
        stacked = lie.ad_vec(x)
        assert stacked.shape == (2, 3, lie.so_dim(n), lie.so_dim(n))
        np.testing.assert_array_equal(stacked, lie.ad_matrix(lie.vec_to_skew(x, n)))
        # and exactly skew, which the transports of the flows rely on
        np.testing.assert_array_equal(np.swapaxes(stacked, -1, -2), -stacked)

    def test_structure_constants_are_cached_and_read_only(self):
        s = lie.structure_constants(4)
        assert s.shape == (6, 36)
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 1.0
        assert lie.structure_constants(4) is s
        assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("table", MEMO_TABLES, ids=lambda table: table.__name__)
    def test_memo_tables_are_shared_and_read_only(self, table):
        for n in range(2, 7):
            first = table(n)
            assert table(n) is first
            for arr in first if isinstance(first, tuple) else (first,):
                assert not arr.flags.writeable

    def test_ad_vec_rejects_a_length_that_is_no_so_n(self):
        with pytest.raises(lie.DimensionError):
            lie.ad_vec(np.ones(4))


class TestHouseholderFrame:
    def test_maps_last_axis_to_gamma(self, rng):
        for _ in range(10):
            gamma = rand_unit(rng, 4)
            h = lie.householder_frame(gamma)
            np.testing.assert_allclose(h @ h.T, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(h[:, -1], gamma, atol=1e-12)

    def test_identity_at_pole(self):
        gamma = basis_vec(5, 4)
        np.testing.assert_array_equal(lie.householder_frame(gamma), np.eye(5))

    def test_last_column_near_pole(self):
        # gamma_n - 1 cancels near e_n; the frame must still end in gamma
        gamma = basis_vec(4, 3) + 1e-9 * np.array([0.6, -0.8, 0.0, 0.0])
        gamma /= np.linalg.norm(gamma)
        h = lie.householder_frame(gamma)
        np.testing.assert_allclose(h[:, -1], gamma, rtol=0, atol=1e-15)

    def test_antipode(self):
        gamma = -basis_vec(3, 2)
        h = lie.householder_frame(gamma)
        np.testing.assert_allclose(h[:, -1], gamma, atol=1e-14)


class TestIso3:
    def test_e3_maps_to_e12_multiple(self):
        out = iso3(basis_vec(3, 2))
        e12 = lie.wedge(basis_vec(3, 0), basis_vec(3, 1))
        np.testing.assert_allclose(out, -e12, atol=1e-15)

    def test_hat_action_is_cross_product(self, rng):
        a, x = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(iso3(a) @ x, np.cross(a, x), atol=1e-14)

    def test_intertwines_cross_and_bracket_on_all_basis_pairs(self):
        for i in range(3):
            for j in range(3):
                a, b = basis_vec(3, i), basis_vec(3, j)
                np.testing.assert_allclose(
                    iso3(np.cross(a, b)),
                    lie.ad(iso3(a), iso3(b)),
                    atol=1e-15,
                )

    def test_round_trip(self, rng):
        a = rng.normal(size=3)
        np.testing.assert_array_equal(iso3_inv(iso3(a)), a)

    def test_isometry(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert oracles.inner(iso3(a), iso3(b)) == pytest.approx(a @ b, rel=1e-13)

    def test_wrong_dimension(self):
        with pytest.raises(lie.DimensionError):
            iso3(np.ones(4))


def test_every_skew_result_is_exactly_skew(rng):
    for _ in range(10):
        x, y = rand_skew(rng, 5), rand_skew(rng, 5)
        g = rand_rotation(rng, 5)
        for out in (lie.ad(x, y), lie.Ad(g, x), lie.wedge(rng.normal(size=5), rng.normal(size=5))):
            assert np.max(np.abs(out + out.T)) < 1e-12
