"""Inertia operators: structured actions, solves, restricted determinants."""

import numpy as np
import pytest

from helpers import rand_skew, rand_spd_operator, rand_unit
from lrsim import liecore as lie
from lrsim.operators import (
    InertiaOperator,
    OperatorError,
    restricted_inverse_det,
    restricted_operator_inverse,
    special_from_vector_inertia,
    wedge_projector_matrix,
)

rng = np.random.default_rng(7)


def bivector(n, i, j):
    e = np.eye(n)
    return lie.wedge(e[:, i], e[:, j])


class TestConstruction:
    def test_rejects_asymmetric(self):
        mat = np.eye(3)
        mat[0, 1] = 0.5
        with pytest.raises(OperatorError):
            InertiaOperator.from_bivector_matrix(3, mat)

    def test_rejects_indefinite(self):
        with pytest.raises(OperatorError, match="positive definite"):
            InertiaOperator.from_bivector_diag(3, [1.0, -0.2, 2.0])

    def test_indefinite_reports_min_eigenvalue(self):
        with pytest.raises(OperatorError, match=r"min eigenvalue -0\.5"):
            InertiaOperator.from_bivector_diag(3, [1.0, -0.5, 2.0])

    def test_special_spd_condition(self):
        # A_1 A_2 = 0.9 * 1.1 = 0.99 <= c = 1.0
        with pytest.raises(OperatorError, match="A_1 A_2"):
            InertiaOperator.special([0.9, 1.1, 3.0], 1.0)
        InertiaOperator.special([0.9, 1.1, 3.0], 0.98)

    def test_special_needs_positive_axes(self):
        with pytest.raises(OperatorError):
            InertiaOperator.special([1.0, -1.0, 2.0], 0.0)


class TestApply:
    def test_special_with_identity_axes_is_identity(self):
        op = InertiaOperator.special(np.ones(4), 0.0)
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-14)

    def test_special_eigenbasis_action(self):
        axes = np.array([1.2, 0.7, 2.0, 1.5])
        c = 0.3
        op = InertiaOperator.special(axes, c)
        for i, j in lie.bivector_pairs(4):
            expected = (axes[i] * axes[j] - c) * bivector(4, i, j)
            np.testing.assert_allclose(op.apply(bivector(4, i, j)), expected, atol=1e-13)

    def test_self_adjoint_and_positive(self):
        op = rand_spd_operator(rng, 4)
        for _ in range(10):
            x, y = rand_skew(rng, 4), rand_skew(rng, 4)
            assert lie.inner(op.apply(x), y) == pytest.approx(
                lie.inner(x, op.apply(y)), abs=1e-10
            )
            assert lie.inner(op.apply(x), x) > 0

    def test_matrix_agrees_with_structured_apply(self):
        op = InertiaOperator.special(np.array([1.1, 0.8, 1.9]), 0.2)
        x = rand_skew(rng, 3)
        via_matrix = lie.vec_to_skew(op.apply_vec(lie.skew_to_vec(x)), 3)
        np.testing.assert_allclose(op.apply(x), via_matrix, atol=1e-13)


class TestSolve:
    def test_scalar(self):
        op = InertiaOperator.scalar(3, 2.0)
        y = rand_skew(rng, 3)
        np.testing.assert_allclose(op.solve(y), y / 2.0, atol=1e-14)

    def test_special_eigenbasis(self):
        axes = np.array([1.2, 0.7, 2.0])
        c = 0.3
        op = InertiaOperator.special(axes, c)
        for i, j in lie.bivector_pairs(3):
            expected = bivector(3, i, j) / (axes[i] * axes[j] - c)
            np.testing.assert_allclose(op.solve(bivector(3, i, j)), expected, atol=1e-13)

    def test_residual_on_random_spd(self):
        op = rand_spd_operator(rng, 5)
        y = rand_skew(rng, 5)
        x = op.solve(y)
        assert lie.norm(op.apply(x) - y) / lie.norm(y) < 1e-10


class TestRestrictedInverseDet:
    def test_identity_operator(self):
        basis = lie.orthonormal_basis_of([rand_skew(rng, 4) for _ in range(2)], n=4)
        assert restricted_inverse_det(InertiaOperator.identity(4), basis) == pytest.approx(1.0)

    def test_scalar_operator(self):
        basis = lie.orthonormal_basis_of([rand_skew(rng, 4) for _ in range(3)], n=4)
        op = InertiaOperator.scalar(4, 2.5)
        assert restricted_inverse_det(op, basis) == pytest.approx(2.5 ** (-3), rel=1e-12)

    def test_empty_basis_convention(self):
        basis = lie.SubspaceBasis(3, np.zeros((3, 0)))
        assert restricted_inverse_det(InertiaOperator.identity(3), basis) == 1.0

    def test_matches_entrywise_gram(self):
        op = rand_spd_operator(rng, 3)
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3) for _ in range(2)], n=3)
        gram = np.empty((2, 2))
        elements = basis.elements()
        for i in range(2):
            for j in range(2):
                gram[i, j] = lie.inner(op.solve(elements[i]), elements[j])
        assert restricted_inverse_det(op, basis) == pytest.approx(
            np.linalg.det(gram), rel=1e-12
        )

    def test_basis_independence(self):
        op = rand_spd_operator(rng, 4)
        gens = [rand_skew(rng, 4) for _ in range(2)]
        basis_a = lie.orthonormal_basis_of(gens, n=4)
        basis_b = lie.orthonormal_basis_of(gens[::-1], n=4)
        mixed = [gens[0] + gens[1], gens[0] - gens[1]]
        basis_c = lie.orthonormal_basis_of(mixed, n=4)
        val = restricted_inverse_det(op, basis_a)
        assert restricted_inverse_det(op, basis_b) == pytest.approx(val, rel=1e-10)
        assert restricted_inverse_det(op, basis_c) == pytest.approx(val, rel=1e-10)


class TestRestrictedOperatorInverse:
    def test_identity(self):
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3)
        y = basis.elements()[0] * 1.7
        out = restricted_operator_inverse(InertiaOperator.identity(3), basis, y)
        np.testing.assert_allclose(out, y, atol=1e-12)

    def test_scalar_multiplies(self):
        basis = lie.orthonormal_basis_of([rand_skew(rng, 3)], n=3)
        op = InertiaOperator.scalar(3, 3.0)
        y = basis.elements()[0]
        np.testing.assert_allclose(restricted_operator_inverse(op, basis, y), 3.0 * y, atol=1e-12)

    def test_round_trip_on_random_subspace(self):
        op = rand_spd_operator(rng, 4)
        basis = lie.orthonormal_basis_of([rand_skew(rng, 4) for _ in range(2)], n=4)
        y = basis.elements()[0] * 0.4 - basis.elements()[1] * 1.3
        x = restricted_operator_inverse(op, basis, y)
        # applying pr o B^-1 o pr must recover y
        back = basis.project(op.solve(basis.project(x)))
        assert lie.norm(back - y) / lie.norm(y) < 1e-9

    def test_rejects_outside_subspace(self):
        basis = lie.orthonormal_basis_of([bivector(3, 0, 1)], n=3)
        with pytest.raises(OperatorError, match="outside"):
            restricted_operator_inverse(InertiaOperator.identity(3), basis, bivector(3, 0, 2))


class TestVectorInertiaBridge:
    def test_special_reproduces_3d_inertia_under_hat_map(self):
        inertia3 = np.array([1.1, 1.7, 2.4])
        c = 0.8
        op = special_from_vector_inertia(inertia3, c)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            out = lie.iso3_inv(op.apply(lie.iso3(e)))
            np.testing.assert_allclose(out, inertia3[k] * e, atol=1e-10)

    def test_random_vectors(self):
        inertia3 = np.array([0.9, 1.3, 2.1])
        c = 0.5
        op = special_from_vector_inertia(inertia3, c)
        for _ in range(5):
            v = rng.normal(size=3)
            np.testing.assert_allclose(
                lie.iso3_inv(op.apply(lie.iso3(v))), inertia3 * v, atol=1e-10
            )


def test_wedge_projector_matrix_matches_direct_projection():
    gamma = rand_unit(rng, 4)
    mat = wedge_projector_matrix(gamma)
    x = rand_skew(rng, 4)
    np.testing.assert_allclose(
        lie.vec_to_skew(mat @ lie.skew_to_vec(x), 4),
        lie.proj_wedge_subspace(gamma, x),
        atol=1e-12,
    )
