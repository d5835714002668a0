"""Inertia operators: structured actions and solves."""

import numpy as np
import pytest

import oracles
from helpers import iso3, iso3_inv, rand_skew, rand_spd_operator, rand_unit, special_from_vector_inertia
from lrsim import liecore as lie
from lrsim.operators import (
    InertiaOperator,
    OperatorError,
    wedge_projector_matrix,
)


def solve(op, y):
    """I X = Y solved for the skew matrix X, through bivector coordinates."""
    return lie.vec_to_skew(op.solve_vec(lie.skew_to_vec(y)), op.n)


def bivector(n, i, j):
    e = np.eye(n)
    return lie.wedge(e[:, i], e[:, j])


class TestConstruction:
    def test_rejects_asymmetric(self):
        mat = np.eye(3)
        mat[0, 1] = 0.5
        with pytest.raises(OperatorError):
            InertiaOperator(3, mat)

    def test_rejects_indefinite(self):
        with pytest.raises(OperatorError, match="positive definite"):
            InertiaOperator(3, np.diag([1.0, -0.2, 2.0]))

    def test_indefinite_reports_min_eigenvalue(self):
        with pytest.raises(OperatorError, match=r"min eigenvalue -0\.5"):
            InertiaOperator(3, np.diag([1.0, -0.5, 2.0]))

    def test_special_spd_condition(self):
        # A_1 A_2 = 0.9 * 1.1 = 0.99 <= c = 1.0
        with pytest.raises(OperatorError, match="A_1 A_2"):
            InertiaOperator.special([0.9, 1.1, 3.0], 1.0)
        InertiaOperator.special([0.9, 1.1, 3.0], 0.98)

    def test_special_needs_positive_axes(self):
        with pytest.raises(OperatorError):
            InertiaOperator.special([1.0, -1.0, 2.0], 0.0)


class TestApply:
    def test_special_with_identity_axes_is_identity(self, rng):
        op = InertiaOperator.special(np.ones(4), 0.0)
        x = rand_skew(rng, 4)
        np.testing.assert_allclose(oracles.apply(op, x), x, atol=1e-14)

    def test_special_eigenbasis_action(self):
        axes = np.array([1.2, 0.7, 2.0, 1.5])
        c = 0.3
        op = InertiaOperator.special(axes, c)
        for i, j in lie.bivector_pairs(4):
            expected = (axes[i] * axes[j] - c) * bivector(4, i, j)
            np.testing.assert_allclose(oracles.apply(op, bivector(4, i, j)), expected, atol=1e-13)

    def test_self_adjoint_and_positive(self, rng):
        op = rand_spd_operator(rng, 4)
        for _ in range(10):
            x, y = rand_skew(rng, 4), rand_skew(rng, 4)
            assert oracles.inner(oracles.apply(op, x), y) == pytest.approx(
                oracles.inner(x, oracles.apply(op, y)), abs=1e-10
            )
            assert oracles.inner(oracles.apply(op, x), x) > 0

    def test_matrix_agrees_with_structured_apply(self, rng):
        op = InertiaOperator.special(np.array([1.1, 0.8, 1.9]), 0.2)
        x = rand_skew(rng, 3)
        via_matrix = lie.vec_to_skew(op.apply_vec(lie.skew_to_vec(x)), 3)
        np.testing.assert_allclose(oracles.apply(op, x), via_matrix, atol=1e-13)


class TestSolve:
    def test_scalar(self, rng):
        op = InertiaOperator.scalar(3, 2.0)
        y = rand_skew(rng, 3)
        np.testing.assert_allclose(solve(op, y), y / 2.0, atol=1e-14)

    def test_special_eigenbasis(self):
        axes = np.array([1.2, 0.7, 2.0])
        c = 0.3
        op = InertiaOperator.special(axes, c)
        for i, j in lie.bivector_pairs(3):
            expected = bivector(3, i, j) / (axes[i] * axes[j] - c)
            np.testing.assert_allclose(solve(op, bivector(3, i, j)), expected, atol=1e-13)

    def test_residual_on_random_spd(self, rng):
        op = rand_spd_operator(rng, 5)
        y = rand_skew(rng, 5)
        x = solve(op, y)
        assert oracles.norm(oracles.apply(op, x) - y) / oracles.norm(y) < 1e-10


class TestVectorInertiaBridge:
    def test_special_reproduces_3d_inertia_under_hat_map(self):
        inertia3 = np.array([1.1, 1.7, 2.4])
        c = 0.8
        op = special_from_vector_inertia(inertia3, c)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            out = iso3_inv(oracles.apply(op, iso3(e)))
            np.testing.assert_allclose(out, inertia3[k] * e, atol=1e-10)

    def test_random_vectors(self, rng):
        inertia3 = np.array([0.9, 1.3, 2.1])
        c = 0.5
        op = special_from_vector_inertia(inertia3, c)
        for _ in range(5):
            v = rng.normal(size=3)
            np.testing.assert_allclose(
                iso3_inv(oracles.apply(op, iso3(v))), inertia3 * v, atol=1e-10
            )


def test_wedge_projector_matrix_matches_direct_projection(rng):
    gamma = rand_unit(rng, 4)
    mat = wedge_projector_matrix(gamma)
    x = rand_skew(rng, 4)
    np.testing.assert_allclose(
        lie.vec_to_skew(mat @ lie.skew_to_vec(x), 4),
        oracles.proj_wedge_subspace(gamma, x),
        atol=1e-12,
    )
