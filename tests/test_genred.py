"""Monomial maps and generator-product elimination."""

from __future__ import annotations

import numpy as np
import pytest

from polysid import (
    DimensionMismatchError,
    InvalidInputError,
    MonomialMap,
    PowerMatrix,
    eliminate_products,
    identity_power_matrix,
)
from polysid.genred import eval_monomial_map_many


def eval_at(M: MonomialMap, x) -> np.ndarray:
    """The map at one point, through the batch evaluator."""
    return eval_monomial_map_many(M, [x])[:, 0]


def product_generators() -> MonomialMap:
    """Generators (u1, u2, u1*u2) over two input variables."""
    K = PowerMatrix(np.array([[1, 1], [1, 0], [0, 1]]), (1, 1))
    L = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return MonomialMap(L, K)


class TestEvalMonomialMap:
    def test_reference_pair(self):
        M = MonomialMap(
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            PowerMatrix(np.array([[3, 1], [1, 2]]), (3, 2)),
        )
        assert eval_at(M, [1.0, 1.0]) == pytest.approx([0.3, 0.7])

    def test_zero_coefficients(self, rng):
        M = MonomialMap(np.zeros((2, 3)), PowerMatrix(np.array([[2, 0], [1, 1], [0, 0]]), (2, 1)))
        for _ in range(5):
            assert np.array_equal(eval_at(M, rng.standard_normal(2)), [0.0, 0.0])

    def test_identity_map(self, rng):
        M = MonomialMap(np.eye(3), identity_power_matrix(3))
        x = rng.standard_normal(3)
        assert np.array_equal(eval_at(M, x), x)

    def test_empty_map_is_zero(self):
        M = MonomialMap(np.zeros((2, 0)), PowerMatrix(np.zeros((0, 3), dtype=int), (0, 0, 0)))
        assert np.array_equal(eval_at(M, [1.0, 2.0, 3.0]), [0.0, 0.0])

    def test_dimension_mismatch(self):
        M = MonomialMap(np.eye(2), identity_power_matrix(2))
        with pytest.raises(DimensionMismatchError):
            eval_at(M, [1.0])

    def test_rejects_zero_column_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MonomialMap(np.ones((2, 3)), identity_power_matrix(2))


class TestEliminateProducts:
    def test_exact_product_is_eliminated(self, rng):
        g_r = product_generators()
        samples = rng.uniform(-2, 2, size=(100, 2))
        fact = eliminate_products(np.eye(3), g_r, samples, 1e-10)
        assert fact.d_x == 2
        assert fact.g.m == 2
        # surviving generators are u1 and u2
        vals = eval_monomial_map_many(fact.g, samples)
        assert vals == pytest.approx(samples.T, abs=1e-12)
        # the output map carries the product monomial x1*x2
        assert (1, 1) in {tuple(r) for r in fact.h.K.K}
        # value preservation on the samples
        y_ref = np.eye(3) @ eval_monomial_map_many(g_r, samples)
        y_new = eval_monomial_map_many(fact.h, vals.T)
        diff = np.abs(y_ref - y_new).max(axis=0)
        assert (diff <= 1e-10 * (1 + np.abs(y_ref).max(axis=0))).all()

    def test_independent_generators_unchanged(self, rng):
        K = PowerMatrix(np.array([[1, 0], [0, 2]]), (1, 2))
        g_r = MonomialMap(np.eye(2), K)
        C = rng.standard_normal((3, 2))
        fact = eliminate_products(C, g_r, rng.uniform(-1, 1, size=(40, 2)), 1e-8)
        assert fact.d_x == 2
        assert fact.g is g_r
        assert np.array_equal(fact.h.L, C)
        assert np.array_equal(fact.h.K.K, np.eye(2, dtype=int))

    def test_single_component_unchanged(self, rng):
        K = PowerMatrix(np.array([[2, 1]]), (2, 1))
        g_r = MonomialMap(np.array([[1.5]]), K)
        fact = eliminate_products(np.array([[2.0]]), g_r, rng.uniform(-1, 1, (10, 2)), 1e-6)
        assert fact.d_x == 1
        assert fact.g is g_r

    def test_cardinality_never_increases(self, rng):
        for _ in range(10):
            K = PowerMatrix(np.array([[1, 1], [1, 0], [0, 1], [0, 0]]), (1, 1))
            L = rng.standard_normal((4, 4))
            g_r = MonomialMap(L, K)
            C = rng.standard_normal((2, 4))
            fact = eliminate_products(C, g_r, rng.uniform(-1, 1, (60, 2)), 1e-9)
            assert fact.d_x <= 4
            assert fact.g.m == fact.d_x

    def test_noop_stability(self, rng):
        g_r = product_generators()
        samples = rng.uniform(-2, 2, size=(80, 2))
        fact = eliminate_products(np.eye(3), g_r, samples, 1e-10)
        again = eliminate_products(np.eye(fact.d_x), fact.g, samples, 1e-10)
        assert again.d_x == fact.d_x
        assert again.g is fact.g

    def test_residual_term_is_absorbed(self, rng):
        # g3 = u1*u2 + 0.5*u1: eliminated with a linear residual on g1
        K = PowerMatrix(np.array([[1, 1], [1, 0], [0, 1]]), (1, 1))
        L = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.5, 0.0]])
        g_r = MonomialMap(L, K)
        samples = rng.uniform(-2, 2, size=(120, 2))
        C = rng.standard_normal((2, 3))
        fact = eliminate_products(C, g_r, samples, 1e-9)
        assert fact.d_x == 2
        y_ref = C @ eval_monomial_map_many(g_r, samples)
        x_new = eval_monomial_map_many(fact.g, samples)
        y_new = eval_monomial_map_many(fact.h, x_new.T)
        diff = np.abs(y_ref - y_new).max(axis=0)
        assert (diff <= 1e-9 * (1 + np.abs(y_ref).max(axis=0))).all()

    def test_nontriviality_preserved(self, rng):
        g_r = product_generators()
        fact = eliminate_products(np.eye(3), g_r, rng.uniform(-1, 1, (50, 2)), 1e-10)
        assert fact.g.is_nontrivial()
        assert fact.h.is_nontrivial()

    def test_tight_tolerance_blocks_noisy_product(self, rng):
        # g3 = u1*u2 + noise-scale bump: tight tol must refuse the rewrite
        K = PowerMatrix(np.array([[1, 1], [1, 0], [0, 1], [0, 0]]), (1, 1))
        L = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.05],
            ]
        )
        g_r = MonomialMap(L, K)
        samples = rng.uniform(-2, 2, size=(100, 2))
        exact = eliminate_products(np.eye(3), g_r, samples, 1e-12)
        assert exact.d_x == 3  # the constant bump is not a pure product
        loose = eliminate_products(np.eye(3), g_r, samples, 0.5)
        assert loose.d_x <= 3

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            eliminate_products(np.eye(3), product_generators(), np.zeros((0, 2)), 1e-6)

    def test_output_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eliminate_products(np.eye(2), product_generators(), np.zeros((5, 2)), 1e-6)
