"""Monomial maps."""

from __future__ import annotations

import numpy as np
import pytest

from polysid import (
    DimensionMismatchError,
    MonomialMap,
    PowerMatrix,
    identity_power_matrix,
)
from polysid.genred import eval_monomial_map_many


def eval_at(M: MonomialMap, x) -> np.ndarray:
    """The map at one point, through the batch evaluator."""
    return eval_monomial_map_many(M, [x])[:, 0]


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


class TestMonomialMapEquality:
    def test_value_equality(self):
        K = PowerMatrix(np.array([[2, 0], [1, 1], [0, 0]]), (2, 1))
        L = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0]])
        M = MonomialMap(L, K)
        assert M == MonomialMap(L.copy(), PowerMatrix(K.K.copy(), (2, 1)))
        assert M != MonomialMap(L + 1e-12, K)
        assert M != MonomialMap(L[:1], K)
        assert M != MonomialMap(L, PowerMatrix(K.K, (2, 2)))
        assert M != L.tolist()
