"""Monomial maps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from polysid import (
    DimensionMismatchError,
    InvalidInputError,
    MonomialMap,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    identity_power_matrix,
)
from polysid import genred
from polysid.genred import eval_monomial_map_many
from polysid.monomials import CHUNK_COLUMNS, block_columns, data_matrix_workspace

from conftest import row_loop_chain


def eval_at(M: MonomialMap, x) -> np.ndarray:
    """The map at one point, through the batch evaluator."""
    return eval_monomial_map_many(M, np.asarray(x)[:, None])[:, 0]


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

    def test_samples_are_columns(self):
        M = MonomialMap(np.eye(2), identity_power_matrix(2))
        with pytest.raises(InvalidInputError, match=r"samples must be 2-D, got \(2,\)"):
            eval_monomial_map_many(M, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError, match="sample dimension 3 does not match 2"):
            eval_monomial_map_many(M, np.ones((3, 2)))

    def test_rejects_zero_column_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MonomialMap(np.ones((2, 3)), identity_power_matrix(2))


class TestBlockedEvaluation:
    """``eval_monomial_map_many`` lifts in blocks of ``block_columns(d_v)`` samples."""

    @staticmethod
    def blockwise(M: MonomialMap, X: np.ndarray) -> np.ndarray:
        """``L @ build_data_matrix`` of each block, side by side."""
        width = block_columns(M.K.d_v)
        return np.hstack([
            M.L @ build_data_matrix(X[:, a : a + width], M.K) for a in range(0, X.shape[1], width)
        ])

    @pytest.mark.parametrize("s", [1, 1023, 1024, 1025, 2049, 5000])
    def test_blocks_are_the_data_matrix_products_bit_for_bit(self, rng, monkeypatch, s):
        # Not downward-closed: the chain has auxiliary rows after the 5 of K.
        K = PowerMatrix.from_rows([(3, 0, 1), (1, 2, 2), (0, 0, 4), (0, 0, 0), (2, 2, 0)])
        M = MonomialMap(rng.standard_normal((3, K.d_v)), K)
        X = rng.uniform(-1.0, 1.0, (3, s))
        made = []

        def counted(pm, columns):
            made.append(columns)
            return workspace(pm, columns)

        workspace = genred.data_matrix_workspace
        monkeypatch.setattr(genred, "data_matrix_workspace", counted)
        got = eval_monomial_map_many(M, X)
        assert made == [min(s, CHUNK_COLUMNS)]  # one workspace, one block wide
        assert np.array_equal(got, self.blockwise(M, X))
        if s <= CHUNK_COLUMNS:  # one block: the whole product
            assert np.array_equal(got, M.L @ build_data_matrix(X, K))
        assert np.allclose(got, M.L @ build_data_matrix(X, K), rtol=1e-13, atol=1e-13)

    @staticmethod
    def row_loop(M: MonomialMap, X: np.ndarray) -> np.ndarray:
        """The blocked evaluation as it ran before chains were bound: the row loop per block."""
        s, width = X.shape[1], block_columns(M.K.d_v)
        out = np.empty((M.m, s))
        W = data_matrix_workspace(M.K, min(width, s))
        for a in range(0, s, width):
            b = min(a + width, s)
            np.matmul(M.L, row_loop_chain(M.K, X[:, a:b], W[:, : b - a]), out=out[:, a:b])
        return out

    @pytest.mark.parametrize(
        "s, bound_widths",
        # 1025 and 2049 end in a one-column block, whose chain is bound again.
        [(1, [1]), (1023, [1023]), (1024, [1024]), (1025, [1024, 1]), (2049, [1024, 1])],
    )
    def test_one_bound_chain_per_block_width_matches_the_row_loop(self, rng, monkeypatch, s,
                                                                  bound_widths):
        K = PowerMatrix.from_rows([(3, 0, 1), (1, 2, 2), (0, 0, 4), (0, 0, 0), (2, 2, 0)])
        M = MonomialMap(rng.standard_normal((3, K.d_v)), K)
        X = rng.uniform(-1.0, 1.0, (3, s))
        widths = []

        def counted(pm, rows, W):
            widths.append(W.shape[1])
            return bind(pm, rows, W)

        bind = genred.bind_chain
        monkeypatch.setattr(genred, "bind_chain", counted)
        assert np.array_equal(eval_monomial_map_many(M, X), self.row_loop(M, X))
        assert widths == bound_widths

    def test_a_wide_map_has_blocks_of_twice_its_monomials(self, rng):
        K = enumerate_power_matrix(10, (1,) * 10, max_degree=5)
        assert K.d_v > 512 and block_columns(K.d_v) == 2 * K.d_v
        M = MonomialMap(rng.standard_normal((3, K.d_v)), K)
        X = rng.uniform(-1.0, 1.0, (10, 5000))
        assert np.array_equal(eval_monomial_map_many(M, X), self.blockwise(M, X))

    def test_memory_is_one_block_of_the_lifting(self, rng):
        # The whole 256 x 20000 lifting would take 41 MB.
        K = enumerate_power_matrix(8, (1,) * 8)
        M = MonomialMap(rng.standard_normal((3, K.d_v)), K)
        X = rng.uniform(-1.0, 1.0, (8, 20000))
        eval_monomial_map_many(M, X[:, :10])  # plans the chain outside the trace
        tracemalloc.start()
        try:
            eval_monomial_map_many(M, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (K.d_v * block_columns(K.d_v) + M.m * X.shape[1]) * 8


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
