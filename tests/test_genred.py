"""Monomial maps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from polysid import (
    CapacityError,
    DimensionMismatchError,
    InvalidInputError,
    MonomialMap,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    identity_power_matrix,
)
from polysid import genred, monomials
from polysid.genred import eval_monomial_map_many
from polysid.monomials import CHUNK_COLUMNS, block_columns, data_matrix_workspace

from conftest import row_loop_chain


def split_block(M: MonomialMap, X: np.ndarray) -> np.ndarray:
    """``M`` at the samples ``X`` as its split is written: ``sum_p a_p * (L_p @ b)``."""
    h, heads, tails, L = M.split
    products = (L @ build_data_matrix(X[h:], tails)).reshape(M.m, heads.d_v, -1)
    return np.einsum("ps,jps->js", build_data_matrix(X[:h], heads), products)


def split_blockwise(M: MonomialMap, X: np.ndarray) -> np.ndarray:
    """:func:`split_block` of each block of ``block_columns(d_v)`` samples, side by side."""
    width = block_columns(M.K.d_v)
    return np.hstack([split_block(M, X[:, a : a + width]) for a in range(0, X.shape[1], width)])


def scattered_coefficients(M: MonomialMap) -> np.ndarray:
    """The split's ``L`` gathered back onto ``K``'s rows; every other product's column is zero."""
    h, heads, tails, L = M.split
    products = np.hstack([np.repeat(heads.K, tails.d_v, axis=0), np.tile(tails.K, (heads.d_v, 1))])
    columns = {tuple(k): c for k, c in zip(products.tolist(), L.reshape(M.m, -1).T)}
    gathered = np.column_stack([columns.pop(tuple(k)) for k in M.K.K.tolist()])
    assert not any(c.any() for c in columns.values())
    return gathered.reshape(M.m, M.K.d_v)


def within_rounding(got: np.ndarray, M: MonomialMap, X: np.ndarray) -> bool:
    """``got`` is ``L @ V`` within ``4 d_v eps (|L| @ |V|)``, ``V = build_data_matrix(X)``."""
    V = build_data_matrix(X, M.K)
    bound = 4 * M.K.d_v * np.finfo(float).eps * (np.abs(M.L) @ np.abs(V))
    return bool((np.abs(got - M.L @ V) <= bound).all())


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
        # This map is split, so its blocks are the split's, not L @ its lifting.
        K = enumerate_power_matrix(10, (1,) * 10, max_degree=5)
        assert K.d_v > 512 and block_columns(K.d_v) == 2 * K.d_v
        M = MonomialMap(rng.standard_normal((3, K.d_v)), K)
        assert M.split.h > 0
        X = rng.uniform(-1.0, 1.0, (10, 5000))
        got = eval_monomial_map_many(M, X)
        assert np.array_equal(got, split_blockwise(M, X))
        assert within_rounding(got, M, X)

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


def past_box_map(rng, rows: int = 244, m: int = 3) -> MonomialMap:
    """A map on ``rows`` of the 256-monomial box of 8 variables with ``k_max`` 1, like a past lifting."""
    K = enumerate_power_matrix(8, (1,) * 8).select_rows(np.arange(256 - rows, 256))
    return MonomialMap(rng.standard_normal((m, K.d_v)), K)


class TestSplitEvaluation:
    """A map over a box of monomials is evaluated as ``sum_p a_p(x[:h]) * (L_p @ b(x[h:]))``."""

    @pytest.mark.parametrize("s", [1, 7, 1024, 1025, 3000])
    def test_random_box_subsets_agree_with_the_lifting(self, s):
        rng = np.random.default_rng(s)
        splits = 0
        for _ in range(25):
            n = int(rng.integers(2, 8))
            k_max = tuple(int(k) for k in rng.integers(0, 3, n))
            box = enumerate_power_matrix(n, k_max)
            keep = np.flatnonzero(rng.random(box.d_v) < rng.uniform(0.5, 1.0))
            K = box.select_rows(keep if keep.size else [0])
            M = MonomialMap(rng.standard_normal((int(rng.integers(1, 5)), K.d_v)), K)
            X = rng.uniform(-1.5, 1.5, (n, s))
            got = eval_monomial_map_many(M, X)
            assert within_rounding(got, M, X)
            if M.split.h:
                splits += 1
                assert np.array_equal(scattered_coefficients(M), M.L)
                assert np.array_equal(got, split_blockwise(M, X))
            else:  # the map's own bits
                assert np.array_equal(got, TestBlockedEvaluation.blockwise(M, X))
        assert 0 < splits < 25

    @pytest.mark.parametrize("s", [1, 1025, 2049])
    def test_one_column_blocks_are_the_split_bit_for_bit(self, rng, s):
        M = past_box_map(rng)
        X = rng.uniform(-1.0, 1.0, (8, s))
        got = eval_monomial_map_many(M, X)
        assert np.array_equal(got, split_blockwise(M, X))
        assert np.array_equal(got[:, -1:], split_block(M, X[:, -1:]))
        assert within_rounding(got, M, X)

    def test_the_past_box_splits_after_three_variables(self, rng):
        M = past_box_map(rng)
        h, heads, tails, L = M.split
        assert (h, heads.d_v, tails.d_v, L.shape) == (3, 8, 32, (3 * 8, 32))
        assert np.array_equal(heads.K, enumerate_power_matrix(3, (1,) * 3).K)
        assert np.array_equal(tails.K, enumerate_power_matrix(5, (1,) * 5).K)
        # 12 of the 256 products are not monomials of the map: their coefficients are zero.
        assert np.array_equal(scattered_coefficients(M), M.L)

    @pytest.mark.parametrize(
        "M",
        [
            MonomialMap(np.ones((2, 16)), enumerate_power_matrix(4, (1,) * 4)),
            MonomialMap(np.eye(8), identity_power_matrix(8)),
            MonomialMap(
                np.ones((3, 4)),
                PowerMatrix.from_rows([(1, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0)]),
            ),
            MonomialMap(np.ones((1, 1)), identity_power_matrix(1)),
            MonomialMap(np.zeros((2, 0)), PowerMatrix(np.zeros((0, 3), dtype=int), (0, 0, 0))),
            # Large enough to plan: its one admissible split, after x1, has a work of 44 > 40 / 2.
            MonomialMap(np.ones((1, 40)), identity_power_matrix(40)),
        ],
        ids=["16-row-box", "identity", "4-row-f_o", "one-variable", "no-monomials", "40-coordinates"],
    )
    def test_maps_without_a_cheap_split_stay_unsplit(self, M):
        h, heads, tails, L = M.split
        assert h == 0 and heads is None and tails is M.K and L is M.L

    @pytest.mark.parametrize("s", [1, 1025])
    def test_a_map_without_monomials_is_zero(self, s):
        M = MonomialMap(np.zeros((2, 0)), PowerMatrix(np.zeros((0, 3), dtype=int), (0, 0, 0)))
        assert np.array_equal(eval_monomial_map_many(M, np.ones((3, s))), np.zeros((2, s)))

    @pytest.mark.parametrize("s", [1, 1025])
    def test_a_map_without_outputs_has_no_rows(self, rng, s):
        M = past_box_map(rng, m=0)
        assert M.split.h > 0
        assert eval_monomial_map_many(M, rng.uniform(-1.0, 1.0, (8, s))).shape == (0, s)

    @pytest.mark.parametrize("m", [3, 40], ids=["split", "unsplit"])
    def test_the_chain_caps_raise_as_for_the_map_itself(self, rng, monkeypatch, m):
        # x8^40 needs 38 auxiliary rows x8^2 .. x8^39, in the map's chain and in its tails'.
        box = enumerate_power_matrix(8, (1,) * 8).K
        K = PowerMatrix.from_rows(np.vstack([box, [0] * 7 + [40]]), (1,) * 7 + (40,))
        M = MonomialMap(rng.standard_normal((m, K.d_v)), K)
        assert (M.split.h > 0) == (m == 3)
        X = rng.uniform(-1.0, 1.0, (8, 5))
        monkeypatch.setattr(monomials, "AUX_CELL_CAP", 38 * 5 - 1)
        with pytest.raises(CapacityError) as err:
            eval_monomial_map_many(M, X)
        assert str(err.value) == (
            "the product chain needs at least 38 auxiliary rows for 5 samples, more than 189 cells"
        )
        monkeypatch.setattr(monomials, "DEFAULT_ROW_CAP", 10)
        M = MonomialMap(M.L, PowerMatrix(K.K, K.k_max))  # nothing planned
        with pytest.raises(CapacityError) as err:
            eval_monomial_map_many(M, X)
        assert str(err.value) == (
            "the product chain needs more than 10 auxiliary rows (largest exponent 40)"
        )


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
