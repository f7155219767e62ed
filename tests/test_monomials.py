"""Power-vector combinatorics and monomial evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polysid import (
    CapacityError,
    InvalidInputError,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    eval_monomial_vector,
    lex_compare,
    partition_power_matrix,
)
from polysid.monomials import merge_power_matrices, monomial_name

APPENDIX_K = np.array([[2, 1], [2, 0], [1, 1], [1, 0], [0, 1], [0, 0]])


def appendix_matrix() -> PowerMatrix:
    return PowerMatrix(APPENDIX_K, (2, 1))


class TestLexCompare:
    def test_examples(self):
        assert lex_compare((2, 1), (2, 0)) == 1
        assert lex_compare((1, 0), (1, 0)) == 0
        assert lex_compare((1, 3), (2, 0)) == -1

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            lex_compare((1, 2), (1, 2, 3))

    def test_total_order_properties(self, rng):
        vecs = rng.integers(0, 4, size=(60, 3))
        for _ in range(300):
            a, b, c = vecs[rng.integers(0, 60, size=3)]
            ab = lex_compare(a, b)
            # antisymmetry
            assert ab == -lex_compare(b, a)
            # totality: equal iff identical
            assert (ab == 0) == bool(np.array_equal(a, b))
            # transitivity
            if ab >= 0 and lex_compare(b, c) >= 0:
                assert lex_compare(a, c) >= 0

    def test_matches_tuple_order(self, rng):
        for _ in range(200):
            a = tuple(rng.integers(0, 5, size=4))
            b = tuple(rng.integers(0, 5, size=4))
            # The oracle compares Python ints: comparing tuples of numpy ints
            # yields numpy bools, which numpy refuses to subtract.
            # lex_compare still gets the numpy-int tuples.
            pa, pb = tuple(map(int, a)), tuple(map(int, b))
            expected = (pa > pb) - (pa < pb)
            assert lex_compare(a, b) == expected


class TestEnumerate:
    def test_reference_example(self):
        pm = enumerate_power_matrix(2, (2, 1))
        assert pm.d_v == 6
        assert np.array_equal(pm.K, APPENDIX_K)

    def test_single_constant(self):
        pm = enumerate_power_matrix(1, (0,))
        assert pm.d_v == 1
        assert np.array_equal(pm.K, [[0]])

    def test_three_binary_variables(self):
        pm = enumerate_power_matrix(3, (1, 1, 1))
        assert pm.d_v == 8
        assert tuple(pm.K[0]) == (1, 1, 1)
        assert tuple(pm.K[-1]) == (0, 0, 0)

    def test_sorting_is_fixed_point(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k_max = tuple(int(v) for v in rng.integers(0, 3, size=n))
            pm = enumerate_power_matrix(n, k_max)
            resorted = sorted((tuple(r) for r in pm.K), reverse=True)
            assert [tuple(r) for r in pm.K] == resorted

    def test_row_count(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            k_max = tuple(int(v) for v in rng.integers(0, 3, size=n))
            pm = enumerate_power_matrix(n, k_max)
            assert pm.d_v == math.prod(k + 1 for k in k_max)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            enumerate_power_matrix(4, (9, 9, 9, 9), cap=1000)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            enumerate_power_matrix(0, ())
        with pytest.raises(InvalidInputError):
            enumerate_power_matrix(2, (1,))
        with pytest.raises(InvalidInputError):
            enumerate_power_matrix(1, (-1,))
        with pytest.raises(InvalidInputError):
            enumerate_power_matrix(2, (1, 1), max_degree=-1)

    @pytest.mark.parametrize(
        "k_max",
        [(0,), (3,), (1, 1), (2, 1), (0, 3), (1, 1, 1), (2, 0, 3), (1, 2, 1, 1),
         (3, 1, 0, 2, 1)],
    )
    def test_degree_bound_equals_filtered_box(self, k_max):
        full = enumerate_power_matrix(len(k_max), k_max)
        for max_degree in range(sum(k_max) + 3):
            pm = enumerate_power_matrix(len(k_max), k_max, max_degree=max_degree)
            expected = full.K[full.row_degrees() <= max_degree]
            assert np.array_equal(pm.K, expected)
            assert pm.k_max == full.k_max

    def test_degree_bound_avoids_the_box(self):
        # The full box has 2**24 rows, far above the default cap; the
        # degree-2 set has 1 + 24 + C(24, 2) = 301.
        pm = enumerate_power_matrix(24, (1,) * 24, max_degree=2)
        assert pm.d_v == 301
        assert (pm.row_degrees() <= 2).all()

    def test_capacity_checks_true_count(self):
        # 1 + 5 + 15 = 21 rows of degree <= 2 over (2,)*5; the box has 243.
        assert enumerate_power_matrix(5, (2,) * 5, cap=21, max_degree=2).d_v == 21
        with pytest.raises(CapacityError):
            enumerate_power_matrix(5, (2,) * 5, cap=20, max_degree=2)
        with pytest.raises(CapacityError):
            enumerate_power_matrix(1, (50,), cap=20)


class TestPowerMatrixInvariants:
    def test_rejects_duplicate_rows(self):
        with pytest.raises(InvalidInputError):
            PowerMatrix(np.array([[1, 0], [1, 0]]), (1, 0))

    def test_rejects_increasing_order(self):
        with pytest.raises(InvalidInputError):
            PowerMatrix(np.array([[0, 1], [1, 0]]), (1, 1))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            PowerMatrix(np.array([[1, -1]]), (1, 1))

    def test_rejects_bound_violation(self):
        with pytest.raises(InvalidInputError):
            PowerMatrix(np.array([[3, 0]]), (2, 1))

    def test_from_rows_sorts_and_dedups(self):
        pm = PowerMatrix.from_rows([(0, 0), (1, 1), (0, 0), (1, 0)])
        assert [tuple(r) for r in pm.K] == [(1, 1), (1, 0), (0, 0)]

    def test_empty_matrix_is_allowed(self):
        pm = PowerMatrix(np.zeros((0, 3), dtype=int), (1, 1, 1))
        assert pm.d_v == 0 and pm.n == 3


class TestEvalMonomialVector:
    def test_reference_point(self):
        v = eval_monomial_vector(np.array([2.0, 3.0]), appendix_matrix())
        assert np.array_equal(v, [12.0, 4.0, 6.0, 2.0, 3.0, 1.0])

    def test_constant_row(self):
        pm = PowerMatrix(np.zeros((1, 3), dtype=int), (0, 0, 0))
        assert eval_monomial_vector([5.0, -2.0, 0.0], pm) == pytest.approx([1.0])

    def test_identity_reproduces_input(self):
        pm = PowerMatrix(np.eye(2, dtype=int), (1, 1))
        assert np.array_equal(eval_monomial_vector([5.0, 7.0], pm), [5.0, 7.0])

    def test_zero_to_the_zero(self):
        v = eval_monomial_vector([0.0, 0.0], appendix_matrix())
        assert np.array_equal(v, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            eval_monomial_vector([1.0], appendix_matrix())

    def test_nonfinite_input(self):
        with pytest.raises(InvalidInputError):
            eval_monomial_vector([np.inf, 1.0], appendix_matrix())

    def test_multiplicativity(self, rng):
        pm = enumerate_power_matrix(3, (2, 2, 2))
        rows = pm.K
        for _ in range(200):
            i, j = rng.integers(0, pm.d_v, size=2)
            combined = rows[i] + rows[j]
            if (combined > 4).any():
                continue
            big = PowerMatrix(combined[None, :], (4, 4, 4))
            x = rng.uniform(-2, 2, size=3)
            lhs = eval_monomial_vector(x, big)[0]
            rhs = (
                eval_monomial_vector(x, pm.select_rows([i]))[0]
                * eval_monomial_vector(x, pm.select_rows([j]))[0]
            )
            assert lhs == pytest.approx(rhs, rel=8 * np.finfo(float).eps)

    def test_stacked_equals_concatenation(self, rng):
        pm = enumerate_power_matrix(2, (2, 2))
        top = pm.select_rows(range(0, 4))
        bottom = pm.select_rows(range(4, 9))
        x = rng.uniform(-1.5, 1.5, size=2)
        stacked = np.concatenate(
            [eval_monomial_vector(x, top), eval_monomial_vector(x, bottom)]
        )
        assert np.array_equal(stacked, eval_monomial_vector(x, pm))


class TestBuildDataMatrix:
    def test_single_column(self):
        V = build_data_matrix([[2.0, 3.0]], appendix_matrix())
        assert V.shape == (6, 1)
        assert np.array_equal(V[:, 0], [12.0, 4.0, 6.0, 2.0, 3.0, 1.0])

    def test_constant_row_gives_ones(self, rng):
        pm = PowerMatrix(np.zeros((1, 2), dtype=int), (0, 0))
        V = build_data_matrix(rng.standard_normal((7, 2)), pm)
        assert np.array_equal(V, np.ones((1, 7)))

    def test_identity_power_matrix(self):
        pm = PowerMatrix(np.eye(2, dtype=int), (1, 1))
        V = build_data_matrix([[1.0, 0.0], [0.0, 1.0]], pm)
        assert np.array_equal(V, np.eye(2))

    def test_columns_match_pointwise_eval(self, rng):
        pm = enumerate_power_matrix(3, (1, 2, 1))
        X = rng.uniform(-2, 2, size=(9, 3))
        V = build_data_matrix(X, pm)
        for j in range(9):
            assert np.array_equal(V[:, j], eval_monomial_vector(X[j], pm))

    def test_empty_samples(self):
        with pytest.raises(InvalidInputError):
            build_data_matrix(np.zeros((0, 2)), appendix_matrix())


class TestPartition:
    def test_reference_split(self):
        blocks = partition_power_matrix(appendix_matrix(), 3)
        assert len(blocks) == 2
        assert {tuple(r) for r in blocks[0].K} == {(0, 0), (0, 1), (1, 0)}
        assert {tuple(r) for r in blocks[1].K} == {(1, 1), (2, 0), (2, 1)}

    def test_large_limit_single_block(self):
        blocks = partition_power_matrix(appendix_matrix(), 6)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0].K, APPENDIX_K)

    def test_unit_limit_singletons_ascending(self):
        blocks = partition_power_matrix(appendix_matrix(), 1)
        rows = [tuple(b.K[0]) for b in blocks]
        assert rows == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_partition_is_permutation(self, rng):
        pm = enumerate_power_matrix(3, (2, 1, 2))
        for limit in (1, 4, 7, 100):
            blocks = partition_power_matrix(pm, limit)
            assert all(b.d_v <= limit for b in blocks)
            combined = sorted(tuple(r) for b in blocks for r in b.K)
            assert combined == sorted(tuple(r) for r in pm.K)

    def test_blocks_keep_descending_order(self):
        for block in partition_power_matrix(appendix_matrix(), 4):
            rows = [tuple(r) for r in block.K]
            assert rows == sorted(rows, reverse=True)

    def test_bad_limit(self):
        with pytest.raises(InvalidInputError):
            partition_power_matrix(appendix_matrix(), 0)


def test_merge_power_matrices():
    a = PowerMatrix(np.array([[1, 0], [0, 0]]), (1, 1))
    b = PowerMatrix(np.array([[1, 1], [1, 0]]), (1, 1))
    merged = merge_power_matrices(a, b)
    assert [tuple(r) for r in merged.K] == [(1, 1), (1, 0), (0, 0)]


def test_monomial_name():
    assert monomial_name((1, 1, 1), ["x1", "x2", "y"]) == "x1*x2*y"
    assert monomial_name((2, 0, 1), ["x1", "x2", "y"]) == "x1^2*y"
    assert monomial_name((0, 0, 0), ["x1", "x2", "y"]) == "1"
