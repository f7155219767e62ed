"""Power-vector combinatorics and monomial evaluation."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysid import (
    CapacityError,
    DimensionMismatchError,
    InvalidInputError,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
)
from polysid import TimeSeriesSet, predict_one_step, serialize_model
from polysid import monomials
from polysid.monomials import monomial_name

from conftest import random_model

APPENDIX_K = np.array([[2, 1], [2, 0], [1, 1], [1, 0], [0, 1], [0, 0]])


def appendix_matrix() -> PowerMatrix:
    return PowerMatrix(APPENDIX_K, (2, 1))


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

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 1000)
        with pytest.raises(CapacityError, match="10000 rows, exceeding the cap of 1000"):
            enumerate_power_matrix(4, (9, 9, 9, 9))

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
            expected = full.K[full.K.sum(axis=1) <= max_degree]
            assert np.array_equal(pm.K, expected)
            assert pm.k_max == full.k_max

    def test_degree_bound_avoids_the_box(self):
        # The full box has 2**24 rows, far above the default cap; the
        # degree-2 set has 1 + 24 + C(24, 2) = 301.
        pm = enumerate_power_matrix(24, (1,) * 24, max_degree=2)
        assert pm.d_v == 301
        assert (pm.K.sum(axis=1) <= 2).all()

    def test_capacity_checks_true_count(self, monkeypatch):
        # 1 + 5 + 15 = 21 rows of degree <= 2 over (2,)*5; the box has 243.
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 21)
        assert enumerate_power_matrix(5, (2,) * 5, max_degree=2).d_v == 21
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 20)
        with pytest.raises(CapacityError, match="21 rows, exceeding the cap of 20"):
            enumerate_power_matrix(5, (2,) * 5, max_degree=2)
        with pytest.raises(CapacityError, match="more than 50 rows, exceeding the cap of 20"):
            enumerate_power_matrix(1, (50,))


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

    @pytest.mark.parametrize(
        "K", [np.array([[True, False]]), np.array([[1.0, 0.0]])], ids=["bool", "integral-float"]
    )
    def test_rejects_exponents_of_another_dtype_than_integer(self, K):
        with pytest.raises(InvalidInputError, match="power matrix entries must be integers"):
            PowerMatrix(K, (1, 1))

    @pytest.mark.parametrize(
        "K", [[[True, 0]], [(1, 0), (0, np.True_)], ([0, 1], [False, 0])],
        ids=["bool", "numpy-bool", "false"],
    )
    def test_rejects_booleans_mixed_with_integers(self, K):
        # numpy reads each of these lists as an integer array.
        assert np.issubdtype(np.array(K).dtype, np.integer)
        with pytest.raises(InvalidInputError, match="^power matrix entries must be integers$"):
            PowerMatrix(K, (1, 1))

    @pytest.mark.parametrize(
        "rows",
        [[(1.5, 0), (True, 1)], [(True, False), (False, True)], [(1.0, 0), (0.0, 1.0)],
         [(True, 1)], [(0, 1), (np.True_, 0)]],
        ids=["fractional", "bool", "integral-float", "mixed-bool", "mixed-numpy-bool"],
    )
    def test_from_rows_rejects_exponents_the_constructor_rejects(self, rows):
        with pytest.raises(InvalidInputError, match="^power matrix entries must be integers$"):
            PowerMatrix.from_rows(rows)

    def test_from_rows_of_nothing_is_one_empty_row(self):
        for rows in ([], [()]):
            pm = PowerMatrix.from_rows(rows)
            assert pm.K.shape == (1, 0) and pm.K.dtype == np.int64

    def test_unsigned_exponents_beyond_int64_are_out_of_range(self):
        with pytest.raises(InvalidInputError, match="power matrix entries exceed the int64 range"):
            PowerMatrix(np.array([[2**63]], dtype=np.uint64), (2**63,))
        top = PowerMatrix(np.array([[2**63 - 1]], dtype=np.uint64), (2**63 - 1,))
        assert top.K.dtype == np.int64 and top.K[0, 0] == 2**63 - 1

    @pytest.mark.parametrize(
        "K, k_max",
        [
            (np.array([["a"]]), (1,)),
            (np.array([[1 + 0j]]), (1,)),
            (np.array([[np.inf]]), (1,)),
            (np.array([[1e19]]), (1,)),
            ([[1, 0], [1]], (1, 1)),
            (np.array([[1]]), ("a",)),
            (np.array([[1]]), 3),
        ],
    )
    def test_malformed_entries_raise_invalid_input(self, K, k_max):
        with pytest.raises(InvalidInputError):
            PowerMatrix(K, k_max)

    def test_value_equality_and_hash(self):
        pm = appendix_matrix()
        same = PowerMatrix(APPENDIX_K.copy(), (2, 1))
        assert pm == same and not pm != same
        assert hash(pm) == hash(same)
        assert {pm: 1}[same] == 1
        other_rows = PowerMatrix(APPENDIX_K[1:], (2, 1))
        other_bound = PowerMatrix(APPENDIX_K, (3, 1))
        # Same shape and bound as other_bound, one row different.
        other_entries = PowerMatrix(np.vstack([[[3, 1]], APPENDIX_K[:-1]]), (3, 1))
        for other in (other_rows, other_bound, other_entries):
            assert pm != other and not pm == other
        assert other_bound != other_entries
        assert len({pm, same, other_rows, other_bound, other_entries}) == 4
        assert pm != APPENDIX_K.tolist()


def eval_at(x, pm: PowerMatrix) -> np.ndarray:
    """The monomial vector at one point, through the batch evaluator."""
    return build_data_matrix(np.asarray(x)[:, None], pm)[:, 0]


class TestEvalMonomialVector:
    def test_reference_point(self):
        v = eval_at(np.array([2.0, 3.0]), appendix_matrix())
        assert np.array_equal(v, [12.0, 4.0, 6.0, 2.0, 3.0, 1.0])

    def test_constant_row(self):
        pm = PowerMatrix(np.zeros((1, 3), dtype=int), (0, 0, 0))
        assert eval_at([5.0, -2.0, 0.0], pm) == pytest.approx([1.0])

    def test_identity_reproduces_input(self):
        pm = PowerMatrix(np.eye(2, dtype=int), (1, 1))
        assert np.array_equal(eval_at([5.0, 7.0], pm), [5.0, 7.0])

    def test_zero_to_the_zero(self):
        v = eval_at([0.0, 0.0], appendix_matrix())
        assert np.array_equal(v, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            eval_at([1.0], appendix_matrix())

    def test_nonfinite_input(self):
        with pytest.raises(InvalidInputError):
            eval_at([np.inf, 1.0], appendix_matrix())

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
            lhs = eval_at(x, big)[0]
            rhs = (
                eval_at(x, pm.select_rows([i]))[0]
                * eval_at(x, pm.select_rows([j]))[0]
            )
            assert lhs == pytest.approx(rhs, rel=8 * np.finfo(float).eps)

    def test_stacked_equals_concatenation(self, rng):
        pm = enumerate_power_matrix(2, (2, 2))
        top = pm.select_rows(range(0, 4))
        bottom = pm.select_rows(range(4, 9))
        x = rng.uniform(-1.5, 1.5, size=2)
        stacked = np.concatenate(
            [eval_at(x, top), eval_at(x, bottom)]
        )
        assert np.array_equal(stacked, eval_at(x, pm))


class TestBuildDataMatrix:
    def test_single_column(self):
        V = build_data_matrix([[2.0], [3.0]], appendix_matrix())
        assert V.shape == (6, 1)
        assert np.array_equal(V[:, 0], [12.0, 4.0, 6.0, 2.0, 3.0, 1.0])

    def test_constant_row_gives_ones(self, rng):
        pm = PowerMatrix(np.zeros((1, 2), dtype=int), (0, 0))
        V = build_data_matrix(rng.standard_normal((2, 7)), pm)
        assert np.array_equal(V, np.ones((1, 7)))

    def test_identity_power_matrix(self):
        pm = PowerMatrix(np.eye(2, dtype=int), (1, 1))
        V = build_data_matrix([[1.0, 0.0], [0.0, 1.0]], pm)
        assert np.array_equal(V, np.eye(2))

    def test_columns_match_pointwise_eval(self, rng):
        pm = enumerate_power_matrix(3, (1, 2, 1))
        X = rng.uniform(-2, 2, size=(3, 9))
        V = build_data_matrix(X, pm)
        for j in range(9):
            assert np.array_equal(V[:, j], eval_at(X[:, j], pm))

    def test_any_memory_layout_gives_the_same_bits(self):
        # eval_chain reads the caller's array with its strides; it makes no copy.
        pm = enumerate_power_matrix(3, (2, 3, 2), max_degree=5)
        X = np.ascontiguousarray(draw_samples(5, 40, 3))
        views = [np.asfortranarray(X), X[:, ::2], np.ascontiguousarray(X.T).T]
        for view in views:
            assert not view.flags.c_contiguous
            assert np.array_equal(
                build_data_matrix(view, pm), build_data_matrix(np.ascontiguousarray(view), pm)
            )

    def test_samples_are_columns(self):
        with pytest.raises(InvalidInputError, match=r"samples must be 2-D, got \(2,\)"):
            build_data_matrix(np.array([2.0, 3.0]), appendix_matrix())
        with pytest.raises(DimensionMismatchError, match="sample dimension 5 does not match 2"):
            build_data_matrix(np.ones((5, 2)), appendix_matrix())

    def test_empty_samples(self):
        with pytest.raises(InvalidInputError):
            build_data_matrix(np.zeros((2, 0)), appendix_matrix())

    def test_workspace_is_reused_bit_for_bit(self, rng):
        # x1 x2^3 needs three auxiliary rows, so the workspace is taller than K.
        pm = PowerMatrix(np.array([[1, 3], [1, 0], [0, 1]]), (1, 3))
        W = monomials.data_matrix_workspace(pm, 7)
        assert W.shape == (pm.chain_plan[0], 7) and pm.chain_plan[0] > pm.d_v
        assert W.ctypes.data % 64 == 0 and W.flags.c_contiguous
        for _ in range(2):
            X = rng.standard_normal((2, 7))
            V = monomials.eval_chain(pm, X, W)
            assert np.shares_memory(V, W)
            assert np.array_equal(V, build_data_matrix(X, pm))

    @pytest.mark.parametrize(
        "samples",
        [
            [["a"], ["b"]],
            [[1.0], [2.0, 3.0]],
            [[1.0 + 2.0j], [3.0]],
            np.array([[1.0], [2.0]], dtype=complex),
            [[10**400], [1.0]],
            [[None], [1.0]],
        ],
    )
    def test_malformed_samples_raise_invalid_input(self, samples):
        with pytest.raises(InvalidInputError):
            build_data_matrix(samples, appendix_matrix())

    def test_auxiliary_cells_are_capped_before_allocation(self, monkeypatch):
        # x1 x2^3 is evaluated from x1, x1 x2 and x1 x2^2: three auxiliary rows.
        pm = PowerMatrix(np.array([[1, 3]]), (1, 3))
        assert pm.chain_plan[0] - pm.d_v == 3
        monkeypatch.setattr(monomials, "AUX_CELL_CAP", 12)
        assert np.array_equal(build_data_matrix(np.full((2, 4), 2.0), pm), np.full((1, 4), 16.0))
        empty = mock.patch.object(np, "empty", side_effect=AssertionError("allocated"))
        with empty, pytest.raises(CapacityError) as err:
            build_data_matrix(np.full((2, 5), 2.0), pm)
        assert str(err.value) == (
            "the product chain needs at least 3 auxiliary rows for 5 samples, more than 12 cells"
        )
        with empty, pytest.raises(CapacityError, match="3 auxiliary rows for 5 samples"):
            monomials.data_matrix_workspace(pm, 5)


def product_oracle(samples, pm: PowerMatrix) -> np.ndarray:
    """Each row's factors multiplied from left to right, starting from ones:
    every variable repeated by its exponent, in increasing variable order."""
    X = np.asarray(samples, dtype=float)
    V = np.ones((pm.d_v, X.shape[1]))
    for i, row in enumerate(pm.K.tolist()):
        for j, e in enumerate(row):
            for _ in range(e):
                V[i] *= X[j]
    return V


exact = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def power_matrices(draw, max_vars: int = 5):
    """Any set of rows with exponents up to 4: no constant row or parents needed."""
    n = draw(st.integers(1, max_vars))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), max_size=12))
    slack = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if not rows:
        return PowerMatrix(np.zeros((0, n), dtype=np.int64), tuple(slack))
    top = np.max(rows, axis=0)
    return PowerMatrix.from_rows(rows, tuple(int(t) + e for t, e in zip(top, slack)))


def draw_samples(seed: int, s: int, n: int) -> np.ndarray:
    """Generic floats ``(n, s)``: full mantissas, signs and magnitudes from 1e-3 to 10."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((s, n)) * 10.0 ** rng.uniform(-3, 1, size=(1, n))).T


class TestChainPlan:
    """The product chain against a naive left-to-right product, bit for bit."""

    @exact
    @given(power_matrices(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_matches_product_oracle(self, pm, s, seed):
        X = draw_samples(seed, s, pm.n)
        assert np.array_equal(build_data_matrix(X, pm), product_oracle(X, pm))

    def test_independent_of_batch_size(self):
        # 9000 samples exceed numpy's 8192-element buffer, beyond which
        # numpy's ``pow`` rounds squares differently than on short rows.
        pm = enumerate_power_matrix(3, (2, 3, 4), max_degree=5)
        X = draw_samples(9000, 9000, pm.n)
        V = build_data_matrix(X, pm)
        for k in range(X.shape[1]):
            assert np.array_equal(V[:, k], build_data_matrix(X[:, k : k + 1], pm)[:, 0])
        assert np.array_equal(V, product_oracle(X, pm))

    def test_empty_matrix(self):
        pm = PowerMatrix(np.zeros((0, 2), dtype=np.int64), (1, 1))
        assert build_data_matrix(np.ones((2, 3)), pm).shape == (0, 3)

    def test_exact_powers_and_signed_zero(self):
        pm = enumerate_power_matrix(2, (4, 4))
        edges = np.array([0.0, -0.0, 5e-324, 2.0**-1022, 1.0, -1.0, 2.0**200, -(2.0**-300)])
        X = np.vstack([edges, edges[::-1]])
        V = build_data_matrix(X, pm)
        oracle = product_oracle(X, pm)
        assert np.array_equal(V, oracle)
        assert np.array_equal(np.signbit(V), np.signbit(oracle))

    def test_missing_parents_become_auxiliary_rows(self):
        pm = PowerMatrix(np.array([[2, 1, 3]]), (2, 1, 3))
        rows, steps = pm.chain_plan
        # (2,1,3) <- (2,1,2) <- (2,1,1) <- (2,1,0) <- (2,0,0) <- (1,0,0)
        # <- constant: five auxiliary rows, one multiply by a variable each.
        assert rows == 6
        assert steps == [(5, -1, 0), (4, 5, 0), (3, 4, 1), (2, 3, 2), (1, 2, 2), (0, 1, 2)]
        x = np.array([[1.3], [-0.4], [2.2]])
        assert np.array_equal(build_data_matrix(x, pm), product_oracle(x, pm))

    def test_auxiliary_rows_beyond_the_cap_raise(self, monkeypatch):
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 10)
        # (6,5) has ten nonconstant ancestors, (6,6) eleven: only the second
        # passes the cap, found while scanning since no exponent exceeds it.
        assert PowerMatrix(np.array([[6, 5]]), (6, 6)).chain_plan[0] == 11
        with pytest.raises(CapacityError, match="more than 10 auxiliary rows"):
            PowerMatrix(np.array([[6, 6]]), (6, 6)).chain_plan

    def test_huge_exponent_fails_before_the_scan(self):
        pm = PowerMatrix(np.array([[2**62, 0], [0, 1]]), (2**62, 1))
        with pytest.raises(CapacityError, match="largest exponent 4611686018427387904"):
            pm.chain_plan

    def test_auxiliary_bound_is_checked_before_planning(self):
        # x1^(10^6) needs about 10^6 auxiliary rows; 5000 samples exceed the cap.
        # Planning that chain takes seconds, so the bound must fail first.
        pm = PowerMatrix(np.array([[10**6, 0], [1, 0], [0, 1]]), (10**6, 1))
        with pytest.raises(CapacityError, match="at least 999997 auxiliary rows for 5000"):
            build_data_matrix(np.ones((2, 5000)), pm)
        assert "chain_plan" not in vars(pm)

    def test_every_parent_precedes_its_children(self):
        pm = PowerMatrix.from_rows([(3, 0, 1), (1, 2, 2), (0, 0, 4), (0, 0, 0), (2, 2, 0)])
        rows, steps = pm.chain_plan
        done = set()
        for row, parent, _ in steps:
            assert parent < 0 or parent in done
            done.add(row)
        assert done == set(range(rows))

    def test_plan_is_not_a_field(self, rng):
        pm = enumerate_power_matrix(3, (2, 1, 2))
        twin = PowerMatrix(pm.K, pm.k_max)
        before = repr(pm)
        build_data_matrix(rng.standard_normal((3, 4)), pm)
        assert "chain_plan" in vars(pm) and "chain_plan" not in vars(twin)
        assert repr(pm) == before == repr(twin)
        assert pm == pm and [f.name for f in dataclasses.fields(pm)] == ["K", "k_max"]
        copy = dataclasses.replace(pm)
        assert "chain_plan" not in vars(copy)
        assert np.array_equal(copy.K, pm.K) and copy.k_max == pm.k_max
        # ``==`` compares the K arrays, which only a single entry makes a bool.
        one = PowerMatrix(np.array([[2]]), (3,))
        build_data_matrix(np.ones((1, 1)), one)
        assert one == PowerMatrix(np.array([[2]]), (3,))
        assert one != PowerMatrix(np.array([[2]]), (2,))

    def test_evaluation_leaves_serialized_model_unchanged(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        doc = serialize_model(model)
        Y = rng.standard_normal((6, model.d_y, 3))
        predict_one_step(model, TimeSeriesSet(Y), rng.standard_normal((model.n, 3)))
        assert "chain_plan" in vars(model.f_o.K)
        assert serialize_model(model) == doc


def test_monomial_name():
    assert monomial_name((1, 1, 1), ["x1", "x2", "y"]) == "x1*x2*y"
    assert monomial_name((2, 0, 1), ["x1", "x2", "y"]) == "x1^2*y"
    assert monomial_name((0, 0, 0), ["x1", "x2", "y"]) == "1"
