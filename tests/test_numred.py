"""Truncation and reduction kernels against hand oracles."""

from __future__ import annotations

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import lapack_lite

from polysid import (
    DimensionMismatchError,
    InvalidInputError,
    NumericalOverflowError,
    PowerMatrix,
    TruncationTable,
    lk_reduce,
    mdtrunc,
    svd_trunc,
)
from polysid.monomials import enumerate_power_matrix
from polysid.numred import RRR_CUT, SINGULAR_VALUE_EPS, svd_trunc_chunks


def brute_force_n_r(D, r) -> int:
    """Independent cumulative-fraction oracle."""
    total = sum(D)
    acc = 0.0
    for j, d in enumerate(D, start=1):
        acc += d
        if acc / total >= r:
            return j
    return len(D)


class TestMdtrunc:
    def test_table_value_equality(self):
        table = TruncationTable([0.5, 1.0])
        assert table == TruncationTable(np.array([0.5, 1.0]))
        assert table == mdtrunc([1.0, 1.0], 0.5)[2]
        assert table != TruncationTable([0.6, 1.0])
        assert table != TruncationTable([1.0])
        with pytest.raises(TypeError):
            hash(table)

    def test_table_copies_the_fractions(self):
        fractions = np.array([0.5, 1.0])
        table = TruncationTable(fractions)
        assert fractions.flags.writeable
        assert not table.fractions.flags.writeable
        fractions[0] = 0.25
        assert table == TruncationTable([0.5, 1.0])

    def test_svd_result_value_equality(self, rng):
        res = svd_trunc(rng.standard_normal((3, 20)), rng.standard_normal((4, 20)), 0.99)
        assert res == copy.deepcopy(res)
        assert res != dataclasses.replace(res, C=res.C + 1e-12)
        assert res != dataclasses.replace(res, n=res.n + 1)
        with pytest.raises(TypeError):
            hash(res)

    def test_hand_example(self):
        n_r, D_r, table = mdtrunc([3.0, 1.0, 0.5, 0.5], 0.8)
        assert n_r == 2
        assert np.array_equal(D_r, [3.0, 1.0, 0.0, 0.0])
        assert table.fractions == pytest.approx([0.6, 0.8, 0.9, 1.0])

    def test_single_entry(self):
        for r in (0.001, 0.5, 0.999):
            n_r, D_r, _ = mdtrunc([4.2], r)
            assert n_r == 1
            assert np.array_equal(D_r, [4.2])

    def test_flat_diagonal(self):
        n_r, _, table = mdtrunc([1.0, 1.0, 1.0, 1.0], 0.5)
        assert n_r == 2
        assert table.fractions == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_final_fraction_is_one(self, rng):
        for _ in range(50):
            D = np.sort(rng.random(int(rng.integers(1, 9))))[::-1]
            _, _, table = mdtrunc(D, float(rng.uniform(0.01, 0.99)))
            assert abs(table.fractions[-1] - 1.0) <= 8 * math.ulp(1.0)

    def test_minimality_against_oracle(self, rng):
        for _ in range(500):
            length = int(rng.integers(1, 9))
            D = np.sort(rng.random(length))[::-1]
            if rng.random() < 0.3 and length > 1:
                D[-1] = 0.0
            r = float(rng.uniform(0.01, 0.99))
            n_r, _, _ = mdtrunc(D, r)
            assert n_r == brute_force_n_r(D, r)

    def test_monotone_in_r(self, rng):
        for _ in range(100):
            D = np.sort(rng.random(6))[::-1]
            r1, r2 = sorted(rng.uniform(0.01, 0.99, size=2))
            assert mdtrunc(D, r1)[0] <= mdtrunc(D, r2)[0]

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidInputError):
            mdtrunc([0.0, 0.0], 0.5)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            mdtrunc([1.0, 2.0], 0.5)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            mdtrunc([1.0, -0.1], 0.5)

    def test_rejects_bad_threshold(self):
        for r in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInputError):
                mdtrunc([1.0], r)

    def test_table_text_format(self):
        _, _, table = mdtrunc([2.0, 1.0, 1.0], 0.5)
        lines = table.to_text().splitlines()
        assert lines[0].split() == ["1", "0.5"]
        assert lines[-1].split() == ["3", "1"]


class TestSvdTrunc:
    def test_identity_input(self, rng):
        V_y = rng.standard_normal((3, 5))
        res = svd_trunc(V_y, np.eye(5), 0.999)
        assert res.n == 5
        assert res.H_star == pytest.approx(V_y, abs=1e-12)
        assert res.H_star @ np.eye(5) - V_y == pytest.approx(np.zeros((3, 5)), abs=1e-12)

    def test_zero_numerator(self):
        res = svd_trunc(np.zeros((2, 4)), np.eye(4), 0.9)
        assert np.array_equal(res.H_star, np.zeros((2, 4)))
        assert np.array_equal(res.C, np.zeros((2, res.n)))

    def test_rank_one_example(self):
        V_u = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = svd_trunc(V_u, V_u, 0.9)
        assert res.n == 1
        # independent oracle: full pseudoinverse of the rank-1 matrix
        H_oracle = V_u @ np.linalg.pinv(V_u)
        assert res.H_star == pytest.approx(H_oracle, abs=1e-12)
        assert res.H_star @ V_u == pytest.approx(V_u, abs=1e-10)

    def test_row_space_exactness(self, rng):
        for _ in range(25):
            d_vu, s, k = 8, 14, int(rng.integers(1, 5))
            V_u = rng.standard_normal((d_vu, k)) @ rng.standard_normal((k, s))
            V_y = rng.standard_normal((5, d_vu)) @ V_u
            res = svd_trunc(V_y, V_u, 1 - 1e-12)
            err = np.linalg.norm(V_y - res.H_star @ V_u) / np.linalg.norm(V_y)
            assert err <= 1e-8

    def test_factor_identities(self, rng):
        for _ in range(25):
            V_y = rng.standard_normal((4, 10))
            V_u = rng.standard_normal((6, 10))
            res = svd_trunc(V_y, V_u, float(rng.uniform(0.3, 0.99)))
            rel = np.linalg.norm(res.H_star - res.C @ res.L) / max(
                np.linalg.norm(res.H_star), 1e-300
            )
            assert rel <= 1e-10
            assert res.D_n.shape == (res.n,)
            assert (res.D_n > 0).all()
            assert (np.diff(res.D_n) <= 0).all()

    def test_truncation_uses_mass_fraction(self):
        # singular values 3, 1 with r = 0.7: first covers 0.75 >= 0.7
        V_u = np.diag([3.0, 1.0]) @ np.eye(2, 6)
        res = svd_trunc(np.eye(2, 6).copy(), V_u, 0.7)
        assert res.n == 1

    @pytest.mark.parametrize(
        "d_vu, s, rank",
        [(12, 40, 12), (15, 15, 15), (40, 12, 12), (12, 40, 5)],
        ids=["wide", "square", "tall", "wide-rank-deficient"],
    )
    def test_matches_reference_svd(self, rng, d_vu, s, rank):
        V_u = rng.standard_normal((d_vu, rank)) @ rng.standard_normal((rank, s))
        V_y = rng.standard_normal((4, s))
        r = 0.9
        U, sv, Vt = np.linalg.svd(V_u, full_matrices=False)
        n1 = int(np.sum(sv > SINGULAR_VALUE_EPS * max(V_u.shape) * sv[0]))
        n = mdtrunc(sv[:n1], r)[0]
        H_ref = V_y @ Vt[:n].T @ np.diag(1.0 / sv[:n]) @ U[:, :n].T

        res = svd_trunc(V_y, V_u, r)
        assert n1 == rank
        assert res.n == n
        assert res.D_n == pytest.approx(sv[:n], rel=1e-12)
        scale = np.linalg.norm(H_ref)
        assert np.linalg.norm(res.H_star - H_ref) <= 1e-10 * scale
        assert np.linalg.norm(res.C @ res.L - H_ref) <= 1e-10 * scale
        signs = np.sign(np.sum(res.L * U[:, :n].T, axis=1))
        assert np.abs(signs).min() == 1.0
        assert res.L == pytest.approx(signs[:, None] * U[:, :n].T, abs=1e-9)

    def test_rejects_zero_matrix(self):
        with pytest.raises(InvalidInputError):
            svd_trunc(np.ones((2, 3)), np.zeros((4, 3)), 0.5)

    def test_rejects_column_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            svd_trunc(np.ones((2, 3)), np.ones((2, 4)), 0.5)

    def test_singular_value_overflowing_when_squared_raises(self):
        # D_n**2 overflows: dividing by it would give C = 0, not about 4.3e-161.
        with pytest.raises(NumericalOverflowError, match="^the singular value 3.74e"):
            svd_trunc(np.ones((1, 3)), np.array([[1e160, 2e160, 3e160]]), 0.5)
        res = svd_trunc(np.ones((1, 3)), np.array([[1e150, 2e150, 3e150]]), 0.5)
        assert res.H_star[0, 0] == pytest.approx(6e150 / 14e300, rel=1e-12)

    @pytest.mark.parametrize(
        "V_y, V_u, name",
        [
            # G = 6e310 overflows, where the coefficient, about 4.3e289, does not.
            ([[1e300] * 3], [[1e10, 2e10, 3e10]], "G = V_y V_u.T"),
            # The norm of V_u's row, 2.6e308, overflows inside the QR.
            ([[0.0] * 3], [[1.5e308] * 3], "R, the triangular factor of V_u.T,"),
            # G = 6e250 and D_n**2 = 1.4e-199 are finite; C = 4.3e449 is not.
            ([[1e250] * 3], [[1e-100, 2e-100, 3e-100]], "the map H* = C L"),
        ],
        ids=["G", "R", "C"],
    )
    def test_non_finite_factor_raises_without_warning(self, V_y, V_u, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError) as err:
                svd_trunc(np.array(V_y), np.array(V_u), 0.5)
        assert str(err.value) == f"{name} overflows; rescale V_y or V_u"


def r_svd_oracle(R, G, columns, r):
    """The R-SVD of ``svd_trunc_chunks`` from the factor ``R`` of ``V_u.T`` and ``G = V_y V_u.T``."""
    U, sv, _ = np.linalg.svd(R.T, full_matrices=False)
    n1 = int(np.sum(sv > SINGULAR_VALUE_EPS * max(R.shape[1], columns) * sv[0]))
    n, _, table = mdtrunc(sv[:n1], r)
    C = G @ (U[:, :n] / (sv[:n] ** 2)[None, :])
    return n, sv[:n], C, U[:, :n].T, C @ U[:, :n].T, table


def whole_matrix_oracle(V_y, V_u, r):
    """The unchunked R-SVD: one QR of the whole ``V_u.T``, ``C`` from ``V_y V_u.T``."""
    return r_svd_oracle(np.linalg.qr(V_u.T, mode="r"), V_y @ V_u.T, V_u.shape[1], r)


def sequential_qr_oracle(chunks, r):
    """The sequential TSQR through ``np.linalg.qr``: ``R = qr([R; V_u,c.T])`` per chunk."""
    R, G, columns = None, None, 0
    for V_y, V_u in chunks:
        R = np.linalg.qr(V_u.T if R is None else np.vstack([R, V_u.T]), mode="r")
        G = V_y @ V_u.T if G is None else G + V_y @ V_u.T
        columns += V_u.shape[1]
    return r_svd_oracle(R, G, columns, r)


def geqrf_r(A, lda):
    """``R`` of ``A`` (``m x n``) from ``lapack_lite.dgeqrf`` on a ``(n, lda)`` C-ordered buffer."""
    m, n = A.shape
    buf = np.full((n, lda), np.nan)
    buf[:, :m] = A.T
    tau, query = np.empty(n), np.empty(1)
    assert lapack_lite.dgeqrf(m, n, buf, lda, tau, query, -1, 0)["info"] == 0
    work = np.empty(max(1, n, int(query[0])))
    assert lapack_lite.dgeqrf(m, n, buf, lda, tau, work, work.size, 0)["info"] == 0
    return np.triu(buf[:, : min(m, n)].T)


def split(V_y, V_u, widths):
    edges = np.cumsum([0, *widths])
    assert edges[-1] == V_u.shape[1]
    return [(V_y[:, a:b], V_u[:, a:b]) for a, b in zip(edges[:-1], edges[1:])]


#: Chunk widths of 200 columns of 12 rows.  In "first-narrower-than-d_v",
#: "around-d_v" and "wider-later" a later chunk is wider than the first, so it
#: grows the workspace.
SPLITS = pytest.mark.parametrize(
    "widths",
    [[5, 95, 100], [1] * 200, [100, 100], [150, 40, 10], [11, 12, 177], [40, 160]],
    ids=["first-narrower-than-d_v", "single-columns", "halves", "uneven", "around-d_v",
         "wider-later"],
)


class TestInPlaceQR:
    """``numpy.linalg.lapack_lite.dgeqrf``, the private routine ``svd_trunc_chunks`` factors with.

    If a numpy release drops or changes the module, these fail by name.
    """

    def test_numpy_exposes_lapack_lite_dgeqrf(self):
        assert callable(lapack_lite.dgeqrf)

    @pytest.mark.parametrize(
        "m, n, lda",
        [(300, 12, 300), (5, 12, 5), (40, 12, 52), (5, 12, 17), (400, 160, 420)],
        ids=["tall", "wide", "tall-lda-above-m", "wide-lda-above-m", "blocked"],
    )
    def test_dgeqrf_gives_the_r_of_numpy_qr(self, rng, m, n, lda):
        A = rng.standard_normal((m, n))
        assert np.array_equal(geqrf_r(A, lda), np.linalg.qr(A, mode="r"))


class TestSvdTruncChunks:
    @pytest.mark.parametrize(
        "d_vu, s, rank", [(12, 200, 12), (12, 200, 5), (30, 90, 30)],
        ids=["full-rank", "rank-deficient", "few-columns"],
    )
    def test_single_chunk_is_the_whole_matrix_factorization(self, rng, d_vu, s, rank):
        V_u = rng.standard_normal((d_vu, rank)) @ rng.standard_normal((rank, s))
        V_y = rng.standard_normal((4, s))
        n, D_n, C, L, H_star, table = whole_matrix_oracle(V_y, V_u, 0.99)
        for res in (svd_trunc(V_y, V_u, 0.99), svd_trunc_chunks([(V_y, V_u)], 0.99)):
            assert res.n == n and res.table == table
            for got, want in [(res.D_n, D_n), (res.C, C), (res.L, L), (res.H_star, H_star)]:
                assert np.array_equal(got, want)

    @SPLITS
    @pytest.mark.parametrize("rank", [12, 7])
    def test_chunks_agree_with_one_factorization(self, rng, widths, rank):
        V_u = rng.standard_normal((12, rank)) @ rng.standard_normal((rank, 200))
        V_y = rng.standard_normal((3, 12)) @ V_u + 0.1 * rng.standard_normal((3, 200))
        whole = svd_trunc(V_y, V_u, 0.999)
        res = svd_trunc_chunks(split(V_y, V_u, widths), 0.999)
        assert res.n == whole.n and len(res.table) == len(whole.table)
        assert res.D_n == pytest.approx(whole.D_n, rel=1e-12)
        assert np.linalg.norm(res.H_star - whole.H_star) <= 1e-10 * np.linalg.norm(whole.H_star)

    @SPLITS
    @pytest.mark.parametrize("rank", [12, 7])
    def test_chunks_are_the_sequential_qr_bit_for_bit(self, rng, widths, rank):
        V_u = rng.standard_normal((12, rank)) @ rng.standard_normal((rank, 200))
        V_y = rng.standard_normal((3, 12)) @ V_u + 0.1 * rng.standard_normal((3, 200))
        chunks = split(V_y, V_u, widths)
        n, D_n, C, L, H_star, table = sequential_qr_oracle(chunks, 0.999)
        res = svd_trunc_chunks(chunks, 0.999)
        assert res.n == n and res.table == table
        for got, want in [(res.D_n, D_n), (res.C, C), (res.L, L), (res.H_star, H_star)]:
            assert np.array_equal(got, want)

    def test_blocked_factorization_is_the_sequential_qr_bit_for_bit(self, rng):
        # d_v = 160 is above LAPACK's crossover to the blocked dgeqrf, whose
        # block size the work size sets: a smaller work array changes the bits.
        V_u, V_y = rng.standard_normal((160, 700)), rng.standard_normal((2, 700))
        chunks = split(V_y, V_u, [400, 300])
        n, D_n, C, L, H_star, table = sequential_qr_oracle(chunks, 0.999)
        res = svd_trunc_chunks(chunks, 0.999)
        assert res.n == n and res.table == table
        for got, want in [(res.D_n, D_n), (res.C, C), (res.L, L), (res.H_star, H_star)]:
            assert np.array_equal(got, want)

    def test_chunks_are_read_once_in_order(self, rng):
        V_u, V_y = rng.standard_normal((4, 30)), rng.standard_normal((2, 30))
        seen = []

        def chunks():
            for c in split(V_y, V_u, [10, 10, 10]):
                seen.append(c[1])
                yield c

        res = svd_trunc_chunks(chunks(), 0.9)
        assert len(seen) == 3 and np.array_equal(np.hstack(seen), V_u)
        assert res.n == svd_trunc(V_y, V_u, 0.9).n

    def test_rejects_no_chunks_and_bad_chunks(self):
        with pytest.raises(InvalidInputError, match="identically zero"):
            svd_trunc_chunks([], 0.5)
        with pytest.raises(InvalidInputError, match="identically zero"):
            svd_trunc_chunks([(np.ones((2, 3)), np.zeros((4, 3)))] * 2, 0.5)
        good = (np.ones((2, 3)), np.ones((4, 3)))
        with pytest.raises(DimensionMismatchError):
            svd_trunc_chunks([good, (np.ones((2, 2)), np.ones((4, 3)))], 0.5)
        with pytest.raises(InvalidInputError, match="non-finite"):
            svd_trunc_chunks([good, (np.ones((2, 1)), np.full((4, 1), np.nan))], 0.5)
        with pytest.raises(InvalidInputError, match="threshold"):
            svd_trunc_chunks(iter(()), 1.0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # np.hstack's ValueError, before the rows were checked.
            ((2, 4), "chunk 2: V_y and V_u have 2 and 4 rows, chunk 1's have 2 and 3"),
            # Broadcast into G, giving a wrong result, before the rows were checked.
            ((1, 3), "chunk 2: V_y and V_u have 1 and 3 rows, chunk 1's have 2 and 3"),
        ],
        ids=["V_u", "V_y"],
    )
    def test_rejects_rows_differing_from_the_first_chunk(self, rng, rows, message):
        chunks = [(rng.random((2, 5)), rng.random((3, 5))),
                  (rng.random((rows[0], 5)), rng.random((rows[1], 5)))]
        with pytest.raises(DimensionMismatchError) as err:
            svd_trunc_chunks(chunks, 0.5)
        assert str(err.value) == message


class TestReducedRankCut:
    """``r=None``: the map is cut by its own rank, not by the mass of ``V_u``."""

    @staticmethod
    def planted(rng, rank, rows=6, d_vu=12, s=200):
        """A full-rank ``V_u`` and ``V_y = M V_u`` for a rank-``rank`` map ``M``."""
        M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d_vu))
        V_u = rng.standard_normal((d_vu, s))
        return M, M @ V_u, V_u

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_planted_rank_is_recovered(self, rng, rank):
        M, V_y, V_u = self.planted(rng, rank)
        res = svd_trunc(V_y, V_u, None)
        assert res.n == rank <= V_y.shape[0]
        assert np.linalg.norm(res.H_star - M) <= 1e-12 * np.linalg.norm(M)
        assert res.C.T @ res.C == pytest.approx(np.eye(rank), abs=1e-12)
        assert np.array_equal(res.H_star, res.C @ res.L)
        # The table is the mass of all of B's singular values; D_n their top n.
        assert len(res.table) == V_y.shape[0] and res.table.fractions[-1] == 1.0
        assert (res.D_n > RRR_CUT * res.D_n[0]).all()

    def test_rank_is_at_most_the_rows_of_V_y(self, rng):
        V_u = rng.standard_normal((12, 200))
        V_y = rng.standard_normal((4, 200))  # unrelated to V_u: every direction counts
        res = svd_trunc(V_y, V_u, None)
        assert res.n == 4
        # The rank-n fit of V_y by H V_u is the least-squares fit.
        H = V_y @ np.linalg.pinv(V_u)
        assert np.linalg.norm(res.H_star - H) <= 1e-12 * np.linalg.norm(H)

    @SPLITS
    def test_chunks_agree_with_one_factorization(self, rng, widths):
        _, V_y, V_u = self.planted(rng, 3)
        V_y = V_y + 1e-3 * rng.standard_normal(V_y.shape)
        whole = svd_trunc(V_y, V_u, None)
        res = svd_trunc_chunks(split(V_y, V_u, widths), None)
        assert res.n == whole.n and len(res.table) == len(whole.table)
        assert res.D_n == pytest.approx(whole.D_n, rel=1e-12)
        assert np.linalg.norm(res.H_star - whole.H_star) <= 1e-10 * np.linalg.norm(whole.H_star)

    def test_rejects_a_map_that_is_zero(self):
        with pytest.raises(InvalidInputError, match="^the fitted map is zero"):
            svd_trunc(np.zeros((2, 4)), np.eye(4), None)

    @pytest.mark.parametrize(
        "V_y, V_u, name",
        [
            # G = 1e299 is finite; B = G / |V_u| = 2.7e308 is not.
            ([[1.7e308] * 3], [[1e-10, 2e-10, 3e-10]], "B = G W, the whitened map,"),
            # B = 1.6e308 in each of two rows is finite; its norm, 2.3e308, is not.
            ([[1e308] * 3] * 2, [[0.1, 0.2, 0.3]], "B = G W, the whitened map,"),
            # G = 6e250 and B = 1.6e250 are finite; L = B / |V_u| = 4.3e349 is not.
            ([[1e250] * 3], [[1e-100, 2e-100, 3e-100]], "the map H* = C L"),
        ],
        ids=["B", "norm of B", "L"],
    )
    def test_non_finite_factor_raises_without_warning(self, V_y, V_u, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError) as err:
                svd_trunc(np.array(V_y), np.array(V_u), None)
        assert str(err.value) == f"{name} overflows; rescale V_y or V_u"


class TestLkReduce:
    def test_hand_example(self):
        L = np.array([[1.0, 0.001], [1.0, 0.001]])
        pm = PowerMatrix(np.array([[1, 0], [0, 1]]), (1, 1))
        L2, pm2, kept = lk_reduce(L, pm, 0.1)
        assert kept == [0]
        assert np.array_equal(L2, [[1.0], [1.0]])
        assert np.array_equal(pm2.K, [[1, 0]])

    def test_equal_columns_unchanged(self, rng):
        col = rng.standard_normal(3)
        L = np.column_stack([col, col, col])
        pm = PowerMatrix(np.array([[2, 0], [1, 0], [0, 1]]), (2, 1))
        for r in (0.1, 0.5, 0.99):
            L2, pm2, kept = lk_reduce(L, pm, r)
            assert kept == [0, 1, 2]
            assert np.array_equal(L2, L)
            assert np.array_equal(pm2.K, pm.K)

    def test_zero_column_always_deleted(self, rng):
        L = rng.standard_normal((3, 4))
        L[:, 2] = 0.0
        pm = enumerate_power_matrix(2, (1, 1))
        for r in (0.001, 0.3, 0.9):
            _, _, kept = lk_reduce(L, pm, r)
            assert 2 not in kept

    def test_idempotent(self, rng):
        for _ in range(50):
            L = rng.standard_normal((3, 6))
            pm = enumerate_power_matrix(2, (2, 1))
            r = float(rng.uniform(0.05, 0.9))
            L2, pm2, _ = lk_reduce(L, pm, r)
            L3, pm3, _ = lk_reduce(L2, pm2, r)
            assert np.array_equal(L2, L3)
            assert np.array_equal(pm2.K, pm3.K)

    def test_soundness_and_survival(self, rng):
        for _ in range(100):
            L = rng.standard_normal((2, 5)) * rng.random(5)[None, :]
            pm = PowerMatrix.from_rows(
                enumerate_power_matrix(3, (1, 1, 1)).K[:5], (1, 1, 1)
            )
            r = float(rng.uniform(0.05, 0.95))
            norms = np.abs(L).sum(axis=0)
            L2, _, kept = lk_reduce(L, pm, r)
            assert len(kept) >= 1
            assert int(np.argmax(norms)) in kept
            assert all(norms[j] > r * norms.max() for j in kept)

    def test_tie_is_deleted(self):
        # second column norm exactly r * max: the <= rule removes it
        L = np.array([[1.0, 0.5]])
        pm = PowerMatrix(np.array([[1, 0], [0, 1]]), (1, 1))
        _, _, kept = lk_reduce(L, pm, 0.5)
        assert kept == [0]

    def test_rejects_bad_threshold(self):
        pm = PowerMatrix(np.array([[1]]), (1,))
        for r in (0.0, 1.0, 2.0):
            with pytest.raises(InvalidInputError):
                lk_reduce(np.ones((1, 1)), pm, r)

    def test_rejects_all_zero_matrix(self):
        pm = PowerMatrix(np.array([[1]]), (1,))
        with pytest.raises(InvalidInputError):
            lk_reduce(np.zeros((2, 1)), pm, 0.5)

    def test_rejects_shape_mismatch(self):
        pm = PowerMatrix(np.array([[1, 0], [0, 1]]), (1, 1))
        with pytest.raises(DimensionMismatchError):
            lk_reduce(np.ones((2, 3)), pm, 0.5)
