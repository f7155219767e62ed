"""Generator sets as monomial maps.

A :class:`MonomialMap` ``(L, K)`` represents the vector polynomial map
``x -> L @ x**K``; the identified state map ``g_io``, output map ``h_o`` and
dynamics map ``f_o`` are all monomial maps.  The paper's factorization
step, which rewrites generator components that are products of two others,
is not implemented: see :mod:`polysid.pipeline`.

A map over a box of monomials, such as the past lifting of ``g_io``, is a
polynomial over a Kronecker product of per-variable power lists (Van Loan
2000, J. Comput. Appl. Math. 123).  :func:`eval_monomial_map_many` splits
such a map's variables into a head and a tail and evaluates it as
``sum_p a_p(x_head) * (L_p @ b(x_tail))``, over the distinct heads ``a``
and tails ``b`` of its monomials, when that is at most half the work of
lifting every monomial.  The split map agrees with ``L @ x**K`` to rounding
only: each monomial is its head's value times its tail's, and the terms are
summed head by head.  An unsplit map keeps the bits of ``L @`` its lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._records import ArrayRecord, readonly_copy, real_array
from .errors import DimensionMismatchError
from .monomials import (
    PowerMatrix,
    aligned_empty,
    bind_chain,
    block_columns,
    build_data_matrix,  # noqa: F401  not called; the benchmark's tracer patches this name
    chain_rows,
    checked_samples,
    data_matrix_workspace,
    run_chain,
)


class SplitPlan(NamedTuple):
    """A map ``(L, K)`` as ``sum_p a_p(x[:h]) * (L_p @ b(x[h:]))``; see :attr:`MonomialMap.split`.

    Attributes:
        h: The number of head variables; 0 when the map is not split.
        heads: The distinct rows of ``K[:, :h]``, the monomials ``a``; None when ``h == 0``.
        tails: The distinct rows of ``K[:, h:]``, the monomials ``b``; ``K`` when ``h == 0``.
        L: ``(m * heads.d_v, tails.d_v)``: row ``j * heads.d_v + p`` holds
            ``L[j]`` at the tails of the monomials with head ``p``, and zeros;
            ``L`` when ``h == 0``.
    """

    h: int
    heads: PowerMatrix | None
    tails: PowerMatrix
    L: np.ndarray


@dataclass(frozen=True, eq=False)
class MonomialMap(ArrayRecord):
    """Vector polynomial map ``x -> L @ x**K``.

    Attributes:
        L: Coefficient matrix of shape ``(m, d_v)``; column ``j`` weights the
            monomial indexed by row ``j`` of ``K``.
        K: Power matrix over the ``n_vars`` input variables.

    A map with zero monomials (``d_v == 0``) is the canonical zero map.  Two
    maps are equal when their power matrices and coefficients are.  Raises
    InvalidInputError unless ``L`` is a 2-D array of finite real numbers with
    ``K.d_v`` columns.  The split :func:`eval_monomial_map_many` evaluates
    is planned from ``K`` and ``m`` on first use and cached as :attr:`split`.
    """

    L: np.ndarray
    K: PowerMatrix

    def __post_init__(self) -> None:
        L = readonly_copy(real_array(self.L, "coefficient matrix L", 2))
        if L.shape[1] != self.K.d_v:
            raise DimensionMismatchError(
                f"{L.shape[1]} coefficient columns vs {self.K.d_v} monomials"
            )
        object.__setattr__(self, "L", L)

    @property
    def n_vars(self) -> int:
        return self.K.n

    @property
    def m(self) -> int:
        """Output dimension."""
        return self.L.shape[0]

    def drop_zero_columns(self) -> "MonomialMap":
        """Remove monomials whose coefficient column is exactly zero."""
        keep = np.flatnonzero((self.L != 0.0).any(axis=0))
        if keep.size == self.K.d_v:
            return self
        return MonomialMap(self.L[:, keep], self.K.select_rows(keep))

    def is_nontrivial(self) -> bool:
        """True when no coefficient column is entirely zero."""
        return bool((self.L != 0.0).any(axis=0).all())

    @cached_property
    def split(self) -> SplitPlan:
        """The head-tail split :func:`eval_monomial_map_many` evaluates, planned once.

        With ``a`` distinct heads and ``b`` distinct tails of the monomials,
        a split at ``h`` is admissible when ``a * b <= 2 * d_v``, and a
        column costs about ``a + b + m * a`` row operations: the two liftings
        and the sum over the heads, against ``d_v`` unsplit.  The plan takes
        the admissible ``h`` of least work, and splits only when that is at
        most ``d_v / 2``.  The 244-monomial past lifting of a model over 8
        past outputs with ``k_max`` 1, at ``m = 3``, splits at ``h = 3``
        into 8 heads and 32 tails, a work of 64.  The plan is cached on the
        instance like :attr:`PowerMatrix.chain_plan`, and is no dataclass field.
        """
        K, (d_v, n) = self.K.K, self.K.K.shape
        unsplit = SplitPlan(0, None, self.K, self.L)
        # Each monomial is a distinct pair of a head and a tail, so a * b >= d_v
        # and the work is at least 2 sqrt((m + 1) d_v): more than d_v / 2 below 16 (m + 1).
        if n < 2 or d_v < 16 * (self.m + 1):
            return unsplit
        # The rows decrease lexicographically, so the rows of one head are a run:
        # a row starts a head of h variables when it first differs from the row
        # before in a column below h.  n_heads[h] counts them.
        first = (K[1:] != K[:-1]).argmax(axis=1)
        n_heads = np.concatenate([[1], 1 + np.cumsum(np.bincount(first, minlength=n))])
        # The tails K[:, j:] as ranks in increasing lex order, from the last column back:
        # a tail is its first column's value, then the tail after it.
        n_tails, ranks = np.ones(n + 1, dtype=np.int64), {}
        rank = np.zeros(d_v, dtype=np.int64)
        for j in range(n - 1, 0, -1):
            column = np.unique(K[:, j], return_inverse=True)[1]
            codes, rank = np.unique(column * n_tails[j + 1] + rank, return_inverse=True)
            n_tails[j], ranks[j] = codes.size, rank
        a, b = n_heads[1:n], n_tails[1:n]
        work = np.where(a * b <= 2 * d_v, a + b + self.m * a, d_v)
        h = int(work.argmin()) + 1
        if 2 * work[h - 1] > d_v:
            return unsplit
        a, b = n_heads[h], n_tails[h]
        starts = np.concatenate([[True], first < h])
        p = np.cumsum(starts) - 1
        q = b - 1 - ranks[h]  # decreasing lex order
        tails = np.empty((b, n - h), dtype=np.int64)
        tails[q] = K[:, h:]
        L = np.zeros((self.m, a, b))
        L[:, p, q] = self.L
        return SplitPlan(
            h,
            PowerMatrix(K[starts, :h], self.K.k_max[:h]),
            PowerMatrix(tails, self.K.k_max[h:]),
            readonly_copy(L.reshape(-1, b)),
        )


def eval_monomial_map_many(M: MonomialMap, samples) -> np.ndarray:
    """Evaluate the map at the samples ``(n_vars, s)``, one per column; returns ``(m, s)``.

    The samples are lifted in blocks of ``block_columns(d_v)`` columns, and
    each block's samples are copied into one staging array.  An unsplit map
    (see :attr:`MonomialMap.split`) lifts each block into one
    :func:`~polysid.monomials.data_matrix_workspace` and writes ``L @`` it
    into the result: each block of the result is ``L @ build_data_matrix(block)``
    bit for bit.  A split map lifts each block's heads and tails into one
    workspace each, multiplies the scattered ``L`` by the tails, and sums the
    products with the heads by one ``einsum``: it agrees with
    ``L @ build_data_matrix(samples)`` to rounding.  The chains, bound once
    to the workspaces and the staging array, lift every full block.  A
    shorter last block is bound again, to the leading cells of each array,
    so that it is laid out as a fresh array of its own width would be and
    summed in the same order.  Beyond the result the memory is thus
    ``O(d_v * block)``, not ``O(d_v * s)``, and a split map's workspaces are
    smaller than an unsplit one's.  The whole result matches the blocks side
    by side only where BLAS rounds a column the same at either width: it
    does not, for example, for a one-column last block, which numpy
    multiplies by ``gemv``.

    Raises:
        InvalidInputError, DimensionMismatchError: As
            :func:`~polysid.monomials.checked_samples`.
        CapacityError: As :func:`~polysid.monomials.data_matrix_workspace`
            on ``K``, whether or not the map is split.
    """
    X = checked_samples(samples, M.K)
    s = X.shape[1]
    width = min(block_columns(M.K.d_v), s)
    chain_rows(M.K, width)  # the map's own capacity errors, split or not
    h, heads, tails, L = M.split
    out = np.empty((M.m, s))
    W = data_matrix_workspace(tails, width)
    stage = aligned_empty(M.n_vars, width)
    if h:
        A, T = data_matrix_workspace(heads, width), aligned_empty(L.shape[0], width)
    for a in range(0, s, width):
        w = min(width, s - a)
        if a == 0 or w < width:
            stage_w, W_w = _leading(stage, w), _leading(W, w)
            chain = bind_chain(tails, stage_w[h:], W_w)
            if h:
                A_w, T_w = _leading(A, w), _leading(T, w)
                chain += bind_chain(heads, stage_w[:h], A_w)
        np.copyto(stage_w, X[:, a : a + w])
        run_chain(chain)
        block = out[:, a : a + w]
        if h:
            np.matmul(L, W_w[: tails.d_v], out=T_w)
            np.einsum("ps,jps->js", A_w[: heads.d_v], T_w.reshape(M.m, heads.d_v, w), out=block)
        else:
            np.matmul(L, W_w[: tails.d_v], out=block)
    return out


def _leading(W: np.ndarray, w: int) -> np.ndarray:
    """The first ``W.shape[0] * w`` cells of the C-ordered ``W`` as a ``(W.shape[0], w)`` array."""
    return W.reshape(-1)[: W.shape[0] * w].reshape(W.shape[0], w)
