"""Generator sets as monomial maps.

A :class:`MonomialMap` ``(L, K)`` represents the vector polynomial map
``x -> L @ x**K``; the identified state map ``g_io``, output map ``h_o`` and
dynamics map ``f_o`` are all monomial maps.  The paper's factorization
step, which rewrites generator components that are products of two others,
is not implemented: see :mod:`polysid.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import ArrayRecord, readonly_copy, real_array
from .errors import DimensionMismatchError
from .monomials import (
    PowerMatrix,
    aligned_empty,
    bind_chain,
    block_columns,
    build_data_matrix,  # noqa: F401  not called; the benchmark's tracer patches this name
    checked_samples,
    data_matrix_workspace,
    run_chain,
)


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
    ``K.d_v`` columns.
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


def eval_monomial_map_many(M: MonomialMap, samples) -> np.ndarray:
    """Evaluate the map at the samples ``(n_vars, s)``, one per column; returns ``(m, s)``.

    The samples are lifted in blocks of ``block_columns(d_v)`` columns, each
    into the same :func:`~polysid.monomials.data_matrix_workspace`, and ``L @``
    each block is written into the result.  So beyond the result the memory is
    ``O(d_v * block)``, not ``O(d_v * s)``.  Each block's samples are copied
    into one staging array, so that one chain, bound to it and to the
    workspace, lifts every full block; a shorter last block is bound again.
    Each block of the result is ``L @ build_data_matrix(block)`` bit for bit.
    The whole result matches ``L @ build_data_matrix(samples)`` only where
    BLAS rounds a column the same at either width: it does not, for example,
    for a one-column last block, which numpy multiplies by ``gemv``.

    Raises:
        InvalidInputError, DimensionMismatchError: As
            :func:`~polysid.monomials.checked_samples`.
        CapacityError: As :func:`~polysid.monomials.data_matrix_workspace`.
    """
    X = checked_samples(samples, M.K)
    s = X.shape[1]
    width = min(block_columns(M.K.d_v), s)
    out = np.empty((M.m, s))
    W = data_matrix_workspace(M.K, width)
    stage = aligned_empty(M.n_vars, width)
    chain = bind_chain(M.K, stage, W)
    for a in range(0, s, width):
        b = min(a + width, s)
        if b - a < width:
            chain = bind_chain(M.K, stage[:, : b - a], W[:, : b - a])
        np.copyto(stage[:, : b - a], X[:, a:b])
        run_chain(chain)
        np.matmul(M.L, W[: M.K.d_v, : b - a], out=out[:, a:b])
    return out
