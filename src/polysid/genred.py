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
from .monomials import PowerMatrix, build_data_matrix


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
    """Evaluate the map at the samples ``(n_vars, s)``, one per column; returns ``(m, s)``."""
    return M.L @ build_data_matrix(samples, M.K)
