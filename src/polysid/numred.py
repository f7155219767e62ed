"""Numerical reduction kernels.

Three operations shared by the identification pipeline:

* ``mdtrunc`` -- truncation of a nonnegative descending diagonal by
  cumulative l1 mass fraction.
* ``svd_trunc`` -- truncated-SVD least-squares approximation of one data
  matrix by a linear map of another, factored as ``C @ L`` so that ``L``
  maps the regressors onto a reduced state.  ``svd_trunc_chunks`` reads
  the matrices as column chunks, in ``O((chunk + d_v) * d_v)`` memory.
* ``lk_reduce`` -- pruning of coefficient columns (and the matching power
  matrix rows) whose l1 norm falls below a fraction of the largest column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._records import ArrayRecord, readonly_copy, real_array
from .errors import DimensionMismatchError, InvalidInputError, NumericalOverflowError
from .monomials import PowerMatrix

#: Relative threshold under which singular values are treated as exact zeros
#: before mass-fraction truncation (scaled by max matrix dimension).
SINGULAR_VALUE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class TruncationTable(ArrayRecord):
    """Cumulative mass fractions of a descending nonnegative diagonal.

    Entry ``j`` (1-based) holds ``sum(D[:j]) / sum(D)``; fractions are
    nondecreasing and the final entry equals 1 exactly.  Two tables are
    equal when their fractions are.
    """

    fractions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", readonly_copy(self.fractions, float))

    def __len__(self) -> int:
        return self.fractions.size

    def entries(self) -> list[tuple[int, float]]:
        """(index, cumulative fraction) pairs, index starting at 1."""
        return [(j + 1, float(f)) for j, f in enumerate(self.fractions)]

    def to_text(self) -> str:
        """Two-column text table: index and fraction to 6 significant digits."""
        return "\n".join(f"{j} {f:.6g}" for j, f in self.entries())


def mdtrunc(D, r: float) -> tuple[int, np.ndarray, TruncationTable]:
    """Truncate a descending nonnegative diagonal at cumulative mass ``r``.

    Args:
        D: Diagonal entries, nonincreasing, not all zero.
        r: Mass-fraction threshold in the open interval (0, 1).

    Returns:
        ``(n_r, D_r, table)`` where ``n_r`` is the smallest 1-based index
        whose cumulative fraction reaches ``r``, ``D_r`` keeps the first
        ``n_r`` entries and zeroes the rest, and ``table`` lists every
        cumulative fraction.

    Raises:
        InvalidInputError: If ``D`` is not a nonempty, nonincreasing vector of
            finite nonnegative real numbers, not all zero, or ``r`` is outside (0, 1).
    """
    d = real_array(D, "diagonal D", 1)
    if d.size == 0:
        raise InvalidInputError("diagonal must be a nonempty vector")
    if (d < 0).any():
        raise InvalidInputError("diagonal entries must be nonnegative")
    if (np.diff(d) > 0).any():
        raise InvalidInputError("diagonal entries must be nonincreasing")
    if not (0.0 < r < 1.0):
        raise InvalidInputError(f"threshold r must lie in (0, 1), got {r}")
    cum = np.cumsum(d)
    total = cum[-1]
    if total == 0.0:
        raise InvalidInputError("diagonal must not be identically zero")
    fractions = cum / total  # final entry is total/total == 1.0 exactly
    n_r = int(np.searchsorted(fractions, r, side="left")) + 1
    D_r = d.copy()
    D_r[n_r:] = 0.0
    return n_r, D_r, TruncationTable(fractions)


@dataclass(frozen=True, eq=False)
class SvdTruncResult(ArrayRecord):
    """Output of the truncated-SVD linear approximation.

    Attributes:
        n: Retained rank.
        D_n: The ``n`` retained singular values, positive and nonincreasing.
        C: Left factor, ``d_vy x n``.
        L: Right factor, ``n x d_vu`` (top rows of the left singular basis);
            ``L @ V_u`` is the reduced state.
        H_star: Full regression matrix ``C @ L``, ``d_vy x d_vu``.
        table: Cumulative-mass table of the positive singular values.

    Two results are equal when all their fields are.
    """

    n: int
    D_n: np.ndarray
    C: np.ndarray
    L: np.ndarray
    H_star: np.ndarray
    table: TruncationTable


def svd_trunc(V_y: np.ndarray, V_u: np.ndarray, r: float) -> SvdTruncResult:
    """Best-fit linear map of ``V_u`` onto ``V_y`` through a truncated SVD.

    The one-chunk call, bit for bit, of the chunked R-SVD :func:`svd_trunc_chunks`,
    whose memory is ``O((chunk + d_v) * d_v)``; here the chunk is all of ``V_u``.

    Raises:
        InvalidInputError, DimensionMismatchError: As ``svd_trunc_chunks`` raises them.
    """
    return svd_trunc_chunks([(V_y, V_u)], r)


def svd_trunc_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], r: float
) -> SvdTruncResult:
    """Truncated-SVD regression of ``V_y`` on ``V_u``, read in column chunks.

    ``chunks`` yields ``(V_y[:, a:b], V_u[:, a:b])`` over consecutive columns.
    The singular values of ``V_u`` above the numerical rank threshold are
    kept up to cumulative mass fraction ``r``, and ``H* = V_y @ pinv_n(V_u)``
    is factored as ``C @ L``, so that ``V_y ~= C (L V_u)``.

    The SVD is an R-SVD (Chan 1982, ACM TOMS 8(1)): ``R.T``, for the thin QR
    ``V_u.T = Q R``, shares ``U`` and ``D`` with ``V_u``.  ``R`` is a
    sequential TSQR (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci.
    Comput. 34(1)), ``R = qr([R; V_u,c.T])`` per chunk, and
    ``C = G U_n / D_n**2`` with ``G = sum_c V_y,c V_u,c.T``; memory is thus
    ``O((chunk + d_v) * d_v)``.  One chunk gives the whole-matrix result bit
    for bit; a split agrees with it to rounding.

    Raises:
        InvalidInputError: If a chunk is not two finite real 2-D arrays, if ``V_u``
            is numerically zero (no entry above 1.5e-154), or if ``r`` is invalid.
        DimensionMismatchError: If the two column counts of a chunk differ.
        NumericalOverflowError: If a retained singular value overflows when
            squared (above about 1.3e154).
    """
    if not (0.0 < r < 1.0):
        raise InvalidInputError(f"threshold r must lie in (0, 1), got {r}")
    R, G, columns = None, None, 0
    for V_y, V_u in chunks:
        Vy, Vu = real_array(V_y, "V_y", 2), real_array(V_u, "V_u", 2)
        if Vy.shape[1] != Vu.shape[1]:
            raise DimensionMismatchError(
                f"column counts differ: V_y has {Vy.shape[1]}, V_u has {Vu.shape[1]}"
            )
        columns += Vu.shape[1]
        # [R; V_u,c.T] is stacked column-major, the layout LAPACK's copy-in reads fastest.
        R = np.linalg.qr(Vu.T if R is None else np.hstack([R.T, Vu]).T, mode="r")
        G = Vy @ Vu.T if G is None else G + Vy @ Vu.T
    floor = np.finfo(float).tiny ** 0.5  # the least value whose square is normal
    if R is None or not (np.abs(R) > floor).any():
        raise InvalidInputError(f"V_u must not be identically zero, nor below {floor:.2g}")

    U, sv, _ = np.linalg.svd(R.T, full_matrices=False)
    # Numerical rank: values below eps * sigma_max, or whose square is not normal, count as zeros.
    tol = max(SINGULAR_VALUE_EPS * max(R.shape[1], columns) * sv[0], floor)
    n1 = int(np.sum(sv > tol))
    n, _, table = mdtrunc(sv[:n1], r)
    D_n = sv[:n].copy()
    L = U[:, :n].T
    with np.errstate(over="ignore"):
        D_sq = D_n**2
    if not np.isfinite(D_sq).all():
        raise NumericalOverflowError(f"the singular value {D_n[0]:.3g} overflows when squared")
    C = G @ (U[:, :n] / D_sq[None, :])
    H_star = C @ L
    return SvdTruncResult(n=n, D_n=D_n, C=C, L=L, H_star=H_star, table=table)


def lk_reduce(
    L: np.ndarray, pm: PowerMatrix, r: float
) -> tuple[np.ndarray, PowerMatrix, list[int]]:
    """Prune small columns of ``L`` and the matching rows of ``pm``.

    Column ``j`` is deleted iff its l1 norm is at most ``r`` times the
    largest column l1 norm of the original matrix (ties deleted).  Kept
    columns preserve their order, so the power-matrix row order survives.

    Returns:
        ``(L', pm', kept)`` with the retained columns, the matching power
        matrix, and the kept column indices.

    Raises:
        InvalidInputError: If ``r`` is outside (0, 1), ``L`` is not a 2-D array of
            finite real numbers, shapes disagree, or ``L`` has no nonzero column.
    """
    if not (0.0 < r < 1.0):
        raise InvalidInputError(f"threshold r must lie in (0, 1), got {r}")
    M = real_array(L, "coefficient matrix L", 2)
    if M.shape[1] != pm.d_v:
        raise DimensionMismatchError(
            f"{M.shape[1]} coefficient columns vs {pm.d_v} power matrix rows"
        )
    norms = np.abs(M).sum(axis=0)
    max_norm = norms.max() if norms.size else 0.0
    if max_norm == 0.0:
        raise InvalidInputError("coefficient matrix has no nonzero column")
    kept = np.flatnonzero(norms > r * max_norm)
    return M[:, kept], pm.select_rows(kept), [int(j) for j in kept]
