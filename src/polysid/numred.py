"""Numerical reduction kernels.

Three operations shared by the identification pipeline:

* ``mdtrunc`` -- truncation of a nonnegative descending diagonal by
  cumulative l1 mass fraction.
* ``svd_trunc`` -- truncated-SVD least-squares approximation of one data
  matrix by a linear map of another, factored as ``C @ L`` so that ``L``
  maps the regressors onto a reduced state.  The map is cut either by the
  mass fraction of the regressors' singular values or, in reduced-rank
  regression, by its own rank.  ``svd_trunc_chunks`` reads
  the matrices as column chunks and factors them in place in one LAPACK
  workspace of ``O((chunk + d_v) * d_v)`` cells, allocated once per regression.
* ``lk_reduce`` -- pruning of coefficient columns (and the matching power
  matrix rows) whose l1 norm falls below a fraction of the largest column.

The workspace is factored by ``numpy.linalg.lapack_lite.dgeqrf``, a private
numpy module: it is the only in-place ``geqrf`` numpy exposes, and it calls
the LAPACK routine ``np.linalg.qr`` calls, so every ``R`` is the one
``np.linalg.qr`` gives, bit for bit, without ``qr``'s three copies of each
chunk's stack.  There is no fallback: a numpy that drops or changes the
module fails the tests that pin it, by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.linalg import lapack_lite

from ._records import ArrayRecord, positive_real, readonly_copy, real_array
from .errors import DimensionMismatchError, InvalidInputError, NumericalOverflowError
from .monomials import PowerMatrix

#: Relative threshold under which singular values are treated as exact zeros
#: before mass-fraction truncation (scaled by max matrix dimension).
SINGULAR_VALUE_EPS = 1e-12

#: Relative threshold under which the reduced-rank cut treats the singular
#: values of the whitened map ``B`` as zeros (scaled by the largest).
RRR_CUT = 1e-6


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
            finite nonnegative real numbers, not all zero, or ``r`` no real in (0, 1).
    """
    d = real_array(D, "diagonal D", 1)
    if d.size == 0:
        raise InvalidInputError("diagonal must be a nonempty vector")
    if (d < 0).any():
        raise InvalidInputError("diagonal entries must be nonnegative")
    if (np.diff(d) > 0).any():
        raise InvalidInputError("diagonal entries must be nonincreasing")
    r = positive_real(r, "threshold r", 1.0)
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
        D_n: The ``n`` retained singular values, positive and nonincreasing:
            of ``V_u`` for the mass cut, of the whitened map ``B`` for the
            reduced-rank cut.
        C: Left factor, ``d_vy x n``; orthonormal columns for the reduced-rank cut.
        L: Right factor, ``n x d_vu``; ``L @ V_u`` is the reduced state.
        H_star: Full regression matrix ``C @ L``, ``d_vy x d_vu``.
        table: Cumulative-mass table of the singular values ``D_n`` is cut from.

    Two results are equal when all their fields are.
    """

    n: int
    D_n: np.ndarray
    C: np.ndarray
    L: np.ndarray
    H_star: np.ndarray
    table: TruncationTable


def svd_trunc(V_y: np.ndarray, V_u: np.ndarray, r: float | None) -> SvdTruncResult:
    """Best-fit linear map of ``V_u`` onto ``V_y`` through a truncated SVD.

    The one-chunk call, bit for bit, of the chunked R-SVD :func:`svd_trunc_chunks`,
    whose memory is ``O((chunk + d_v) * d_v)``; here the chunk is all of ``V_u``.

    Raises:
        InvalidInputError, DimensionMismatchError, NumericalOverflowError: As
            ``svd_trunc_chunks`` raises them.
    """
    return svd_trunc_chunks([(V_y, V_u)], r)


class _StackedQR:
    """Sequential TSQR of ``V_u.T`` in one workspace ``buf``, C-ordered ``(d_v, cap)``.

    LAPACK reads ``buf`` as the column-major ``cap x d_v`` stack ``[R; V_u,c.T]``
    with ``lda = cap``: ``R.T`` in the first ``k`` columns, the chunk after them.
    ``dgeqrf`` leaves Householder reflectors above the new ``R.T``'s diagonal;
    they are set to ``+0.0``, the zeros of ``np.linalg.qr``'s ``triu``.
    """

    def __init__(self, d_v: int, width: int) -> None:
        self.d_v, self.k = d_v, 0
        self.buf = np.empty((d_v, max(1, d_v + width)))  # LAPACK needs lda >= 1
        self.tau = np.empty(d_v)
        self.above = np.triu(np.ones((d_v, d_v), dtype=bool), 1)
        # The work size np.linalg.qr's gufunc uses; it depends on d_v alone.
        query = np.empty(1)
        lapack_lite.dgeqrf(self.buf.shape[1], d_v, self.buf, self.buf.shape[1],
                           self.tau, query, -1, 0)
        self.work = np.empty(max(1, d_v, int(query[0])))

    def add(self, Vu: np.ndarray) -> None:
        """Factor ``[R; Vu.T]``: grow the workspace if the chunk does not fit."""
        k, m = self.k, self.k + Vu.shape[1]
        if m > self.buf.shape[1]:
            grown = np.empty((self.d_v, self.d_v + Vu.shape[1]))
            grown[:, :k] = self.buf[:, :k]
            self.buf = grown
        self.buf[:, k:m] = Vu
        lapack_lite.dgeqrf(m, self.d_v, self.buf, self.buf.shape[1],
                           self.tau, self.work, self.work.size, 0)
        self.k = min(m, self.d_v)
        np.copyto(self.buf[: self.k, : self.k], 0.0, where=self.above[: self.k, : self.k])

    @property
    def R_T(self) -> np.ndarray:
        """``R.T``, ``d_v x k``: a view of the workspace."""
        return self.buf[:, : self.k]


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalOverflowError(f"{name} overflows; rescale V_y or V_u")


def svd_trunc_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], r: float | None
) -> SvdTruncResult:
    """Truncated-SVD regression of ``V_y`` on ``V_u``, read in column chunks.

    ``chunks`` yields ``(V_y[:, a:b], V_u[:, a:b])`` over consecutive columns.
    ``H*`` is factored as ``C @ L``, so that ``V_y ~= C (L V_u)``, and cut in
    one of two ways.

    * A threshold ``r`` (the mass cut): the singular values of ``V_u`` above
      the numerical rank threshold are kept up to cumulative mass fraction
      ``r``, and ``H* = V_y @ pinv_n(V_u)``.
    * ``r=None`` (the reduced-rank cut; Izenman 1975, J. Multivariate Anal.
      5): the map is cut by its own rank.  With ``k`` the numerical rank of
      ``V_u`` (no mass cut) and ``W = U_k / D_k``, ``B = G W`` is the map in
      whitened regressors, ``V_y Z_k`` for ``V_u = U_k D_k Z_k.T``.  Its SVD
      ``B = P Sigma Q.T`` keeps ``n = #{Sigma_j > RRR_CUT Sigma_0}``, so
      ``n <= d_vy``, the rank bound of ``B``.  Then ``C = P_n``,
      ``L = P_n.T B W.T`` and ``H* = C L``, the best rank-``n`` fit of ``V_y``
      by ``H V_u``; ``D_n = Sigma_n``, and ``table`` is ``Sigma``'s mass table.

    The SVD is an R-SVD (Chan 1982, ACM TOMS 8(1)): ``R.T``, for the thin QR
    ``V_u.T = Q R``, shares ``U`` and ``D`` with ``V_u``.  ``R`` is a
    sequential TSQR (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J. Sci.
    Comput. 34(1)), ``R = qr([R; V_u,c.T])`` per chunk, and
    ``C = G U_n / D_n**2`` for the mass cut, with ``G = sum_c V_y,c V_u,c.T``.
    Each chunk is factored in place by ``dgeqrf`` through numpy's private
    ``lapack_lite`` (see the module docstring), in one workspace of
    ``(d_v + chunk) * d_v`` cells that the regression allocates once and grows
    only for a chunk wider than the first; memory is thus
    ``O((chunk + d_v) * d_v)``.  Each ``R`` is
    ``np.linalg.qr``'s bit for bit.  One chunk gives the whole-matrix result
    bit for bit; a split agrees with it to rounding.

    Raises:
        InvalidInputError: If a chunk is not two finite real 2-D arrays, if ``V_u``
            is numerically zero (no entry above 1.5e-154), if ``r`` is neither
            None nor a real in (0, 1), or, for the reduced-rank cut, if ``B`` is zero.
        DimensionMismatchError: Naming the chunk, if its two column counts
            differ or its row counts differ from the first chunk's.
        NumericalOverflowError: If ``G``, ``R``, ``B`` or its norm, ``C``, ``L``
            or ``H*`` is not finite, or, for the mass cut, a retained singular value
            overflows when squared (above about 1.3e154).
    """
    r = None if r is None else positive_real(r, "threshold r", 1.0)
    tsqr, G, columns = None, None, 0
    for c, (V_y, V_u) in enumerate(chunks, 1):
        Vy, Vu = real_array(V_y, "V_y", 2), real_array(V_u, "V_u", 2)
        if Vy.shape[1] != Vu.shape[1]:
            raise DimensionMismatchError(
                f"chunk {c}: column counts differ: V_y has {Vy.shape[1]}, V_u has {Vu.shape[1]}"
            )
        if tsqr is None:
            tsqr, d_y = _StackedQR(Vu.shape[0], Vu.shape[1]), Vy.shape[0]
        elif (Vy.shape[0], Vu.shape[0]) != (d_y, tsqr.d_v):
            raise DimensionMismatchError(
                f"chunk {c}: V_y and V_u have {Vy.shape[0]} and {Vu.shape[0]} rows, "
                f"chunk 1's have {d_y} and {tsqr.d_v}"
            )
        columns += Vu.shape[1]
        tsqr.add(Vu)
        with np.errstate(over="ignore", invalid="ignore"):
            G = Vy @ Vu.T if G is None else G + Vy @ Vu.T
    if tsqr is None:
        raise InvalidInputError("V_u must not be identically zero, and no chunk was given")
    R_T = tsqr.R_T
    _check_finite("G = V_y V_u.T", G)
    _check_finite("R, the triangular factor of V_u.T,", R_T)
    floor = np.finfo(float).tiny ** 0.5  # the least value whose square is normal
    if not (np.abs(R_T) > floor).any():
        raise InvalidInputError(f"V_u must not be identically zero, nor below {floor:.2g}")

    U, sv, _ = np.linalg.svd(R_T, full_matrices=False)
    # Numerical rank: values below eps * sigma_max, or whose square is not normal, count as zeros.
    tol = max(SINGULAR_VALUE_EPS * max(tsqr.d_v, columns) * sv[0], floor)
    k = int(np.sum(sv > tol))
    if r is None:  # reduced-rank regression: cut the whitened map B = V_y Z_k by its own rank
        with np.errstate(over="ignore", invalid="ignore"):
            W = U[:, :k] / sv[:k]
            B = G @ W
        _check_finite("B = G W, the whitened map,", B)
        P, sigma, _ = np.linalg.svd(B, full_matrices=False)
        _check_finite("B = G W, the whitened map,", sigma[:1])  # finite entries, infinite norm
        n = int(np.sum(sigma > RRR_CUT * sigma[0]))
        if n == 0:
            raise InvalidInputError(
                "the fitted map is zero: V_y is orthogonal to the rows of V_u, as all-zero "
                "outputs make it"
            )
        cum = np.cumsum(sigma)
        table = TruncationTable(cum / cum[-1])  # final entry is exactly 1, as mdtrunc's
        D_n, C = sigma[:n].copy(), P[:, :n]
        with np.errstate(over="ignore", invalid="ignore"):
            L = (C.T @ B) @ W.T
            H_star = C @ L
        _check_finite("the map H* = C L", L, H_star)
        return SvdTruncResult(n=n, D_n=D_n, C=C, L=L, H_star=H_star, table=table)
    n, _, table = mdtrunc(sv[:k], r)
    D_n = sv[:n].copy()
    L = U[:, :n].T
    with np.errstate(over="ignore", invalid="ignore"):
        D_sq = D_n**2
        C = G @ (U[:, :n] / D_sq[None, :])
        H_star = C @ L
    if not np.isfinite(D_sq).all():
        raise NumericalOverflowError(f"the singular value {D_n[0]:.3g} overflows when squared")
    _check_finite("the map H* = C L", C, H_star)
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
        InvalidInputError: If ``r`` is no real in (0, 1), ``L`` not a 2-D array of
            finite real numbers, shapes disagree, or ``L`` has no nonzero column.
    """
    r = positive_real(r, "threshold r", 1.0)
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
