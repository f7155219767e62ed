"""Numerical reduction kernels.

Three operations shared by the identification pipeline:

* ``mdtrunc`` -- truncation of a nonnegative descending diagonal by
  cumulative l1 mass fraction.
* ``svd_trunc`` -- truncated-SVD least-squares approximation of one data
  matrix by a linear map of another, factored as ``C @ L`` so that ``L``
  maps the regressors onto a reduced state.  The map is cut either by the
  mass fraction of the regressors' singular values or, in reduced-rank
  regression, by its own rank.  ``svd_trunc_chunks`` reads the targets and
  the samples in column chunks, lifts each chunk of samples to its
  monomials straight into the free columns of one LAPACK workspace of
  ``O((chunk + d_v) * d_v)`` cells, allocated once per regression, and
  factors it there, so the lifted regressors are never held whole.
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
from .monomials import (
    PowerMatrix,
    checked_samples,
    data_matrix_workspace,
    eval_chain,
    identity_power_matrix,
)

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
    whose memory is ``O((chunk + d_v) * d_v)``; here the chunk is all of ``V_u``,
    and the regressors are its rows, lifted by the identity power matrix,
    whose chain copies each row once.

    Raises:
        InvalidInputError, DimensionMismatchError, NumericalOverflowError: As
            ``svd_trunc_chunks`` raises them; InvalidInputError also if ``V_u``
            has no row, or more rows than ``identity_power_matrix`` allows.
    """
    Vu = real_array(V_u, "V_u", 2)
    return svd_trunc_chunks([(V_y, Vu)], identity_power_matrix(Vu.shape[0]), r)


class _StackedQR:
    """Sequential TSQR of the lifting ``V_u.T`` of ``pm`` in one workspace ``buf``.

    ``buf`` is a ``data_matrix_workspace`` of ``pm``, C-ordered ``(rows, cap)``
    with ``rows = pm.chain_plan[0]``.  LAPACK reads its first ``d_v`` rows as
    the column-major ``cap x d_v`` stack ``[R; V_u,c.T]`` with ``lda = cap``:
    ``R.T`` in the first ``k`` columns, the chunk after them.  The chunk is
    lifted there, so the chain's auxiliary rows, if any, sit after the rows
    LAPACK reads.  ``dgeqrf`` leaves Householder reflectors above the new
    ``R.T``'s diagonal; they are set to ``+0.0``, the zeros of
    ``np.linalg.qr``'s ``triu``.
    """

    def __init__(self, pm: PowerMatrix, width: int) -> None:
        self.pm, self.d_v, self.k = pm, pm.d_v, 0
        self.buf = data_matrix_workspace(pm, pm.d_v + width)
        self.tau = np.empty(self.d_v)
        self.above = np.triu(np.ones((self.d_v, self.d_v), dtype=bool), 1)
        # The work size np.linalg.qr's gufunc uses; it depends on d_v alone.
        query = np.empty(1)
        lapack_lite.dgeqrf(self.buf.shape[1], self.d_v, self.buf, self.buf.shape[1],
                           self.tau, query, -1, 0)
        self.work = np.empty(max(1, self.d_v, int(query[0])))

    def lift(self, samples: np.ndarray) -> np.ndarray:
        """Lift ``samples`` into the columns after ``R.T``, growing the workspace to fit them.

        Returns the lifted chunk ``V_u,c``, a ``(d_v, w)`` view of the workspace.
        """
        k, m = self.k, self.k + samples.shape[1]
        if m > self.buf.shape[1]:
            grown = data_matrix_workspace(self.pm, self.d_v + samples.shape[1])
            grown[: self.d_v, :k] = self.buf[: self.d_v, :k]
            self.buf = grown
        return eval_chain(self.pm, samples, self.buf[:, k:m])

    def factor(self, w: int) -> None:
        """Factor ``[R; V_u,c.T]`` in place, for the chunk of ``w`` columns last lifted."""
        m = self.k + w
        lapack_lite.dgeqrf(m, self.d_v, self.buf, self.buf.shape[1],
                           self.tau, self.work, self.work.size, 0)
        self.k = min(m, self.d_v)
        np.copyto(self.buf[: self.k, : self.k], 0.0, where=self.above[: self.k, : self.k])

    @property
    def R_T(self) -> np.ndarray:
        """``R.T``, ``d_v x k``: a view of the workspace."""
        return self.buf[: self.d_v, : self.k]


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalOverflowError(f"{name} overflows; rescale V_y or V_u")


#: How :func:`svd_trunc_chunks`' ``NumericalOverflowError`` starts when a lifting overflows.
LIFTING_OVERFLOW = "the lifted samples"


def svd_trunc_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], pm: PowerMatrix, r: float | None
) -> SvdTruncResult:
    """Truncated-SVD regression of ``V_y`` on the lifting ``V_u`` of samples, read in column chunks.

    ``chunks`` yields ``(V_y[:, a:b], samples[:, a:b])`` over consecutive
    columns, and ``V_u`` holds the monomial vector ``pm`` of each sample: it
    is ``build_data_matrix(samples, pm)``, never built whole.
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
    The regression allocates one workspace of ``pm.chain_plan[0]`` rows and
    ``d_v + chunk`` columns, and grows it only for a chunk wider than the
    first.  Each chunk's samples are lifted by the product chain straight
    into its free columns, checked, added to ``G``, and only then factored in
    place by ``dgeqrf`` through numpy's private ``lapack_lite`` (see the
    module docstring), which overwrites them.  So the workspace holds the
    lifting, memory is ``O((chunk + d_v) * d_v)``, and no lifted chunk is
    copied.  Each ``R`` is ``np.linalg.qr``'s bit for bit.  One chunk gives
    the whole-matrix result bit for bit; a split agrees with it to rounding.

    Raises:
        InvalidInputError: If a chunk's ``V_y`` is not a finite real 2-D array
            or its samples are not as ``checked_samples`` requires (naming the
            chunk), if ``V_u`` is numerically zero (no entry above 1.5e-154),
            if ``r`` is neither None nor a real in (0, 1), or, for the
            reduced-rank cut, if ``B`` is zero.
        DimensionMismatchError: Naming the chunk, if its samples do not have
            ``pm.n`` rows, its two column counts differ, or ``V_y``'s row
            count differs from the first chunk's.
        NumericalOverflowError: Starting with ``LIFTING_OVERFLOW`` and naming
            the chunk, if its lifted samples are not finite; else if ``G``,
            ``R``, ``B`` or its norm, ``C``, ``L`` or ``H*`` is not finite, or,
            for the mass cut, a retained singular value overflows when squared
            (above about 1.3e154).
        CapacityError: As ``data_matrix_workspace``.
    """
    r = None if r is None else positive_real(r, "threshold r", 1.0)
    tsqr, G, columns = None, None, 0
    for c, (V_y, samples) in enumerate(chunks, 1):
        Vy = real_array(V_y, "V_y", 2)
        try:
            X = checked_samples(samples, pm)
        except InvalidInputError as exc:
            raise type(exc)(f"chunk {c}: {exc}") from exc
        if Vy.shape[1] != X.shape[1]:
            raise DimensionMismatchError(
                f"chunk {c}: column counts differ: V_y has {Vy.shape[1]}, "
                f"the samples have {X.shape[1]}"
            )
        if tsqr is None:
            tsqr, d_y = _StackedQR(pm, X.shape[1]), Vy.shape[0]
        elif Vy.shape[0] != d_y:
            raise DimensionMismatchError(
                f"chunk {c}: V_y has {Vy.shape[0]} rows, chunk 1's has {d_y}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            Vu = tsqr.lift(X)
            if not np.isfinite(Vu).all():
                raise NumericalOverflowError(
                    f"{LIFTING_OVERFLOW} of chunk {c} overflow; rescale the samples"
                )
            G = Vy @ Vu.T if G is None else G + Vy @ Vu.T
        tsqr.factor(X.shape[1])  # overwrites Vu
        columns += X.shape[1]
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
