"""Power vectors, power matrices, and monomial-vector evaluation.

A monomial in ``n`` commuting variables is indexed by its integer exponent
tuple (a *power vector*).  A *power matrix* stacks distinct power vectors as
rows, ordered strictly decreasing lexicographically, and indexes the monomial
vector ``x**K`` whose component ``i`` is ``prod_j x[j] ** K[i, j]``.
The convention ``0**0 == 1`` applies throughout, so the constant monomial
evaluates to 1 everywhere.

Monomial vectors are evaluated by :func:`build_data_matrix` along a
*product chain*: every row is its *parent* (the same row with its last
nonzero exponent lowered by one) times one variable, so a row costs one
multiply.  The chain is planned once per :class:`PowerMatrix` and cached on
it; parents missing from ``K`` become auxiliary rows, up to
``DEFAULT_ROW_CAP`` of them, so sets that are not downward-closed evaluate
too.  Each value is thus the product of its factors from left to right,
each variable repeated by its exponent, in increasing variable order.  It depends neither on which other rows a set
contains nor on how many samples are evaluated together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from ._records import ArrayRecord, readonly_copy, real_array
from .errors import CapacityError, DimensionMismatchError, InvalidInputError

#: Default cap on enumerated monomial rows; full enumerations grow
#: exponentially in the number of variables.  Also the cap on the auxiliary
#: rows of a product chain.
DEFAULT_ROW_CAP = 1_000_000

#: Cap on the auxiliary cells, auxiliary chain rows times samples, that
#: :func:`build_data_matrix` allocates beyond the rows of ``K`` (800 MB), and
#: on the cells each regression of ``identify`` holds.
AUX_CELL_CAP = 100_000_000


def _check_rows_strictly_decreasing(K: np.ndarray) -> None:
    if K.shape[0] <= 1:
        return
    neq = K[:-1] != K[1:]
    has_diff = neq.any(axis=1)
    if not has_diff.all():
        raise InvalidInputError("power matrix has duplicate rows")
    first = neq.argmax(axis=1)
    idx = np.arange(K.shape[0] - 1)
    if not (K[idx, first] > K[idx + 1, first]).all():
        raise InvalidInputError(
            "power matrix rows are not in decreasing lexicographic order"
        )


@dataclass(frozen=True, eq=False)
class PowerMatrix(ArrayRecord):
    """Integer exponent matrix indexing a monomial vector.

    Attributes:
        K: Array of shape ``(d_v, n)`` of nonnegative integers; rows are
            pairwise distinct and strictly decreasing lexicographically.
        k_max: Per-variable exponent bounds; every ``K[i, j] <= k_max[j]``.

    Two power matrices are equal when their rows and bounds are; equal
    matrices hash equally.
    """

    K: np.ndarray
    k_max: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            K = np.asarray(self.K)
        except ValueError as exc:  # ragged rows
            raise InvalidInputError(f"power matrix must be 2-D: {exc}") from exc
        if K.ndim != 2:
            raise InvalidInputError(f"power matrix must be 2-D, got shape {K.shape}")
        if not np.issubdtype(K.dtype, np.integer):
            if K.dtype.kind not in "bf" or not (
                np.isfinite(K).all() and (K == np.floor(K)).all()
            ):
                raise InvalidInputError("power matrix entries must be integers")
            if K.size and np.abs(K).max() >= 2.0**63:
                raise InvalidInputError("power matrix entries exceed the int64 range")
        K = readonly_copy(K, np.int64)
        if K.size and K.min() < 0:
            raise InvalidInputError("power matrix entries must be nonnegative")
        try:
            k_max = tuple(int(k) for k in self.k_max)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"k_max entries must be integers: {exc}") from exc
        if len(k_max) != K.shape[1]:
            raise InvalidInputError(
                f"k_max length {len(k_max)} does not match {K.shape[1]} variables"
            )
        if any(k < 0 for k in k_max):
            raise InvalidInputError("k_max entries must be nonnegative")
        if K.size and (K > np.asarray(k_max)[None, :]).any():
            raise InvalidInputError("power matrix entry exceeds its k_max bound")
        _check_rows_strictly_decreasing(K)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "k_max", k_max)

    def __hash__(self) -> int:
        return hash((self.k_max, self.K.shape, self.K.tobytes()))

    @property
    def n(self) -> int:
        """Number of variables."""
        return self.K.shape[1]

    @property
    def d_v(self) -> int:
        """Number of monomials (rows)."""
        return self.K.shape[0]

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]] | np.ndarray, k_max: Iterable[int] | None = None
    ) -> "PowerMatrix":
        """Build a power matrix from rows in any order, sorting and deduplicating.

        ``k_max`` defaults to the columnwise maximum of the rows.
        """
        K = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows)
        K = np.atleast_2d(np.asarray(K, dtype=np.int64))
        K = np.unique(K, axis=0)[::-1]  # unique sorts ascending lex; reverse
        if k_max is None:
            k_max = tuple(int(v) for v in K.max(axis=0)) if K.size else (0,) * K.shape[1]
        return cls(K, tuple(int(v) for v in k_max))

    def select_rows(self, indices: npt.ArrayLike) -> "PowerMatrix":
        """Return the sub-matrix of the given rows, preserving their order."""
        return PowerMatrix(self.K[np.asarray(indices, dtype=np.intp)], self.k_max)

    @cached_property
    def chain_plan(self) -> tuple[int, list[tuple[int, int, int]]]:
        """The product chain :func:`build_data_matrix` evaluates, planned once.

        Returns ``(rows, steps)``.  Chain rows ``0..d_v-1`` are the rows of
        ``K``; rows from ``d_v`` on are auxiliary parents missing from ``K``.
        Each step ``(row, parent, j)`` sets ``row = parent * x[j]``, where
        ``j`` is the row's last nonzero variable and ``parent`` the same row
        with that exponent lowered by one, or ``-1`` when that is the
        constant monomial.  The constant row itself is the step
        ``(row, -1, -1)``.  Steps run in ascending total degree, so every
        parent is computed before its children.  The plan is cached on the
        instance and is not a dataclass field, so it takes no part in
        ``==``, ``repr`` or ``dataclasses.replace``.

        Raises:
            CapacityError: If the chain needs more than ``DEFAULT_ROW_CAP``
                auxiliary rows (exponents far beyond any enumerated bound);
                downward-closed sets, enumerated ones among them, need none.
        """
        top = int(self.K.max(initial=0))
        too_long = CapacityError(
            f"the product chain needs more than {DEFAULT_ROW_CAP} auxiliary rows "
            f"(largest exponent {top})"
        )
        # A row of degree d has d - 1 distinct nonconstant ancestors, at most
        # d_v - 1 of them in K, so a huge exponent fails before the scan.
        if top - self.d_v > DEFAULT_ROW_CAP:
            raise too_long
        rows = [tuple(r) for r in self.K.tolist()]
        index = {r: i for i, r in enumerate(rows)}
        links: list[tuple[int, int]] = []
        # ``rows`` grows while it is scanned: each auxiliary parent appended
        # here is linked to its own parent later in the same loop.
        for row in rows:
            nonzero = [j for j, e in enumerate(row) if e]
            if not nonzero:
                links.append((-1, -1))
                continue
            j = nonzero[-1]
            parent = row[:j] + (row[j] - 1,) + row[j + 1 :]
            if not any(parent):
                p = -1
            elif parent in index:
                p = index[parent]
            else:
                p = index[parent] = len(rows)
                rows.append(parent)
                if p - self.d_v >= DEFAULT_ROW_CAP:
                    raise too_long
            links.append((p, j))
        degree = [sum(r) for r in rows]
        order = sorted(range(len(rows)), key=degree.__getitem__)
        return len(rows), [(i, *links[i]) for i in order]


def identity_power_matrix(n: int) -> PowerMatrix:
    """The power matrix of the coordinate monomials ``(x_1, ..., x_n)``."""
    if n < 1:
        raise InvalidInputError("identity power matrix needs at least one variable")
    return PowerMatrix(np.eye(n, dtype=np.int64), (1,) * n)


def _count_rows(bounds: tuple[int, ...], max_degree: int) -> int:
    """Count the power vectors with ``k[j] <= bounds[j]`` and degree <= ``max_degree``.

    ``counts[d]`` holds how many vectors over the variables seen so far have
    total degree ``d``; each new variable convolves it with ``0..k``.
    """
    counts = [1]
    for k in bounds:
        prefix = [0, *itertools.accumulate(counts)]
        top = min(max_degree, len(counts) - 1 + k)
        counts = [
            prefix[min(d, len(counts) - 1) + 1] - prefix[max(d - k, 0)]
            for d in range(top + 1)
        ]
    return sum(counts)


def enumerate_power_matrix(
    n: int,
    k_max: Iterable[int],
    cap: int = DEFAULT_ROW_CAP,
    max_degree: int | None = None,
) -> PowerMatrix:
    """Enumerate a bounded power vector set in decreasing lex order.

    Produces every exponent vector with ``0 <= k[j] <= k_max[j]`` and, when
    ``max_degree`` is given, total degree ``sum(k) <= max_degree``, sorted
    strictly decreasing lexicographically.  Without ``max_degree`` this is
    the full box of ``prod_j (k_max[j] + 1)`` rows.  Rows are built directly
    in order, from the last variable to the first, so the box is never
    materialized when only its low-degree part is wanted.

    Args:
        n: Number of variables (>= 1).
        k_max: Per-variable exponent bounds, length ``n``.
        cap: Safety cap on the number of rows.  It is checked against the
            true row count of the (degree-bounded) set before anything is
            allocated, since the count is exponential in ``n``.
        max_degree: Optional cap on the total degree of each row (>= 0).

    Raises:
        InvalidInputError: On bad ``n``, ``k_max`` or ``max_degree``.
        CapacityError: If the enumeration would exceed ``cap`` rows.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one variable, got n={n}")
    bounds = tuple(int(k) for k in k_max)
    if len(bounds) != n:
        raise InvalidInputError(f"k_max length {len(bounds)} does not match n={n}")
    if any(k < 0 for k in bounds):
        raise InvalidInputError("k_max entries must be nonnegative")
    if max_degree is not None and max_degree < 0:
        raise InvalidInputError(f"max_degree must be nonnegative, got {max_degree}")
    degree = sum(bounds) if max_degree is None else min(int(max_degree), sum(bounds))
    # Every degree 0..degree occurs, so the set has more than ``degree`` rows;
    # this bounds the work of the count below.
    if degree >= cap:
        raise CapacityError(
            f"power vector set has more than {degree} rows, exceeding the cap of {cap}"
        )
    total = _count_rows(bounds, degree)
    if total > cap:
        raise CapacityError(
            f"power vector set has {total} rows, exceeding the cap of {cap}"
        )
    # Suffix rows over variables j..n-1 with total degree <= ``degree``, in
    # decreasing lex order; prepending exponents k_max[j] down to 0 keeps it.
    K = np.zeros((1, 0), dtype=np.int64)
    deg = np.zeros(1, dtype=np.int64)
    for k in reversed(bounds):
        exponents = np.arange(min(k, degree), -1, -1, dtype=np.int64)
        picks = [np.flatnonzero(deg <= degree - e) for e in exponents]
        lead = np.repeat(exponents, [p.size for p in picks])
        rows = np.concatenate(picks)
        K = np.column_stack([lead, K[rows]])
        deg = deg[rows] + lead
    return PowerMatrix(K, bounds)


def build_data_matrix(samples, pm: PowerMatrix) -> np.ndarray:
    """Evaluate the monomial vector at every sample.

    Rows are computed along ``pm.chain_plan``, one multiply by a variable
    per row, so each value is the left-to-right product of its factors:
    ``x[j]`` repeated ``K[i, j]`` times, in increasing ``j``.  No power is
    taken, and a sample's column is the same bit for bit whatever other
    samples share the batch.

    Args:
        samples: Array-like of shape ``(s, n)`` (or a list of ``n``-vectors)
            of finite real numbers.
        pm: Power matrix with ``n`` variables and ``d_v`` rows.

    Returns:
        Array of shape ``(d_v, s)`` whose column ``k`` is the monomial vector
        evaluated at ``samples[k]``; sample order is preserved.

    Raises:
        InvalidInputError: If the samples are not a nonempty 1-D or 2-D finite real array.
        DimensionMismatchError: If the sample dimension is not ``pm.n``.
        CapacityError: If the auxiliary chain rows times the samples exceed
            ``AUX_CELL_CAP``: a lower bound before planning, the count before allocating.
    """
    X = np.atleast_2d(real_array(samples, "samples", (1, 2)))  # one vector, one sample
    if X.shape[0] == 0:
        raise InvalidInputError("sample list is empty")
    if X.shape[1] != pm.n:
        raise DimensionMismatchError(
            f"sample dimension {X.shape[1]} does not match {pm.n} variables"
        )
    # A row of degree d >= K.max() has d - 1 nonconstant ancestors, at most d_v - 1 in K.
    aux = int(pm.K.max(initial=0)) - pm.d_v
    if aux * X.shape[0] <= AUX_CELL_CAP:
        aux = pm.chain_plan[0] - pm.d_v
    if aux * X.shape[0] > AUX_CELL_CAP:
        raise CapacityError(
            f"the product chain needs at least {aux} auxiliary rows for {X.shape[0]} "
            f"samples, more than {AUX_CELL_CAP} cells"
        )
    rows, steps = pm.chain_plan
    XT = np.ascontiguousarray(X.T)
    W = np.empty((rows, X.shape[0]))
    for row, parent, j in steps:
        if j < 0:
            W[row] = 1.0
        elif parent < 0:
            W[row] = XT[j]
        else:
            np.multiply(W[parent], XT[j], out=W[row])
    return W[: pm.d_v]


def monomial_name(k: Iterable[int], var_names: Sequence[str]) -> str:
    """Human-readable monomial, e.g. ``x1*x2^2*y``; the constant prints as ``1``."""
    parts = []
    for name, e in zip(var_names, k):
        e = int(e)
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
