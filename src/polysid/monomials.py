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

Liftings of many samples run in blocks of :func:`block_columns` samples, one
:func:`data_matrix_workspace` per call, so they hold ``O(d_v * block)``
lifted cells, not ``O(d_v * s)``.

A chain run many times on the same arrays, block after block of a lifting
or step after step of the observer, is *bound* once by :func:`bind_chain`:
its steps become ``(function, operands)`` pairs over row views of the
workspace and of the sample rows, built once, and :func:`run_chain` reruns
them on whatever samples those rows hold.  Building a step's views costs
about as much as its arithmetic on a thousand samples: the 254-row chain of
a 244-monomial past lifting took 160 us on one sample and 245 us on 1024
with the views built at every run, 69 us and 153 us bound (2-core Xeon VM).
:func:`eval_chain` binds and runs once, for callers that run a chain once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from ._records import ArrayRecord, integer, printable, readonly_copy, real_array
from .errors import CapacityError, DimensionMismatchError, InvalidInputError

#: Cap on enumerated monomial rows, read at each call; full enumerations grow
#: exponentially in the number of variables.  Also the cap on the auxiliary
#: rows of a product chain.
DEFAULT_ROW_CAP = 1_000_000

#: Cap on the auxiliary cells, auxiliary chain rows times samples, that
#: :func:`build_data_matrix` allocates beyond the rows of ``K`` (800 MB), and
#: on the cells each regression of ``identify`` holds.
AUX_CELL_CAP = 100_000_000

#: Least samples per block of a lifting; see :func:`block_columns`.
CHUNK_COLUMNS = 1024


def _exponent_bounds(k_max) -> tuple[int, ...]:
    """``k_max`` as a tuple of Python ``int``s, each a nonnegative integer."""
    try:
        entries = tuple(k_max)
    except TypeError as exc:
        raise InvalidInputError(f"k_max must be a sequence of integers: {exc}") from exc
    return tuple(integer(k, "k_max entry", 0) for k in entries)


def _exponent_array(K, ndmin: int = 0) -> np.ndarray:
    """``K``, with at least ``ndmin`` dimensions, as a 2-D int64 array of nonnegative integers.

    Booleans and floats, integral or not, are rejected, never cast; an empty
    array has no entry to reject, whatever numpy read it as.
    """
    raw = K
    try:
        K = np.array(raw, ndmin=ndmin)
    except ValueError as exc:  # ragged rows
        raise InvalidInputError(f"power matrix must be 2-D: {exc}") from exc
    if K.ndim != 2:
        raise InvalidInputError(f"power matrix must be 2-D, got shape {K.shape}")
    # numpy reads booleans mixed with integers in a list as integers, so a list is scanned.
    listed_bool = not isinstance(raw, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.array(raw, dtype=object).flat
    )
    if listed_bool or K.size and not np.issubdtype(K.dtype, np.integer):  # integral floats too
        raise InvalidInputError("power matrix entries must be integers")
    if K.size and int(K.max()) >= 2**63:  # before the cast, which wraps uint64
        raise InvalidInputError("power matrix entries exceed the int64 range")
    K = K.astype(np.int64, copy=False)
    if K.size and K.min() < 0:
        raise InvalidInputError("power matrix entries must be nonnegative")
    return K


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
        K: Integer array of shape ``(d_v, n)``, entries nonnegative; rows are
            pairwise distinct and strictly decreasing lexicographically.
        k_max: Per-variable exponent bounds, nonnegative integers; every ``K[i, j] <= k_max[j]``.

    Two power matrices are equal when their rows and bounds are; equal
    matrices hash equally.
    """

    K: np.ndarray
    k_max: tuple[int, ...]

    def __post_init__(self) -> None:
        K = readonly_copy(_exponent_array(self.K))
        k_max = _exponent_bounds(self.k_max)
        if len(k_max) != K.shape[1]:
            raise InvalidInputError(
                f"k_max length {len(k_max)} does not match {K.shape[1]} variables"
            )
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

        The rows are checked as the constructor checks ``K``, so fractional
        and boolean exponents raise its ``InvalidInputError``.  ``k_max``
        defaults to the columnwise maximum of the rows.
        """
        rows = rows if isinstance(rows, np.ndarray) else list(rows)
        K = np.unique(_exponent_array(rows, ndmin=2), axis=0)[::-1]  # unique sorts ascending
        if k_max is None:
            k_max = K.max(axis=0) if K.size else (0,) * K.shape[1]
        return cls(K, k_max)

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
    """The power matrix of the coordinates ``(x_1, ..., x_n)``, ``n**2 <= AUX_CELL_CAP``."""
    n = integer(n, "n", 1, math.isqrt(AUX_CELL_CAP))
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


def checked_power_set(
    n: int, k_max: Iterable[int], *, max_degree: int | None = None
) -> tuple[tuple[int, ...], int, int]:
    """``(k_max as ints, largest degree, row count)`` of :func:`enumerate_power_matrix`'s set.

    It checks the arguments and raises as that function does, without enumerating.
    """
    n = integer(n, "n", 1)
    bounds = _exponent_bounds(k_max)
    if len(bounds) != n:
        raise InvalidInputError(f"k_max length {len(bounds)} does not match n={printable(n)}")
    degree = sum(bounds)
    if max_degree is not None:
        degree = min(integer(max_degree, "max_degree", 0), degree)
    # Every degree 0..degree occurs, so the set has more than ``degree`` rows;
    # this bounds the work of the count below.
    if degree >= DEFAULT_ROW_CAP:
        raise CapacityError(
            f"power vector set has more than {printable(degree)} rows, "
            f"exceeding the cap of {DEFAULT_ROW_CAP}"
        )
    total = _count_rows(bounds, degree)
    if total > DEFAULT_ROW_CAP:
        raise CapacityError(
            f"power vector set has {printable(total)} rows, exceeding the cap of {DEFAULT_ROW_CAP}"
        )
    return bounds, degree, total


def enumerate_power_matrix(
    n: int, k_max: Iterable[int], *, max_degree: int | None = None
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
        max_degree: Optional cap on the total degree of each row (>= 0).

    Raises:
        InvalidInputError: Unless ``n`` is a positive integer, ``k_max`` ``n``
            nonnegative integers and ``max_degree`` None or a nonnegative integer.
        CapacityError: If the enumeration would exceed ``DEFAULT_ROW_CAP`` rows,
            counted on the (degree-bounded) set before anything is allocated.
    """
    bounds, degree, _ = checked_power_set(n, k_max, max_degree=max_degree)
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


def block_columns(d_v: int) -> int:
    """Samples per block of a lifting of ``d_v`` monomials: ``max(CHUNK_COLUMNS, 2 d_v)``.

    A regression's block of ``V_u.T`` is thus at least twice as tall as it is wide.
    """
    return max(CHUNK_COLUMNS, 2 * d_v)


def data_matrix_workspace(pm: PowerMatrix, s: int) -> np.ndarray:
    """The uninitialised ``W`` in which :func:`eval_chain` evaluates ``pm`` on ``s`` samples.

    It has ``pm.chain_plan[0]`` rows, one per chain row, and ``s`` columns,
    and starts on a 64-byte cache line.  malloc aligns to 16 bytes only, and
    a chain evaluated in a misaligned array ran about 15% slower (5000
    samples, 179 rows, on a 2-core Xeon VM), so the time depended on where
    the array landed.  A lifting asks for one block of
    :func:`block_columns` samples, not for all of them, and evaluates every
    block in its columns, so its memory is ``O(d_v * block)``.

    Raises:
        CapacityError: As :func:`chain_rows`.
    """
    return aligned_empty(chain_rows(pm, s), s)


def chain_rows(pm: PowerMatrix, s: int) -> int:
    """``pm.chain_plan[0]``, the rows of ``pm``'s workspace, checked for ``s`` samples.

    Raises:
        CapacityError: If the auxiliary chain rows times the samples exceed
            ``AUX_CELL_CAP``: a lower bound before planning, the count before allocating.
    """
    # A row of degree d >= K.max() has d - 1 nonconstant ancestors, at most d_v - 1 in K.
    aux = int(pm.K.max(initial=0)) - pm.d_v
    if aux * s <= AUX_CELL_CAP:
        aux = pm.chain_plan[0] - pm.d_v
    if aux * s > AUX_CELL_CAP:
        raise CapacityError(
            f"the product chain needs at least {aux} auxiliary rows for {s} "
            f"samples, more than {AUX_CELL_CAP} cells"
        )
    return pm.chain_plan[0]


def aligned_empty(rows: int, columns: int) -> np.ndarray:
    """An uninitialised C-ordered float array ``(rows, columns)`` on a 64-byte cache line."""
    cells = rows * columns
    buf = np.empty(cells + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + cells].reshape(rows, columns)


def checked_samples(samples, pm: PowerMatrix) -> np.ndarray:
    """``samples`` as a float array ``(pm.n, s)``, ``s >= 1``, uncopied if it is one.

    Raises:
        InvalidInputError: If the samples are not a 2-D finite real array with a column.
        DimensionMismatchError: If the samples do not have ``pm.n`` rows.
    """
    X = real_array(samples, "samples", 2)
    if X.shape[1] == 0:
        raise InvalidInputError("sample list is empty")
    if X.shape[0] != pm.n:
        raise DimensionMismatchError(
            f"sample dimension {X.shape[0]} does not match {pm.n} variables"
        )
    return X


def build_data_matrix(samples, pm: PowerMatrix) -> np.ndarray:
    """Evaluate the monomial vector at every sample.

    Rows are computed along ``pm.chain_plan``, one multiply by a variable
    per row, so each value is the left-to-right product of its factors:
    ``x[j]`` repeated ``K[i, j]`` times, in increasing ``j``.  No power is
    taken, and a sample's column is the same bit for bit whatever other
    samples share the batch, and whatever the memory layout of ``samples``.

    Args:
        samples: Array-like of shape ``(n, s)`` of finite real numbers, one
            sample per column; a square ``(s, n)`` array is read as ``(n, s)``.
        pm: Power matrix with ``n`` variables and ``d_v`` rows.

    Returns:
        Array of shape ``(d_v, s)`` whose column ``k`` is the monomial vector
        evaluated at ``samples[:, k]``; sample order is preserved.

    Raises:
        InvalidInputError, DimensionMismatchError: As :func:`checked_samples`.
        CapacityError: As :func:`data_matrix_workspace`.
    """
    X = checked_samples(samples, pm)
    return eval_chain(pm, X, data_matrix_workspace(pm, X.shape[1]))


def eval_chain(pm: PowerMatrix, rows: np.ndarray, W: np.ndarray) -> np.ndarray:
    """:func:`build_data_matrix` without checks, on finite ``rows`` ``(pm.n, s)``, one per variable.

    ``rows`` may have any strides.  ``W`` is a :func:`data_matrix_workspace`
    on ``s`` samples, or ``s`` of its columns; returns its view ``W[: pm.d_v]``.
    """
    run_chain(bind_chain(pm, rows, W))
    return W[: pm.d_v]


def bind_chain(pm: PowerMatrix, rows: np.ndarray, W: np.ndarray) -> list:
    """The steps of ``pm.chain_plan``, bound to the row views of ``W`` and ``rows``.

    ``rows`` and ``W`` are as :func:`eval_chain` takes them.  Each step is a
    ``(function, operands)`` pair: ``np.copyto`` fills the constant row with
    1 and copies a first-degree row from its variable, ``np.multiply``
    multiplies any other row from its parent.  :func:`run_chain` runs the
    steps as often as the caller writes new samples into ``rows``, and each
    run leaves in ``W[: pm.d_v]`` what :func:`eval_chain` would, bit for bit.
    """
    w, x = list(W), list(rows)
    bound = []
    for row, parent, j in pm.chain_plan[1]:
        if j < 0:
            bound.append((np.copyto, (w[row], 1.0)))
        elif parent < 0:
            bound.append((np.copyto, (w[row], x[j])))
        else:
            bound.append((np.multiply, (w[parent], x[j], w[row])))
    return bound


def run_chain(bound: list) -> None:
    """Run a :func:`bind_chain` on the values its rows hold now."""
    for op, operands in bound:
        op(*operands)


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
