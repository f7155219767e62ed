"""Power vectors, power matrices, and monomial-vector evaluation.

A monomial in ``n`` commuting variables is indexed by its integer exponent
tuple (a *power vector*).  A *power matrix* stacks distinct power vectors as
rows, ordered strictly decreasing lexicographically, and indexes the monomial
vector ``x**K`` whose component ``i`` is ``prod_j x[j] ** K[i, j]``.
The convention ``0**0 == 1`` applies throughout, so the constant monomial
evaluates to 1 everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InvalidInputError

#: Default cap on enumerated monomial rows; full enumerations grow
#: exponentially in the number of variables.
DEFAULT_ROW_CAP = 1_000_000


def lex_compare(k1: Sequence[int], k2: Sequence[int]) -> int:
    """Compare two equal-length power vectors lexicographically.

    Returns:
        1 if ``k1 > k2``, 0 if equal, -1 if ``k1 < k2``.  The winner at the
        first differing coordinate decides.

    Raises:
        InvalidInputError: If the vectors have different lengths.
    """
    a = np.asarray(k1)
    b = np.asarray(k2)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError(
            f"power vectors must be 1-D and equal length, got {a.shape} vs {b.shape}"
        )
    diff = np.flatnonzero(a != b)
    if diff.size == 0:
        return 0
    return 1 if a[diff[0]] > b[diff[0]] else -1


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


@dataclass(frozen=True)
class PowerMatrix:
    """Integer exponent matrix indexing a monomial vector.

    Attributes:
        K: Array of shape ``(d_v, n)`` of nonnegative integers; rows are
            pairwise distinct and strictly decreasing lexicographically.
        k_max: Per-variable exponent bounds; every ``K[i, j] <= k_max[j]``.
    """

    K: np.ndarray
    k_max: tuple[int, ...]

    def __post_init__(self) -> None:
        K = np.asarray(self.K)
        if K.ndim != 2:
            raise InvalidInputError(f"power matrix must be 2-D, got shape {K.shape}")
        if not np.issubdtype(K.dtype, np.integer):
            if not np.all(K == np.floor(K)):
                raise InvalidInputError("power matrix entries must be integers")
            K = K.astype(np.int64)
        else:
            K = K.astype(np.int64, copy=True)
        if K.size and K.min() < 0:
            raise InvalidInputError("power matrix entries must be nonnegative")
        k_max = tuple(int(k) for k in self.k_max)
        if len(k_max) != K.shape[1]:
            raise InvalidInputError(
                f"k_max length {len(k_max)} does not match {K.shape[1]} variables"
            )
        if any(k < 0 for k in k_max):
            raise InvalidInputError("k_max entries must be nonnegative")
        if K.size and (K > np.asarray(k_max)[None, :]).any():
            raise InvalidInputError("power matrix entry exceeds its k_max bound")
        _check_rows_strictly_decreasing(K)
        K.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "k_max", k_max)

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
        cls, rows: Iterable[Sequence[int]] | np.ndarray, k_max: Sequence[int] | None = None
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

    def select_rows(self, indices: Sequence[int]) -> "PowerMatrix":
        """Return the sub-matrix of the given rows, preserving their order."""
        return PowerMatrix(self.K[np.asarray(indices, dtype=np.intp)], self.k_max)

    def row_degrees(self) -> np.ndarray:
        """Total degree of each row."""
        return self.K.sum(axis=1)


def identity_power_matrix(n: int) -> PowerMatrix:
    """The power matrix of the coordinate monomials ``(x_1, ..., x_n)``."""
    if n < 1:
        raise InvalidInputError("identity power matrix needs at least one variable")
    return PowerMatrix(np.eye(n, dtype=np.int64), (1,) * n)


def _count_rows(bounds: Sequence[int], max_degree: int) -> int:
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
    k_max: Sequence[int],
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


def _as_sample_matrix(samples, n: int) -> np.ndarray:
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise InvalidInputError(f"samples must form a 2-D array, got shape {X.shape}")
    if X.shape[0] == 0:
        raise InvalidInputError("sample list is empty")
    if X.shape[1] != n:
        raise InvalidInputError(
            f"sample dimension {X.shape[1]} does not match {n} variables"
        )
    if not np.isfinite(X).all():
        raise InvalidInputError("samples contain non-finite entries")
    return X


def build_data_matrix(samples, pm: PowerMatrix) -> np.ndarray:
    """Evaluate the monomial vector at every sample.

    Args:
        samples: Array-like of shape ``(s, n)`` (or a list of ``n``-vectors).
        pm: Power matrix with ``n`` variables and ``d_v`` rows.

    Returns:
        Array of shape ``(d_v, s)`` whose column ``k`` is the monomial vector
        evaluated at ``samples[k]``; sample order is preserved.
    """
    X = _as_sample_matrix(samples, pm.n)
    s = X.shape[0]
    K = pm.K
    V = np.ones((pm.d_v, s))
    # Per-variable power tables avoid repeated exponentiation: exponents
    # repeat heavily across rows of K.
    for j in range(pm.n):
        mx = int(K[:, j].max()) if pm.d_v else 0
        table = X[:, j][None, :] ** np.arange(mx + 1, dtype=np.int64)[:, None]
        V *= table[K[:, j], :]
    return V


def eval_monomial_vector(x: Sequence[float], pm: PowerMatrix) -> np.ndarray:
    """Evaluate the monomial vector ``x**K`` at a single point.

    Component ``i`` equals ``prod_j x[j] ** K[i, j]`` with ``0**0 == 1``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInputError(f"x must be a vector, got shape {x.shape}")
    return build_data_matrix(x[None, :], pm)[:, 0]


def partition_power_matrix(pm: PowerMatrix, block_limit: int) -> list[PowerMatrix]:
    """Split a power matrix into row blocks of at most ``block_limit`` rows.

    Blocks are emitted lowest-order first: rows are ranked by ascending total
    degree with ties broken by ascending lexicographic order, then chunked.
    Within each block rows keep the decreasing-lex power-matrix invariant.
    The concatenation of all blocks is a permutation of the input rows.
    """
    if block_limit < 1:
        raise InvalidInputError(f"block_limit must be positive, got {block_limit}")
    K = pm.K
    deg = pm.row_degrees()
    # np.lexsort: last key is primary.  Ascending degree, then ascending lex.
    keys = tuple(K[:, j] for j in reversed(range(pm.n))) + (deg,)
    order = np.lexsort(keys)
    blocks = []
    for start in range(0, pm.d_v, block_limit):
        chunk = K[order[start : start + block_limit]]
        desc = chunk[np.lexsort(tuple(chunk[:, j] for j in reversed(range(pm.n))))][::-1]
        blocks.append(PowerMatrix(desc, pm.k_max))
    return blocks


def merge_power_matrices(a: PowerMatrix, b: PowerMatrix) -> PowerMatrix:
    """Union of two power matrices over the same variables, sorted and deduplicated."""
    if a.n != b.n:
        raise InvalidInputError(
            f"cannot merge power matrices over {a.n} and {b.n} variables"
        )
    k_max = tuple(max(x, y) for x, y in zip(a.k_max, b.k_max))
    return PowerMatrix.from_rows(np.vstack([a.K, b.K]), k_max)


def monomial_name(k: Sequence[int], var_names: Sequence[str]) -> str:
    """Human-readable monomial, e.g. ``x1*x2^2*y``; the constant prints as ``1``."""
    parts = []
    for name, e in zip(var_names, k):
        e = int(e)
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"
