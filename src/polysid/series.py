"""Container for finite sets of output time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True, eq=False)
class TimeSeriesSet:
    """A set of ``s`` output series of dimension ``d_y`` and length ``t_1``.

    Values are indexed ``Y[t - 1, dim, series]`` for times ``t = 1..t_1``.
    Two sets are equal when their arrays are.
    """

    Y: np.ndarray

    def __post_init__(self) -> None:
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim != 3:
            raise InvalidInputError(
                f"time series array must have shape (t_1, d_y, s), got {Y.shape}"
            )
        if min(Y.shape) < 1:
            raise InvalidInputError("t_1, d_y and s must all be at least 1")
        if not np.isfinite(Y).all():
            raise InvalidInputError("time series contain non-finite values")
        Y = Y.copy()
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeriesSet):
            return NotImplemented
        return np.array_equal(self.Y, other.Y)

    @property
    def t_1(self) -> int:
        return self.Y.shape[0]

    @property
    def d_y(self) -> int:
        return self.Y.shape[1]

    @property
    def s(self) -> int:
        return self.Y.shape[2]


def past_windows(Y: np.ndarray, anchors, length: int) -> np.ndarray:
    """Output windows ending just before each anchor, one column per (anchor, series).

    The column block of anchor ``a`` stacks ``y(a - 1)`` down to
    ``y(a - length)`` (most recent first); blocks follow ``anchors`` and
    columns within a block follow the series.  ``Y`` is indexed
    ``Y[t - 1, dim, series]``; callers keep every window inside it.
    """
    times = np.asarray(anchors)[None, :] - 2 - np.arange(length)[:, None]
    return Y[times].transpose(0, 2, 1, 3).reshape(length * Y.shape[1], -1)
