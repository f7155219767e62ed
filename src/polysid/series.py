"""Container for finite sets of output time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class TimeSeriesSet:
    """A set of ``s`` output series of dimension ``d_y`` and length ``t_1``.

    Values are indexed ``Y[t - 1, dim, series]`` for times ``t = 1..t_1``.
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

    @property
    def t_1(self) -> int:
        return self.Y.shape[0]

    @property
    def d_y(self) -> int:
        return self.Y.shape[1]

    @property
    def s(self) -> int:
        return self.Y.shape[2]

    def at(self, t: int) -> np.ndarray:
        """Outputs at 1-based time ``t`` as a ``(d_y, s)`` matrix."""
        if not 1 <= t <= self.t_1:
            raise InvalidInputError(f"time {t} outside 1..{self.t_1}")
        return self.Y[t - 1]

    def series(self, k: int) -> np.ndarray:
        """Series ``k`` (0-based) as a ``(t_1, d_y)`` array."""
        return self.Y[:, :, k]
