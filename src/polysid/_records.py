"""Value equality, read-only arrays, and the gates for a caller's arrays and scalars."""

import math
import numbers
from dataclasses import fields

import numpy as np

from .errors import InvalidInputError, PolysidError


class ArrayRecord:
    """Value equality for a dataclass, declared ``eq=False``, with array fields.

    Records of one type are equal when the fields holding an array on either
    side are ``np.array_equal`` and the other fields, as one list, are equal;
    a list compares items by identity first, so one NaN object is
    equal to itself.  Records are unhashable unless a class defines
    ``__hash__``.
    """

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        arrays, mine, theirs = [], [], []
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                arrays.append((a, b))
            else:
                mine.append(a)
                theirs.append(b)
        return mine == theirs and all(np.array_equal(a, b) for a, b in arrays)


def readonly_copy(a, dtype=None) -> np.ndarray:
    """A new read-only C-ordered array of ``a``'s values, never the caller's array."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def real_array(a, what: str, ndim: int) -> np.ndarray:
    """``a`` as a float array, uncopied if it is one, of ``ndim`` dimensions.

    Booleans, strings and bytes are not numbers here, though numpy converts them; but
    numpy turns a list mixing booleans and numbers into a number array, which passes.

    Raises:
        InvalidInputError: Naming ``what``, if ``a`` is complex, holds booleans, strings
            or bytes, does not convert to floats, has another number of dimensions
            or a non-finite entry.
    """
    try:
        x = np.asarray(a)
        kinds = {np.asarray(v).dtype.kind for v in x.flat} if x.dtype == object else {x.dtype.kind}
        if "c" in kinds:
            raise InvalidInputError(f"{what} must be real, got complex entries")
        if kinds & set("bUS"):
            raise InvalidInputError(f"{what} must hold numbers, got booleans, strings or bytes")
        x = x.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be an array of real numbers: {exc}") from exc
    if x.ndim != ndim:
        raise InvalidInputError(f"{what} must be {ndim}-D, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"non-finite entries in {what}")
    return x


def printable(v) -> str:
    """``repr(v)``, or for an integer of more digits than Python prints, its power of ten."""
    try:
        return repr(v)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(v, int):
            return f"about {'-' if v < 0 else ''}10**{round(math.log10(abs(v)))}"
        return f"a {type(v).__name__} too long to print"


def integer(v, what: str, least: int | None, greatest: int | None = None,
            error: type[PolysidError] = InvalidInputError) -> int:
    """``int(v)`` for a Python or numpy integer, not a bool, in ``least..greatest``, else ``error``.

    A bound of None is none; without ``greatest``, ``least`` is None, 0 or 1.
    """
    if (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and (least is None or v >= least) and (greatest is None or v <= greatest)):
        return int(v)
    kinds = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
    kind = kinds[least] if greatest is None else f"an integer in {least}..{greatest}"
    raise error(f"{what} must be {kind}, got {printable(v)}")


def positive_real(v, what: str, below: float = math.inf,
                  error: type[PolysidError] = InvalidInputError) -> float:
    """``float(v)`` for a real, not a bool, that converts into ``(0, below)``, else ``error``."""
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # beyond the float range
        x = math.nan
    if not 0.0 < x < below:
        raise error(f"{what} must lie in (0, {below:g}), got {printable(v)}")
    return x
