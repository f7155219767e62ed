"""Value equality, read-only arrays and the real-array check for caller arrays."""

from dataclasses import fields

import numpy as np

from .errors import InvalidInputError


class ArrayRecord:
    """Value equality for a dataclass, declared ``eq=False``, with array fields.

    Records of one type are equal when the fields holding an array on either
    side are ``np.array_equal`` and the other fields, as one list, are equal;
    a list compares items by identity first, so a shared NaN default is
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


def real_array(a, what: str, ndim: int | tuple[int, ...]) -> np.ndarray:
    """``a`` as a float array, uncopied if it is one, of ``ndim`` (or one of ``ndim``) dimensions.

    Raises:
        InvalidInputError: Naming ``what``, if ``a`` is complex, does not convert to
            floats, has another number of dimensions or a non-finite entry.
    """
    try:
        x = np.asarray(a)
        if x.dtype.kind == "c":
            raise InvalidInputError(f"{what} must be real, got complex entries")
        x = x.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be an array of real numbers: {exc}") from exc
    dims = np.atleast_1d(ndim)
    if x.ndim not in dims:
        raise InvalidInputError(f"{what} must be {'- or '.join(map(str, dims))}-D, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError(f"non-finite entries in {what}")
    return x
