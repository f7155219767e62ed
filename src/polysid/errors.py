"""Exception hierarchy shared by all polysid modules.

Every error carries a short machine-parseable ``code`` so the CLI can emit
one-line diagnostics of the form ``error: CODE: message``.
"""

from __future__ import annotations


class PolysidError(Exception):
    """Base class for all library errors."""

    code = "ERROR"


class InvalidInputError(PolysidError):
    """An argument violates a documented precondition."""

    code = "INVALID_INPUT"


class DimensionMismatchError(InvalidInputError):
    """Array shapes or model/data dimensions do not line up."""

    code = "DIM_MISMATCH"


class CapacityError(PolysidError):
    """A monomial enumeration would exceed the configured row cap."""

    code = "CAPACITY"


class RankDeficiencyError(PolysidError):
    """Too few data columns relative to the retained rank."""

    code = "RANK_DEFICIENT"


class NumericalOverflowError(PolysidError):
    """Non-finite values appeared in an intermediate computation."""

    code = "OVERFLOW"


class DivergenceError(PolysidError):
    """A simulated or predicted state left the overflow guard region."""

    code = "DIVERGENCE"


class FormatError(PolysidError):
    """A series file violates the long-format CSV schema."""

    code = "FORMAT"


class ParseError(PolysidError):
    """A model or key-value document could not be parsed."""

    code = "PARSE"


class ValidationError(PolysidError):
    """A decoded document violates a structural invariant."""

    code = "VALIDATION"


class ConfigError(PolysidError):
    """An identification config is incomplete or inconsistent."""

    code = "CONFIG"
