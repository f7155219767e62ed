"""The identified observer model: prediction, residuals, (de)serialization.

An observer model advances its state with the measured output,

    x(t+1) = f_o(x(t), y(t)),        yhat(t | t-1) = h_o(x(t)),

so the one-step prediction at time ``t`` depends only on the initial state
and outputs strictly before ``t``.  Both maps are monomial maps; ``f_o``
takes the stacked vector ``(x, y)``.  A model holds no states of the series
it was identified from; ``g_io`` computes a state from any measured history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ._records import ArrayRecord, integer, printable, readonly_copy, real_array
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidInputError,
    NumericalOverflowError,
    ParseError,
    ValidationError,
)
from .genred import MonomialMap, eval_monomial_map_many
from .monomials import PowerMatrix, aligned_empty, bind_chain, data_matrix_workspace, run_chain
from .series import TimeSeriesSet, past_windows

#: Any state component beyond this magnitude aborts the observer recursion.
STATE_OVERFLOW_GUARD = 1e12

DOCUMENT_FORMAT = "polysid-model"
DOCUMENT_VERSION = 2


@dataclass(frozen=True, eq=False)
class OutputScaling(ArrayRecord):
    """Per-output divisor ``y_scaled = y / std``.

    It keeps the monomials of the scaled outputs well conditioned; the
    observer has no other output transform.  Two scalings are equal when
    their divisors are.  Raises InvalidInputError unless ``std`` is a vector
    of finite real numbers, all positive.
    """

    std: np.ndarray

    def __post_init__(self) -> None:
        std = readonly_copy(real_array(self.std, "scaling std", 1))
        if (std <= 0).any():
            raise InvalidInputError("scaling std must be positive")
        object.__setattr__(self, "std", std)

    def _column(self, y: np.ndarray) -> np.ndarray:
        """The std as a column over outputs ``(d_y, s)`` or ``(t, d_y, s)``.

        Raises:
            DimensionMismatchError: For any other shape, so that no vector
                broadcasts against the column silently.
        """
        shape = np.shape(y)
        if len(shape) not in (2, 3) or shape[-2] != self.std.size:
            raise DimensionMismatchError(
                f"outputs must have shape (d_y, s) or (t, d_y, s) with d_y = {self.std.size}, "
                f"got {shape}"
            )
        return self.std[:, None]

    def apply(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Raw outputs to scaled units, written to ``out`` when given."""
        return np.divide(y, self._column(y), out=out)

    def invert(self, y_scaled: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Scaled outputs to raw units, written to ``out`` when given."""
        return np.multiply(y_scaled, self._column(y_scaled), out=out)


@dataclass(frozen=True)
class ObserverModel:
    """Discrete-time polynomial observer system.

    Attributes:
        n: State dimension.
        d_y: Output dimension.
        f_o: Dynamics map over ``n + d_y`` variables ``(x, y)`` with ``n`` outputs.
        h_o: Output map over ``n`` state variables with ``d_y`` outputs.
        scaling: Per-output divisor applied during training; prediction
            consumes and reports raw units.  None gives unit divisors, so
            every model holds one.
        g_io: Optional past-window lifting ``x = g_io(y_minus)`` enabling
            initial-state computation from measured history.
        t_minus: Past-window length expected by ``g_io``.
        meta: Free-form provenance; ``identify`` stores its config echo.

    ``n``, ``d_y`` and ``t_minus`` are stored as Python ``int``s.  Two models
    are equal when every attribute is.  Raises InvalidInputError unless ``n``
    and ``d_y`` are positive integers and ``t_minus`` is None or an integer,
    and DimensionMismatchError unless the maps, the scaling and ``t_minus``
    fit ``n`` and ``d_y``.
    """

    n: int
    d_y: int
    f_o: MonomialMap
    h_o: MonomialMap
    scaling: OutputScaling | None = None
    g_io: MonomialMap | None = None
    t_minus: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("d_y", 1), ("t_minus", None)):
            if getattr(self, name) is not None or name != "t_minus":
                object.__setattr__(self, name, integer(getattr(self, name), name, least))
        if self.f_o.n_vars != self.n + self.d_y or self.f_o.m != self.n:
            raise DimensionMismatchError(  # n and d_y are not yet bounded by a map
                f"f_o must map {printable(self.n + self.d_y)} -> {printable(self.n)} variables, "
                f"got {self.f_o.n_vars} -> {self.f_o.m}"
            )
        if self.h_o.n_vars != self.n or self.h_o.m != self.d_y:
            raise DimensionMismatchError(
                f"h_o must map {self.n} -> {self.d_y} variables, "
                f"got {self.h_o.n_vars} -> {self.h_o.m}"
            )
        if self.g_io is not None:
            if self.g_io.m != self.n:
                raise DimensionMismatchError("g_io output dimension must equal n")
            if not self.t_minus or self.g_io.n_vars != self.t_minus * self.d_y:
                raise DimensionMismatchError("g_io needs t_minus >= 1 and t_minus * d_y inputs")
        if self.scaling is None:
            object.__setattr__(self, "scaling", OutputScaling(np.ones(self.d_y)))
        if self.scaling.std.size != self.d_y:
            raise DimensionMismatchError("scaling dimension must equal d_y")


@dataclass(frozen=True, eq=False)
class PredictionReport(ArrayRecord):
    """One-step predictions, residuals and error summaries.

    Times are 1-based within the evaluated series; predictions cover
    ``t = t_start .. t_start + T' - 1``.  Residuals are exactly
    ``y(t) - yhat(t | t-1)``.  Relative RMSE divides by the per-dimension
    standard deviation of the measured outputs over the evaluated range.
    Two reports are equal when all their fields are.
    """

    t_start: int
    predictions: np.ndarray  # (T', d_y, s)
    residuals: np.ndarray    # (T', d_y, s)
    rmse: np.ndarray         # (d_y,)
    relative_rmse: np.ndarray  # (d_y,)
    per_series_rmse: np.ndarray  # (s,)

    @property
    def max_relative_rmse(self) -> float:
        return float(self.relative_rmse.max())


#: Largest magnitudes whose squares and their sums neither overflow nor lose
#: their precision to underflow, so that they need no rescaling.
_SAFE_MAGNITUDES = (1e-140, 1e140)


def _safe(peaks: np.ndarray) -> bool:
    """Whether every largest magnitude is 0 or in ``_SAFE_MAGNITUDES``."""
    low, high = _SAFE_MAGNITUDES
    return bool(((peaks == 0) | ((peaks > low) & (peaks < high))).all())


def _rms(values: np.ndarray, axis: tuple[int, int], center: bool = False) -> np.ndarray:
    """Root mean square over ``axis``, about the mean (the std) if ``center``."""
    # Divided exactly by a power of two near the largest magnitude: no sum or square
    # overflows, and in place, so one temporary array is held.
    _, e = np.frexp(np.abs(values).max(axis=axis, keepdims=True))
    scaled = np.ldexp(values, -e)
    if center:
        scaled -= scaled.mean(axis=axis, keepdims=True)
    scaled *= scaled
    return np.ldexp(np.sqrt(scaled.mean(axis=axis)), e.squeeze(axis))


@np.errstate(over="ignore")  # the residuals are checked instead
def _summarize(t_start: int, measured: np.ndarray, predicted: np.ndarray) -> PredictionReport:
    """The report's RMSEs, squaring the residuals once unless a magnitude needs ``_rms``.

    Scaling by a power of two is exact, so where every largest magnitude is
    in ``_SAFE_MAGNITUDES`` the unscaled sums give ``_rms``'s values bit for
    bit.  One array holds the residuals' magnitudes, their squares, the
    squared deviations of the outputs and the residuals, so a report holds
    no more memory at its peak than it returns.  A magnitude squares to the
    residual's square, and ``_rms`` of it is ``_rms`` of the residual.
    """
    magnitudes = measured - predicted
    np.abs(magnitudes, out=magnitudes)
    peaks = magnitudes.max(axis=0)  # (d_y, s)
    # max propagates NaN and inf, so the peaks are finite only if every residual is.
    if not np.isfinite(peaks).all():
        finite = np.isfinite(magnitudes).all(axis=1)
        t, k = np.unravel_index(finite.argmin(), finite.shape)
        raise NumericalOverflowError(
            f"the residual of series {k + 1} at time {t_start + t} overflows"
        )
    if _safe(peaks.max(axis=1)) and _safe(peaks.max(axis=0)):
        squares = np.multiply(magnitudes, magnitudes, out=magnitudes)
        rmse = np.sqrt(squares.mean(axis=(0, 2)))
        per_series = np.sqrt(squares.mean(axis=(0, 1)))
    else:
        rmse, per_series = _rms(magnitudes, (0, 2)), _rms(magnitudes, (0, 1))
    peaks = np.maximum(measured.max(axis=(0, 2)), -measured.min(axis=(0, 2)))
    if _safe(peaks):
        deviations = np.subtract(measured, measured.mean(axis=(0, 2), keepdims=True),
                                 out=magnitudes)
        deviations *= deviations
        std = np.sqrt(deviations.mean(axis=(0, 2)))
    else:
        std = _rms(measured, (0, 2), center=True)
    residuals = np.subtract(measured, predicted, out=magnitudes)
    std = np.where(std > 0, std, 1.0)
    return PredictionReport(
        t_start=t_start,
        predictions=predicted,
        residuals=residuals,
        rmse=rmse,
        relative_rmse=rmse / std,
        per_series_rmse=per_series,
    )


def run_observer(
    f: MonomialMap,
    h: MonomialMap,
    x: np.ndarray,
    steps: int,
    feedback: Callable[[int, np.ndarray, np.ndarray], None],
    t_start: int = 1,
) -> np.ndarray:
    """Outputs ``h(x)``, shape ``(steps, h.m, s)``, of ``x <- f(x, y)``, ``y`` from ``feedback``.

    Step ``i`` is time ``t_start + i`` and each column of ``x`` one series;
    ``x`` itself is left unchanged.  ``feedback(i, yhat_i, out)`` gives the
    outputs that drive the state: the measured ones for prediction, the
    noisy ones for simulation.  ``yhat_i`` is row ``i`` of the returned
    array, which it may change in place; ``out`` is the ``(h.m, s)`` array
    of the driving outputs, which it must fill and must not keep: the next
    step overwrites it.

    Each map's product chain is bound once to its workspace and to the rows
    of one stack of the state over the driving outputs, and runs there at
    every step.

    Outputs agree across batch widths only to rounding: the monomial values
    do not depend on the width, but the BLAS kernel of ``L @`` them does.

    ``x`` must be finite: the callers check it, and the guards keep every
    later state finite.

    Raises:
        NumericalOverflowError: Naming the series and time of the first
            output, computed or fed back, that is not finite.
        DivergenceError: Naming the series and time at which a state
            component first exceeds ``STATE_OVERFLOW_GUARD`` or is NaN.
    """
    n, s = x.shape
    # The state over the fed-back outputs, for the whole run; the chains read its rows, and
    # aligned they read them faster, whatever the heap held before.
    z = aligned_empty(n + h.m, s)
    state, driving = z[:n], z[n:]
    state[...] = x  # finite, as the callers check: the guards keep z finite
    yhat = np.empty((steps, h.m, s))
    # One data-matrix workspace per map for all steps, so that no step allocates
    # one: with a fresh one per step, the heap layout decided the peak memory.
    h_work, f_work = data_matrix_workspace(h.K, s), data_matrix_workspace(f.K, s)
    h_chain, f_chain = bind_chain(h.K, state, h_work), bind_chain(f.K, z, f_work)
    # Guards, not numpy warnings, report overflow; each tests the whole array first.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, yhat_i in enumerate(yhat):
            run_chain(h_chain)
            np.matmul(h.L, h_work[: h.K.d_v], out=yhat_i)
            feedback(i, yhat_i, driving)
            if not (np.isfinite(yhat_i).all() and np.isfinite(driving).all()):
                finite = np.isfinite(yhat_i).all(axis=0) & np.isfinite(driving).all(axis=0)
                raise NumericalOverflowError(
                    f"the output of series {int(finite.argmin()) + 1} at time "
                    f"{t_start + i} overflows"
                )
            run_chain(f_chain)
            np.matmul(f.L, f_work[: f.K.d_v], out=state)
            # NaN (say ``inf - inf``) fails every comparison: test for "within".
            if not np.abs(state).max() <= STATE_OVERFLOW_GUARD:
                within = np.abs(state).max(axis=0) <= STATE_OVERFLOW_GUARD
                raise DivergenceError(
                    f"state diverged in series {int(within.argmin()) + 1} after time "
                    f"{t_start + i} (|x| > {STATE_OVERFLOW_GUARD:g} or NaN)"
                )
    return yhat


def predict_one_step(
    model: ObserverModel,
    ts: TimeSeriesSet,
    x0: np.ndarray,
    t_start: int = 1,
) -> PredictionReport:
    """Run the observer over measured outputs, emitting one-step predictions.

    For each series, starting from state ``x0`` at time ``t_start``:
    ``yhat(t | t-1) = h_o(x(t))`` and ``x(t+1) = f_o(x(t), y(t))`` with the
    *measured* ``y(t)``, never the prediction.  The model's output scaling is
    applied and inverted internally so the report is in raw units.

    Args:
        model: The observer model.
        ts: Measured series; ``ts.d_y`` must equal ``model.d_y``.
        x0: Initial states, shape ``(n, s)`` (one column per series).
        t_start: 1-based time of the first prediction.

    Raises:
        InvalidInputError: If ``x0`` is not a 2-D array of finite real numbers
            that fits the model and ``ts``, or ``t_start`` not an integer in ``1..ts.t_1``.
        DivergenceError: If any state component exceeds the overflow guard;
            the message names the series and time step.
        NumericalOverflowError: If a predicted output overflows, before or
            after inverting the output scaling, a measured one overflows
            the scaling, or a residual overflows; the message names the
            series and time.
    """
    if ts.d_y != model.d_y:
        raise DimensionMismatchError(
            f"model output dimension {model.d_y} does not match data dimension {ts.d_y}"
        )
    x = real_array(x0, "x0", 2)
    if x.shape != (model.n, ts.s):
        raise DimensionMismatchError(
            f"x0 must have shape ({model.n}, {ts.s}), got {x.shape}"
        )
    t_start = integer(t_start, "t_start", 1, ts.t_1)

    measured = ts.Y[t_start - 1 :]

    def feedback(i: int, yhat_i: np.ndarray, out: np.ndarray) -> None:
        # Step by step, so no scaled copy of the set is held; in place, so the guard sees it.
        model.scaling.invert(yhat_i, out=yhat_i)
        model.scaling.apply(measured[i], out=out)

    predicted = run_observer(model.f_o, model.h_o, x, len(measured), feedback, t_start)
    return _summarize(t_start, measured, predicted)


def initial_state_from_past(model: ObserverModel, y_past: np.ndarray) -> np.ndarray:
    """Compute the state after a measured history via the stored past lifting.

    Args:
        y_past: The ``t_minus`` most recent outputs of each series, shape
            ``(t_minus, d_y, s)`` as in ``TimeSeriesSet.Y``, in time order
            (oldest first).

    Returns:
        The states ``(n, s)`` at the time immediately after the window.

    The states of an identified model's training series ``ts`` at its
    first anchor ``model.t_minus + 1`` are the burn-in state
    ``initial_state_from_past(model, ts.Y[: model.t_minus])``.

    Raises:
        InvalidInputError: If the model carries no past lifting, or ``y_past`` is
            not a 3-D array of finite real numbers that fits the model.
        NumericalOverflowError: Naming the first series whose state is not
            finite: its past outputs overflow the scaling or the lifting.
    """
    if model.g_io is None or model.t_minus is None:
        raise InvalidInputError("model does not store a past-output lifting")
    Y = real_array(y_past, "past window y_past", 3)
    if Y.shape[0] != model.t_minus or Y.shape[1] != model.d_y:
        raise DimensionMismatchError(
            f"past window must have shape ({model.t_minus}, {model.d_y}, s), got {Y.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        # The window before time t_minus + 1 is all of Y, most recent first: a
        # new array, scaled in place.
        window = past_windows(Y, [model.t_minus + 1], model.t_minus).reshape(Y.shape)
        window = model.scaling.apply(window, out=window).reshape(Y.shape[0] * Y.shape[1], -1)
        try:  # the lifting checks the window, once
            x = eval_monomial_map_many(model.g_io, window)
        except InvalidInputError:
            # Y is finite, so a window that is not overflowed the scaling.
            if np.isfinite(window).all():  # no series at all
                raise
            x = window
        finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise NumericalOverflowError(
            f"the state of series {int(finite.argmin()) + 1} is not finite: its "
            "past outputs overflow the output scaling or the past lifting"
        )
    return x


def predict_with_burn_in(model: ObserverModel, ts: TimeSeriesSet) -> PredictionReport:
    """Predict a series set using its own first ``t_minus`` samples as history.

    The initial state at time ``t_minus + 1`` comes from the stored past
    lifting; predictions cover ``t = t_minus + 1 .. t_1``.

    Raises:
        InvalidInputError: If the model has no past lifting or the series
            are too short for it.
        NumericalOverflowError, DivergenceError: As ``initial_state_from_past``
            and ``predict_one_step`` raise them.
    """
    if ts.d_y != model.d_y:
        raise DimensionMismatchError(
            f"model output dimension {model.d_y} does not match data dimension {ts.d_y}"
        )
    if model.g_io is None or model.t_minus is None:
        raise InvalidInputError("model does not store a past-output lifting")
    if ts.t_1 < model.t_minus + 1:
        raise InvalidInputError(
            f"series of length {ts.t_1} too short for a past window of {model.t_minus}"
        )
    x0 = initial_state_from_past(model, ts.Y[: model.t_minus])
    return predict_one_step(model, ts, x0, t_start=model.t_minus + 1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _encode_map(M: MonomialMap) -> dict:
    # Documents never carry all-zero coefficient columns; deserialize_model
    # rejects them.
    M = M.drop_zero_columns()
    return {
        "n_vars": M.n_vars,
        "k_max": list(M.K.k_max),
        "K": M.K.K.tolist(),
        "L": M.L.tolist(),
    }


def _integer(value: Any, what: str) -> int:
    """A JSON integer, or a float with an integral value; never a boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value: Any, what: str) -> float:
    """A JSON number; never a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _decode_map(obj: dict, where: str) -> MonomialMap:
    try:
        n_vars = _integer(obj["n_vars"], f"{where}: n_vars")
        k_max = tuple(_integer(v, f"{where}: k_max entry") for v in obj["k_max"])
        K_rows = [[_integer(v, f"{where}: exponent") for v in row] for row in obj["K"]]
        L_rows = [[_real(v, f"{where}: coefficient") for v in row] for row in obj["L"]]
        K = np.asarray(K_rows, dtype=np.int64).reshape(len(K_rows), n_vars)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: malformed monomial map: {exc}") from exc
    try:
        return MonomialMap(L_rows, PowerMatrix(K, k_max))
    except InvalidInputError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def serialize_model(model: ObserverModel) -> str:
    """Encode a model as a human-readable JSON document.

    Coefficients are written as decimal literals that round-trip to the exact
    binary value (Python's shortest-exact float encoding, at most 17
    significant digits); exponents are plain integers.
    """
    doc: dict[str, Any] = {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "n": model.n,
        "d_y": model.d_y,
        "f_o": _encode_map(model.f_o),
        "h_o": _encode_map(model.h_o),
        "g_io": None if model.g_io is None else _encode_map(model.g_io),
        "t_minus": model.t_minus,
        "scaling": {"std": model.scaling.std.tolist()},
        "meta": model.meta,
    }
    return json.dumps(doc, indent=2)


def deserialize_model(text: str) -> ObserverModel:
    """Decode a model document, validating every structural invariant.

    Raises:
        ParseError: On malformed JSON (message carries line/column), an integer
            literal of more digits than Python converts, or nesting too deep
            for the decoder.
        ValidationError: On schema or invariant violations, including
            all-zero coefficient columns (trivial generators), a ``version``
            other than the integer ``DOCUMENT_VERSION`` (2), and a ``scaling``
            that is missing, null or holds any key but ``std``.  Version 1
            documents held an output mean as well; they are not read, since
            the cut that gave nonzero means is gone: identify the model again.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"model document is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer of too many digits, or deep nesting
        raise ParseError(f"model document cannot be decoded: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != DOCUMENT_FORMAT:
        raise ValidationError("document is not a polysid model")
    version = doc.get("version")
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise ValidationError(
            f"model document version {version!r} is not supported; it must be "
            f"{DOCUMENT_VERSION}: identify the model again"
        )
    try:
        n = _integer(doc["n"], "n")
        d_y = _integer(doc["d_y"], "d_y")
        f_doc, h_doc = doc["f_o"], doc["h_o"]
        t_minus = None if doc.get("t_minus") is None else _integer(doc["t_minus"], "t_minus")
        sc = doc.get("scaling")
        if not isinstance(sc, dict) or sc.keys() != {"std"}:
            raise ValidationError(f'scaling must be {{"std": [...]}}, got {printable(sc)}')
        std = np.asarray([_real(v, "scaling std") for v in sc["std"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from exc
    f_o = _decode_map(f_doc, "f_o")
    h_o = _decode_map(h_doc, "h_o")
    for name, M in (("f_o", f_o), ("h_o", h_o)):
        if not M.is_nontrivial():
            raise ValidationError(f"{name} has an all-zero coefficient column")
    g_io = None if doc.get("g_io") is None else _decode_map(doc["g_io"], "g_io")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError(f"meta must be an object, got {meta!r}")
    try:
        return ObserverModel(
            n=n,
            d_y=d_y,
            f_o=f_o,
            h_o=h_o,
            scaling=OutputScaling(std),
            g_io=g_io,
            t_minus=t_minus,
            meta=meta,
        )
    except InvalidInputError as exc:
        raise ValidationError(str(exc)) from exc
