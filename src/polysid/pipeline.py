"""The subalgebraic identification pipeline.

Given a set of output time series, the pipeline lifts past output windows
into a bounded monomial dictionary, regresses future windows on the lifted
past through a truncated SVD, prunes the resulting generator set, and
finally regresses the next state on the lifted (state, output) pair to
obtain a polynomial observer model:

    x(t+1) = f_o(x(t), y(t)),      yhat(t | t-1) = h_o(x(t)).

The pruned generators are the state map and the output map is linear in
the state.  This departs from the paper, which next factorizes the
generator set, rewriting components that are products of two others into
a polynomial output map.  That step never fires on truncated-SVD
generators: they are dense, so every component has the same leading
monomial and no two leading monomials sum to a third.  An implementation of
it left all 226 models it was measured on unchanged (160 pooled benchmark
training sets, the 21 identifications of the test suite, and 45 linear,
polynomial and pooled sets at 0 to 5% output noise), so it was removed.

The past is lifted once, at the final window lengths ``t_plus_max`` and
``t_minus_max``, with one truncated SVD and one pruning over the full past
dictionary.  This departs from the paper too, which feeds a large past
dictionary to the SVD in ascending-degree blocks, each merged with the
generators that survived pruning of the blocks before it.  The pruning never
dropped a row of a block before the last, so the last merged block was the
full dictionary in the same order and gave the same model.  An
implementation of the blocks left every model it was measured on unchanged
(24 pooled benchmark training sets, 2 smaller pooled sets, the linear and
polynomial acceptance sets at block limits 2, 4 and 8, 3 pooled sets at 0.1
to 1% output noise, and a two-output polynomial system at block limits 16 to
128), so it was removed.

It departs from the paper a third time by dropping its window schedule,
which grew both window lengths from their minima and stopped once the
retained rank ``n1`` held for three steps; the model came from the last
windows alone.  ``n1`` never held for three steps on the 16 pooled benchmark
training sets, the acceptance sets A1 and A2, a two-output system or the
command-line round trip's set, and one pass at the final windows gave each
the same model and predictions bit for bit.  A caller who relied on the
schedule to detect the order by growing the windows loses that.

One chunk loop lifts all samples: both regressions stream to ``svd_trunc_chunks``,
whose split factorization differs from a whole one only at rounding level.
One state-map evaluation gives the states at the (consecutive) anchors and one
step later, and all of ``identify`` runs in one overflow scope.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._records import ArrayRecord
from .errors import (
    CapacityError,
    ConfigError,
    InvalidInputError,
    NumericalOverflowError,
    RankDeficiencyError,
)
from .genred import MonomialMap
from .model import ObserverModel, OutputScaling
from .monomials import (
    AUX_CELL_CAP,
    DEFAULT_ROW_CAP,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    identity_power_matrix,
)
from .numred import SvdTruncResult, TruncationTable, lk_reduce, svd_trunc, svd_trunc_chunks
from .series import TimeSeriesSet, past_windows

# The removed elimination stage and block path, and the unchunked svd_trunc;
# not called, kept while the benchmark's tracer still patches these names.
eliminate_products = partition_power_matrix = merge_power_matrices = None

#: Samples per chunk of a lifting in ``identify``; ``2 d_v`` for ``d_v`` monomials if wider.
CHUNK_COLUMNS = 1024


def build_window_vectors(
    ts: TimeSeriesSet, t, t_plus: int, t_minus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack future and past output windows around time ``t`` for every series.

    Column ``k`` of the future matrix stacks ``y(t + t_plus - 1, k)`` down to
    ``y(t, k)``; column ``k`` of the past matrix stacks ``y(t - 1, k)`` down
    to ``y(t - t_minus, k)`` (most recent first).  ``t`` may also be an
    array of anchor times: each anchor then gives a block of ``s`` columns,
    in anchor order.

    Returns:
        ``(Yplus, Yminus)`` of shapes ``(t_plus * d_y, a * s)`` and
        ``(t_minus * d_y, a * s)`` for ``a`` anchor times.

    Raises:
        InvalidInputError: If a window would leave the series bounds.
    """
    if t_plus < 1 or t_minus < 1:
        raise InvalidInputError("window lengths must be positive")
    anchors = np.atleast_1d(t)
    outside = (anchors - t_minus < 1) | (anchors + t_plus - 1 > ts.t_1)
    if outside.any():
        raise InvalidInputError(
            f"window (t={anchors[outside][0]}, t_plus={t_plus}, t_minus={t_minus}) "
            f"exceeds series bounds 1..{ts.t_1}"
        )
    return past_windows(ts.Y, anchors + t_plus, t_plus), past_windows(ts.Y, anchors, t_minus)


#: Least value of each integer ``IdentConfig`` field.
_INT_LEAST = {
    "t_plus_max": 1, "t_minus_max": 1, "k_max_y": 0, "k_max_x": 0, "k_max_y2": 0,
    "anchor_t": 1, "max_total_degree_xy": 0, "row_cap": 1,
}


#: ``IdentConfig`` fields that may be None.
_AUTO_FIELDS = ("anchor_t", "pool_windows", "max_total_degree_xy")


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


#: Deprecated ``IdentConfig`` fields, each with why it is ignored.
_IGNORED_FIELDS = (
    ("r3", "generator-product elimination was removed"),
    ("block_limit", "the past dictionary is reduced in one pass"),
    ("t_plus_min", "identify runs once, at t_plus_max"),
    ("t_minus_min", "identify runs once, at t_minus_max"),
)


@dataclass
class IdentConfig:
    """Parameters of the identification pipeline.

    The three thresholds ``r1``, ``r2`` and ``r4`` are mandatory; structural
    parameters carry defaults.

    Attributes:
        r1: Mass-fraction threshold of the past-to-future SVD truncation.
        r2: Mass-fraction threshold of the dynamics SVD truncation.
        r4: Column-pruning threshold of the LK-reductions.
        t_plus_max / t_minus_max: The future and past window lengths.
        k_max_y: Exponent bound (nonnegative) of every past output in the
            past lifting, ``t_minus * d_y`` variables.
        k_max_x: Exponent bound (nonnegative) of every state in the
            dynamics lifting.
        k_max_y2: Exponent bound (nonnegative) of every current output in
            the dynamics lifting.
        anchor_t: Anchor time; defaults to ``t_minus_max + 1``.
        pool_windows: Pool every admissible anchor as extra data columns;
            ``None`` pools when the series count ``s`` is below four times
            the past dictionary size ``d_v``.
        max_total_degree_xy: Optional total-degree cap on the (state, output)
            dictionary (nonnegative); the bounded monomial set may be any
            subset of the full enumeration, and low-degree subsets keep the
            dynamics map tame between samples.  The capped set is enumerated
            directly, so its size, not the box's, counts against
            ``row_cap``.  ``None`` uses the full bounded set.
        scale_outputs: Standardize each output dimension before lifting and
            fold the transform into the model.
        scale_gamma: Extra gain (finite, positive) on the scaling divisor: outputs
            are divided by ``scale_gamma * std``, so values below 1 inflate
            the working amplitude.  Larger amplitudes weight high-degree
            monomial directions more heavily in the truncated SVDs.
        row_cap: Hard cap (positive) on the rows of each enumerated monomial
            dictionary, the past lifting and the (state, output) lifting,
            checked on the true row count before allocation.
        r3 / block_limit / t_plus_min / t_minus_min: Deprecated and ignored:
            they tuned the stages that the module docstring says were removed.

    ``identify`` runs once, at ``t_plus_max`` and ``t_minus_max``; the module
    docstring says why.  Setting a deprecated field warns with a
    ``FutureWarning``; the resolved config sets it to ``None`` and its echo
    leaves it out.
    """

    r1: float
    r2: float
    r4: float
    t_plus_min: int | None = None
    t_minus_min: int | None = None
    t_plus_max: int = 8
    t_minus_max: int = 8
    k_max_y: int = 1
    k_max_x: int = 1
    k_max_y2: int = 1
    anchor_t: int | None = None
    pool_windows: bool | None = None
    max_total_degree_xy: int | None = None
    scale_outputs: bool = True
    scale_gamma: float = 1.0
    row_cap: int = DEFAULT_ROW_CAP
    r3: float | None = None
    block_limit: int | None = None

    def resolved(self, ts: TimeSeriesSet) -> "IdentConfig":
        """Validate against a data set and return a copy with every default filled in.

        The copy sets ``anchor_t`` and gives every integer field as a
        Python ``int``; resolving it again returns an equal config.

        Raises:
            ConfigError: Naming the first field of the wrong type or out of
                range, or if the windows do not fit the series.
        """
        for name in ("r1", "r2", "r4"):
            v = getattr(self, name)
            if not (_is_real(v) and 0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v!r}")
        for name, reason in _IGNORED_FIELDS:
            if getattr(self, name) is not None:
                warnings.warn(f"{name} is ignored: {reason}", FutureWarning, stacklevel=2)
        if not (_is_real(self.scale_gamma) and 0 < self.scale_gamma < np.inf):
            raise ConfigError(f"scale_gamma must be finite and positive, got {self.scale_gamma!r}")
        for name in ("scale_outputs", "pool_windows"):
            v = getattr(self, name)
            if not (isinstance(v, (bool, np.bool_)) or v is None and name in _AUTO_FIELDS):
                raise ConfigError(f"{name} must be a boolean, got {v!r}")
        ints = {}
        for name, least in _INT_LEAST.items():
            v = getattr(self, name)
            if v is None and name in _AUTO_FIELDS:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                kind = "nonnegative" if least == 0 else "positive"
                raise ConfigError(f"{name} must be a {kind} integer, got {v!r}")
            ints[name] = int(v)
        t_minus_max, t_plus_max = ints["t_minus_max"], ints["t_plus_max"]
        anchor = ints.setdefault("anchor_t", t_minus_max + 1)
        if anchor - t_minus_max < 1:
            raise ConfigError(
                f"anchor time {anchor} leaves no room for a past window of "
                f"{t_minus_max}"
            )
        if anchor > ts.t_1 / 2:
            raise ConfigError(
                f"anchor time {anchor} must not exceed half the series length "
                f"({ts.t_1}/2)"
            )
        if anchor + t_plus_max - 1 > ts.t_1:
            raise ConfigError(
                f"anchor time {anchor} leaves no room for a future window of "
                f"{t_plus_max}"
            )
        return replace(self, **{name: None for name, _ in _IGNORED_FIELDS}, **ints)

    def echo(self) -> dict:
        """A new flat dict of the fields but the deprecated ones (for reports and provenance)."""
        return {k: v for k, v in self.__dict__.items() if k not in dict(_IGNORED_FIELDS)}


@dataclass(frozen=True)
class ReductionRecord:
    """The past regression's dictionary size, before and after pruning, and mass table.

    ``IdentDiagnostics.reductions`` holds one in a list only because the
    benchmark under ``bench/`` reads it (ROADMAP item 3).
    """

    rows_presented: int
    rows_kept: int
    table1: TruncationTable


@dataclass(eq=False)
class IdentDiagnostics(ArrayRecord):
    """The record of ``identify``'s one pass; ``identify`` sets every field.

    Attributes:
        pooled: Whether every admissible anchor gave data columns.
        anchors: The anchor times, in column order.
        n_columns: Data columns, ``len(anchors)`` times the series count.
        reductions: The past-to-future regression, a one-element list.
        n1: Retained rank of the past regression, the state dimension.
        n2: Retained rank of the dynamics regression.
        f_monomials_before / f_monomials_after: Monomials of the (state,
            output) dictionary, and of the dynamics map after pruning.
        table2: Singular value mass table of the dynamics regression.
        training_rmse_per_series: One-step output RMSE of each series over
            its outputs and anchors, in scaled output units (raw only when
            ``scale_outputs`` is off), unlike ``PredictionReport``'s raw units.
        training_relative_rmse: The one-step RMSE over all columns divided by
            the std of the outputs at the anchors (or by 1 if that is 0), both scaled.
        config_echo: The resolved config's ``echo()``: window lengths, anchor.

    Two diagnostics are equal when all their fields are.
    """

    pooled: bool
    anchors: list[int]
    n_columns: int
    reductions: list[ReductionRecord]
    n1: int
    n2: int
    f_monomials_before: int
    f_monomials_after: int
    table2: TruncationTable
    training_rmse_per_series: np.ndarray
    training_relative_rmse: float
    config_echo: dict


class _Stage(NamedTuple):
    """How the errors of one lifted regression of ``identify`` name it."""

    lifting: str
    bounds: str
    lifted: str
    regression: str


_PAST = _Stage("past monomial lifting", "k_max_y or t_minus_max",
               "the lifted past windows", "the past regression")
_DYNAMICS = _Stage("state-output monomial lifting",
                   "k_max_x/k_max_y2, max_total_degree_xy or the retained rank",
                   "the lifted state-output pairs", "the dynamics regression")


def _overflow(name: str, scaled: bool) -> NumericalOverflowError:
    """The error for float overflow in a stage of ``identify``, naming it and a remedy."""
    fix = "raise scale_gamma" if scaled else "enable output scaling"
    return NumericalOverflowError(
        f"non-finite values in {name}; the outputs overflow, so {fix} or rescale the data"
    )


def _check_finite(name: str, scaled: bool, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise _overflow(name, scaled)


def _chunk_width(K: PowerMatrix) -> int:
    return max(CHUNK_COLUMNS, 2 * K.d_v)  # so each regression QR is tall


def _lifted_chunks(samples: np.ndarray, K: PowerMatrix, what: str, scaled: bool, L=None):
    """Column slices of ``samples`` with their ``K`` lifting (times ``L``), checked as ``what``."""
    width = _chunk_width(K)
    for a in range(0, samples.shape[1], width):
        V = build_data_matrix(samples[:, a : a + width].T, K)
        values = V if L is None else L @ V
        _check_finite(what, scaled, values)
        yield slice(a, a + width), values


def eval_many_checked(M: MonomialMap, samples: np.ndarray, what: str, scaled: bool) -> np.ndarray:
    """Evaluate a monomial map on the sample columns chunk by chunk; ``what`` names overflow."""
    return np.hstack([values for _, values in _lifted_chunks(samples, M.K, what, scaled, M.L)])


def _lifting(stage: _Stage, k_max: tuple, cap: int, max_degree=None) -> PowerMatrix:
    """The power matrix of ``stage``'s dictionary, one exponent bound per variable."""
    try:
        return enumerate_power_matrix(len(k_max), k_max, cap, max_degree)
    except CapacityError as exc:
        raise CapacityError(f"{stage.lifting}: {exc}; lower {stage.bounds}") from exc


def _regress(
    target: np.ndarray, samples: np.ndarray, K: PowerMatrix, r: float, stage: _Stage, scaled: bool
) -> SvdTruncResult:
    """Regress ``target`` on the monomials ``K`` of the sample columns, chunk by chunk.

    Raises:
        CapacityError: Naming ``stage``'s lifting, before any lifting, if the
            factor ``R`` (``d_v**2`` cells) and one chunk exceed ``AUX_CELL_CAP``.
        NumericalOverflowError: Naming ``stage``'s lifted samples or its
            regression, whichever overflows.
        RankDeficiencyError: Naming ``stage``'s regression, if the retained
            rank uses every data column.
    """
    cells = K.d_v * (K.d_v + min(_chunk_width(K), samples.shape[1]))
    if cells > AUX_CELL_CAP:
        raise CapacityError(
            f"{stage.lifting}: regressing on its {K.d_v} monomials takes {cells} cells, "
            f"more than {AUX_CELL_CAP}; lower {stage.bounds}"
        )
    chunks = _lifted_chunks(samples, K, stage.lifted, scaled)
    try:
        res = svd_trunc_chunks(((target[:, columns], V) for columns, V in chunks), r)
    except NumericalOverflowError as exc:
        if stage.lifted in str(exc):  # raised by the lifting, which named itself
            raise
        raise _overflow(stage.regression, scaled) from exc
    if samples.shape[1] <= res.n:
        raise RankDeficiencyError(
            f"{samples.shape[1]} data columns for retained rank {res.n} in {stage.regression}; "
            "supply more series or enable window pooling\n"
            f"singular value mass table:\n{res.table.to_text()}"
        )
    return res


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def identify(ts: TimeSeriesSet, cfg: IdentConfig) -> tuple[ObserverModel, IdentDiagnostics]:
    """Identify a polynomial observer model from output time series.

    The pipeline, in order: window construction around the anchor time (with
    optional anchor pooling); monomial lifting of past windows with the
    future side kept linear; truncated-SVD regression of the future on the
    lifted past with column pruning, whose pruned generators are the state
    map ``x = g(y_minus)``; the output map ``h_o``, linear in
    the state, from the current-output rows of the future map; one state-map
    evaluation at the anchors and the next one; monomial lifting of the (state, output)
    pair; truncated-SVD regression of the next state with column pruning;
    and assembly of the observer model.  It runs once, at the window lengths
    ``t_plus_max`` and ``t_minus_max``.  With ``cfg.pool_windows`` unset, it
    pools when ``s < 4 d_v`` for the past dictionary size ``d_v``.

    The paper's generator factorization, blocked reduction and window schedule
    are left out; the module docstring says why.

    The model carries no states of the training series;
    ``initial_state_from_past`` recomputes them from their anchor windows.

    Returns:
        The identified model and the full diagnostics.

    Raises:
        ConfigError: On an invalid or infeasible configuration.
        CapacityError: If a monomial dictionary would exceed the row cap, or
            its regression ``AUX_CELL_CAP`` cells; it names the lifting.
        RankDeficiencyError: If there are too few data columns for the
            rank the past or the dynamics regression retains; it names it.
        NumericalOverflowError: Naming the stage whose values overflow: the
            output scaling, a lifting, a regression or a map evaluation.  All
            of ``identify`` runs in one overflow scope, so numpy warns of none.
    """
    cfg = cfg.resolved(ts)
    t_plus, t_minus, d_y = cfg.t_plus_max, cfg.t_minus_max, ts.d_y

    scaling: OutputScaling | None = None
    work = ts
    if cfg.scale_outputs:
        mean, std = ts.Y.mean(axis=(0, 2)), ts.Y.std(axis=(0, 2))
        std = np.where(std > 0, std, 1.0) * cfg.scale_gamma
        Y = (ts.Y - mean[:, None]) / std[:, None]  # overflows, not rejected, if std underflows
        _check_finite("the output scaling", True, mean, std, Y)
        scaling = OutputScaling(mean, std)
        work = TimeSeriesSet(Y)

    K_past = _lifting(_PAST, (cfg.k_max_y,) * (t_minus * d_y), cfg.row_cap)
    pooled = ts.s < 4 * K_past.d_v if cfg.pool_windows is None else cfg.pool_windows
    anchors = np.arange(t_minus + 1, work.t_1 - t_plus + 2) if pooled else np.array([cfg.anchor_t])
    Yplus, Yminus = build_window_vectors(work, anchors, t_plus, t_minus)
    res1 = _regress(Yplus, Yminus, K_past, cfg.r1, _PAST, cfg.scale_outputs)
    g_io = MonomialMap(*lk_reduce(res1.L, K_past, cfg.r4)[:2])

    # The pruned generators are the state map.  The output map takes the
    # rows of the future map that give the current output, the bottom block
    # of the future stack.
    n = g_io.m
    h_o = MonomialMap(res1.C[-d_y:], identity_power_matrix(n)).drop_zero_columns()

    # The anchors are consecutive: the windows a step later are those of anchors[1:] and one more.
    windows = np.hstack([Yminus, past_windows(work.Y, anchors[-1:] + 1, t_minus)])
    X = eval_many_checked(g_io, windows, "the state samples", cfg.scale_outputs)
    X_t, X_next = X[:, : Yminus.shape[1]], X[:, ts.s :]

    y_now = Yplus[-d_y:]  # y(t) at every anchor, the bottom of the future stack
    bounds = (cfg.k_max_x,) * n + (cfg.k_max_y2,) * d_y
    K_xy = _lifting(_DYNAMICS, bounds, cfg.row_cap, cfg.max_total_degree_xy)
    res2 = _regress(X_next, np.vstack([X_t, y_now]), K_xy, cfg.r2, _DYNAMICS, cfg.scale_outputs)
    # The full n rows of H_star; the truncation only limits the fit rank.
    f_o = MonomialMap(*lk_reduce(res2.H_star, K_xy, cfg.r4)[:2])

    # Training residuals: one-step output error at every pooled column.
    y_hat = eval_many_checked(h_o, X_t, "the training predictions", cfg.scale_outputs)
    squares = ((y_now - y_hat) ** 2).reshape(d_y, len(anchors), ts.s)
    y_std = y_now.std()
    diag = IdentDiagnostics(
        pooled=pooled, anchors=anchors.tolist(), n_columns=Yplus.shape[1],
        reductions=[ReductionRecord(K_past.d_v, g_io.K.d_v, res1.table)],
        n1=res1.n, n2=res2.n, f_monomials_before=K_xy.d_v, f_monomials_after=f_o.K.d_v,
        table2=res2.table, training_rmse_per_series=np.sqrt(np.mean(squares, axis=(0, 1))),
        training_relative_rmse=float(np.sqrt(np.mean(squares)) / (y_std if y_std > 0 else 1.0)),
        config_echo=cfg.echo(),
    )
    # The model's own echo: a caller who edits the report's leaves the model's document as it is.
    meta = dict(config=cfg.echo(), pooled=pooled)
    return ObserverModel(n, d_y, f_o, h_o, scaling, g_io, t_minus, meta), diag
