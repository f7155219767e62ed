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
schedule to detect the order by growing the windows loses that.  Each
admissible anchor ``t_minus_max + 1 .. t_1 - t_plus_max + 1`` gives ``s`` data
columns, as every time shift does in the block-Hankel matrices of subspace
methods.  A rule that kept the first anchor alone once ``s >= 4 d_v`` changed
only the command-line round trip's model among the benchmark's inputs, and
pooling it lowered that model's held-out error from 3.0e-12 to 1.1e-12.

A fourth departure: the past regression is cut by reduced-rank regression
(Izenman 1975, J. Multivariate Anal. 5), not by the paper's mass fraction
``r1`` of the lifted past.  The mass cut keeps a rank that follows the size
of the past dictionary, not the system; the reduced-rank cut keeps the rank
of the past-to-future map itself, at most ``t_plus_max * d_y``.  Measured
on the same data (state dimension, then held-out max relative RMSE): the
linear acceptance set A1 went from 10 states (1.1e-6) to 2 (3.9e-12); the
polynomial set A2 from 12 states to 4, but its error rose 3.5-fold, from
2.1e-4 to 7.3e-4, still far inside its 0.05 gate; and the 16 pooled
benchmark training sets of seeds 1 and 2 from 17 or 18 states and 160 to
182 dynamics terms (1.4e-3 to 4.9e-3) to 3 states and 4 terms (1.5e-4 to
5.8e-3, the two worst sets 1.5e-3 and 5.8e-3 against 3.8e-3 and 3.3e-3).
The outputs are scaled by ``scale_gamma * std`` but not centered: a centered
reduced-rank state needs an extra affine direction, which the column pruning
then drops as a small constant column of ``f_o`` (A1 gave 3 states and an
error of 0.17).  The mass cut's threshold ``r1`` is ignored.

Every lifting runs in column blocks of ``block_columns(d_v)`` samples: both
regressions stream their samples to ``svd_trunc_chunks``, which lifts each
block straight into its factorization's workspace and whose split
factorization differs from a whole one only at rounding level, and the map
evaluations lift each block into one workspace, or a split map's heads and
tails into one each (see :func:`~polysid.genred.eval_monomial_map_many`):
an unsplit map keeps the bits of ``L @`` its lifting, a split one agrees
with it to rounding.  One state-map evaluation
gives the states at the (consecutive) anchors and one step later, and all of
``identify`` runs in one overflow scope.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._records import ArrayRecord, integer, positive_real, printable
from .errors import (
    CapacityError,
    ConfigError,
    InvalidInputError,
    NumericalOverflowError,
    RankDeficiencyError,
)
from .genred import MonomialMap, eval_monomial_map_many
from .model import ObserverModel, OutputScaling
from .monomials import (
    AUX_CELL_CAP,
    PowerMatrix,
    block_columns,
    build_data_matrix,
    checked_power_set,
    enumerate_power_matrix,
    identity_power_matrix,
)
from .numred import (
    LIFTING_OVERFLOW,
    SvdTruncResult,
    TruncationTable,
    lk_reduce,
    svd_trunc,
    svd_trunc_chunks,
)
from .series import TimeSeriesSet, past_windows

# The removed elimination stage and block path, the unchunked svd_trunc and
# build_data_matrix; not called, kept while the benchmark's tracer still
# patches these names.
eliminate_products = partition_power_matrix = merge_power_matrices = None


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
        InvalidInputError: If a window length is not an integer in ``1..ts.t_1``,
            an anchor time not an integer, or a window would leave the series bounds.
    """
    t_plus, t_minus = integer(t_plus, "t_plus", 1, ts.t_1), integer(t_minus, "t_minus", 1, ts.t_1)
    anchors = np.atleast_1d(t)
    if anchors.size and anchors.dtype.kind not in "iu":
        raise InvalidInputError(f"anchor times t must be integers, got {printable(t)}")
    outside = (anchors < t_minus + 1) | (anchors > ts.t_1 - t_plus + 1)  # unshifted: none wraps
    if outside.any():
        raise InvalidInputError(
            f"window (t={anchors[outside][0]}, t_plus={t_plus}, t_minus={t_minus}) "
            f"exceeds series bounds 1..{ts.t_1}"
        )
    anchors = anchors.astype(np.int64, copy=False)  # an unsigned one would index as a float
    return past_windows(ts.Y, anchors + t_plus, t_plus), past_windows(ts.Y, anchors, t_minus)


#: Least value of each integer ``IdentConfig`` field; windows are also at most ``t_1``.
_INT_LEAST = {
    "t_plus_max": 1, "t_minus_max": 1, "k_max_y": 0, "k_max_x": 0, "k_max_y2": 0,
    "max_total_degree_xy": 0,
}


#: Deprecated ``IdentConfig`` fields, each with why it is ignored.
_IGNORED_FIELDS = (
    ("r1", "the past regression is cut by reduced-rank regression"),
    ("r3", "generator-product elimination was removed"),
    ("block_limit", "the past dictionary is reduced in one pass"),
    ("t_plus_min", "identify runs once, at t_plus_max"),
    ("t_minus_min", "identify runs once, at t_minus_max"),
    ("pool_windows", "identify pools every admissible anchor"),
)


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which its caller's warning names the first frame outside polysid.

    So a warning points at the user's line, whether ``identify`` or the user
    resolved the config.  numpy's frames are skipped too: ``np.errstate``
    wraps ``identify`` in one.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] in (
        "polysid", "numpy"
    ):
        frame, level = frame.f_back, level + 1
    return level


@dataclass
class IdentConfig:
    """Parameters of the identification pipeline.

    The two thresholds ``r2`` and ``r4`` are mandatory; structural
    parameters carry defaults.  Integer fields take Python or numpy integers, never bools.

    Attributes:
        r2: Mass-fraction threshold of the dynamics SVD truncation, in (0, 1).
        r4: Column-pruning threshold of the LK-reductions, in (0, 1).
        t_plus_max / t_minus_max: The future and past window lengths, at most ``t_1``.
        k_max_y: Exponent bound (nonnegative) of every past output in the
            past lifting, ``t_minus * d_y`` variables.
        k_max_x: Exponent bound (nonnegative) of every state in the
            dynamics lifting.
        k_max_y2: Exponent bound (nonnegative) of every current output in
            the dynamics lifting.
        max_total_degree_xy: Optional total-degree cap on the (state, output)
            dictionary (nonnegative); the bounded monomial set may be any
            subset of the full enumeration, and low-degree subsets keep the
            dynamics map tame between samples.  The capped set is enumerated
            directly, so its size, not the box's, counts against the row cap.
            ``None`` uses the full bounded set.
        scale_gamma: Extra gain (finite, positive) on the scaling divisor: outputs
            are always divided by ``scale_gamma * std``, not centered, so
            values below 1 inflate the working amplitude.  Larger amplitudes
            weight high-degree monomial directions more heavily in the truncated SVDs.
        r1 / r3 / block_limit / t_plus_min / t_minus_min / pool_windows: Deprecated
            and ignored: they tuned the past's mass cut, a choice of anchors and
            the stages that the module docstring says were replaced or removed.

    ``identify`` runs once, at ``t_plus_max`` and ``t_minus_max``, on every
    admissible anchor ``t_minus_max + 1 .. t_1 - t_plus_max + 1``; the module
    docstring says why.
    Setting a deprecated field warns with a ``FutureWarning``; the resolved
    config sets it to ``None`` and its echo leaves it out.
    """

    r2: float
    r4: float
    t_plus_min: int | None = None
    t_minus_min: int | None = None
    t_plus_max: int = 8
    t_minus_max: int = 8
    k_max_y: int = 1
    k_max_x: int = 1
    k_max_y2: int = 1
    pool_windows: bool | None = None
    max_total_degree_xy: int | None = None
    scale_gamma: float = 1.0
    r1: float | None = None
    r3: float | None = None
    block_limit: int | None = None

    def resolved(self, ts: TimeSeriesSet) -> "IdentConfig":
        """Validate against a data set and return the config that ``identify`` runs.

        The copy holds plain Python values, each converted before it is checked.
        Resolving it again returns an equal config.

        Raises:
            ConfigError: Naming the first field of the wrong type or out of
                range, or if the two windows together are longer than the series.
        """
        values = {
            name: positive_real(getattr(self, name), name, below, ConfigError)
            for name, below in (("r2", 1.0), ("r4", 1.0), ("scale_gamma", np.inf))
        }
        for name, reason in _IGNORED_FIELDS:
            if getattr(self, name) is not None:
                warnings.warn(f"{name} is ignored: {reason}", FutureWarning,
                              stacklevel=_caller_stacklevel())
        for name, least in _INT_LEAST.items():
            v = getattr(self, name)
            if v is not None or name != "max_total_degree_xy":
                longest = ts.t_1 if name in ("t_plus_max", "t_minus_max") else None
                values[name] = integer(v, name, least, longest, ConfigError)
        t_minus_max, t_plus_max = values["t_minus_max"], values["t_plus_max"]
        if t_minus_max + t_plus_max > ts.t_1:
            raise ConfigError(
                f"t_plus_max {t_plus_max} leaves no room for a future window after "
                f"the anchor {t_minus_max + 1} in {ts.t_1} samples"
            )
        return replace(self, **{name: None for name, _ in _IGNORED_FIELDS}, **values)

    def echo(self) -> dict:
        """A new flat dict of the fields but the deprecated ones (for reports and provenance)."""
        return {k: v for k, v in self.__dict__.items() if k not in dict(_IGNORED_FIELDS)}


@dataclass(frozen=True)
class ReductionRecord:
    """The past regression's dictionary size, before and after pruning, and mass table.

    ``table1`` is the mass table of the reduced-rank cut's ``Sigma``.
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
        n_columns: Data columns, the series count times the anchor count.
        reductions: The past-to-future regression, a one-element list.
        n1: Retained rank of the past regression, the state dimension; at
            most ``t_plus_max * d_y``, the reduced-rank cut's bound.
        n2: Retained rank of the dynamics regression.
        f_monomials_before / f_monomials_after: Monomials of the (state,
            output) dictionary, and of the dynamics map after pruning.
        table2: Singular value mass table of the dynamics regression.
        training_rmse_per_series: One-step output RMSE of each series over
            its outputs and anchors, in scaled output units, unlike
            ``PredictionReport``'s raw units.
        training_relative_rmse: The one-step RMSE over all columns divided by
            the std of the outputs at the anchors (or by 1 if that is 0), both scaled.
        config_echo: The resolved config's ``echo()``: thresholds, window lengths, bounds.

    Two diagnostics are equal when all their fields are.
    """

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


def _overflow(name: str) -> NumericalOverflowError:
    """The error for float overflow in a stage of ``identify``, naming it and the remedy."""
    return NumericalOverflowError(
        f"non-finite values in {name}; the outputs overflow, so raise scale_gamma "
        "or rescale the data"
    )


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise _overflow(name)


def eval_many_checked(M: MonomialMap, samples: np.ndarray, what: str) -> np.ndarray:
    """Evaluate a monomial map on the sample columns block by block; ``what`` names overflow."""
    values = eval_monomial_map_many(M, samples)
    _check_finite(what, values)
    return values


def _lifting(stage: _Stage, k_max: tuple, columns: int, max_degree=None) -> PowerMatrix:
    """The power matrix of ``stage``'s dictionary, one exponent bound per variable.

    Before enumerating, a ``CapacityError`` names the lifting if it exceeds the row cap, or
    its regression on ``columns`` samples (``R``'s ``d_v**2`` cells, a chunk) ``AUX_CELL_CAP``.
    """
    try:
        d_v = checked_power_set(len(k_max), k_max, max_degree=max_degree)[2]
        cells = d_v * (d_v + min(block_columns(d_v), columns))
        if cells > AUX_CELL_CAP:
            raise CapacityError(
                f"regressing on its {d_v} monomials takes {cells} cells, more than {AUX_CELL_CAP}"
            )
        return enumerate_power_matrix(len(k_max), k_max, max_degree=max_degree)
    except CapacityError as exc:
        raise CapacityError(f"{stage.lifting}: {exc}; lower {stage.bounds}") from exc


def _regress(
    target: np.ndarray, samples: np.ndarray, K: PowerMatrix, r: float | None, stage: _Stage
) -> SvdTruncResult:
    """Regress ``target`` on the monomials ``K`` of the sample columns, block by block.

    ``r`` is the mass cut's threshold, or None for the reduced-rank cut.

    Raises:
        NumericalOverflowError: Naming ``stage``'s lifted samples or its
            regression, whichever overflows.
        RankDeficiencyError: Naming ``stage``'s regression, if the retained
            rank uses every data column.
    """
    width = block_columns(K.d_v)
    chunks = (
        (target[:, a : a + width], samples[:, a : a + width])
        for a in range(0, samples.shape[1], width)
    )
    try:
        res = svd_trunc_chunks(chunks, K, r)
    except NumericalOverflowError as exc:
        lifting = str(exc).startswith(LIFTING_OVERFLOW)
        raise _overflow(stage.lifted if lifting else stage.regression) from exc
    if samples.shape[1] <= res.n:
        raise RankDeficiencyError(
            f"{samples.shape[1]} data columns for retained rank {res.n} in {stage.regression}; "
            "supply more series or longer ones, or shorten the windows\n"
            f"singular value mass table:\n{res.table.to_text()}"
        )
    return res


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def identify(ts: TimeSeriesSet, cfg: IdentConfig) -> tuple[ObserverModel, IdentDiagnostics]:
    """Identify a polynomial observer model from output time series.

    The pipeline, in order: output scaling by ``scale_gamma * std``, without
    centering; window construction around every admissible anchor time
    ``t_minus_max + 1 .. t_1 - t_plus_max + 1``, ``s`` columns each; monomial
    lifting of past windows with the future side kept linear; regression of
    the future on the lifted past, cut by reduced-rank regression to at most
    ``t_plus_max * d_y`` states, with column pruning, whose pruned generators
    are the state map ``x = g(y_minus)``; the output map ``h_o``, linear in the
    state, from the current-output rows of the future map; one state-map
    evaluation at the anchors and the next one; monomial lifting of the
    (state, output) pair; truncated-SVD regression of the next state with
    column pruning; and assembly of the observer model.  It runs once, at the
    window lengths ``t_plus_max`` and ``t_minus_max``.

    The paper's generator factorization, blocked reduction, window schedule and
    mass cut of the past are left out; the module docstring says why.

    The model carries no states of the training series;
    ``initial_state_from_past`` recomputes them from their anchor windows.

    Returns:
        The identified model and the full diagnostics.

    Raises:
        ConfigError: On an invalid or infeasible configuration.
        InvalidInputError: If the outputs are zero at every sample of the future windows.
        CapacityError: Before a monomial dictionary is enumerated, if it would
            exceed the row cap, or its regression ``AUX_CELL_CAP`` cells; it
            names the lifting.
        RankDeficiencyError: If there are too few data columns for the
            rank the past or the dynamics regression retains; it names it.
        NumericalOverflowError: Naming the stage whose values overflow: the
            output scaling, a lifting, a regression or a map evaluation.  All
            of ``identify`` runs in one overflow scope, so numpy warns of none.
    """
    cfg = cfg.resolved(ts)
    t_plus, t_minus, d_y = cfg.t_plus_max, cfg.t_minus_max, ts.d_y

    # The reduced-rank cut scales without centering; the module docstring says why.
    std = ts.Y.std(axis=(0, 2))
    std = np.where(std > 0, std, 1.0) * cfg.scale_gamma
    Y = ts.Y / std[:, None]  # overflows, not rejected, if std underflows
    _check_finite("the output scaling", std, Y)
    scaling = OutputScaling(std)
    work = TimeSeriesSet(Y)

    anchors = np.arange(t_minus + 1, work.t_1 - t_plus + 2)
    columns = len(anchors) * ts.s
    K_past = _lifting(_PAST, (cfg.k_max_y,) * (t_minus * d_y), columns)
    Yplus, Yminus = build_window_vectors(work, anchors, t_plus, t_minus)
    if not Yplus.any():
        raise InvalidInputError("the outputs are all zero; there is nothing to identify")
    res1 = _regress(Yplus, Yminus, K_past, None, _PAST)
    g_io = MonomialMap(*lk_reduce(res1.L, K_past, cfg.r4)[:2])

    # The pruned generators are the state map.  The output map takes the
    # rows of the future map that give the current output, the bottom block
    # of the future stack.
    n = g_io.m
    h_o = MonomialMap(res1.C[-d_y:], identity_power_matrix(n)).drop_zero_columns()

    # The anchors are consecutive: the windows a step later are those of anchors[1:] and one more.
    windows = np.hstack([Yminus, past_windows(work.Y, anchors[-1:] + 1, t_minus)])
    X = eval_many_checked(g_io, windows, "the state samples")
    X_t, X_next = X[:, : Yminus.shape[1]], X[:, ts.s :]

    y_now = Yplus[-d_y:]  # y(t) at every anchor, the bottom of the future stack
    bounds = (cfg.k_max_x,) * n + (cfg.k_max_y2,) * d_y
    K_xy = _lifting(_DYNAMICS, bounds, columns, cfg.max_total_degree_xy)
    res2 = _regress(X_next, np.vstack([X_t, y_now]), K_xy, cfg.r2, _DYNAMICS)
    # The full n rows of H_star; the truncation only limits the fit rank.
    f_o = MonomialMap(*lk_reduce(res2.H_star, K_xy, cfg.r4)[:2])

    # Training residuals: one-step output error at every pooled column.
    y_hat = eval_many_checked(h_o, X_t, "the training predictions")
    squares = ((y_now - y_hat) ** 2).reshape(d_y, len(anchors), ts.s)
    y_std = y_now.std()
    diag = IdentDiagnostics(
        n_columns=Yplus.shape[1], reductions=[ReductionRecord(K_past.d_v, g_io.K.d_v, res1.table)],
        n1=res1.n, n2=res2.n, f_monomials_before=K_xy.d_v, f_monomials_after=f_o.K.d_v,
        table2=res2.table, training_rmse_per_series=np.sqrt(np.mean(squares, axis=(0, 1))),
        training_relative_rmse=float(np.sqrt(np.mean(squares)) / (y_std if y_std > 0 else 1.0)),
        config_echo=cfg.echo(),
    )
    # The model's own echo: a caller who edits the report's leaves the model's document as it is.
    meta = dict(config=cfg.echo())
    return ObserverModel(n, d_y, f_o, h_o, scaling, g_io, t_minus, meta), diag
