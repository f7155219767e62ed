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

An outer loop grows the future/past window lengths step by step, monitoring
the retained rank.  Each step lifts the full past dictionary once, with one
truncated SVD and one pruning.  This departs from the paper too, which
feeds a large past dictionary to the SVD in ascending-degree blocks, each
merged with the generators that survived pruning of the blocks before it.
The pruning never dropped a row of a block before the last, so the last
merged block was the full dictionary in the same order and gave the same
model.  An implementation of the blocks left every model it was measured on
unchanged (24 pooled benchmark training sets, 2 smaller pooled sets,
the linear and polynomial acceptance sets at block limits 2, 4 and 8,
3 pooled sets at 0.1 to 1% output noise, and a two-output polynomial
system at block limits 16 to 128), so it was removed.  The model is built
from the window matrices of the last window lengths tried.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

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
    DEFAULT_ROW_CAP,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    identity_power_matrix,
)
from .numred import SvdTruncResult, TruncationTable, lk_reduce, svd_trunc
from .series import TimeSeriesSet, past_windows

# The removed elimination stage and block path; never called, kept while the
# benchmark's tracer still patches these names.
eliminate_products = partition_power_matrix = merge_power_matrices = None


def build_window_vectors(
    ts: TimeSeriesSet, t: int, t_plus: int, t_minus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack future and past output windows around time ``t`` for every series.

    Column ``k`` of the future matrix stacks ``y(t + t_plus - 1, k)`` down to
    ``y(t, k)``; column ``k`` of the past matrix stacks ``y(t - 1, k)`` down
    to ``y(t - t_minus, k)`` (most recent first).

    Returns:
        ``(Yplus, Yminus)`` of shapes ``(t_plus * d_y, s)`` and
        ``(t_minus * d_y, s)``.

    Raises:
        InvalidInputError: If a window would leave the series bounds.
    """
    if t_plus < 1 or t_minus < 1:
        raise InvalidInputError("window lengths must be positive")
    if t - t_minus < 1 or t + t_plus - 1 > ts.t_1:
        raise InvalidInputError(
            f"window (t={t}, t_plus={t_plus}, t_minus={t_minus}) exceeds series "
            f"bounds 1..{ts.t_1}"
        )
    return past_windows(ts.Y, [t + t_plus], t_plus), past_windows(ts.Y, [t], t_minus)


def _bound_entries(value, name: str) -> tuple[int, ...]:
    """Entries of a scalar or vector exponent bound, checked nonempty and nonnegative."""
    scalar = isinstance(value, (int, np.integer))
    bounds = (int(value),) if scalar else tuple(int(v) for v in value)
    if not bounds:
        raise ConfigError(f"{name} must not be empty")
    if any(b < 0 for b in bounds):
        raise ConfigError(f"{name} entries must be nonnegative, got {list(bounds)}")
    return bounds


def _as_bound_vector(value, length: int, name: str) -> tuple[int, ...]:
    """Accept a scalar bound (broadcast) or an explicit per-variable vector."""
    bounds = _bound_entries(value, name)
    if isinstance(value, (int, np.integer)):
        return bounds * length
    if len(bounds) != length:
        raise ConfigError(
            f"{name} has length {len(bounds)} but {length} entries are required"
        )
    return bounds


#: Deprecated ``IdentConfig`` fields, each with why it is ignored.
_IGNORED_FIELDS = (
    ("r3", "generator-product elimination was removed"),
    ("block_limit", "the past dictionary is reduced in one pass"),
)


@dataclass
class IdentConfig:
    """Parameters of the identification pipeline.

    The three thresholds ``r1``, ``r2`` and ``r4`` are mandatory; structural
    parameters carry defaults.
    ``k_max_x`` may be a scalar because the state dimension is only known at
    run time; scalars are broadcast per variable.

    Attributes:
        r1: Mass-fraction threshold of the past-to-future SVD truncation.
        r2: Mass-fraction threshold of the dynamics SVD truncation.
        r4: Column-pruning threshold of the LK-reductions.
        t_plus_min / t_minus_min: Initial future/past window lengths.
        t_plus_max / t_minus_max: Final window lengths (default 8).
        k_max_y: Per-output exponent bound of the past lifting (scalar or
            length ``d_y``).
        k_max_x: Per-state exponent bound of the dynamics lifting (scalar or
            length ``n``).
        k_max_y2: Per-output exponent bound of the dynamics lifting (scalar
            or length ``d_y``).
        anchor_t: Anchor time; defaults to ``t_minus_max + 1``.
        pool_windows: Pool every admissible anchor as extra data columns;
            ``None`` enables pooling automatically when the series count is
            small relative to the dictionary.
        max_total_degree_xy: Optional total-degree cap on the (state, output)
            dictionary (nonnegative); the bounded monomial set may be any
            subset of the full enumeration, and low-degree subsets keep the
            dynamics map tame between samples.  The capped set is enumerated
            directly, so its size, not the box's, counts against
            ``row_cap``.  ``None`` uses the full bounded set.
        scale_outputs: Standardize each output dimension before lifting and
            fold the transform into the model.
        scale_gamma: Extra gain (positive) on the scaling divisor: outputs
            are divided by ``scale_gamma * std``, so values below 1 inflate
            the working amplitude.  Larger amplitudes weight high-degree
            monomial directions more heavily in the truncated SVDs.
        row_cap: Hard cap (positive) on the rows of each enumerated monomial
            dictionary, the past lifting and the (state, output) lifting,
            checked on the true row count before allocation.
        r3: Deprecated and ignored: the tolerance of the removed
            generator-product elimination.
        block_limit: Deprecated and ignored: the past dictionary row count
            above which the removed block path split the dictionary.

    Setting a deprecated field warns with a ``FutureWarning``; the resolved
    config sets it to ``None``.
    """

    r1: float
    r2: float
    r4: float
    t_plus_min: int = 1
    t_minus_min: int = 1
    t_plus_max: int | None = None
    t_minus_max: int | None = None
    k_max_y: int | Sequence[int] = 1
    k_max_x: int | Sequence[int] = 1
    k_max_y2: int | Sequence[int] = 1
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

        The copy sets both window maxima and ``anchor_t``, and gives
        ``k_max_y`` and ``k_max_y2`` as ``d_y``-length tuples; resolving it
        again returns an equal config.
        """
        for name in ("r1", "r2", "r4"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        for name, reason in _IGNORED_FIELDS:
            if getattr(self, name) is not None:
                warnings.warn(f"{name} is ignored: {reason}", FutureWarning, stacklevel=2)
        t_plus_max = 8 if self.t_plus_max is None else self.t_plus_max
        t_minus_max = 8 if self.t_minus_max is None else self.t_minus_max
        if not (1 <= self.t_plus_min <= t_plus_max):
            raise ConfigError(
                f"need 1 <= t_plus_min <= t_plus_max, got {self.t_plus_min}..{t_plus_max}"
            )
        if not (1 <= self.t_minus_min <= t_minus_max):
            raise ConfigError(
                f"need 1 <= t_minus_min <= t_minus_max, got {self.t_minus_min}..{t_minus_max}"
            )
        if self.row_cap < 1:
            raise ConfigError(f"row_cap must be positive, got {self.row_cap}")
        if self.max_total_degree_xy is not None and self.max_total_degree_xy < 0:
            raise ConfigError(
                f"max_total_degree_xy={self.max_total_degree_xy} empties the dictionary"
            )
        if not self.scale_gamma > 0:
            raise ConfigError(f"scale_gamma must be positive, got {self.scale_gamma}")
        # k_max_x has one entry per state, known only after the reductions;
        # its length is checked then, its entries now.
        _bound_entries(self.k_max_x, "k_max_x")
        anchor = self.anchor_t if self.anchor_t is not None else t_minus_max + 1
        if anchor - t_minus_max < 1:
            raise ConfigError(
                f"anchor time {anchor} leaves no room for a past window of {t_minus_max}"
            )
        if anchor > ts.t_1 / 2:
            raise ConfigError(
                f"anchor time {anchor} must not exceed half the series length "
                f"({ts.t_1}/2)"
            )
        if anchor + t_plus_max - 1 > ts.t_1:
            raise ConfigError(
                f"anchor time {anchor} leaves no room for a future window of {t_plus_max}"
            )
        return replace(
            self,
            **{name: None for name, _ in _IGNORED_FIELDS},
            t_plus_max=t_plus_max,
            t_minus_max=t_minus_max,
            anchor_t=anchor,
            k_max_y=_as_bound_vector(self.k_max_y, ts.d_y, "k_max_y"),
            k_max_y2=_as_bound_vector(self.k_max_y2, ts.d_y, "k_max_y2"),
        )

    def echo(self) -> dict:
        """Effective configuration as a flat dict (for reports and provenance)."""
        def plain(v):
            if isinstance(v, tuple):
                return list(v)
            return v

        return {k: plain(v) for k, v in self.__dict__.items()}


@dataclass(frozen=True)
class ReductionRecord:
    """Diagnostics of the past-to-future reduction at one window step."""

    t_plus: int
    t_minus: int
    rows_presented: int
    rows_kept: int
    n1: int
    table1: TruncationTable


@dataclass(eq=False)
class IdentDiagnostics:
    """Everything the pipeline observed on its way to the model.

    Two diagnostics are equal when all their fields are.
    """

    anchor_t: int = 0
    pooled: bool = False
    anchors: list[int] = field(default_factory=list)
    n_columns: int = 0
    reductions: list[ReductionRecord] = field(default_factory=list)
    chosen_t_plus: int = 0
    chosen_t_minus: int = 0
    n1: int = 0
    n2: int = 0
    f_monomials_before: int = 0
    f_monomials_after: int = 0
    table2: TruncationTable | None = None
    training_rmse_per_series: np.ndarray | None = None
    training_relative_rmse: float = float("nan")
    config_echo: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdentDiagnostics):
            return NotImplemented
        rest = [f.name for f in fields(self) if f.name != "training_rmse_per_series"]
        return np.array_equal(
            self.training_rmse_per_series, other.training_rmse_per_series
        ) and [getattr(self, name) for name in rest] == [getattr(other, name) for name in rest]


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericalOverflowError(
            f"non-finite values in {name}; the lifted outputs overflow, so "
            "enable output scaling or rescale the data"
        )


def eval_many_checked(M: MonomialMap, samples, what: str) -> np.ndarray:
    """Batch-evaluate a monomial map, mapping overflow onto a pipeline error."""
    values = eval_monomial_map_many(M, samples)
    _check_finite(what, values)
    return values


def _reduce_past(
    Yplus: np.ndarray, Yminus: np.ndarray, K_past: PowerMatrix, cfg: IdentConfig
) -> tuple[SvdTruncResult, MonomialMap]:
    """Regress the future windows on the lifted past ones and prune the generators.

    Returns the truncated-SVD result and the pruned generators, the state
    map ``x = g(y_minus)``.
    """
    V_minus = build_data_matrix(Yminus.T, K_past)
    _check_finite("the lifted past windows", V_minus)
    res1 = svd_trunc(Yplus, V_minus, cfg.r1)
    if Yplus.shape[1] <= res1.n:
        raise RankDeficiencyError(
            f"{Yplus.shape[1]} data columns for retained rank {res1.n}; "
            "supply more series or enable window pooling\n"
            f"singular value mass table:\n{res1.table.to_text()}"
        )
    L_g, K_g, _ = lk_reduce(res1.L, K_past, cfg.r4)
    return res1, MonomialMap(L_g, K_g)


def identify(ts: TimeSeriesSet, cfg: IdentConfig) -> tuple[ObserverModel, IdentDiagnostics]:
    """Identify a polynomial observer model from output time series.

    The pipeline, in order: window construction around the anchor time (with
    optional anchor pooling); monomial lifting of past windows with the
    future side kept linear; truncated-SVD regression of the future on the
    lifted past with column pruning, whose pruned generators are the state
    map ``x = g(y_minus)``; the output map ``h_o``, linear in
    the state, from the current-output rows of the future map; next-state
    evaluation on shifted windows; monomial lifting of the (state, output)
    pair; truncated-SVD regression of the next state with column pruning;
    and assembly of the observer model.  The outer loop grows the window
    lengths from their minima to their maxima, stopping early when the
    retained rank plateaus; the returned model comes from the final windows.

    The paper's generator factorization is deliberately left out: it
    changed none of the 226 models it was measured on.  So is its blocked
    reduction of large past dictionaries: each window step reduces the full
    dictionary in one pass, which gave the same model on every set the
    blocks were measured on (see the module docstring).

    The model carries no states of the training series;
    ``initial_state_from_past`` recomputes them from their anchor windows.

    Returns:
        The identified model and the full diagnostics.

    Raises:
        ConfigError: On an invalid or infeasible configuration.
        CapacityError: If a monomial dictionary would exceed the row cap.
        RankDeficiencyError: If there are too few data columns.
        NumericalOverflowError: On non-finite lifted values.
    """
    cfg = cfg.resolved(ts)
    echo = cfg.echo()
    diag = IdentDiagnostics(anchor_t=cfg.anchor_t, config_echo=echo)

    scaling: OutputScaling | None = None
    work = ts
    if cfg.scale_outputs:
        mean = ts.Y.mean(axis=(0, 2))
        std = ts.Y.std(axis=(0, 2))
        std = np.where(std > 0, std, 1.0) * cfg.scale_gamma
        scaling = OutputScaling(mean, std)
        work = TimeSeriesSet(scaling.apply(ts.Y))

    # Outer loop: grow both window lengths by one per iteration, clamped at
    # their maxima, until both reach them; stop early after two consecutive
    # iterations leave the retained rank unchanged.
    steps = max(cfg.t_plus_max - cfg.t_plus_min, cfg.t_minus_max - cfg.t_minus_min)
    n1_history: list[int] = []
    for step in range(steps + 1):
        t_plus = min(cfg.t_plus_min + step, cfg.t_plus_max)
        t_minus = min(cfg.t_minus_min + step, cfg.t_minus_max)
        try:
            K_past = enumerate_power_matrix(
                t_minus * ts.d_y, cfg.k_max_y * t_minus, cap=cfg.row_cap
            )
        except CapacityError as exc:
            raise CapacityError(f"past monomial lifting: {exc}") from exc
        pooled = (
            cfg.pool_windows
            if cfg.pool_windows is not None
            else ts.s < 4 * K_past.d_v
        )
        anchors = (
            np.arange(t_minus + 1, work.t_1 - t_plus + 2)
            if pooled
            else np.array([cfg.anchor_t])
        )
        Yplus = past_windows(work.Y, anchors + t_plus, t_plus)
        Yminus = past_windows(work.Y, anchors, t_minus)
        res1, g_io = _reduce_past(Yplus, Yminus, K_past, cfg)
        diag.reductions.append(
            ReductionRecord(
                t_plus=t_plus,
                t_minus=t_minus,
                rows_presented=K_past.d_v,
                rows_kept=g_io.K.d_v,
                n1=res1.n,
                table1=res1.table,
            )
        )
        n1_history.append(res1.n)
        if (
            len(n1_history) >= 3
            and n1_history[-1] == n1_history[-2] == n1_history[-3]
        ):
            break

    # The model comes from the last windows tried and their matrices.
    diag.chosen_t_plus, diag.chosen_t_minus = t_plus, t_minus
    diag.pooled = pooled
    diag.anchors = anchors.tolist()
    diag.n1 = res1.n
    diag.n_columns = Yplus.shape[1]

    # The pruned generators are the state map.  The output map takes the
    # rows of the future map that give the current output, the bottom block
    # of the future stack.
    n = g_io.m
    d_y = ts.d_y
    h_o = MonomialMap(res1.C[-d_y:], identity_power_matrix(n)).drop_zero_columns()

    X_t = eval_many_checked(g_io, Yminus.T, "the state samples")

    # Next-state values from the past windows one step later.
    Yminus_next = past_windows(work.Y, anchors + 1, t_minus)
    X_next = eval_many_checked(g_io, Yminus_next.T, "the next-state samples")

    # Lift the (state, output) pair.
    k_max_x = _as_bound_vector(cfg.k_max_x, n, "k_max_x")
    y_now = Yplus[-d_y:]  # y(t) at every anchor, the bottom of the future stack
    try:
        K_xy = enumerate_power_matrix(
            n + d_y, k_max_x + cfg.k_max_y2, cfg.row_cap, cfg.max_total_degree_xy
        )
    except CapacityError as exc:
        raise CapacityError(
            f"state-output monomial lifting: {exc}; lower k_max_x/k_max_y2, "
            "max_total_degree_xy or the retained rank"
        ) from exc
    XY = np.vstack([X_t, y_now])
    V_xy = build_data_matrix(XY.T, K_xy)
    _check_finite("the lifted state-output pairs", V_xy)

    res2 = svd_trunc(X_next, V_xy, cfg.r2)
    if V_xy.shape[1] <= res2.n:
        raise RankDeficiencyError(
            f"{V_xy.shape[1]} data columns for retained rank {res2.n} in the "
            "dynamics regression; supply more series or enable window pooling\n"
            f"singular value mass table:\n{res2.table.to_text()}"
        )
    diag.n2 = res2.n
    diag.table2 = res2.table
    L_3 = res2.H_star  # full n rows; the truncation only limits the fit rank
    diag.f_monomials_before = K_xy.d_v
    L_f, K_f, _ = lk_reduce(L_3, K_xy, cfg.r4)
    diag.f_monomials_after = K_f.d_v
    f_o = MonomialMap(L_f, K_f)

    # Training residuals: one-step output error at every pooled column.
    y_hat = eval_many_checked(h_o, X_t.T, "the training predictions")
    resid = y_now - y_hat
    n_anchors = len(anchors)
    per_series = np.sqrt(
        np.mean(
            resid.reshape(d_y, n_anchors, ts.s) ** 2,
            axis=(0, 1),
        )
    )
    y_std = y_now.std()
    diag.training_rmse_per_series = per_series
    diag.training_relative_rmse = float(
        np.sqrt(np.mean(resid**2)) / (y_std if y_std > 0 else 1.0)
    )

    model = ObserverModel(
        n=n,
        d_y=d_y,
        f_o=f_o,
        h_o=h_o,
        scaling=scaling,
        g_io=g_io,
        t_minus=t_minus,
        meta={
            "config": echo,
            "t_plus": t_plus,
            "t_minus": t_minus,
            "anchor_t": cfg.anchor_t,
            "pooled": pooled,
        },
    )
    return model, diag
