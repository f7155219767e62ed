"""The subalgebraic identification pipeline.

Given a set of output time series, the pipeline lifts past output windows
into a bounded monomial dictionary, regresses future windows on the lifted
past through a truncated SVD, prunes the resulting generator set, optionally
eliminates generator products, and finally regresses the next state on the
lifted (state, output) pair to obtain a polynomial observer model:

    x(t+1) = f_o(x(t), y(t)),      yhat(t | t-1) = h_o(x(t)).

An outer loop grows the future/past window lengths step by step, monitoring
the retained rank; when the past dictionary is large it is consumed in
ascending-order blocks, accumulating surviving generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateModelError,
    InvalidInputError,
    NumericalOverflowError,
    RankDeficiencyError,
)
from .genred import Factorization, MonomialMap, eliminate_products
from .model import ObserverModel, OutputScaling
from .monomials import (
    DEFAULT_ROW_CAP,
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    merge_power_matrices,
    partition_power_matrix,
)
from .numred import TruncationTable, lk_reduce, svd_trunc
from .series import TimeSeriesSet


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
    plus_times = range(t + t_plus - 1, t - 1, -1)
    minus_times = range(t - 1, t - t_minus - 1, -1)
    Yplus = np.concatenate([ts.Y[tau - 1] for tau in plus_times], axis=0)
    Yminus = np.concatenate([ts.Y[tau - 1] for tau in minus_times], axis=0)
    return Yplus, Yminus


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


@dataclass
class IdentConfig:
    """Parameters of the identification pipeline.

    The four thresholds are mandatory; structural parameters carry defaults.
    ``k_max_x`` may be a scalar because the state dimension is only known at
    run time; scalars are broadcast per variable.  Window maxima default to
    four times the expected state dimension.

    Attributes:
        r1: Mass-fraction threshold of the past-to-future SVD truncation.
        r2: Mass-fraction threshold of the dynamics SVD truncation.
        r3: Relative tolerance of generator-product elimination.
        r4: Column-pruning threshold of the LK-reductions.
        t_plus_min / t_minus_min: Initial future/past window lengths.
        t_plus_max / t_minus_max: Final window lengths (default
            ``4 * n_expected``).
        k_max_y: Per-output exponent bound of the past lifting (scalar or
            length ``d_y``).
        k_max_x: Per-state exponent bound of the dynamics lifting (scalar or
            length ``n``).
        k_max_y2: Per-output exponent bound of the dynamics lifting (scalar
            or length ``d_y``).
        block_limit: Past dictionaries above this row count are consumed in
            ascending-order blocks.
        anchor_t: Anchor time; defaults to ``t_minus_max + 1``.
        pool_windows: Pool every admissible anchor as extra data columns;
            ``None`` enables pooling automatically when the series count is
            small relative to the dictionary.
        n_expected: Hint for the expected state dimension (drives default
            window maxima).
        max_total_degree_xy: Optional total-degree cap on the (state, output)
            dictionary (nonnegative); the bounded monomial set may be any
            subset of the full enumeration, and low-degree subsets keep the
            dynamics map tame between samples.  The capped set is enumerated
            directly, so its size, not the box's, counts against
            ``row_cap``.  ``None`` uses the full bounded set.
        scale_outputs: Standardize each output dimension before lifting and
            fold the transform into the model.
        scale_gamma: Extra gain on the scaling divisor: outputs are divided
            by ``scale_gamma * std``, so values below 1 inflate the working
            amplitude.  Larger amplitudes weight high-degree monomial
            directions more heavily in the truncated SVDs.
        balance_state: Rescale state components to unit RMS before the
            dynamics regression (a pure reparametrization).  Off by default:
            amplifying low-energy components spreads the minimum-norm
            dynamics fit across poorly excited directions.
        row_cap: Hard cap (positive) on the rows of each enumerated monomial
            dictionary, the past lifting and the (state, output) lifting,
            checked on the true row count before allocation.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    t_plus_min: int = 1
    t_minus_min: int = 1
    t_plus_max: int | None = None
    t_minus_max: int | None = None
    k_max_y: int | Sequence[int] = 1
    k_max_x: int | Sequence[int] = 1
    k_max_y2: int | Sequence[int] = 1
    block_limit: int = 500
    anchor_t: int | None = None
    pool_windows: bool | None = None
    n_expected: int = 2
    max_total_degree_xy: int | None = None
    scale_outputs: bool = True
    scale_gamma: float = 1.0
    balance_state: bool = False
    row_cap: int = DEFAULT_ROW_CAP

    def resolved(self, ts: TimeSeriesSet) -> "_ResolvedConfig":
        """Validate against a data set and fill in every default."""
        for name in ("r1", "r2", "r3", "r4"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        if self.n_expected < 1:
            raise ConfigError("n_expected must be positive")
        t_plus_max = self.t_plus_max if self.t_plus_max is not None else 4 * self.n_expected
        t_minus_max = (
            self.t_minus_max if self.t_minus_max is not None else 4 * self.n_expected
        )
        if not (1 <= self.t_plus_min <= t_plus_max):
            raise ConfigError(
                f"need 1 <= t_plus_min <= t_plus_max, got {self.t_plus_min}..{t_plus_max}"
            )
        if not (1 <= self.t_minus_min <= t_minus_max):
            raise ConfigError(
                f"need 1 <= t_minus_min <= t_minus_max, got {self.t_minus_min}..{t_minus_max}"
            )
        if self.block_limit < 1:
            raise ConfigError("block_limit must be positive")
        if self.row_cap < 1:
            raise ConfigError(f"row_cap must be positive, got {self.row_cap}")
        if self.max_total_degree_xy is not None and self.max_total_degree_xy < 0:
            raise ConfigError(
                f"max_total_degree_xy={self.max_total_degree_xy} empties the dictionary"
            )
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
        return _ResolvedConfig(
            base=self,
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
class _ResolvedConfig:
    base: IdentConfig
    t_plus_max: int
    t_minus_max: int
    anchor_t: int
    k_max_y: tuple[int, ...]
    k_max_y2: tuple[int, ...]


@dataclass(frozen=True)
class ReductionRecord:
    """Diagnostics of one (window, block) reduction cycle."""

    t_plus: int
    t_minus: int
    block_index: int
    block_count: int
    rows_presented: int
    rows_kept: int
    n1: int
    table1: TruncationTable


@dataclass
class IdentDiagnostics:
    """Everything the pipeline observed on its way to the model."""

    anchor_t: int = 0
    pooled: bool = False
    anchors: list[int] = field(default_factory=list)
    n_columns: int = 0
    reductions: list[ReductionRecord] = field(default_factory=list)
    chosen_t_plus: int = 0
    chosen_t_minus: int = 0
    n1: int = 0
    n2: int = 0
    generators_before_elimination: int = 0
    generators_after_elimination: int = 0
    f_monomials_before: int = 0
    f_monomials_after: int = 0
    table2: TruncationTable | None = None
    training_rmse_per_series: np.ndarray | None = None
    training_relative_rmse: float = float("nan")
    config_echo: dict = field(default_factory=dict)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericalOverflowError(
            f"non-finite values in {name}; the lifted outputs overflow, so "
            "enable output scaling or rescale the data"
        )


def eval_many_checked(M: MonomialMap, samples, what: str) -> np.ndarray:
    """Batch-evaluate a monomial map, mapping overflow onto a pipeline error."""
    values = M.L @ build_data_matrix(samples, M.K)
    _check_finite(what, values)
    return values


def _pooled_anchor_times(ts: TimeSeriesSet, t_plus: int, t_minus: int) -> list[int]:
    return list(range(t_minus + 1, ts.t_1 - t_plus + 2))


def _stack_windows(
    ts: TimeSeriesSet, anchors: Sequence[int], t_plus: int, t_minus: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window matrices pooled over anchors, plus the shifted past windows.

    Returns ``(Yplus, Yminus, Yminus_next)`` where column blocks iterate over
    anchors (series-major within each anchor) and ``Yminus_next`` holds the
    past window advanced by one step, used for the next-state values.
    """
    plus_blocks, minus_blocks, next_blocks = [], [], []
    for t in anchors:
        Yp, Ym = build_window_vectors(ts, t, t_plus, t_minus)
        # Past window one step later: stacks y(t) down to y(t - t_minus + 1).
        shift_times = range(t, t - t_minus, -1)
        Ym_next = np.concatenate([ts.Y[tau - 1] for tau in shift_times], axis=0)
        plus_blocks.append(Yp)
        minus_blocks.append(Ym)
        next_blocks.append(Ym_next)
    return (
        np.concatenate(plus_blocks, axis=1),
        np.concatenate(minus_blocks, axis=1),
        np.concatenate(next_blocks, axis=1),
    )


def _past_dictionary_size(k_max_y: tuple[int, ...], t_minus: int) -> int:
    per_step = math.prod(k + 1 for k in k_max_y)
    return per_step**t_minus


@dataclass(frozen=True)
class _CycleResult:
    C_vplus: np.ndarray
    L_g: np.ndarray
    K_g: PowerMatrix
    n1: int


def _reduction_cycles(
    Yplus: np.ndarray,
    Yminus_samples: np.ndarray,
    t_plus: int,
    t_minus: int,
    rcfg: _ResolvedConfig,
    diag: IdentDiagnostics,
) -> _CycleResult:
    """Run the lifting / SVD / pruning cycles for one window length."""
    cfg = rcfg.base
    d_y_minus = Yminus_samples.shape[1]
    k_max_minus = rcfg.k_max_y * t_minus
    try:
        K_full = enumerate_power_matrix(d_y_minus, k_max_minus, cap=cfg.row_cap)
    except CapacityError as exc:
        raise CapacityError(f"past monomial lifting: {exc}") from exc

    if K_full.d_v > cfg.block_limit:
        blocks = partition_power_matrix(K_full, cfg.block_limit)
    else:
        blocks = [K_full]

    K_kept: PowerMatrix | None = None
    result: _CycleResult | None = None
    for b_idx, block in enumerate(blocks):
        K_work = block if K_kept is None else merge_power_matrices(K_kept, block)
        V_minus = build_data_matrix(Yminus_samples, K_work)
        _check_finite("the lifted past windows", V_minus)
        res1 = svd_trunc(Yplus, V_minus, cfg.r1)
        if Yplus.shape[1] <= res1.n:
            raise RankDeficiencyError(
                f"{Yplus.shape[1]} data columns for retained rank {res1.n}; "
                "supply more series or enable window pooling\n"
                f"singular value mass table:\n{res1.table.to_text()}"
            )
        L_g, K_g, _ = lk_reduce(res1.L, K_work, cfg.r4)
        diag.reductions.append(
            ReductionRecord(
                t_plus=t_plus,
                t_minus=t_minus,
                block_index=b_idx + 1,
                block_count=len(blocks),
                rows_presented=K_work.d_v,
                rows_kept=K_g.d_v,
                n1=res1.n,
                table1=res1.table,
            )
        )
        K_kept = K_g
        result = _CycleResult(C_vplus=res1.C, L_g=L_g, K_g=K_g, n1=res1.n)
    assert result is not None
    return result


def _balance_state(
    fact: Factorization, X_samples: np.ndarray
) -> tuple[MonomialMap, MonomialMap, np.ndarray]:
    """Rescale state components to unit RMS (a pure reparametrization).

    Returns the rescaled ``(g, h)`` and the rescaled state samples.  The
    output map absorbs the inverse scale on each monomial.
    """
    rms = np.sqrt(np.mean(X_samples**2, axis=1))
    scale = np.where(rms > 0, rms, 1.0)
    g = MonomialMap(fact.g.L / scale[:, None], fact.g.K)
    # h(x_old) with x_old = scale * x_new multiplies each monomial column by
    # prod_i scale_i ** K[row, i].
    K_h = fact.h.K.K
    col_factor = np.prod(scale[None, :] ** K_h, axis=1)
    h = MonomialMap(fact.h.L * col_factor[None, :], fact.h.K)
    return g, h, X_samples / scale[:, None]


def identify(ts: TimeSeriesSet, cfg: IdentConfig) -> tuple[ObserverModel, IdentDiagnostics]:
    """Identify a polynomial observer model from output time series.

    The pipeline, in order: window construction around the anchor time (with
    optional anchor pooling); monomial lifting of past windows with the
    future side kept linear; block-wise truncated-SVD regression of the
    future on the lifted past with column pruning; generator-product
    elimination yielding the state map ``x = g(y_minus)`` and output map;
    projection of the output equation onto the current output; next-state
    evaluation on shifted windows; monomial lifting of the (state, output)
    pair; truncated-SVD regression of the next state with column pruning;
    and assembly of the observer model.  The outer loop grows the window
    lengths from their minima to their maxima, stopping early when the
    retained rank plateaus; the returned model comes from the final windows.

    Returns:
        The identified model and the full diagnostics.

    Raises:
        ConfigError: On an invalid or infeasible configuration.
        CapacityError: If a monomial dictionary would exceed the row cap.
        RankDeficiencyError: If there are too few data columns.
        NumericalOverflowError: On non-finite lifted values.
        DegenerateModelError: If every generator is pruned away.
    """
    rcfg = cfg.resolved(ts)
    diag = IdentDiagnostics(anchor_t=rcfg.anchor_t, config_echo=cfg.echo())

    scaling: OutputScaling | None = None
    work = ts
    if cfg.scale_outputs:
        if not cfg.scale_gamma > 0:
            raise ConfigError(f"scale_gamma must be positive, got {cfg.scale_gamma}")
        mean = ts.Y.mean(axis=(0, 2))
        std = ts.Y.std(axis=(0, 2))
        std = np.where(std > 0, std, 1.0) * cfg.scale_gamma
        scaling = OutputScaling(mean, std)
        work = TimeSeriesSet((ts.Y - mean[None, :, None]) / std[None, :, None])

    # Outer loop: grow both window lengths by one per iteration, clamped at
    # their maxima; stop early after two consecutive iterations leave the
    # retained rank unchanged.
    schedule: list[tuple[int, int]] = []
    step = 0
    while True:
        tp = min(cfg.t_plus_min + step, rcfg.t_plus_max)
        tm = min(cfg.t_minus_min + step, rcfg.t_minus_max)
        schedule.append((tp, tm))
        if tp == rcfg.t_plus_max and tm == rcfg.t_minus_max:
            break
        step += 1

    n1_history: list[int] = []
    final: _CycleResult | None = None
    final_windows: tuple[int, int] = schedule[-1]
    final_anchors: list[int] = []
    final_pooled = False
    for tp, tm in schedule:
        d_v_full = _past_dictionary_size(rcfg.k_max_y, tm)
        pooled = (
            cfg.pool_windows
            if cfg.pool_windows is not None
            else ts.s < 4 * d_v_full
        )
        anchors = _pooled_anchor_times(work, tp, tm) if pooled else [rcfg.anchor_t]
        Yplus, Yminus, _ = _stack_windows(work, anchors, tp, tm)
        cycle = _reduction_cycles(Yplus, Yminus.T, tp, tm, rcfg, diag)
        n1_history.append(cycle.n1)
        final = cycle
        final_windows = (tp, tm)
        final_anchors = anchors
        final_pooled = pooled
        if (
            len(n1_history) >= 3
            and n1_history[-1] == n1_history[-2] == n1_history[-3]
        ):
            break

    assert final is not None
    t_plus, t_minus = final_windows
    diag.chosen_t_plus, diag.chosen_t_minus = t_plus, t_minus
    diag.pooled = final_pooled
    diag.anchors = final_anchors
    diag.n1 = final.n1

    # Rebuild the final window matrices (cheap relative to the SVDs).
    Yplus, Yminus, Yminus_next = _stack_windows(work, final_anchors, t_plus, t_minus)
    diag.n_columns = Yplus.shape[1]

    # Generator-product elimination on the reduced set.
    g_r = MonomialMap(final.L_g, final.K_g)
    diag.generators_before_elimination = g_r.m
    fact = eliminate_products(final.C_vplus, g_r, Yminus.T, cfg.r3)
    n = fact.d_x
    diag.generators_after_elimination = n
    if n == 0:
        raise DegenerateModelError(
            "every generator was pruned away; relax r3/r4 or enlarge k_max_y"
        )

    X_t = eval_many_checked(fact.g, Yminus.T, "the state samples")
    if cfg.balance_state:
        g_io, h_io_plus, X_t = _balance_state(fact, X_t)
    else:
        g_io, h_io_plus = fact.g, fact.h

    # Output equation: project the future map onto the current output, the
    # bottom block of the future stack.
    d_y = ts.d_y
    h_o = MonomialMap(h_io_plus.L[-d_y:, :], h_io_plus.K).drop_zero_columns()

    # Next-state values from the shifted past windows.
    X_next = eval_many_checked(g_io, Yminus_next.T, "the next-state samples")

    # Lift the (state, output) pair.
    k_max_x = _as_bound_vector(cfg.k_max_x, n, "k_max_x")
    y_now = np.concatenate(
        [work.Y[t - 1] for t in final_anchors], axis=1
    )  # (d_y, columns)
    try:
        K_xy = enumerate_power_matrix(
            n + d_y, k_max_x + rcfg.k_max_y2, cfg.row_cap, cfg.max_total_degree_xy
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

    # Per-series initial states at the canonical anchor.
    _, Ym_anchor = build_window_vectors(work, rcfg.anchor_t, t_plus, t_minus)
    X0 = eval_many_checked(g_io, Ym_anchor.T, "the anchor states")

    # Training residuals: one-step output error at every pooled column.
    y_hat = eval_many_checked(h_o, X_t.T, "the training predictions")
    resid = y_now - y_hat
    n_anchors = len(final_anchors)
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
        X0=X0,
        scaling=scaling,
        g_io=g_io,
        t_minus=t_minus,
        meta={
            "config": cfg.echo(),
            "t_plus": t_plus,
            "t_minus": t_minus,
            "anchor_t": rcfg.anchor_t,
            "pooled": final_pooled,
        },
    )
    return model, diag
