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

One chunk loop lifts all samples: both regressions stream to ``svd_trunc_chunks``,
whose split factorization differs from a whole one only at rounding level.
One state-map evaluation gives the states at the (consecutive) anchors and one
step later, and all of ``identify`` runs in one overflow scope.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, replace

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
    "t_plus_min": 1, "t_minus_min": 1, "t_plus_max": 1, "t_minus_max": 1,
    "k_max_y": 0, "k_max_x": 0, "k_max_y2": 0,
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
        t_plus_min / t_minus_min: Initial future/past window lengths.
        t_plus_max / t_minus_max: Final window lengths.
        k_max_y: Exponent bound (nonnegative) of every past output in the
            past lifting, ``t_minus * d_y`` variables.
        k_max_x: Exponent bound (nonnegative) of every state in the
            dynamics lifting.
        k_max_y2: Exponent bound (nonnegative) of every current output in
            the dynamics lifting.
        anchor_t: Anchor time; defaults to ``t_minus_max + 1``.
        pool_windows: Pool every admissible anchor as extra data columns;
            ``None`` pools when the series count ``s`` is below four times
            the past dictionary size ``d_v``.  That rule is decided afresh
            at every window step from that step's dictionary, so pooling can
            switch on partway through the schedule;
            ``IdentDiagnostics.pooled`` reports the last step only.
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
        for side in ("plus", "minus"):
            lo, hi = ints[f"t_{side}_min"], ints[f"t_{side}_max"]
            if lo > hi:
                raise ConfigError(f"need 1 <= t_{side}_min <= t_{side}_max, got {lo}..{hi}")
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
        """Effective configuration as a flat dict (for reports and provenance)."""
        return dict(self.__dict__)


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
class IdentDiagnostics(ArrayRecord):
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


def _check_finite(name: str, scaled: bool, *arrays: np.ndarray) -> None:
    """Report float overflow in a stage of ``identify``, naming it and a remedy."""
    if not all(np.isfinite(arr).all() for arr in arrays):
        fix = "raise scale_gamma" if scaled else "enable output scaling"
        raise NumericalOverflowError(
            f"non-finite values in {name}; the outputs overflow, so {fix} or rescale the data"
        )


def _lifted_chunks(samples: np.ndarray, K: PowerMatrix, what: str, scaled: bool, L=None):
    """Column slices of ``samples`` with their ``K`` lifting (times ``L``), checked as ``what``."""
    width = max(CHUNK_COLUMNS, 2 * K.d_v)  # so each regression QR is tall
    for a in range(0, samples.shape[1], width):
        V = build_data_matrix(samples[:, a : a + width].T, K)
        values = V if L is None else L @ V
        _check_finite(what, scaled, values)
        yield slice(a, a + width), values


def eval_many_checked(M: MonomialMap, samples: np.ndarray, what: str, scaled: bool) -> np.ndarray:
    """Evaluate a monomial map on the sample columns chunk by chunk; ``what`` names overflow."""
    return np.hstack([values for _, values in _lifted_chunks(samples, M.K, what, scaled, M.L)])


def _regress(
    target: np.ndarray, samples: np.ndarray, K: PowerMatrix, r: float,
    lifted: str, regression: str, scaled: bool,
) -> SvdTruncResult:
    """Regress ``target`` on the monomials ``K`` of the sample columns, chunk by chunk.

    Raises:
        NumericalOverflowError: Naming ``lifted`` or ``regression``, the
            stage whose values overflow.
        RankDeficiencyError: Naming ``regression``, if the retained rank
            uses every data column.
    """
    chunks = _lifted_chunks(samples, K, lifted, scaled)
    res = svd_trunc_chunks(((target[:, columns], V) for columns, V in chunks), r)
    # Where D_n**2 is infinite, C gets zero columns instead of non-finite ones.
    _check_finite(regression, scaled, res.D_n**2, res.H_star)
    if samples.shape[1] <= res.n:
        raise RankDeficiencyError(
            f"{samples.shape[1]} data columns for retained rank {res.n} in {regression}; "
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
    and assembly of the observer model.  The outer loop grows the window
    lengths from their minima to their maxima, stopping early when the
    retained rank plateaus; the returned model comes from the final windows.
    With ``cfg.pool_windows`` unset, each window step decides pooling afresh:
    it pools when ``s < 4 d_v`` for that step's past dictionary size ``d_v``.
    Pooling can therefore switch on partway through the schedule, and
    ``IdentDiagnostics.pooled`` reports the last step only.

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
        RankDeficiencyError: If there are too few data columns for the
            rank the past or the dynamics regression retains; it names it.
        NumericalOverflowError: Naming the stage whose values overflow: the
            output scaling, a lifting, a regression or a map evaluation.  All
            of ``identify`` runs in one overflow scope, so numpy warns of none.
    """
    cfg = cfg.resolved(ts)
    echo = cfg.echo()
    diag = IdentDiagnostics(anchor_t=cfg.anchor_t, config_echo=echo)

    scaling: OutputScaling | None = None
    work = ts
    if cfg.scale_outputs:
        mean, std = ts.Y.mean(axis=(0, 2)), ts.Y.std(axis=(0, 2))
        std = np.where(std > 0, std, 1.0) * cfg.scale_gamma
        Y = (ts.Y - mean[:, None]) / std[:, None]  # overflows, not rejected, if std underflows
        _check_finite("the output scaling", True, mean, std, Y)
        scaling = OutputScaling(mean, std)
        work = TimeSeriesSet(Y)

    # Outer loop: grow both window lengths by one per iteration, clamped at
    # their maxima, until both reach them; stop early after two consecutive
    # iterations leave the retained rank unchanged.
    steps = max(cfg.t_plus_max - cfg.t_plus_min, cfg.t_minus_max - cfg.t_minus_min)
    for step in range(steps + 1):
        t_plus = min(cfg.t_plus_min + step, cfg.t_plus_max)
        t_minus = min(cfg.t_minus_min + step, cfg.t_minus_max)
        try:
            K_past = enumerate_power_matrix(
                t_minus * ts.d_y, (cfg.k_max_y,) * (t_minus * ts.d_y), cap=cfg.row_cap
            )
        except CapacityError as exc:
            raise CapacityError(f"past monomial lifting: {exc}") from exc
        pooled = ts.s < 4 * K_past.d_v if cfg.pool_windows is None else cfg.pool_windows
        anchors = (
            np.arange(t_minus + 1, work.t_1 - t_plus + 2)
            if pooled
            else np.array([cfg.anchor_t])
        )
        Yplus, Yminus = build_window_vectors(work, anchors, t_plus, t_minus)
        res1 = _regress(
            Yplus, Yminus, K_past, cfg.r1,
            "the lifted past windows", "the past regression", cfg.scale_outputs,
        )
        g_io = MonomialMap(*lk_reduce(res1.L, K_past, cfg.r4)[:2])
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
        if len(diag.reductions) >= 3 and len({r.n1 for r in diag.reductions[-3:]}) == 1:
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

    # The anchors are consecutive: the windows a step later are those of anchors[1:] and one more.
    windows = np.hstack([Yminus, past_windows(work.Y, anchors[-1:] + 1, t_minus)])
    X = eval_many_checked(g_io, windows, "the state samples", cfg.scale_outputs)
    X_t, X_next = X[:, : Yminus.shape[1]], X[:, ts.s :]

    # Lift the (state, output) pair.
    y_now = Yplus[-d_y:]  # y(t) at every anchor, the bottom of the future stack
    try:
        bounds = (cfg.k_max_x,) * n + (cfg.k_max_y2,) * d_y
        K_xy = enumerate_power_matrix(n + d_y, bounds, cfg.row_cap, cfg.max_total_degree_xy)
    except CapacityError as exc:
        raise CapacityError(
            f"state-output monomial lifting: {exc}; lower k_max_x/k_max_y2, "
            "max_total_degree_xy or the retained rank"
        ) from exc
    res2 = _regress(
        X_next, np.vstack([X_t, y_now]), K_xy, cfg.r2,
        "the lifted state-output pairs", "the dynamics regression", cfg.scale_outputs,
    )
    diag.n2 = res2.n
    diag.table2 = res2.table
    diag.f_monomials_before = K_xy.d_v
    # The full n rows of H_star; the truncation only limits the fit rank.
    f_o = MonomialMap(*lk_reduce(res2.H_star, K_xy, cfg.r4)[:2])
    diag.f_monomials_after = f_o.K.d_v

    # Training residuals: one-step output error at every pooled column.
    y_hat = eval_many_checked(h_o, X_t, "the training predictions", cfg.scale_outputs)
    squares = ((y_now - y_hat) ** 2).reshape(d_y, len(anchors), ts.s)
    diag.training_rmse_per_series = np.sqrt(np.mean(squares, axis=(0, 1)))
    y_std = y_now.std()
    diag.training_relative_rmse = float(np.sqrt(np.mean(squares)) / (y_std if y_std > 0 else 1.0))

    return ObserverModel(
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
    ), diag
