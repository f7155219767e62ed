"""Synthetic data generation from a ground-truth observer system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import integer, printable, real_array
from .dataio import format_matrix, kv_float, kv_float_vector, kv_int, kv_matrix, parse_kv
from .errors import CapacityError, DimensionMismatchError, InvalidInputError, ParseError
# ``eval_monomial_map_many`` is not called here; the name stays because
# bench/tracing.py patches it on this module.
from .genred import MonomialMap, eval_monomial_map_many  # noqa: F401
from .model import ObserverModel, run_observer
from .monomials import PowerMatrix
from .series import TimeSeriesSet


@dataclass(frozen=True)
class GeneratorSpec:
    """Ground-truth system and sampling plan for synthetic series.

    The recursion is simulated with measured feedback: ``y(t) = h(x(t)) +
    noise`` and ``x(t+1) = f(x(t), y(t))`` using the noisy output.

    Attributes:
        n: State dimension.
        d_y: Output dimension.
        f: Dynamics map over ``(x, y)``, ``n`` outputs.
        h: Output map over ``x``, ``d_y`` outputs.
        x0_min / x0_max: Per-coordinate bounds of the uniform initial-state box.
        noise_std: Standard deviation of the additive i.i.d. Gaussian noise.
        t_1: Series length.
        s: Number of series.

    Raises InvalidInputError unless ``t_1``, ``s``, ``n`` and ``d_y`` are
    positive integers (not booleans) and the box bounds are length-``n`` vectors of
    finite real numbers with min <= max, ``noise_std`` is a finite real number
    >= 0 and the maps fit ``n`` and ``d_y``.
    """

    n: int
    d_y: int
    f: MonomialMap
    h: MonomialMap
    x0_min: tuple[float, ...]
    x0_max: tuple[float, ...]
    noise_std: float
    t_1: int
    s: int

    def __post_init__(self) -> None:
        for name in ("t_1", "s"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        ObserverModel(self.n, self.d_y, self.f, self.h)  # checks n, d_y and the map shapes
        lo, hi = real_array(self.x0_min, "x0_min", 1), real_array(self.x0_max, "x0_max", 1)
        if lo.size != self.n or hi.size != self.n:
            raise DimensionMismatchError("x0 box bounds must have length n")
        if (lo > hi).any():
            raise InvalidInputError("x0 box has empty sides (min > max)")
        noise_std = float(real_array(self.noise_std, "noise_std", 0))
        if noise_std < 0:
            raise InvalidInputError(f"noise_std must be nonnegative, got {noise_std}")
        # The spec holds the floats it checked, as spec_to_kv writes them.
        object.__setattr__(self, "x0_min", tuple(lo.tolist()))
        object.__setattr__(self, "x0_max", tuple(hi.tolist()))
        object.__setattr__(self, "noise_std", noise_std)


def generate(spec: GeneratorSpec, seed: int) -> TimeSeriesSet:
    """Simulate the spec's observer recursion (PCG64 stream from ``seed``).

    Each series draws an independent initial state uniformly from the box;
    noise is additive i.i.d. Gaussian on the outputs.  The same spec and
    seed always produce the same series.

    Raises:
        InvalidInputError: If ``seed`` is not a nonnegative integer, or the
            box is so wide that its drawn states are not finite.
        DivergenceError: If a trajectory leaves the guard region; choose
            smaller coefficients or a smaller initial-state box.
        NumericalOverflowError: Naming the series and time of the first
            output that overflows.
        CapacityError: If the states or series do not fit in memory.
    """
    rng = np.random.default_rng(integer(seed, "seed", 0))
    lo, hi = np.array(spec.x0_min), np.array(spec.x0_max)

    def noisy(i: int, y: np.ndarray, out: np.ndarray) -> None:
        # In place: ``y`` is row ``i`` of the outputs run_observer returns.
        if spec.noise_std > 0:
            y += spec.noise_std * rng.standard_normal(y.shape)
        np.copyto(out, y)

    try:
        x = lo[:, None] + (hi - lo)[:, None] * rng.random((spec.n, spec.s))
        x = real_array(x, "samples", 2)  # the box's width can overflow
        Y = run_observer(spec.f, spec.h, x, spec.t_1, noisy)
    except (MemoryError, ValueError) as exc:  # numpy: "array is too big"
        raise CapacityError(
            f"cannot allocate t_1={printable(spec.t_1)}, d_y={spec.d_y}, s={printable(spec.s)} "
            f"series samples: {exc}"
        ) from exc
    return TimeSeriesSet(Y)


def spec_from_kv(text: str, origin: str = "<string>") -> GeneratorSpec:
    """Parse a generator-spec document (flat key = value text)."""
    kv = parse_kv(text, origin)

    def need(key: str) -> str:
        if key not in kv:
            raise ParseError(f"{origin}: generator spec is missing key {key!r}")
        return kv[key]

    n = kv_int(need("n"), "n")
    d_y = kv_int(need("d_y"), "d_y")
    f_L = kv_matrix(need("f_L"), "f_L")
    f_K = kv_matrix(need("f_K"), "f_K", dtype=int)
    h_L = kv_matrix(need("h_L"), "h_L")
    h_K = kv_matrix(need("h_K"), "h_K", dtype=int)
    f = MonomialMap(f_L, PowerMatrix(f_K, tuple(int(v) for v in f_K.max(axis=0))))
    h = MonomialMap(h_L, PowerMatrix(h_K, tuple(int(v) for v in h_K.max(axis=0))))
    return GeneratorSpec(
        n=n,
        d_y=d_y,
        f=f,
        h=h,
        x0_min=kv_float_vector(need("x0_min"), "x0_min"),
        x0_max=kv_float_vector(need("x0_max"), "x0_max"),
        noise_std=kv_float(need("noise_std"), "noise_std"),
        t_1=kv_int(need("t_1"), "t_1"),
        s=kv_int(need("s"), "s"),
    )


def spec_to_kv(spec: GeneratorSpec) -> str:
    lines = [
        f"n = {spec.n}",
        f"d_y = {spec.d_y}",
        f"f_L = {format_matrix(spec.f.L)}",
        f"f_K = {format_matrix(spec.f.K.K)}",
        f"h_L = {format_matrix(spec.h.L)}",
        f"h_K = {format_matrix(spec.h.K.K)}",
        "x0_min = " + " ".join(repr(float(v)) for v in spec.x0_min),
        "x0_max = " + " ".join(repr(float(v)) for v in spec.x0_max),
        f"noise_std = {spec.noise_std!r}",
        f"t_1 = {spec.t_1}",
        f"s = {spec.s}",
    ]
    return "\n".join(lines) + "\n"
