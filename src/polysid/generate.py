"""Synthetic data generation from a ground-truth observer system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import format_matrix, kv_float, kv_float_vector, kv_int, kv_matrix, parse_kv
from .errors import DimensionMismatchError, InvalidInputError, ParseError
# ``eval_monomial_map_many`` is not called here; the name stays because
# bench/tracing.py patches it on this module.
from .genred import MonomialMap, eval_monomial_map_many  # noqa: F401
from .model import run_observer
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
        if self.n < 1 or self.d_y < 1 or self.t_1 < 1 or self.s < 1:
            raise InvalidInputError("n, d_y, t_1 and s must all be positive")
        if self.f.n_vars != self.n + self.d_y or self.f.m != self.n:
            raise DimensionMismatchError(
                f"f must map {self.n + self.d_y} -> {self.n}, got "
                f"{self.f.n_vars} -> {self.f.m}"
            )
        if self.h.n_vars != self.n or self.h.m != self.d_y:
            raise DimensionMismatchError(
                f"h must map {self.n} -> {self.d_y}, got {self.h.n_vars} -> {self.h.m}"
            )
        if len(self.x0_min) != self.n or len(self.x0_max) != self.n:
            raise DimensionMismatchError("x0 box bounds must have length n")
        for name in ("x0_min", "x0_max"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if any(lo > hi for lo, hi in zip(self.x0_min, self.x0_max)):
            raise InvalidInputError("x0 box has empty sides (min > max)")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise InvalidInputError(
                f"noise_std must be finite and nonnegative, got {self.noise_std}"
            )


def generate(spec: GeneratorSpec, seed: int) -> TimeSeriesSet:
    """Simulate the spec's observer recursion (PCG64 stream from ``seed``).

    Each series draws an independent initial state uniformly from the box;
    noise is additive i.i.d. Gaussian on the outputs.  The same spec and
    seed always produce the same series.

    Raises:
        DivergenceError: If a trajectory leaves the guard region; choose
            smaller coefficients or a smaller initial-state box.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(spec.x0_min, dtype=float)
    hi = np.asarray(spec.x0_max, dtype=float)
    x = lo[:, None] + (hi - lo)[:, None] * rng.random((spec.n, spec.s))
    Y = np.empty((spec.t_1, spec.d_y, spec.s))

    def noisy(i: int, y: np.ndarray) -> np.ndarray:
        if spec.noise_std > 0:
            y = y + spec.noise_std * rng.standard_normal(y.shape)
        Y[i] = y
        return y

    run_observer(spec.f, spec.h, x, spec.t_1, noisy)
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
