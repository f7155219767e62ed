"""Shared fixtures: reference systems and model builders."""

from __future__ import annotations

import numpy as np
import pytest

from polysid import (
    GeneratorSpec,
    MonomialMap,
    ObserverModel,
    OutputScaling,
    PowerMatrix,
    enumerate_power_matrix,
    identity_power_matrix,
)


def linear_spec(s: int, t_1: int = 30) -> GeneratorSpec:
    """Two-state linear system y = x1, stable upper-triangular dynamics."""
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    f = MonomialMap(A, PowerMatrix(np.array([[1, 0, 0], [0, 1, 0]]), (1, 1, 0)))
    h = MonomialMap(np.array([[1.0, 0.0]]), identity_power_matrix(2))
    return GeneratorSpec(
        n=2, d_y=1, f=f, h=h,
        x0_min=(-1.0, -1.0), x0_max=(1.0, 1.0),
        noise_std=0.0, t_1=t_1, s=s,
    )


def decay_spec(
    s: int, t_1: int = 12, x0_lo: float = -1.0, x0_hi: float = 1.0
) -> GeneratorSpec:
    """Scalar decay x(t+1) = 0.5 x(t), y = x."""
    f = MonomialMap(np.array([[0.5]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
    h = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
    return GeneratorSpec(
        n=1, d_y=1, f=f, h=h,
        x0_min=(x0_lo,), x0_max=(x0_hi,),
        noise_std=0.0, t_1=t_1, s=s,
    )


def polynomial_spec(s: int, t_1: int = 20) -> GeneratorSpec:
    """Two-state system with dynamics on the (x1 x2 y, ..., x2) monomial basis."""
    K_f = np.array(
        [[1, 1, 1], [1, 1, 0], [1, 0, 1], [1, 0, 0], [0, 1, 1], [0, 1, 0]]
    )
    L_f = np.array(
        [
            [0.05, 0.10, 0.08, 0.45, -0.05, 0.12],
            [-0.04, 0.08, 0.05, 0.15, 0.07, 0.38],
        ]
    )
    f = MonomialMap(L_f, PowerMatrix(K_f, (1, 1, 1)))
    h = MonomialMap(np.array([[0.7, 0.3]]), identity_power_matrix(2))
    return GeneratorSpec(
        n=2, d_y=1, f=f, h=h,
        x0_min=(-0.8, -0.8), x0_max=(0.8, 0.8),
        noise_std=0.0, t_1=t_1, s=s,
    )


def reference_fixture_model() -> ObserverModel:
    """Two-state model with a linear output map and multilinear dynamics.

    Coefficient values double as a serialization fixture.
    """
    K_f = np.array(
        [[1, 1, 1], [1, 1, 0], [1, 0, 1], [1, 0, 0], [0, 1, 1], [0, 1, 0]]
    )
    L_f = np.array(
        [
            [0.009, 0.089, 0.023, 0.571, -0.004, -0.020],
            [-0.015, 0.309, -0.014, 0.074, 0.008, 0.212],
        ]
    )
    f_o = MonomialMap(L_f, PowerMatrix(K_f, (1, 1, 1)))
    h_o = MonomialMap(np.array([[-0.0225, 0.0336]]), identity_power_matrix(2))
    return ObserverModel(n=2, d_y=1, f_o=f_o, h_o=h_o)


def random_power_matrix(rng: np.random.Generator, n: int, k_max_hi: int = 2) -> PowerMatrix:
    """Random nonempty subset of a random bounded enumeration, order kept."""
    k_max = tuple(int(v) for v in rng.integers(0, k_max_hi + 1, size=n))
    full = enumerate_power_matrix(n, k_max)
    count = int(rng.integers(1, full.d_v + 1))
    rows = np.sort(rng.choice(full.d_v, size=count, replace=False))
    return full.select_rows(rows)


def random_model(rng: np.random.Generator) -> ObserverModel:
    n = int(rng.integers(1, 4))
    d_y = int(rng.integers(1, 3))
    # Gaussian coefficients make all-zero columns a probability-zero event.
    K_f = random_power_matrix(rng, n + d_y)
    f_o = MonomialMap(rng.standard_normal((n, K_f.d_v)), K_f)
    K_h = random_power_matrix(rng, n)
    h_o = MonomialMap(rng.standard_normal((d_y, K_h.d_v)), K_h)
    scaling = None  # unit divisors
    if rng.random() < 0.5:
        scaling = OutputScaling(np.abs(rng.standard_normal(d_y)) + 0.1)
    g_io = None
    t_minus = None
    if rng.random() < 0.5:
        t_minus = int(rng.integers(1, 4))
        K_g = random_power_matrix(rng, t_minus * d_y, k_max_hi=1)
        g_io = MonomialMap(rng.standard_normal((n, K_g.d_v)), K_g)
    return ObserverModel(
        n=n,
        d_y=d_y,
        f_o=f_o,
        h_o=h_o,
        scaling=scaling,
        g_io=g_io,
        t_minus=t_minus,
        meta={"seed_note": "random model"},
    )


def row_loop_chain(pm: PowerMatrix, rows: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The product chain as it ran before chains were bound: a view per row, each run.

    The reference of the bit-identity tests of the bound chains.
    """
    for row, parent, j in pm.chain_plan[1]:
        if j < 0:
            W[row] = 1.0
        elif parent < 0:
            W[row] = rows[j]
        else:
            np.multiply(W[parent], rows[j], out=W[row])
    return W[: pm.d_v]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
