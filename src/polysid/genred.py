"""Generator sets as monomial maps and approximate polynomial factorization.

A :class:`MonomialMap` ``(L, K)`` represents the vector polynomial map
``x -> L @ x**K``.  :func:`eliminate_products` takes a linear-polynomial
factorization ``y ~= C_r @ g_r(u)`` and tries to shrink the generator set by
rewriting generator components that are (numerically) products of two other
components, absorbing the rewrite into a polynomial output map ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .monomials import (
    PowerMatrix,
    build_data_matrix,
    identity_power_matrix,
    lex_compare,
)

#: Relative cutoff below which a coefficient does not count toward the
#: leading monomial of a generator component.
LEADING_COEFF_RTOL = 1e-9


@dataclass(frozen=True)
class MonomialMap:
    """Vector polynomial map ``x -> L @ x**K``.

    Attributes:
        L: Coefficient matrix of shape ``(m, d_v)``; column ``j`` weights the
            monomial indexed by row ``j`` of ``K``.
        K: Power matrix over the ``n_vars`` input variables.

    A map with zero monomials (``d_v == 0``) is the canonical zero map.
    """

    L: np.ndarray
    K: PowerMatrix

    def __post_init__(self) -> None:
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2:
            raise InvalidInputError(f"coefficient matrix must be 2-D, got {L.shape}")
        if L.shape[1] != self.K.d_v:
            raise DimensionMismatchError(
                f"{L.shape[1]} coefficient columns vs {self.K.d_v} monomials"
            )
        if not np.isfinite(L).all():
            raise InvalidInputError("coefficient matrix contains non-finite entries")
        L = L.copy()
        L.setflags(write=False)
        object.__setattr__(self, "L", L)

    @property
    def n_vars(self) -> int:
        return self.K.n

    @property
    def m(self) -> int:
        """Output dimension."""
        return self.L.shape[0]

    def drop_zero_columns(self) -> "MonomialMap":
        """Remove monomials whose coefficient column is exactly zero."""
        keep = np.flatnonzero((self.L != 0.0).any(axis=0))
        if keep.size == self.K.d_v:
            return self
        return MonomialMap(self.L[:, keep], self.K.select_rows(keep))

    def is_nontrivial(self) -> bool:
        """True when no coefficient column is entirely zero."""
        return bool((self.L != 0.0).any(axis=0).all())


@dataclass(frozen=True)
class Factorization:
    """Polynomial factorization ``y ~= h(g(u))`` with state ``x = g(u)``."""

    h: MonomialMap
    g: MonomialMap
    d_x: int

    def __post_init__(self) -> None:
        if self.h.n_vars != self.g.m:
            raise DimensionMismatchError(
                f"h takes {self.h.n_vars} variables but g produces {self.g.m}"
            )
        if self.d_x != self.g.m:
            raise InvalidInputError("d_x must equal the output dimension of g")


def eval_monomial_map_many(M: MonomialMap, samples) -> np.ndarray:
    """Evaluate the map at many points; returns columns in sample order."""
    return M.L @ build_data_matrix(samples, M.K)


def _leading_rows(M: MonomialMap) -> list[int | None]:
    """Index (into K rows) of each component's leading monomial.

    Rows of ``K`` are in decreasing lex order, so the leading monomial is the
    first column whose coefficient is non-negligible relative to the row max.
    Components with an all-zero coefficient row lead nowhere (``None``).
    """
    out: list[int | None] = []
    for m in range(M.m):
        row = np.abs(M.L[m])
        mx = row.max() if row.size else 0.0
        if mx == 0.0:
            out.append(None)
            continue
        nz = np.flatnonzero(row > LEADING_COEFF_RTOL * mx)
        out.append(int(nz[0]))
    return out


@dataclass(frozen=True)
class _Elimination:
    target: int            # original component index removed
    factor_i: int          # original indices of the two product factors
    factor_j: int
    alpha: float           # coefficient of the product term
    betas: dict[int, float]  # original index -> linear residual coefficient


def _build_h(
    C_r: np.ndarray, alive: list[int], elims: list[_Elimination]
) -> MonomialMap:
    """Assemble the output map over the surviving state components.

    Each surviving component becomes a state variable; every elimination
    contributes its product monomial and linear residual terms.
    """
    d_y = C_r.shape[0]
    d_x = len(alive)
    new_idx = {old: new for new, old in enumerate(alive)}
    cols: dict[tuple[int, ...], np.ndarray] = {}

    def add(key: tuple[int, ...], coeff: np.ndarray) -> None:
        if key in cols:
            cols[key] = cols[key] + coeff
        else:
            cols[key] = coeff.copy()

    for old in alive:
        e = [0] * d_x
        e[new_idx[old]] = 1
        add(tuple(e), C_r[:, old])
    for el in elims:
        prod = [0] * d_x
        prod[new_idx[el.factor_i]] += 1
        prod[new_idx[el.factor_j]] += 1
        add(tuple(prod), el.alpha * C_r[:, el.target])
        for k, beta in el.betas.items():
            e = [0] * d_x
            e[new_idx[k]] = 1
            add(tuple(e), beta * C_r[:, el.target])

    keys = sorted(cols.keys(), reverse=True)  # decreasing lex
    K = np.asarray(keys, dtype=np.int64).reshape(len(keys), d_x)
    L = np.column_stack([cols[k] for k in keys]) if keys else np.zeros((d_y, 0))
    k_max = tuple(int(v) for v in K.max(axis=0)) if len(keys) else (0,) * d_x
    return MonomialMap(L, PowerMatrix(K, k_max)).drop_zero_columns()


def _value_preserved(
    y_ref: np.ndarray, h: MonomialMap, x_cols: np.ndarray, tol: float
) -> bool:
    h_val = eval_monomial_map_many(h, x_cols.T)
    diff = np.abs(y_ref - h_val).max(axis=0)
    bound = tol * (1.0 + np.abs(y_ref).max(axis=0))
    return bool(np.all(diff <= bound))


def eliminate_products(
    C_r: np.ndarray, g_r: MonomialMap, samples, tol: float
) -> Factorization:
    """Reduce a linear-polynomial factorization by eliminating generator products.

    Components of ``g_r`` are processed from highest to lowest leading power
    vector.  A component ``g_m`` is eliminated when some pair ``(g_i, g_j)``
    of lower-leading components satisfies ``g_m ~= alpha * g_i * g_j +
    sum_k beta_k * g_k`` on the samples, and rewriting keeps the composed map
    within ``tol * (1 + |y|_inf)`` of ``C_r @ g_r`` on every sample.  The
    rewrite moves the product monomial into the output map ``h``; used
    factors and residual components are protected from later elimination
    (greedy single pass, no backtracking).

    If nothing can be eliminated the result is exactly ``h = C_r`` (linear
    over the identity power matrix) with ``g = g_r``.

    Raises:
        InvalidInputError: If the sample list is empty.
        DimensionMismatchError: If ``C_r`` columns do not match ``g_r`` outputs.
    """
    C = np.asarray(C_r, dtype=float)
    if C.ndim != 2:
        raise InvalidInputError("C_r must be a 2-D matrix")
    if C.shape[1] != g_r.m:
        raise DimensionMismatchError(
            f"C_r has {C.shape[1]} columns but g_r produces {g_r.m} components"
        )
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InvalidInputError("eliminate_products needs at least one sample")

    d_xr = g_r.m
    G = eval_monomial_map_many(g_r, X)  # (d_xr, N)
    y_ref = C @ G
    leads = _leading_rows(g_r)
    lead_vecs = [None if j is None else g_r.K.K[j] for j in leads]

    order = sorted(
        (m for m in range(d_xr) if lead_vecs[m] is not None),
        key=lambda m: tuple(lead_vecs[m]),
        reverse=True,
    )
    alive = list(range(d_xr))
    protected: set[int] = set()
    elims: list[_Elimination] = []

    for m in order:
        if m in protected or m not in alive:
            continue
        lead_m = lead_vecs[m]
        norm_m = float(np.linalg.norm(G[m]))
        if norm_m == 0.0:
            continue
        others = [
            k
            for k in alive
            if k != m
            and lead_vecs[k] is not None
            and lex_compare(lead_vecs[k], lead_m) < 0
        ]
        committed = False
        for i, j in combinations_with_replacement(others, 2):
            if not np.array_equal(lead_vecs[i] + lead_vecs[j], lead_m):
                continue
            regressor_rows = [G[i] * G[j]] + [G[k] for k in others]
            A = np.vstack(regressor_rows).T  # (N, 1 + len(others))
            coef, *_ = np.linalg.lstsq(A, G[m], rcond=None)
            resid = G[m] - A @ coef
            if np.linalg.norm(resid) > tol * norm_m:
                continue
            alpha = float(coef[0])
            betas = {
                k: float(c)
                for k, c in zip(others, coef[1:])
                if abs(c) * np.linalg.norm(G[k]) > 1e-12 * norm_m
            }
            trial_alive = [k for k in alive if k != m]
            trial_elims = elims + [_Elimination(m, i, j, alpha, betas)]
            h_try = _build_h(C, trial_alive, trial_elims)
            if not _value_preserved(y_ref, h_try, G[trial_alive], tol):
                continue
            alive = trial_alive
            elims = trial_elims
            protected.update({i, j, *betas.keys()})
            committed = True
            break
        if committed:
            continue

    if not elims:
        h = MonomialMap(C, identity_power_matrix(d_xr))
        return Factorization(h=h, g=g_r, d_x=d_xr)

    h = _build_h(C, alive, elims)
    g = MonomialMap(g_r.L[alive, :], g_r.K).drop_zero_columns()
    return Factorization(h=h, g=g, d_x=len(alive))
