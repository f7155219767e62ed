"""Acceptance criteria: synthetic round-trips plus property batteries.

Each test prints one ``A<k> PASS/FAIL`` line (visible with ``pytest -s``)
before asserting, so the suite doubles as a checklist run.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from polysid import (
    GeneratorSpec,
    IdentConfig,
    TimeSeriesSet,
    build_data_matrix,
    deserialize_model,
    enumerate_power_matrix,
    generate,
    identify,
    identity_power_matrix,
    lk_reduce,
    mdtrunc,
    predict_one_step,
    predict_with_burn_in,
    serialize_model,
    svd_trunc,
)

from conftest import linear_spec, polynomial_spec, random_model, reference_fixture_model


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")


def test_a1_linear_round_trip():
    train = generate(linear_spec(50, t_1=30), 1)
    held = generate(linear_spec(10, t_1=30), 2)
    cfg = IdentConfig(
        r1=0.9999, r2=0.9999, r4=0.001,
        t_plus_max=4, t_minus_max=4,
        k_max_y=1, max_total_degree_xy=2, scale_gamma=5.0,
    )
    t0 = time.perf_counter()
    model, diag = identify(train, cfg)
    rep = predict_with_burn_in(model, held)
    elapsed = time.perf_counter() - t0
    rel = rep.max_relative_rmse
    ok = rel <= 1e-5 and elapsed <= 10.0
    report("A1", ok, f"held-out relative RMSE {rel:.3g} (<= 1e-5), {elapsed:.2f}s (<= 10s)")
    assert rel <= 1e-5
    assert elapsed <= 10.0


def test_a2_polynomial_round_trip():
    train = generate(polynomial_spec(60, t_1=20), 11)
    held = generate(polynomial_spec(10, t_1=20), 12)
    cfg = IdentConfig(
        r1=0.9999, r2=0.9999, r4=0.001,
        t_plus_max=4, t_minus_max=4,
        k_max_y=1, max_total_degree_xy=2, scale_gamma=2.0,
    )
    t0 = time.perf_counter()
    model, diag = identify(train, cfg)
    rep = predict_with_burn_in(model, held)
    elapsed = time.perf_counter() - t0
    rel = rep.max_relative_rmse
    # structural anchor: dynamics monomials lie in the bounded (x, y) set
    full = {tuple(r) for r in enumerate_power_matrix(model.n + 1, (1,) * (model.n + 1)).K}
    structural = {tuple(r) for r in model.f_o.K.K} <= full
    ok = rel <= 0.05 and elapsed <= 60.0 and structural
    report(
        "A2", ok,
        f"held-out relative RMSE {rel:.3g} (<= 0.05), {elapsed:.2f}s (<= 60s), "
        f"basis within bounded set: {structural}",
    )
    assert rel <= 0.05
    assert elapsed <= 60.0
    assert structural


def test_a3_mdtrunc_oracle_equivalence():
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 9))
        D = np.sort(rng.random(length))[::-1]
        if length > 1 and rng.random() < 0.25:
            D[-1] = 0.0
        r = float(rng.uniform(0.001, 0.999))
        n_r, _, table = mdtrunc(D, r)
        total = D.sum()
        acc, oracle = 0.0, length
        for j in range(length):
            acc += D[j]
            if acc / total >= r:
                oracle = j + 1
                break
        if n_r != oracle or abs(table.fractions[-1] - 1.0) > 8 * math.ulp(1.0):
            failures += 1
    report("A3", failures == 0, f"{failures} mismatches in 10000 random diagonals")
    assert failures == 0


def test_a4_svd_trunc_reconstruction():
    rng = np.random.default_rng(4)
    worst_recon, worst_factor, rank_ok = 0.0, 0.0, True
    for _ in range(100):
        k = int(rng.integers(1, 6))
        d_vu = int(rng.integers(k + 1, 12))
        s = int(rng.integers(d_vu + 1, 25))
        V_u = rng.standard_normal((d_vu, k)) @ rng.standard_normal((k, s))
        M = rng.standard_normal((int(rng.integers(1, 7)), d_vu))
        V_y = M @ V_u
        res = svd_trunc(V_y, V_u, 1 - 1e-12)
        rank_ok &= res.n == k
        recon = np.linalg.norm(V_y - res.H_star @ V_u) / np.linalg.norm(V_y)
        factor = np.linalg.norm(res.H_star - res.C @ res.L) / max(
            np.linalg.norm(res.H_star), 1e-300
        )
        worst_recon = max(worst_recon, recon)
        worst_factor = max(worst_factor, factor)
    ok = rank_ok and worst_recon <= 1e-8 and worst_factor <= 1e-10
    report(
        "A4", ok,
        f"rank exact: {rank_ok}, worst reconstruction {worst_recon:.2e} (<= 1e-8), "
        f"worst factor error {worst_factor:.2e} (<= 1e-10)",
    )
    assert rank_ok and worst_recon <= 1e-8 and worst_factor <= 1e-10


def test_a5_monomial_fixtures():
    pm = enumerate_power_matrix(2, (2, 1))
    expected_K = np.array([[2, 1], [2, 0], [1, 1], [1, 0], [0, 1], [0, 0]])
    rows_ok = bool(np.array_equal(pm.K, expected_K)) and pm.d_v == 6
    v = build_data_matrix([[2.0, 3.0]], pm)[:, 0]
    eval_ok = bool(np.array_equal(v, [12.0, 4.0, 6.0, 2.0, 3.0, 1.0]))
    report("A5", rows_ok and eval_ok, f"rows match: {rows_ok}, value at (2,3) matches: {eval_ok}")
    assert rows_ok and eval_ok


def test_a6_lk_reduce_properties():
    rng = np.random.default_rng(6)
    sound, idem, survival = True, True, True
    for _ in range(10_000):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 7))
        L = rng.standard_normal((rows, cols)) * (rng.random(cols)[None, :] ** 2)
        if not L.any():
            continue
        pm = enumerate_power_matrix(3, (1, 1, 1)).select_rows(range(cols))
        r = float(rng.uniform(0.01, 0.99))
        norms = np.abs(L).sum(axis=0)
        L2, pm2, kept = lk_reduce(L, pm, r)
        sound &= all(norms[j] > r * norms.max() for j in kept)
        survival &= int(np.argmax(norms)) in kept
        L3, pm3, _ = lk_reduce(L2, pm2, r)
        idem &= bool(np.array_equal(L2, L3) and np.array_equal(pm2.K, pm3.K))
    ok = sound and idem and survival
    report("A6", ok, f"soundness: {sound}, idempotence: {idem}, max-column survival: {survival}")
    assert ok


def test_a8_observer_causality():
    rng = np.random.default_rng(8)
    train = generate(linear_spec(30, t_1=24), 21)
    cfg = IdentConfig(
        r1=0.999, r2=0.999, r4=0.001,
        t_plus_max=3, t_minus_max=3,
        k_max_y=1, max_total_degree_xy=2,
    )
    model, _ = identify(train, cfg)
    trials_ok = 0
    for _ in range(100):
        Y = 0.5 * rng.standard_normal((12, 1, 1))
        ts = TimeSeriesSet(Y)
        x0 = 0.1 * rng.standard_normal((model.n, 1))
        base = predict_one_step(model, ts, x0)
        cut = int(rng.integers(1, 11))
        Y2 = Y.copy()
        Y2[cut:] += rng.standard_normal(Y2[cut:].shape)
        pert = predict_one_step(model, TimeSeriesSet(Y2), x0)
        if np.array_equal(base.predictions[: cut + 1], pert.predictions[: cut + 1]):
            trials_ok += 1
    report("A8", trials_ok == 100, f"{trials_ok}/100 trials bit-identical before the cut")
    assert trials_ok == 100


def test_a9_serialization_round_trip():
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(1000):
        model = random_model(rng)
        back = deserialize_model(serialize_model(model))
        same = (
            back.n == model.n
            and back.d_y == model.d_y
            and np.array_equal(back.f_o.L, model.f_o.L)
            and np.array_equal(back.f_o.K.K, model.f_o.K.K)
            and back.f_o.K.k_max == model.f_o.K.k_max
            and np.array_equal(back.h_o.L, model.h_o.L)
            and np.array_equal(back.h_o.K.K, model.h_o.K.K)
            and (back.scaling is None) == (model.scaling is None)
            and (back.g_io is None) == (model.g_io is None)
        )
        if same and model.scaling is not None:
            same = np.array_equal(back.scaling.mean, model.scaling.mean) and np.array_equal(
                back.scaling.std, model.scaling.std
            )
        if same and model.g_io is not None:
            same = (
                np.array_equal(back.g_io.L, model.g_io.L)
                and np.array_equal(back.g_io.K.K, model.g_io.K.K)
                and back.t_minus == model.t_minus
            )
        if not same:
            failures += 1
    fixture = reference_fixture_model()
    back = deserialize_model(serialize_model(fixture))
    fixture_ok = np.array_equal(back.f_o.L, fixture.f_o.L) and np.array_equal(
        back.h_o.L, fixture.h_o.L
    )
    ok = failures == 0 and fixture_ok
    report("A9", ok, f"{failures} failures in 1000 random models; fixture exact: {fixture_ok}")
    assert ok
