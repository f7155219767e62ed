"""Window construction and the identification pipeline."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from polysid import (
    CapacityError,
    ConfigError,
    GeneratorSpec,
    IdentConfig,
    InvalidInputError,
    MonomialMap,
    NumericalOverflowError,
    PowerMatrix,
    RankDeficiencyError,
    TimeSeriesSet,
    build_data_matrix,
    build_window_vectors,
    enumerate_power_matrix,
    generate,
    identify,
    identity_power_matrix,
    initial_state_from_past,
    predict_with_burn_in,
    serialize_model,
    svd_trunc,
)
from polysid.genred import eval_monomial_map_many
from polysid.numred import svd_trunc_chunks
from polysid.pipeline import CHUNK_COLUMNS, eval_many_checked
from polysid.series import past_windows

from conftest import decay_spec, linear_spec, polynomial_spec


def scalar_series(values) -> TimeSeriesSet:
    return TimeSeriesSet(np.asarray(values, float)[:, None, None])


class TestBuildWindowVectors:
    def test_hand_example(self):
        ts = scalar_series([1, 2, 3, 4, 5, 6])
        Yplus, Yminus = build_window_vectors(ts, 4, 2, 2)
        assert np.array_equal(Yplus[:, 0], [5.0, 4.0])
        assert np.array_equal(Yminus[:, 0], [3.0, 2.0])

    def test_single_step_future(self):
        ts = scalar_series([1, 2, 3, 4])
        Yplus, _ = build_window_vectors(ts, 2, 1, 1)
        assert np.array_equal(Yplus, [[2.0]])

    def test_vector_output_single_lag(self, rng):
        Y = rng.standard_normal((5, 2, 3))
        ts = TimeSeriesSet(Y)
        _, Yminus = build_window_vectors(ts, 3, 1, 1)
        assert Yminus.shape == (2, 3)
        assert np.array_equal(Yminus, Y[1])

    def test_bounds_checked(self):
        ts = scalar_series([1, 2, 3, 4])
        with pytest.raises(InvalidInputError):
            build_window_vectors(ts, 2, 4, 1)
        with pytest.raises(InvalidInputError):
            build_window_vectors(ts, 2, 1, 2)

    def test_array_of_anchors(self, rng):
        ts = TimeSeriesSet(rng.standard_normal((10, 2, 3)))
        anchors = np.array([3, 5, 8])
        Yplus, Yminus = build_window_vectors(ts, anchors, 2, 2)
        assert Yplus.shape == Yminus.shape == (4, 9)
        for i, a in enumerate(anchors):
            plus, minus = build_window_vectors(ts, int(a), 2, 2)
            assert np.array_equal(Yplus[:, 3 * i : 3 * i + 3], plus)
            assert np.array_equal(Yminus[:, 3 * i : 3 * i + 3], minus)
        with pytest.raises(InvalidInputError, match="t=9"):
            build_window_vectors(ts, np.array([3, 9]), 3, 2)

    def test_shift_relation(self, rng):
        Y = rng.standard_normal((10, 2, 4))
        ts = TimeSeriesSet(Y)
        t_minus, d_y = 3, 2
        _, Ym_t = build_window_vectors(ts, 5, 2, t_minus)
        _, Ym_t1 = build_window_vectors(ts, 6, 2, t_minus)
        overlap = (t_minus - 1) * d_y
        assert np.array_equal(Ym_t1[d_y:], Ym_t[:overlap])


class TestTimeSeriesSet:
    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            TimeSeriesSet(np.zeros((3, 2)))
        with pytest.raises(InvalidInputError):
            TimeSeriesSet(np.zeros((0, 1, 1)))

    def test_rejects_nonfinite(self):
        Y = np.zeros((2, 1, 1))
        Y[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            TimeSeriesSet(Y)

    def test_accessors(self, rng):
        Y = rng.standard_normal((4, 2, 3))
        ts = TimeSeriesSet(Y)
        assert ts.t_1 == 4 and ts.d_y == 2 and ts.s == 3


def small_decay_config(**overrides) -> IdentConfig:
    base = dict(
        r1=0.9999, r2=0.9999, r4=0.001, t_plus_max=2, t_minus_max=2, k_max_y=1,
    )
    base.update(overrides)
    return IdentConfig(**base)


class TestIdentify:
    def test_linear_decay_round_trip(self):
        ts = generate(decay_spec(20, t_1=12), 7)
        model, diag = identify(ts, small_decay_config())
        rep = predict_with_burn_in(model, ts)
        assert np.abs(rep.residuals).max() <= 1e-6

    def test_config_echo_is_resolved(self):
        ts = generate(decay_spec(20, t_1=12), 7)
        model, diag = identify(ts, small_decay_config(anchor_t=None, k_max_y2=1))
        echo = model.meta["config"]
        assert echo == diag.config_echo
        assert echo["anchor_t"] == 3
        assert echo["k_max_y"] == echo["k_max_y2"] == 1
        assert set(model.meta) == {"config", "pooled"}
        assert not {"r3", "block_limit", "t_plus_min", "t_minus_min"} & set(echo)

    def test_model_echo_is_its_own_copy(self):
        ts = generate(decay_spec(20, t_1=12), 7)
        model, diag = identify(ts, small_decay_config())
        document = serialize_model(model)
        diag.config_echo["note"] = "edited"
        assert serialize_model(model) == document

    def test_two_output_system(self):
        # A2's dynamics over (x1, x2, y1, y2), independent of y2, seen
        # through two outputs.
        def two_output_spec(s: int) -> GeneratorSpec:
            base = polynomial_spec(s, t_1=30)
            K = np.column_stack([base.f.K.K, np.zeros(base.f.K.d_v, dtype=int)])
            f = MonomialMap(base.f.L, PowerMatrix(K, (1, 1, 1, 0)))
            h = MonomialMap(np.array([[0.7, 0.3], [0.2, -0.5]]), identity_power_matrix(2))
            return dataclasses.replace(base, d_y=2, f=f, h=h)

        train, held = generate(two_output_spec(100), 11), generate(two_output_spec(20), 12)
        cfg = IdentConfig(
            r1=0.9999, r2=0.9999, r4=0.001,
            t_plus_max=3, t_minus_max=3, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        model, diag = identify(train, cfg)
        assert predict_with_burn_in(model, held).max_relative_rmse <= 0.05
        # One k_max_y bounds all t_minus * d_y = 6 past variables.
        assert [r.rows_presented for r in diag.reductions] == [64]
        assert model.g_io.n_vars == model.t_minus * 2
        assert model.meta["config"]["k_max_y"] == model.meta["config"]["k_max_y2"] == 1

    def test_constant_series(self):
        Y = np.full((10, 1, 6), 3.25)
        ts = TimeSeriesSet(Y)
        model, _ = identify(ts, small_decay_config())
        rep = predict_with_burn_in(model, ts)
        assert rep.predictions == pytest.approx(np.full_like(rep.predictions, 3.25), abs=1e-9)

    def test_two_state_structural_form(self):
        ts = generate(linear_spec(50), 1)
        cfg = small_decay_config(r1=0.8, r2=0.999)
        model, _ = identify(ts, cfg)
        assert model.n == 2
        assert model.h_o.m == 1
        # linear output map: identity power matrix over the two states
        assert np.array_equal(model.h_o.K.K, np.eye(2, dtype=int))
        # dynamics basis drawn from the full bounded (x, y) monomial set
        full = {tuple(r) for r in enumerate_power_matrix(3, (1, 1, 1)).K}
        assert {tuple(r) for r in model.f_o.K.K} <= full

    def test_state_map_is_the_pruned_generators(self):
        ts = generate(polynomial_spec(60), 11)
        model, diag = identify(ts, small_decay_config(t_plus_max=3, t_minus_max=3))
        assert model.n == diag.n1 == model.g_io.m
        assert model.h_o.K == identity_power_matrix(model.n)
        assert model.h_o.L.shape == (ts.d_y, model.n)

    def test_model_class_closure(self):
        train = generate(linear_spec(50), 3)
        cfg = IdentConfig(
            r1=0.9999, r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=4, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=5.0,
        )
        model, diag = identify(train, cfg)
        assert diag.training_relative_rmse <= 1e-6

    def test_state_evaluation_consistency(self):
        ts = generate(linear_spec(30), 5)
        model, diag = identify(ts, small_decay_config())
        # reconstruct the scaled anchor window and re-evaluate the state map
        echo = diag.config_echo
        t = echo["anchor_t"]
        scaled = TimeSeriesSet(model.scaling.apply(ts.Y))
        _, Ym = build_window_vectors(scaled, t, echo["t_plus_max"], echo["t_minus_max"])
        X = eval_monomial_map_many(model.g_io, Ym.T)
        x0 = initial_state_from_past(model, ts.Y[t - 1 - model.t_minus : t - 1])
        assert np.array_equal(X, x0)

    def test_determinism(self):
        ts = generate(linear_spec(25), 11)
        cfg = small_decay_config()
        m1, d1 = identify(ts, cfg)
        m2, d2 = identify(ts, cfg)
        assert serialize_model(m1) == serialize_model(m2)
        assert np.array_equal(
            d1.reductions[-1].table1.fractions, d2.reductions[-1].table1.fractions
        )
        assert np.array_equal(d1.training_rmse_per_series, d2.training_rmse_per_series)

    def test_step5_reconstruction_bound(self):
        # standalone replica of the past-to-future reduction on one window
        ts = generate(linear_spec(40), 9)
        scaled = TimeSeriesSet((ts.Y - ts.Y.mean()) / ts.Y.std())
        Yplus, Yminus = build_window_vectors(scaled, 5, 3, 3)
        pm = enumerate_power_matrix(3, (1, 1, 1))
        V_minus = build_data_matrix(Yminus.T, pm)
        res = svd_trunc(Yplus, V_minus, 0.9999)
        recon = np.linalg.norm(Yplus - res.C @ res.L @ V_minus)
        discarded = 1.0 - res.table.fractions[res.n - 1]
        bound = np.linalg.norm(Yplus) * max(float(discarded), 1e-9)
        assert recon <= bound

    def test_one_past_and_one_dynamics_regression(self, monkeypatch):
        calls = []

        def counting_factorization(*args):
            calls.append(args)
            return svd_trunc_chunks(*args)

        monkeypatch.setattr("polysid.pipeline.svd_trunc_chunks", counting_factorization)
        ts = generate(linear_spec(30), 13)
        _, diag = identify(ts, small_decay_config(t_plus_max=3, t_minus_max=3))
        (r,) = diag.reductions
        assert r.rows_presented == enumerate_power_matrix(3, (1, 1, 1)).d_v
        # the past-to-future regression, then the dynamics regression
        assert len(calls) == 2

    def test_pooled_identify_holds_no_whole_lifted_past(self):
        # 400 series of 40 samples pool 10000 window columns; at t_minus = 8
        # the whole lifted past, 256 monomials by 10000 columns, is 20.5 MB.
        ts = generate(polynomial_spec(400, 40), 3)
        cfg = IdentConfig(
            r1=0.9999, r2=0.9999, r4=0.001, t_plus_max=8, t_minus_max=8,
            k_max_y=1, max_total_degree_xy=2, scale_gamma=2.0, pool_windows=True,
        )
        tracemalloc.start()
        try:
            _, diag = identify(ts, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.n_columns > 4 * CHUNK_COLUMNS
        whole_past = diag.reductions[-1].rows_presented * diag.n_columns * 8
        assert peak < whole_past

    def test_one_pass_at_the_final_windows(self):
        # Per-series constant data: the retained rank is the same at every
        # window length, so it never grows with the windows.
        levels = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
        ts = TimeSeriesSet(np.broadcast_to(levels, (40, 1, 8)).copy())
        cfg = IdentConfig(r1=0.99, r2=0.99, r4=0.01, t_plus_max=7, t_minus_max=8, k_max_y=1)
        model, diag = identify(ts, cfg)
        (r,) = diag.reductions
        echo = model.meta["config"]
        assert (echo["t_plus_max"], echo["t_minus_max"], model.t_minus) == (7, 8, 8)
        assert diag.n1 == model.n
        assert r.rows_presented == 2**8

    @pytest.mark.parametrize(
        "name, value",
        [("t_plus_min", 0), ("t_plus_min", 1), ("t_minus_min", 2), ("t_minus_min", "1")],
    )
    def test_deprecated_window_minimum_warns_and_changes_nothing(self, name, value):
        ts = generate(linear_spec(30), 13)
        plain = small_decay_config(t_plus_max=3, t_minus_max=3)
        model, diag = identify(ts, plain)
        with pytest.warns(FutureWarning, match=f"^{name} is ignored"):
            model_set, diag_set = identify(ts, dataclasses.replace(plain, **{name: value}))
        assert serialize_model(model_set) == serialize_model(model)
        assert diag_set == diag

    def test_rank_deficiency_error(self):
        ts = generate(linear_spec(3, t_1=30), 17)
        cfg = small_decay_config(pool_windows=False, t_minus_max=3, t_plus_max=3)
        with pytest.raises(RankDeficiencyError, match=r"^3 data columns for retained "
                           r"rank 3 in the past regression; supply more series"):
            identify(ts, cfg)
        # Enough columns for the past's rank 2, not for the dynamics' rank 4.
        ts = generate(linear_spec(4, t_1=30), 17)
        cfg = small_decay_config(pool_windows=False, r1=0.9, r2=0.99999)
        with pytest.raises(RankDeficiencyError, match=r"^4 data columns for retained "
                           r"rank 4 in the dynamics regression; supply more series"):
            identify(ts, cfg)

    def test_capacity_error_names_stage(self):
        ts = generate(linear_spec(10), 19)
        cfg = small_decay_config(k_max_y=3, t_minus_max=4, t_plus_max=4, row_cap=100)
        with pytest.raises(CapacityError) as err:
            identify(ts, cfg)
        assert "past monomial lifting" in str(err.value)

    def test_regression_too_large_is_a_capacity_error_before_lifting(self, monkeypatch):
        # At t_minus = 14 the past dictionary has 2**14 = 16384 monomials, so
        # the regression's triangular factor alone would hold 2.7e8 cells; the
        # 10 series pool 13 anchors, 130 columns, all in one chunk.
        def no_lifting(*args):
            raise AssertionError("lifted before the capacity check")

        monkeypatch.setattr("polysid.pipeline.build_data_matrix", no_lifting)
        ts = generate(linear_spec(10, t_1=30), 19)
        with pytest.raises(CapacityError) as err:
            identify(ts, small_decay_config(t_minus_max=14, t_plus_max=4))
        assert str(err.value) == (
            f"past monomial lifting: regressing on its 16384 monomials takes "
            f"{16384 * (16384 + 130)} cells, more than 100000000; "
            "lower k_max_y or t_minus_max"
        )

    @pytest.mark.parametrize(
        "gain, t_max, scale_outputs, stage",
        [
            (1e200, 1, False, "the past regression"),
            (1e200, 2, False, "the lifted past windows"),
            # D_n**2 overflows while the regression's other values stay finite.
            (1e100, 1, False, "the dynamics regression"),
            (1e300, 1, True, "the output scaling"),
        ],
    )
    def test_overflow_error_names_stage(self, gain, t_max, scale_outputs, stage):
        ts = generate(decay_spec(20, t_1=12), 7)
        cfg = small_decay_config(t_plus_max=t_max, t_minus_max=t_max, scale_outputs=scale_outputs)
        with pytest.raises(NumericalOverflowError) as err:
            identify(TimeSeriesSet(ts.Y * gain), cfg)
        fix = "raise scale_gamma" if scale_outputs else "enable output scaling"
        assert str(err.value) == (
            f"non-finite values in {stage}; the outputs overflow, so {fix} or rescale the data"
        )

    # At amplitude 1e-10, std * scale_gamma underflows to 0 itself.
    @pytest.mark.parametrize("amplitude", [1.0, 1e-10])
    def test_tiny_scale_gamma_overflows_the_output_scaling_without_warning(self, amplitude):
        ts = generate(decay_spec(20, t_1=12), 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError) as err:
                identify(TimeSeriesSet(ts.Y * amplitude), small_decay_config(scale_gamma=1e-320))
        assert str(err.value) == (
            "non-finite values in the output scaling; the outputs overflow, so "
            "raise scale_gamma or rescale the data"
        )

    @pytest.mark.parametrize("pool_windows", [False, True])
    def test_state_map_is_evaluated_once(self, monkeypatch, pool_windows):
        # The anchors are consecutive: the past windows one step later are
        # those of every anchor but the first, and of the next anchor.
        calls = []

        def recording_eval(M, samples, *args):
            calls.append((M, samples))
            return eval_many_checked(M, samples, *args)

        monkeypatch.setattr("polysid.pipeline.eval_many_checked", recording_eval)
        ts = generate(decay_spec(40, t_1=12), 7)
        model, diag = identify(ts, small_decay_config(pool_windows=pool_windows))
        lifted = [samples for M, samples in calls if M is model.g_io]
        assert len(lifted) == 1
        assert lifted[0].shape[1] == (len(diag.anchors) + 1) * ts.s
        anchors = np.append(diag.anchors, diag.anchors[-1] + 1)
        scaled = model.scaling.apply(ts.Y)
        assert np.array_equal(lifted[0], past_windows(scaled, anchors, model.t_minus))

    def test_state_output_cap_counts_degree_bounded_rows(self):
        # n = 12 on this set: the state-output box has 2**13 rows, the
        # degree-2 dictionary 92 and the largest past dictionary 16.
        train = generate(polynomial_spec(60), 11)
        cfg = dict(
            r1=0.9999, r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=4, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        _, diag = identify(train, IdentConfig(**cfg, row_cap=92))
        assert diag.f_monomials_before == 92
        with pytest.raises(CapacityError) as err:
            identify(train, IdentConfig(**cfg, row_cap=91))
        assert "state-output monomial lifting" in str(err.value)

    def test_anchor_validation(self):
        ts = generate(linear_spec(10, t_1=12), 23)
        with pytest.raises(ConfigError):
            identify(ts, small_decay_config(anchor_t=7))  # beyond t_1 / 2
        with pytest.raises(ConfigError):
            identify(ts, small_decay_config(anchor_t=2))  # no room for the past

    def test_resolved_fills_every_default(self, rng):
        ts = TimeSeriesSet(rng.standard_normal((20, 2, 3)))
        cfg = IdentConfig(r1=0.9, r2=0.9, r4=0.01, k_max_y2=np.int64(2))
        res = cfg.resolved(ts)
        assert type(res) is IdentConfig
        assert res.t_plus_max == res.t_minus_max == 8
        assert res.anchor_t == res.t_minus_max + 1
        assert (res.k_max_y, res.k_max_x, res.k_max_y2) == (1, 1, 2)
        assert type(res.k_max_y2) is int
        assert res.resolved(ts) == res
        assert cfg.anchor_t is None
        res = IdentConfig(
            r1=0.9, r2=0.9, r4=0.01, t_plus_max=4, t_minus_max=3
        ).resolved(ts)
        assert (res.t_plus_max, res.t_minus_max, res.anchor_t) == (4, 3, 4)
        assert res.resolved(ts) == res

    def test_threshold_validation(self):
        ts = generate(linear_spec(10, t_1=12), 29)
        with pytest.raises(ConfigError):
            identify(ts, small_decay_config(r1=1.5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("r1", None), ("r2", "0.9"), ("r4", True), ("r1", np.nan),
            ("scale_gamma", None), ("scale_gamma", "1"), ("scale_gamma", False),
            ("pool_windows", "no"), ("pool_windows", 1), ("scale_outputs", None),
            ("scale_outputs", 0),
            ("row_cap", None), ("row_cap", 2.5), ("row_cap", 0), ("row_cap", True),
            ("t_plus_max", None), ("t_plus_max", 2.0), ("t_minus_max", np.float64(3)),
            ("k_max_y", True), ("k_max_x", -1), ("k_max_y2", "1"),
            ("anchor_t", 5.0), ("max_total_degree_xy", 1.5),
            ("max_total_degree_xy", -1),
        ],
    )
    def test_field_of_wrong_type_or_range_is_a_config_error(self, rng, field, value):
        ts = TimeSeriesSet(rng.standard_normal((20, 1, 3)))
        valid = dict(r1=0.9, r2=0.9, r4=0.01, t_plus_max=4, t_minus_max=4)
        cfg = IdentConfig(**{**valid, field: value})
        with pytest.raises(ConfigError, match=f"^{field} "):
            cfg.resolved(ts)

    def test_polynomial_system_within_class(self):
        train = generate(polynomial_spec(60), 11)
        held = generate(polynomial_spec(10), 1999)
        cfg = IdentConfig(
            r1=0.9999, r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=4, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        model, _ = identify(train, cfg)
        rep = predict_with_burn_in(model, held)
        assert rep.max_relative_rmse <= 0.05
