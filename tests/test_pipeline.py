"""Window construction and the identification pipeline."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings
from fractions import Fraction

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
    deserialize_model,
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
from polysid.monomials import CHUNK_COLUMNS
from polysid.numred import svd_trunc_chunks
from polysid.pipeline import _PAST, _regress, eval_many_checked
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
        with pytest.raises(InvalidInputError, match=r"^window \(t=1, t_plus=1, t_minus=2\)"):
            build_window_vectors(ts, np.array([1], dtype=np.uint64), 1, 2)

    def test_unsigned_anchors_give_the_signed_windows(self):
        ts = scalar_series([1, 2, 3, 4, 5, 6])
        for got, want in zip(build_window_vectors(ts, np.array([3, 4], dtype=np.uint64), 2, 2),
                             build_window_vectors(ts, np.array([3, 4]), 2, 2)):
            assert np.array_equal(got, want)

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
        r2=0.9999, r4=0.001, t_plus_max=2, t_minus_max=2, k_max_y=1,
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
        model, diag = identify(ts, small_decay_config(k_max_y2=1))
        echo = model.meta["config"]
        assert echo == diag.config_echo
        assert echo["k_max_y"] == echo["k_max_y2"] == 1
        assert diag.n_columns == 9 * ts.s  # anchors 3 to 11
        assert set(model.meta) == {"config"}
        deprecated = {"r1", "r3", "block_limit", "t_plus_min", "t_minus_min", "pool_windows"}
        assert not deprecated & set(echo)

    @pytest.mark.parametrize(
        "s, t_1, t_plus, t_minus, k_max_y", [(40, 12, 2, 2, 1), (64, 10, 3, 2, 3)]
    )
    def test_every_admissible_anchor_is_a_data_column(self, s, t_1, t_plus, t_minus, k_max_y):
        # s >= 4 d_v for the (k_max_y + 1) ** t_minus past monomials: these
        # sets once ran on the first anchor alone.
        ts = generate(decay_spec(s, t_1=t_1), 7)
        assert s >= 4 * (k_max_y + 1) ** t_minus
        cfg = small_decay_config(t_plus_max=t_plus, t_minus_max=t_minus, k_max_y=k_max_y)
        _, diag = identify(ts, cfg)
        assert diag.n_columns == (t_1 - t_minus - t_plus + 1) * s

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
            r2=0.9999, r4=0.001,
            t_plus_max=3, t_minus_max=3, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        model, diag = identify(train, cfg)
        assert predict_with_burn_in(model, held).max_relative_rmse <= 0.05
        assert model.n <= 3 * 2  # the reduced-rank cut keeps at most t_plus_max * d_y states
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

    def test_all_zero_outputs(self):
        # Zero outputs leave the reduced-rank cut no map to fit; the error names the data.
        ts = TimeSeriesSet(np.zeros((10, 1, 6)))
        with pytest.raises(InvalidInputError) as err:
            identify(ts, small_decay_config())
        assert str(err.value) == "the outputs are all zero; there is nothing to identify"

    def test_two_state_structural_form(self):
        ts = generate(linear_spec(50), 1)
        cfg = small_decay_config(r2=0.999)
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
            r2=0.9999, r4=0.001,
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
        t = echo["t_minus_max"] + 1
        scaled = TimeSeriesSet(model.scaling.apply(ts.Y))
        _, Ym = build_window_vectors(scaled, t, echo["t_plus_max"], echo["t_minus_max"])
        X = eval_monomial_map_many(model.g_io, Ym)
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
        V_minus = build_data_matrix(Yminus, pm)
        res = svd_trunc(Yplus, V_minus, 0.9999)
        recon = np.linalg.norm(Yplus - res.C @ res.L @ V_minus)
        discarded = 1.0 - res.table.fractions[res.n - 1]
        bound = np.linalg.norm(Yplus) * max(float(discarded), 1e-9)
        assert recon <= bound

    def test_one_past_and_one_dynamics_regression(self, monkeypatch):
        calls = []

        def counting_factorization(*args, **kwargs):
            calls.append(args)
            return svd_trunc_chunks(*args, **kwargs)

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
            r2=0.9999, r4=0.001, t_plus_max=8, t_minus_max=8,
            k_max_y=1, max_total_degree_xy=2, scale_gamma=2.0,
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
        cfg = IdentConfig(r2=0.99, r4=0.01, t_plus_max=7, t_minus_max=8, k_max_y=1)
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
        # Windows of 3 + 3 samples in 6 admit one anchor, one column per series.
        # Two columns carry a rank-2 past-to-future map: the past regression runs out.
        ts = generate(linear_spec(2, t_1=6), 17)
        cfg = small_decay_config(t_minus_max=3, t_plus_max=3)
        with pytest.raises(RankDeficiencyError, match=r"^2 data columns for retained "
                           r"rank 2 in the past regression; supply more series or "
                           r"longer ones, or shorten the windows\n"):
            identify(ts, cfg)
        # The cut keeps at most t_plus_max * d_y = 3 states, so 3 columns run
        # out in the dynamics regression, not in the past one.
        ts = generate(linear_spec(3, t_1=6), 17)
        with pytest.raises(RankDeficiencyError, match=r"^3 data columns for retained "
                           r"rank 3 in the dynamics regression; supply more series"):
            identify(ts, cfg)

    def test_capacity_error_names_stage(self, monkeypatch):
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 100)
        ts = generate(linear_spec(10), 19)
        cfg = small_decay_config(k_max_y=3, t_minus_max=4, t_plus_max=4)
        with pytest.raises(CapacityError) as err:
            identify(ts, cfg)
        assert "past monomial lifting" in str(err.value)

    @pytest.mark.parametrize("t_minus, t_1, columns", [(14, 30, 130), (19, 60, 380)])
    def test_regression_too_large_is_a_capacity_error_before_lifting(
        self, monkeypatch, t_minus, t_1, columns
    ):
        # At t_minus = 14 the past dictionary has 2**14 = 16384 monomials, so
        # the regression's triangular factor alone would hold 2.7e8 cells; the
        # 10 series pool 13 anchors, 130 columns, all in one chunk.  At 19 the
        # dictionary has 2**19 rows, and its enumeration alone held 208 MB.
        def forbidden(*args):
            raise AssertionError("enumerated or lifted before the capacity check")

        monkeypatch.setattr("polysid.pipeline.enumerate_power_matrix", forbidden)
        monkeypatch.setattr("polysid.pipeline.build_data_matrix", forbidden)
        ts = generate(linear_spec(10, t_1=t_1), 19)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as err:
                identify(ts, small_decay_config(t_minus_max=t_minus, t_plus_max=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d_v = 2**t_minus
        assert str(err.value) == (
            f"past monomial lifting: regressing on its {d_v} monomials takes "
            f"{d_v * (d_v + columns)} cells, more than 100000000; "
            "lower k_max_y or t_minus_max"
        )
        assert peak < 10e6

    @pytest.mark.parametrize(
        "scale_gamma, t_max, stage",
        [
            (1e-200, 1, "the past regression"),
            (1e-200, 2, "the lifted past windows"),
            # D_n**2 overflows while the regression's other values stay finite.
            (1e-100, 1, "the dynamics regression"),
            (1e-320, 1, "the output scaling"),
        ],
    )
    def test_overflow_error_names_stage(self, scale_gamma, t_max, stage):
        ts = generate(decay_spec(20, t_1=12), 7)
        cfg = small_decay_config(t_plus_max=t_max, t_minus_max=t_max, scale_gamma=scale_gamma)
        with pytest.raises(NumericalOverflowError) as err:
            identify(ts, cfg)
        assert str(err.value) == (
            f"non-finite values in {stage}; the outputs overflow, so raise scale_gamma "
            "or rescale the data"
        )

    def test_overflowing_whitened_map_names_the_past_regression(self):
        # G = 1e299 is finite, but B = G W = 2.7e308 is not: the reduced-rank
        # cut's own overflow, named as the stage whose regression it is.
        target = np.full((1, 3), 1.7e308)
        samples = np.array([[1e-10, 2e-10, 3e-10]])
        with pytest.raises(NumericalOverflowError) as err:
            _regress(target, samples, identity_power_matrix(1), None, _PAST)
        assert str(err.value) == (
            "non-finite values in the past regression; the outputs overflow, so raise "
            "scale_gamma or rescale the data"
        )
        assert "B = G W" in str(err.value.__cause__)

    def test_lifting_overflowing_in_its_second_block_names_its_stage(self):
        # x^9 of 1e40 overflows; the first block of 1024 samples is all ones.
        K = PowerMatrix.from_rows([(9,), (0,)])
        samples = np.ones((1, 2 * CHUNK_COLUMNS))
        samples[0, CHUNK_COLUMNS + 5] = 1e40
        message = "; the outputs overflow, so raise scale_gamma or rescale the data"
        with pytest.raises(NumericalOverflowError) as err:
            _regress(np.ones((1, samples.shape[1])), samples, K, None, _PAST)
        assert str(err.value) == "non-finite values in the lifted past windows" + message
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalOverflowError
        ) as err:  # identify's overflow scope
            eval_many_checked(MonomialMap(np.ones((1, 2)), K), samples, "the state samples")
        assert str(err.value) == "non-finite values in the state samples" + message

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

    @pytest.mark.parametrize("s", [10, 40])
    def test_state_map_is_evaluated_once(self, monkeypatch, s):
        # The anchors are consecutive: the past windows one step later are
        # those of every anchor but the first, and of the next anchor.  40
        # series, over 4 times the 2**2 past monomials, once ran on the first anchor alone.
        calls = []

        def recording_eval(M, samples, *args):
            calls.append((M, samples))
            return eval_many_checked(M, samples, *args)

        monkeypatch.setattr("polysid.pipeline.eval_many_checked", recording_eval)
        ts = generate(decay_spec(s, t_1=12), 7)
        model, diag = identify(ts, small_decay_config())
        lifted = [samples for M, samples in calls if M is model.g_io]
        assert len(lifted) == 1
        echo = diag.config_echo
        anchors = np.arange(echo["t_minus_max"] + 1, ts.t_1 - echo["t_plus_max"] + 3)
        assert lifted[0].shape[1] == len(anchors) * ts.s
        scaled = model.scaling.apply(ts.Y)
        assert np.array_equal(lifted[0], past_windows(scaled, anchors, model.t_minus))

    def test_state_output_cap_counts_degree_bounded_rows(self, monkeypatch):
        # n = 4 on this set: the state-output box has 2**5 rows, the degree-2
        # dictionary 16 and the past dictionary 2**3 = 8.  At a t_minus_max
        # of 4, the 16-row past dictionary would meet a cap of 15 first.
        train = generate(polynomial_spec(60), 11)
        cfg = dict(
            r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=3, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 16)
        _, diag = identify(train, IdentConfig(**cfg))
        assert diag.f_monomials_before == 16
        monkeypatch.setattr("polysid.monomials.DEFAULT_ROW_CAP", 15)
        with pytest.raises(CapacityError) as err:
            identify(train, IdentConfig(**cfg))
        assert "state-output monomial lifting" in str(err.value)

    def test_windows_fit_the_anchor(self):
        # The future window starting at the first anchor t_minus_max + 1 ends by t_1.
        ts = generate(linear_spec(10, t_1=12), 23)
        small_decay_config(t_minus_max=5, t_plus_max=7).resolved(ts)
        small_decay_config(t_minus_max=11, t_plus_max=1).resolved(ts)
        with pytest.raises(ConfigError, match=r"^t_plus_max 8 leaves no room for a future "
                           r"window after the anchor 6 in 12 samples$"):
            identify(ts, small_decay_config(t_minus_max=5, t_plus_max=8))

    def test_resolved_fills_every_default(self, rng):
        ts = TimeSeriesSet(rng.standard_normal((20, 2, 3)))
        cfg = IdentConfig(r2=0.9, r4=0.01, k_max_y2=np.int64(2))
        res = cfg.resolved(ts)
        assert type(res) is IdentConfig
        assert res.t_plus_max == res.t_minus_max == 8
        assert (res.k_max_y, res.k_max_x, res.k_max_y2) == (1, 1, 2)
        assert type(res.k_max_y2) is int
        for f in dataclasses.fields(res):
            assert type(getattr(res, f.name)) in (float, int, type(None)), f.name
        assert res.resolved(ts) == res
        res = IdentConfig(
            r2=0.9, r4=0.01, t_plus_max=4, t_minus_max=3
        ).resolved(ts)
        assert (res.t_plus_max, res.t_minus_max) == (4, 3)
        assert res.resolved(ts) == res

    def test_numpy_scalars_and_fractions_resolve_to_plain_values(self):
        ts = generate(decay_spec(20, t_1=12), 7)
        cfg = small_decay_config(
            r2=np.float32(0.9999), r4=np.float32(0.001),
            scale_gamma=Fraction(5),
        )
        model, diag = identify(ts, cfg)
        echo = model.meta["config"]
        assert (echo["r2"], echo["scale_gamma"]) == (float(np.float32(0.9999)), 5.0)
        assert type(echo["r4"]) is type(echo["scale_gamma"]) is float
        assert diag.n_columns == 9 * ts.s  # anchors 3 to 11
        assert deserialize_model(serialize_model(model)) == model

    def test_threshold_validation(self):
        ts = generate(linear_spec(10, t_1=12), 29)
        with pytest.raises(ConfigError):
            identify(ts, small_decay_config(r2=1.5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("r2", None), ("r2", "0.9"), ("r4", True), ("r4", np.nan),
            ("scale_gamma", None), ("scale_gamma", "1"), ("scale_gamma", False),
            ("t_plus_max", None), ("t_plus_max", 2.0), ("t_minus_max", np.float64(3)),
            ("k_max_y", True), ("k_max_x", -1), ("k_max_y2", "1"),
            ("max_total_degree_xy", 1.5),
            ("max_total_degree_xy", -1),
            pytest.param("scale_gamma", 10**400, id="scale_gamma-10**400"),
            pytest.param("scale_gamma", Fraction(10**400), id="scale_gamma-Fraction(10**400)"),
            pytest.param("r4", Fraction(1, 10**400), id="r4-Fraction(1,10**400)"),
        ],
    )
    def test_field_of_wrong_type_or_range_is_a_config_error(self, rng, field, value):
        ts = TimeSeriesSet(rng.standard_normal((20, 1, 3)))
        valid = dict(r2=0.9, r4=0.01, t_plus_max=4, t_minus_max=4)
        cfg = IdentConfig(**{**valid, field: value})
        with pytest.raises(ConfigError, match=f"^{field} "):
            cfg.resolved(ts)

    def test_polynomial_system_within_class(self):
        train = generate(polynomial_spec(60), 11)
        held = generate(polynomial_spec(10), 1999)
        cfg = IdentConfig(
            r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=4, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        )
        model, _ = identify(train, cfg)
        rep = predict_with_burn_in(model, held)
        assert rep.max_relative_rmse <= 0.05
