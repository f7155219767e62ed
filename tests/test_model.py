"""Observer prediction, causality, scaling, and model documents."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json

import numpy as np
import pytest

from polysid import (
    DimensionMismatchError,
    DivergenceError,
    GeneratorSpec,
    IdentConfig,
    InvalidInputError,
    MonomialMap,
    NumericalOverflowError,
    ObserverModel,
    OutputScaling,
    ParseError,
    PowerMatrix,
    TimeSeriesSet,
    ValidationError,
    deserialize_model,
    generate,
    identify,
    identity_power_matrix,
    initial_state_from_past,
    predict_one_step,
    predict_with_burn_in,
    serialize_model,
)
from polysid import model as model_module
from polysid.genred import eval_monomial_map_many
from polysid.monomials import aligned_empty, data_matrix_workspace

from conftest import (
    decay_spec,
    linear_spec,
    polynomial_spec,
    random_model,
    reference_fixture_model,
    row_loop_chain,
)

#: A document of the decay x(t+1) = 0.5 x(t), y = x, written before
#: ``pool_windows`` was deprecated: its config echo holds it.
OLDER_DECAY_DOCUMENT = json.dumps({
    "format": "polysid-model", "version": 2, "n": 1, "d_y": 1,
    "f_o": {"n_vars": 2, "k_max": [1, 1], "K": [[1, 0], [0, 1]],
            "L": [[0.27777777777777785, -0.24845199749997682]]},
    "h_o": {"n_vars": 1, "k_max": [1], "K": [[1]], "L": [[-0.894427190999916]]},
    "g_io": {"n_vars": 2, "k_max": [1, 1], "K": [[1, 0], [0, 1]],
             "L": [[-0.1118033988749894, -0.2236067977499789]]},
    "t_minus": 2, "scaling": {"std": [0.19157635630684938]},
    "meta": {"config": {
        "r2": 0.9999, "r4": 0.001, "t_plus_max": 2, "t_minus_max": 2, "k_max_y": 1,
        "k_max_x": 1, "k_max_y2": 1, "pool_windows": False, "max_total_degree_xy": None,
        "scale_gamma": 1.0,
    }},
})


def zero_output_model(n: int = 2, d_y: int = 1) -> ObserverModel:
    f_o = MonomialMap(0.1 * np.ones((n, n + d_y)), identity_power_matrix(n + d_y))
    h_o = MonomialMap(
        np.zeros((d_y, 0)), PowerMatrix(np.zeros((0, n), dtype=int), (0,) * n)
    )
    return ObserverModel(n=n, d_y=d_y, f_o=f_o, h_o=h_o)


def decay_model() -> ObserverModel:
    f_o = MonomialMap(np.array([[0.5]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
    h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
    return ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o)


class TestPredictOneStep:
    def test_zero_output_map(self, rng):
        model = zero_output_model()
        Y = rng.standard_normal((6, 1, 1))
        ts = TimeSeriesSet(Y)
        rep = predict_one_step(model, ts, np.zeros((2, 1)))
        assert np.array_equal(rep.predictions, np.zeros_like(Y))
        assert np.array_equal(rep.residuals, Y)

    def test_decay_ignores_measured_output(self, rng):
        model = decay_model()
        ts = TimeSeriesSet(rng.standard_normal((5, 1, 1)))
        rep = predict_one_step(model, ts, np.array([[1.0]]))
        expected = [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert rep.predictions[:, 0, 0] == pytest.approx(expected, abs=1e-15)

    def test_matches_naive_recursion_oracle(self, rng):
        n, d_y, s, T = 3, 2, 3, 6
        from polysid import enumerate_power_matrix

        f_o = MonomialMap(
            0.2 * rng.standard_normal((n, 8)),
            enumerate_power_matrix(n + d_y, (1,) * (n + d_y)).select_rows(range(8)),
        )
        h_o = MonomialMap(rng.standard_normal((d_y, n)), identity_power_matrix(n))
        scaling = OutputScaling(rng.uniform(0.5, 2.0, d_y))
        model = ObserverModel(n=n, d_y=d_y, f_o=f_o, h_o=h_o, scaling=scaling)
        ts = TimeSeriesSet(0.3 * rng.standard_normal((T, d_y, s)))
        x0 = 0.2 * rng.standard_normal((n, s))
        rep = predict_one_step(model, ts, x0)
        for k in range(s):
            x = x0[:, k].copy()
            for t in range(T):
                yhat = model.scaling.invert(eval_monomial_map_many(model.h_o, x[:, None]))[:, 0]
                assert rep.predictions[t, :, k] == pytest.approx(yhat, rel=1e-12, abs=1e-12)
                y_scaled = model.scaling.apply(ts.Y[t, :, k : k + 1])[:, 0]
                x = eval_monomial_map_many(model.f_o, np.concatenate([x, y_scaled])[:, None])[:, 0]

    def test_each_map_has_one_workspace_for_all_steps(self, rng, monkeypatch):
        made = []

        def counted(pm, s):
            made.append((pm.d_v, s))
            return workspace(pm, s)

        workspace = model_module.data_matrix_workspace
        monkeypatch.setattr(model_module, "data_matrix_workspace", counted)
        model = decay_model()
        ts = TimeSeriesSet(rng.standard_normal((9, 1, 4)))
        rep = predict_one_step(model, ts, np.ones((1, 4)))
        assert made == [(1, 4), (1, 4)]
        assert rep.predictions[:, 0, 0] == pytest.approx(0.5 ** np.arange(9), abs=1e-15)

    def test_observer_causality(self, rng):
        model = decay_model()
        f_o = MonomialMap(
            np.array([[0.4, 0.3]]), identity_power_matrix(2)
        )  # state feeds on measured output
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=model.h_o)
        Y = rng.standard_normal((8, 1, 1))
        base = predict_one_step(model, TimeSeriesSet(Y), np.array([[1.0]]))
        cut = 4
        Y2 = Y.copy()
        Y2[cut:] += rng.standard_normal(Y2[cut:].shape)
        other = predict_one_step(model, TimeSeriesSet(Y2), np.array([[1.0]]))
        assert np.array_equal(
            base.predictions[: cut + 1], other.predictions[: cut + 1]
        )
        assert not np.array_equal(base.predictions, other.predictions)

    def test_scaling_equivalent_unscaled_model(self, rng):
        # linear observer with scaling == the divisor folded into its maps
        n, d_y = 2, 1
        A = 0.3 * rng.standard_normal((n, n))
        B = 0.2 * rng.standard_normal((n, d_y))
        C = rng.standard_normal((d_y, n))
        std = np.array([2.5])
        K_f, K_h = identity_power_matrix(n + d_y), identity_power_matrix(n)
        scaled = ObserverModel(
            n=n, d_y=d_y, f_o=MonomialMap(np.hstack([A, B]), K_f),
            h_o=MonomialMap(C, K_h), scaling=OutputScaling(std),
        )
        # raw units: x+ = A x + (B/std) y, yhat = std C x
        raw = ObserverModel(
            n=n, d_y=d_y, f_o=MonomialMap(np.hstack([A, B / std[None, :]]), K_f),
            h_o=MonomialMap(std[:, None] * C, K_h),
        )
        ts = TimeSeriesSet(0.7 + 0.5 * rng.standard_normal((7, 1, 3)))
        x0 = rng.standard_normal((n, 3))
        rep_scaled = predict_one_step(scaled, ts, x0)
        rep_raw = predict_one_step(raw, ts, x0)
        rel = np.abs(rep_scaled.predictions - rep_raw.predictions) / (
            1 + np.abs(rep_raw.predictions)
        )
        assert rel.max() <= 1e-9

    def test_divergence_names_series_and_time(self):
        f_o = MonomialMap(np.array([[10.0, 0.0]]), identity_power_matrix(2))
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o)
        ts = TimeSeriesSet(np.ones((40, 1, 2)))
        with pytest.raises(DivergenceError) as err:
            predict_one_step(model, ts, np.array([[1.0, 1.0]]))
        msg = str(err.value)
        assert "series" in msg and "time" in msg

    def test_nan_state_counts_as_divergence(self):
        # x^26 - x^25 * y is inf - inf = NaN at x = y = 1e12, in series 2
        # only; NaN fails every comparison with the guard.
        K_f = PowerMatrix(np.array([[26, 0], [25, 1]]), (26, 1))
        f_o = MonomialMap(np.array([[1.0, -1.0]]), K_f)
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o)
        ts = TimeSeriesSet(np.full((3, 1, 3), 1e12))
        with pytest.raises(DivergenceError) as err:
            predict_one_step(model, ts, np.array([[1.0, 1e12, 1.0]]))
        assert "series 2 after time 1" in str(err.value)

    def test_divergence_names_the_first_diverged_series(self):
        # As above, series 2's state is NaN after time 1; series 1's is 10^26,
        # finite but over the guard, and it is the one named.
        K_f = PowerMatrix(np.array([[26, 0], [25, 1]]), (26, 1))
        f_o = MonomialMap(np.array([[1.0, -1.0]]), K_f)
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o)
        Y = np.zeros((3, 1, 3))
        Y[:, 0, 1] = 1e12
        with pytest.raises(DivergenceError) as err:
            predict_one_step(model, TimeSeriesSet(Y), np.array([[10.0, 1e12, 1.0]]))
        assert str(err.value) == "state diverged in series 1 after time 1 (|x| > 1e+12 or NaN)"

    @pytest.mark.parametrize("shape", [(2, 3)], ids=["2-D"])
    def test_leaves_the_initial_states_unchanged(self, rng, shape):
        model = zero_output_model()
        x0 = rng.standard_normal(shape)
        before = x0.copy()
        ts = TimeSeriesSet(rng.standard_normal((4, 1, shape[1])))
        predict_one_step(model, ts, x0)
        assert np.array_equal(x0, before)

    def test_initial_states_are_columns(self):
        model, ts = zero_output_model(), TimeSeriesSet(np.zeros((4, 1, 3)))
        with pytest.raises(InvalidInputError, match=r"x0 must be 2-D, got \(2,\)"):
            predict_one_step(model, ts, np.zeros(2))
        with pytest.raises(DimensionMismatchError, match=r"x0 must have shape \(2, 3\), got \(3, 2\)"):
            predict_one_step(model, ts, np.zeros((3, 2)))

    def test_dimension_mismatch(self, rng):
        model = decay_model()
        ts = TimeSeriesSet(rng.standard_normal((4, 2, 1)))
        with pytest.raises(DimensionMismatchError):
            predict_one_step(model, ts, np.ones((1, 1)))

    @pytest.mark.parametrize(
        "x0, t_start",
        [(np.zeros((2, 1)), 0), (np.zeros((2, 1)), 7), (np.zeros((2, 1)), 2.5),
         (np.zeros((2, 1)), True), (np.zeros((2, 1)) * 1j, 1), ([[0.0], [np.nan]], 1),
         ([["a"], ["b"]], 1), ([[0.0], [0.0, 1.0]], 1), (np.zeros((2, 1, 1)), 1)],
        ids=["t_start-0", "t_start-past-end", "fractional-t_start", "boolean-t_start",
             "complex-x0", "nan-x0", "string-x0", "ragged-x0", "3-D-x0"],
    )
    def test_rejects_malformed_arguments(self, x0, t_start):
        ts = TimeSeriesSet(np.zeros((6, 1, 1)))
        with pytest.raises(InvalidInputError):
            predict_one_step(zero_output_model(), ts, x0, t_start=t_start)

    def test_report_summaries(self, rng):
        model = zero_output_model()
        Y = rng.standard_normal((6, 1, 4))
        rep = predict_one_step(model, TimeSeriesSet(Y), np.zeros((2, 4)))
        assert rep.rmse[0] == pytest.approx(np.sqrt(np.mean(Y**2)))
        assert rep.relative_rmse[0] == pytest.approx(
            np.sqrt(np.mean(Y**2)) / Y.std()
        )
        assert rep.per_series_rmse == pytest.approx(
            np.sqrt(np.mean(Y**2, axis=(0, 1)))
        )


def row_loop_observer(f, h, x, steps, feedback):
    """``run_observer`` as it ran before chains were bound, without its guards.

    Each step evaluates both chains by the row loop, and ``feedback(i, yhat_i)``
    returns the driving outputs, which are copied into the stack.
    """
    n, s = x.shape
    z = aligned_empty(n + h.m, s)
    z[:n] = x
    yhat = np.empty((steps, h.m, s))
    h_work, f_work = data_matrix_workspace(h.K, s), data_matrix_workspace(f.K, s)
    for i in range(steps):
        np.matmul(h.L, row_loop_chain(h.K, z[:n], h_work), out=yhat[i])
        z[n:] = feedback(i, yhat[i])
        np.matmul(f.L, row_loop_chain(f.K, z, f_work), out=z[:n])
    return yhat


#: Output maps over three states: the identity, which an identified ``h_o``
#: has, the identity less a column, and a polynomial one.
OUTPUT_SETS = {
    "identity": identity_power_matrix(3),
    "identity-less-x2": PowerMatrix(np.array([[1, 0, 0], [0, 0, 1]]), (1, 0, 1)),
    "polynomial": PowerMatrix.from_rows([(2, 0, 1), (1, 1, 0), (0, 0, 1), (0, 0, 0)]),
}


class TestBoundObserver:
    """The observer with bound chains against the row loop it replaced, bit for bit."""

    @pytest.mark.parametrize("K_h", OUTPUT_SETS.values(), ids=OUTPUT_SETS.keys())
    def test_predictions_match_the_row_loop(self, rng, K_h):
        n, d_y, s, T = 3, 2, 300, 12
        # Not downward-closed over (x, y): the chain has auxiliary rows.
        K_f = PowerMatrix.from_rows(
            [(1, 0, 0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1), (2, 0, 1, 0, 0), (0, 1, 0, 1, 1)]
        )
        assert K_f.chain_plan[0] > K_f.d_v
        model = ObserverModel(
            n=n, d_y=d_y,
            f_o=MonomialMap(0.3 * rng.standard_normal((n, K_f.d_v)), K_f),
            h_o=MonomialMap(rng.standard_normal((d_y, K_h.d_v)), K_h),
            scaling=OutputScaling(rng.uniform(0.5, 2.0, d_y)),
        )
        ts = TimeSeriesSet(0.3 * rng.standard_normal((T, d_y, s)))
        x0 = 0.3 * rng.standard_normal((n, s))

        def feedback(i, yhat_i):
            model.scaling.invert(yhat_i, out=yhat_i)
            return model.scaling.apply(ts.Y[i])

        reference = row_loop_observer(model.f_o, model.h_o, x0, T, feedback)
        assert np.array_equal(predict_one_step(model, ts, x0).predictions, reference)

    def test_run_observer_fills_the_driving_outputs(self, rng):
        model = reference_fixture_model()
        x0 = rng.uniform(-0.5, 0.5, (2, 40))
        drive = rng.standard_normal((6, 1, 40))

        def feedback(i, yhat_i, out):
            out[...] = drive[i]

        yhat = model_module.run_observer(model.f_o, model.h_o, x0, 6, feedback)
        reference = row_loop_observer(model.f_o, model.h_o, x0, 6, lambda i, y: drive[i])
        assert np.array_equal(yhat, reference)

    def test_noisy_simulation_matches_the_row_loop(self):
        spec = dataclasses.replace(polynomial_spec(200, t_1=15), noise_std=0.05)
        rng = np.random.default_rng(3)
        lo, hi = np.array(spec.x0_min), np.array(spec.x0_max)

        def noisy(i, y):
            y += spec.noise_std * rng.standard_normal(y.shape)
            return y

        x = lo[:, None] + (hi - lo)[:, None] * rng.random((spec.n, spec.s))
        reference = row_loop_observer(spec.f, spec.h, x, spec.t_1, noisy)
        assert np.array_equal(generate(spec, 3).Y, reference)


class TestBurnIn:
    def test_initial_state_matches_manual_lifting(self):
        ts = generate(linear_spec(30), 5)
        cfg = IdentConfig(
            r2=0.999, r4=0.001,
            t_plus_max=2, t_minus_max=2,
            k_max_y=1,
        )
        model, _ = identify(ts, cfg)
        hold = generate(linear_spec(3), 77)
        window = hold.Y[: model.t_minus]  # (t_minus, d_y, s)
        x = initial_state_from_past(model, window)
        scaled = model.scaling.apply(window)
        stacked = scaled[::-1].reshape(model.t_minus * model.d_y, hold.s)
        expected = model.g_io.L @ np.vstack(
            [np.prod(stacked.T ** model.g_io.K.K[j], axis=1) for j in range(model.g_io.K.d_v)]
        )
        assert x == pytest.approx(expected, rel=1e-12)

    def test_replay_matches_training_diagnostics(self):
        # Windows of 2 + 2 samples in 4: the one admissible anchor t_minus + 1
        # is where the burn-in prediction starts.  Output noise keeps the
        # residuals off the rounding floor, so they are compared relatively.
        ts = generate(dataclasses.replace(linear_spec(25, t_1=4), noise_std=0.01), 31)
        cfg = IdentConfig(r2=0.999, r4=0.001, t_plus_max=2, t_minus_max=2, k_max_y=1)
        model, diag = identify(ts, cfg)
        assert diag.n_columns == ts.s  # one anchor: its residual is the training RMSE
        rep = predict_with_burn_in(model, ts)
        anchor_abs_resid = np.abs(rep.residuals[0, 0, :]) / model.scaling.std[0]
        assert anchor_abs_resid.min() > 1e-4
        assert anchor_abs_resid == pytest.approx(diag.training_rmse_per_series, rel=1e-10)

    def test_overflowing_history_names_the_series(self):
        # Raised before the observer runs, with no numpy warning (pytest's
        # warning filters make one an error).  The state map is linear in the
        # past outputs, so they must be near the float maximum to overflow it.
        model, _ = TestValueEquality.a1_identified()
        Y = generate(linear_spec(3, t_1=30), 2).Y.copy()
        Y[:, :, 1] = 1.7e308
        with pytest.raises(NumericalOverflowError, match="state of series 2 is not finite"):
            predict_with_burn_in(model, TimeSeriesSet(Y))

    @staticmethod
    def half_std_model() -> ObserverModel:
        """x(t+1) = 0.5 x + 0.1 y, yhat = x, x = y(t-1): scaling std 0.5, t_minus 1."""
        f_o = MonomialMap(np.array([[0.5, 0.1]]), identity_power_matrix(2))
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        return ObserverModel(
            n=1, d_y=1, f_o=f_o, h_o=h_o,
            scaling=OutputScaling(np.full(1, 0.5)),
            g_io=MonomialMap(np.array([[1.0]]), identity_power_matrix(1)),
            t_minus=1,
        )

    def test_scaling_overflow_in_history_names_the_series(self):
        Y = np.full((5, 1, 3), 0.25)
        Y[0, 0, 1] = 1e308  # the past window of series 2; twice it overflows
        with pytest.raises(NumericalOverflowError, match="state of series 2 is not finite"):
            predict_with_burn_in(self.half_std_model(), TimeSeriesSet(Y))

    def test_scaling_overflow_after_history_names_series_and_time(self):
        Y = np.full((5, 1, 3), 0.25)
        Y[2, 0, 1] = 1e308  # series 2 at time 3
        with pytest.raises(NumericalOverflowError, match="series 2 at time 3 overflows"):
            predict_with_burn_in(self.half_std_model(), TimeSeriesSet(Y))

    def test_an_empty_history_is_rejected(self):
        with pytest.raises(InvalidInputError, match="sample list is empty"):
            initial_state_from_past(self.half_std_model(), np.ones((1, 1, 0)))

    def test_each_array_is_checked_once(self, monkeypatch):
        # The past window, the scaled window the lifting takes, and the burn-in state.
        from polysid import monomials
        checked = []

        def recorded(a, what, ndim):
            checked.append(what)
            return real_array(a, what, ndim)

        model, ts = self.half_std_model(), TimeSeriesSet(np.full((5, 1, 3), 0.25))
        real_array = model_module.real_array
        monkeypatch.setattr(model_module, "real_array", recorded)
        monkeypatch.setattr(monomials, "real_array", recorded)
        predict_with_burn_in(model, ts)
        assert checked == ["past window y_past", "samples", "x0"]

    #: x(t+1) = 10 x with y ignored, and y = x^30: from x = 1e10 the output
    #: is 1e300 at the first step and overflows at the second, while the
    #: state stays below the divergence guard.
    TENFOLD = MonomialMap(np.array([[10.0]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
    POWER_30 = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[30]]), (30,)))

    def test_overflowing_prediction_names_series_and_time(self):
        model = ObserverModel(n=1, d_y=1, f_o=self.TENFOLD, h_o=self.POWER_30)
        ts = TimeSeriesSet(np.ones((5, 1, 3)))
        x0 = np.array([[1.0, 1e10, 1.0]])
        with pytest.raises(NumericalOverflowError) as err:
            predict_one_step(model, ts, x0)
        assert str(err.value) == "the output of series 2 at time 2 overflows"

    def test_overflowing_simulation_names_series_and_time(self):
        spec = GeneratorSpec(
            n=1, d_y=1, f=self.TENFOLD, h=self.POWER_30, x0_min=(1e10,), x0_max=(1e10,),
            noise_std=0.0, t_1=5, s=2,
        )
        with pytest.raises(NumericalOverflowError) as err:
            generate(spec, 1)
        assert str(err.value) == "the output of series 1 at time 2 overflows"

    IDENTITY = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))

    @pytest.mark.parametrize(
        "h_o, x0, message",
        [(POWER_30, [1.0, 1e10, 1e10], "the output of series 2 at time 2 overflows"),
         # Series 1's x^30 overflows at time 3, a step after series 2's.
         (POWER_30, [1e9, 1e10], "the output of series 2 at time 2 overflows"),
         # Series 3's state is the larger, 3e12 against 2e12.
         (IDENTITY, [1.0, 2e11, 3e11],
          "state diverged in series 2 after time 1 (|x| > 1e+12 or NaN)"),
         # Series 1's state passes the guard after time 3, a step after series 2's.
         (IDENTITY, [1e10, 1e11],
          "state diverged in series 2 after time 2 (|x| > 1e+12 or NaN)")],
        ids=["output-two-at-once", "output-higher-series-first",
             "state-two-at-once", "state-higher-series-first"],
    )
    def test_guards_name_the_first_series_at_the_first_time(self, h_o, x0, message):
        model = ObserverModel(n=1, d_y=1, f_o=self.TENFOLD, h_o=h_o)
        with pytest.raises((NumericalOverflowError, DivergenceError)) as err:
            predict_one_step(model, TimeSeriesSet(np.ones((5, 1, len(x0)))), np.array([x0]))
        assert str(err.value) == message

    def test_simulation_leaves_its_initial_states_unchanged(self, monkeypatch):
        # The package exports the function ``generate`` under its module's name.
        generate_module = importlib.import_module("polysid.generate")
        seen = []

        def recorded(f, h, x, steps, feedback):
            seen.append((x, x.copy()))
            return run_observer(f, h, x, steps, feedback)

        run_observer = generate_module.run_observer
        monkeypatch.setattr(generate_module, "run_observer", recorded)
        spec = GeneratorSpec(
            n=1, d_y=1, f=self.TENFOLD, h=self.IDENTITY, x0_min=(0.5,), x0_max=(2.0,),
            noise_std=0.1, t_1=5, s=3,
        )
        generate(spec, 1)
        [(x, before)] = seen
        assert np.array_equal(x, before)

    def test_simulation_rejects_non_finite_initial_states(self):
        # The box's width, 2e308, overflows, so the drawn states are infinite.
        spec = GeneratorSpec(
            n=1, d_y=1, f=self.TENFOLD, h=self.IDENTITY, x0_min=(-1e308,), x0_max=(1e308,),
            noise_std=0.0, t_1=5, s=3,
        )
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError) as err:
            generate(spec, 1)
        assert str(err.value) == "non-finite entries in samples"

    def test_summaries_of_huge_finite_predictions_are_finite(self):
        # y = x^16 from x = 1e10 predicts 1e160, whose square overflows.
        power_16 = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[16]]), (16,)))
        hold = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
        model = ObserverModel(n=1, d_y=1, f_o=hold, h_o=power_16)
        rep = predict_one_step(model, TimeSeriesSet(np.ones((4, 1, 2))), np.array([[1.0, 1e10]]))
        assert rep.predictions[:, 0] == pytest.approx(np.tile([1.0, 1e160], (4, 1)), rel=1e-12)
        assert rep.per_series_rmse == pytest.approx([0.0, 1e160], rel=1e-12)
        assert rep.rmse == pytest.approx([1e160 / np.sqrt(2)], rel=1e-12)
        assert np.isfinite(rep.relative_rmse).all()

    def test_prediction_overflowing_the_inverted_scaling_names_series_and_time(self):
        # A finite scaled prediction of 1e10 is 1e310 in raw units.
        identity = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        hold = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
        model = ObserverModel(
            n=1, d_y=1, f_o=hold, h_o=identity,
            scaling=OutputScaling(np.full(1, 1e300)),
        )
        ts = TimeSeriesSet(np.ones((4, 1, 3)))
        with pytest.raises(NumericalOverflowError) as err:
            predict_one_step(model, ts, np.array([[1.0, 1e10, 1e10]]), t_start=2)
        assert str(err.value) == "the output of series 2 at time 2 overflows"

    #: x(t+1) = x with y ignored.
    HOLD = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))

    def test_overflowing_residual_names_series_and_time(self):
        # y = -10 x^26 from x = 6e11 predicts -1.7e307; 1.7e308 minus it overflows.
        power_26 = MonomialMap(np.array([[-10.0]]), PowerMatrix(np.array([[26]]), (26,)))
        model = ObserverModel(n=1, d_y=1, f_o=self.HOLD, h_o=power_26)
        Y = np.ones((5, 1, 3))
        Y[2:, 0, 1] = 1.7e308  # series 2 from time 3
        Y[1:, 0, 2] = 1.7e308  # series 3 from time 2, but with a small prediction
        with pytest.raises(NumericalOverflowError) as err:
            predict_one_step(model, TimeSeriesSet(Y), np.array([[6e11, 6e11, 1.0]]))
        assert str(err.value) == "the residual of series 2 at time 3 overflows"

    @pytest.mark.parametrize(
        "d_y, where, value, entry",
        [(1, "predicted", np.nan, (0, 3, 1)),
         (1, "predicted", -np.inf, (0, 3, 1)),
         (1, "predicted", np.inf, (0, 3, 1)),
         (1, "measured", np.inf, (0, 3, 1)),
         (2, "predicted", np.nan, (1, 3, 1)),
         (2, "measured", -np.inf, (1, 0, 2))],
        ids=["nan", "plus-inf", "minus-inf", "infinite-measured", "second-output",
             "second-output-measured"],
    )
    def test_non_finite_residual_names_series_and_time(self, rng, d_y, where, value, entry):
        arrays = {name: rng.standard_normal((5, d_y, 4)) for name in ("measured", "predicted")}
        output, t, k = entry  # that output of series k + 1 at time index t
        arrays[where][t, output, k] = value
        # A bad entry in an earlier series but at a later time is not the first.
        arrays["predicted"][4, 0, 0] = np.nan
        with pytest.raises(NumericalOverflowError) as err:
            model_module._summarize(3, arrays["measured"], arrays["predicted"])
        assert str(err.value) == f"the residual of series {k + 1} at time {3 + t} overflows"

    def test_summaries_of_huge_measured_outputs_are_finite(self):
        # The zero prediction leaves residuals of 1e308, whose std's squares overflow.
        identity = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=1, f_o=self.HOLD, h_o=identity)
        Y = np.array([1e308, -1e308, 1e308, -1e308])[:, None, None]
        rep = predict_one_step(model, TimeSeriesSet(Y), np.zeros((1, 1)))
        assert rep.rmse == pytest.approx([1e308], rel=1e-12)
        assert rep.relative_rmse == pytest.approx([1.0], rel=1e-12)

    def test_summaries_match_the_plain_formulas(self, rng):
        # Scaling by a power of two is exact, so moderate values give numpy's bits.
        hold = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[1, 0, 0]]), (1, 0, 0)))
        zero = MonomialMap(np.zeros((2, 1)), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=2, f_o=hold, h_o=zero)
        Y = rng.standard_normal((6, 2, 3)) * 1e5
        rep = predict_one_step(model, TimeSeriesSet(Y), np.zeros((1, 3)))
        assert np.array_equal(rep.rmse, np.sqrt(np.mean(Y**2, axis=(0, 2))))
        assert np.array_equal(rep.relative_rmse, rep.rmse / Y.std(axis=(0, 2)))
        assert np.array_equal(rep.per_series_rmse, np.sqrt(np.mean(Y**2, axis=(0, 1))))

    def test_past_window_has_a_series_axis(self):
        model = self.half_std_model()
        with pytest.raises(InvalidInputError, match=r"y_past must be 3-D, got \(1, 1\)"):
            initial_state_from_past(model, np.ones((1, 1)))
        assert initial_state_from_past(model, np.ones((1, 1, 3))).shape == (1, 3)

    def test_burn_in_requires_lifting(self, rng):
        model = decay_model()
        with pytest.raises(InvalidInputError):
            predict_with_burn_in(model, TimeSeriesSet(rng.standard_normal((5, 1, 1))))


class TestValueEquality:
    def test_output_scaling(self):
        scaling = OutputScaling([1.0, 2.0])
        assert scaling == OutputScaling(np.array([1.0, 2.0]))
        assert scaling != OutputScaling([1.0, 3.0])
        assert scaling != [1.0, 2.0]
        with pytest.raises(TypeError):
            hash(scaling)

    def test_output_scaling_copies_its_arrays(self):
        std = np.array([1.0, 2.0])
        scaling = OutputScaling(std)
        assert std.flags.writeable
        assert not scaling.std.flags.writeable
        std[0] = 3.0
        assert scaling == OutputScaling([1.0, 2.0])

    @pytest.mark.parametrize(
        "std", [[1.0, 0.0], [-2.0], [np.inf], [[1.0]], 2.0, ["2"]],
        ids=["zero", "negative", "infinite", "2-D", "scalar", "string"],
    )
    def test_output_scaling_rejects_all_but_positive_divisors(self, std):
        with pytest.raises(InvalidInputError, match="scaling std"):
            OutputScaling(std)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 2, 3)], ids=["d_y", "d_y-s", "t-d_y-s"])
    def test_output_scaling_layouts(self, rng, shape):
        scaling = OutputScaling([2.0, 0.25])
        y = rng.standard_normal(shape)
        if len(shape) == 1:  # no caller scales one vector: rejected, not broadcast to (2, 2)
            for method in (scaling.apply, scaling.invert):
                with pytest.raises(DimensionMismatchError, match=r"got \(2,\)$"):
                    method(y)
            return
        applied, inverted = np.empty(shape), np.empty(shape)
        for d, std in enumerate(scaling.std):
            at = (slice(None),) * (len(shape) == 3) + (d,)  # the output axis
            applied[at] = y[at] / std
            inverted[at] = y[at] * std
        assert np.array_equal(scaling.apply(y), applied)
        assert np.array_equal(scaling.invert(y), inverted)

    @pytest.mark.parametrize("shape", [(), (3,), (3, 4), (4, 3, 2), (1, 4, 2, 3)])
    def test_output_scaling_rejects_other_shapes(self, shape):
        scaling = OutputScaling([2.0, 0.25])
        for method in (scaling.apply, scaling.invert):
            with pytest.raises(DimensionMismatchError) as err:
                method(np.ones(shape))
            assert str(err.value) == (
                f"outputs must have shape (d_y, s) or (t, d_y, s) with d_y = 2, got {shape}"
            )

    def test_time_series_set(self, rng):
        Y = rng.standard_normal((3, 2, 2))
        ts = TimeSeriesSet(Y)
        assert ts == TimeSeriesSet(Y.copy())
        assert ts != TimeSeriesSet(Y + 1e-12)
        assert ts != TimeSeriesSet(Y[:2])
        with pytest.raises(TypeError):
            hash(ts)

    def test_observer_model(self):
        model = reference_fixture_model()
        assert model == copy.deepcopy(model)
        assert model == deserialize_model(serialize_model(model))
        nudged = MonomialMap(model.f_o.L + 1e-12, model.f_o.K)
        assert model != dataclasses.replace(model, f_o=nudged)
        assert model != dataclasses.replace(model, meta={"t_minus": 1})
        scaled = dataclasses.replace(model, scaling=OutputScaling([2.0]))
        assert scaled != model
        assert scaled == copy.deepcopy(scaled)
        with pytest.raises(TypeError):
            hash(model)

    @staticmethod
    def a1_identified():
        cfg = IdentConfig(
            r2=0.9999, r4=0.001,
            t_plus_max=4, t_minus_max=4,
            k_max_y=1, max_total_degree_xy=2, scale_gamma=5.0,
        )
        return identify(generate(linear_spec(50, t_1=30), 1), cfg)

    def test_prediction_report(self):
        model, _ = self.a1_identified()
        rep = predict_with_burn_in(model, generate(linear_spec(10, t_1=30), 2))
        assert rep == copy.deepcopy(rep)
        assert rep != dataclasses.replace(rep, residuals=rep.residuals + 1e-12)
        assert rep != dataclasses.replace(rep, t_start=rep.t_start + 1)
        with pytest.raises(TypeError):
            hash(rep)

    def test_ident_diagnostics(self):
        _, diag = self.a1_identified()
        assert diag == copy.deepcopy(diag)
        assert diag != dataclasses.replace(
            diag, training_rmse_per_series=diag.training_rmse_per_series * 2
        )
        assert diag != dataclasses.replace(diag, training_rmse_per_series=None)
        assert diag != dataclasses.replace(diag, n1=diag.n1 + 1)


class TestSerialization:
    def test_reference_fixture_round_trip(self):
        model = reference_fixture_model()
        doc = serialize_model(model)
        back = deserialize_model(doc)
        assert back.n == model.n and back.d_y == model.d_y
        assert np.array_equal(back.f_o.L, model.f_o.L)
        assert np.array_equal(back.f_o.K.K, model.f_o.K.K)
        assert back.f_o.K.k_max == model.f_o.K.k_max
        assert np.array_equal(back.h_o.L, model.h_o.L)
        assert np.array_equal(back.h_o.K.K, model.h_o.K.K)

    def test_random_round_trips(self, rng):
        for _ in range(100):
            model = random_model(rng)
            back = deserialize_model(serialize_model(model))
            assert back.n == model.n and back.d_y == model.d_y
            assert np.array_equal(back.f_o.L, model.f_o.L)
            assert np.array_equal(back.f_o.K.K, model.f_o.K.K)
            assert np.array_equal(back.h_o.L, model.h_o.L)
            assert np.array_equal(back.h_o.K.K, model.h_o.K.K)
            assert np.array_equal(back.scaling.std, model.scaling.std)
            assert (back.g_io is None) == (model.g_io is None)
            if model.g_io is not None:
                assert np.array_equal(back.g_io.L, model.g_io.L)
                assert np.array_equal(back.g_io.K.K, model.g_io.K.K)
                assert back.t_minus == model.t_minus

    def test_ignores_training_states_of_older_documents(self):
        model = reference_fixture_model()
        doc = json.loads(serialize_model(model))
        assert "X0" not in doc
        doc["X0"] = [[0.25, -0.5], [1.0, 2.0]]
        assert deserialize_model(json.dumps(doc)) == model

    def test_loads_a_document_whose_config_echo_holds_pool_windows(self):
        # A scalar decay identified on its first anchor alone, as written
        # before every identification pooled its anchors.
        text = OLDER_DECAY_DOCUMENT
        model = deserialize_model(text)
        assert model.meta["config"]["pool_windows"] is False
        held = generate(decay_spec(3, t_1=12), 8)
        rep = predict_with_burn_in(model, held)
        assert rep.rmse == pytest.approx([0.0], abs=1e-15)
        plain = predict_with_burn_in(dataclasses.replace(model, meta={}), held)
        assert np.array_equal(rep.predictions, plain.predictions)
        assert json.loads(serialize_model(model)) == json.loads(text)

    def test_rejects_zero_coefficient_column(self):
        model = reference_fixture_model()
        doc = serialize_model(model)
        bad = doc.replace("-0.0225", "0.0").replace("0.0336", "0.0")
        with pytest.raises(ValidationError):
            deserialize_model(bad)

    def test_zero_coefficient_column_round_trips(self):
        f_o = MonomialMap(np.array([[10.0, 0.0]]), identity_power_matrix(2))
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o)
        doc = serialize_model(model)
        back = deserialize_model(doc)
        assert back.f_o.K.d_v == 1
        ts = TimeSeriesSet(np.arange(12.0).reshape(6, 1, 2))
        assert np.array_equal(
            predict_one_step(back, ts, np.full((1, 2), 0.01)).predictions,
            predict_one_step(model, ts, np.full((1, 2), 0.01)).predictions,
        )
        assert serialize_model(back) == doc

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError) as err:
            deserialize_model("{ not json }")
        assert "line" in str(err.value)

    @pytest.mark.parametrize(
        "text, reason",
        [
            # json converts the literal with int(), which stops at 4300 digits.
            ('{"format": "polysid-model", "version": ' + "1" * 5000 + "}", "Exceeds the limit"),
            ("[" * 100_000, "maximum recursion depth exceeded"),
        ],
    )
    def test_undecodable_document_is_a_parse_error(self, text, reason):
        with pytest.raises(ParseError, match=f"^model document cannot be decoded: {reason}"):
            deserialize_model(text)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValidationError):
            deserialize_model('{"format": "something-else"}')

    @pytest.mark.parametrize("version", [99, 0, True, 2.0, "2", None, "missing"])
    def test_rejects_any_version_but_2(self, version):
        doc = json.loads(serialize_model(reference_fixture_model()))
        assert doc["version"] == 2
        if version == "missing":
            del doc["version"]
        else:
            doc["version"] = version
        shown = "None" if version == "missing" else repr(version)
        with pytest.raises(ValidationError, match=f"^model document version {shown} "):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("mean", [0.0, 0.7], ids=["zero-mean", "nonzero-mean"])
    def test_rejects_version_1_with_the_remedy(self, mean):
        # Version 1 held an output mean beside the std.
        doc = json.loads(serialize_model(reference_fixture_model()))
        doc.update(version=1, scaling={"mean": [mean], "std": [2.0]})
        with pytest.raises(ValidationError) as err:
            deserialize_model(json.dumps(doc))
        assert str(err.value) == (
            "model document version 1 is not supported; it must be 2: identify the model again"
        )

    @pytest.mark.parametrize(
        "scaling",
        [{"mean": [0.0], "std": [2.0]}, {"mean": [0.0]}, {"std": [2.0], "offset": [1.0]},
         {}, None, "missing", [2.0]],
        ids=["with-mean", "mean-only", "extra-key", "empty", "null", "missing", "list"],
    )
    def test_rejects_a_scaling_that_is_not_one_divisor(self, scaling):
        doc = json.loads(serialize_model(reference_fixture_model()))
        if scaling == "missing":
            del doc["scaling"]
        else:
            doc["scaling"] = scaling
        with pytest.raises(ValidationError, match=r'^scaling must be \{"std": \[\.\.\.\]\}, got '):
            deserialize_model(json.dumps(doc))

    def test_model_without_a_scaling_has_unit_divisors(self, rng):
        model = decay_model()
        assert model.scaling == OutputScaling([1.0])
        doc = serialize_model(model)
        assert json.loads(doc)["scaling"] == {"std": [1.0]}
        back = deserialize_model(doc)
        assert back == model and serialize_model(back) == doc
        ts = TimeSeriesSet(rng.standard_normal((5, 1, 2)))
        plain = predict_one_step(model, ts, np.ones((1, 2)))
        assert plain == predict_one_step(back, ts, np.ones((1, 2)))

    def test_rejects_a_scaling_of_another_output_dimension(self):
        with pytest.raises(DimensionMismatchError, match="scaling dimension must equal d_y"):
            dataclasses.replace(decay_model(), scaling=OutputScaling([1.0, 2.0]))

    def test_numpy_integer_dimensions_serialize_as_python_ints(self):
        model = reference_fixture_model()
        g_io = MonomialMap(np.ones((model.n, 1)), identity_power_matrix(1))
        wide = ObserverModel(
            n=np.int64(model.n), d_y=np.int64(1), f_o=model.f_o, h_o=model.h_o,
            g_io=g_io, t_minus=np.int32(1),
        )
        assert type(wide.n) is type(wide.d_y) is type(wide.t_minus) is int
        assert deserialize_model(serialize_model(wide)) == wide

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            ("n", True, "a positive integer"), ("d_y", True, "a positive integer"),
            ("t_minus", True, "an integer"), ("n", 2.0, "a positive integer"),
            ("d_y", "1", "a positive integer"),
        ],
    )
    def test_rejects_boolean_or_non_integer_dimensions(self, name, value, kind):
        model = reference_fixture_model()
        g_io = MonomialMap(np.ones((model.n, 1)), identity_power_matrix(1))
        fields = dict(n=model.n, d_y=1, f_o=model.f_o, h_o=model.h_o, g_io=g_io, t_minus=1)
        with pytest.raises(InvalidInputError, match=f"^{name} must be {kind}, got "):
            ObserverModel(**{**fields, name: value})

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["f_o"]["K"][0].append(0),
            lambda doc: doc["f_o"].update(n_vars=doc["f_o"]["n_vars"] + 1),
            lambda doc: doc.pop("f_o"),
            lambda doc: doc.update(t_minus="two"),
            lambda doc: doc.update(t_minus=1.5),
            lambda doc: doc.update(t_minus=True),
            lambda doc: doc.update(n=doc["n"] + 0.7),
            lambda doc: doc.update(d_y=True),
            lambda doc: doc["f_o"].update(n_vars=doc["f_o"]["n_vars"] + 0.9),
            lambda doc: doc["f_o"]["k_max"].__setitem__(0, 1.5),
            lambda doc: doc["f_o"]["K"][0].__setitem__(0, 1.4),
            lambda doc: doc["f_o"]["K"][0].__setitem__(0, True),
            lambda doc: doc["f_o"]["L"][0].__setitem__(0, "0.5"),
            lambda doc: doc["h_o"]["L"][0].__setitem__(1, True),
            lambda doc: doc.update(scaling={"std": ["2"]}),
            lambda doc: doc.update(scaling={"std": [False]}),
            lambda doc: doc.update(scaling={"std": [10**400]}),
            lambda doc: doc.update(scaling={"std": [0.0]}),
            lambda doc: doc.update(scaling={"std": [1.0, 2.0]}),
            lambda doc: doc.update(scaling={"std": 2.0}),
            lambda doc: doc.update(meta="x"),
            lambda doc: doc.update(t_minus=0, g_io={
                "n_vars": 0, "k_max": [], "K": [[]], "L": [[1.0]] * doc["n"]}),
        ],
        ids=["ragged-K", "n_vars-vs-K", "missing-f_o",
             "non-integer-t_minus", "fractional-t_minus", "boolean-t_minus",
             "fractional-n", "boolean-d_y", "fractional-n_vars",
             "fractional-k_max", "fractional-K", "boolean-K",
             "string-L", "boolean-L", "string-std", "boolean-std",
             "huge-integer-std", "zero-std", "two-std", "scalar-std",
             "string-meta", "zero-t_minus"],
    )
    def test_malformed_document_raises_validation_error(self, corrupt):
        doc = json.loads(serialize_model(reference_fixture_model()))
        corrupt(doc)
        with pytest.raises(ValidationError):
            deserialize_model(json.dumps(doc))

    def test_invariant_violation_rejected(self):
        model = reference_fixture_model()
        doc = json.loads(serialize_model(model))
        # swap two exponent rows to break the decreasing lexicographic order
        doc["f_o"]["K"][0], doc["f_o"]["K"][1] = doc["f_o"]["K"][1], doc["f_o"]["K"][0]
        with pytest.raises(ValidationError):
            deserialize_model(json.dumps(doc))
