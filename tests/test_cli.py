"""End-to-end command-line flows."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from polysid import (
    ConfigError,
    IdentConfig,
    MonomialMap,
    ObserverModel,
    OutputScaling,
    ParseError,
    PowerMatrix,
    deserialize_model,
    identify,
    identity_power_matrix,
    serialize_model,
)
from polysid import monomials
from polysid.cli import config_from_kv, main
from polysid.dataio import emit
from polysid.generate import spec_to_kv, generate

from conftest import decay_spec, linear_spec, reference_fixture_model

CONFIG = """\
r2 = 0.999
r4 = 0.001
t_plus_max = 2
t_minus_max = 2
k_max_y = 1
"""

#: The linear acceptance config A1 that CI's console-script round trip identifies with.
A1_CONFIG = """\
r2 = 0.9999
r4 = 0.001
t_plus_max = 4
t_minus_max = 4
max_total_degree_xy = 2
scale_gamma = 5.0
"""

DEPRECATED = {"r1", "r3", "block_limit", "t_plus_min", "t_minus_min"}


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "system.spec"
    spec_path.write_text(spec_to_kv(decay_spec(20, t_1=12)))
    cfg_path = tmp_path / "ident.cfg"
    cfg_path.write_text(CONFIG)
    return tmp_path, spec_path, cfg_path


def run(argv) -> int:
    return main([str(a) for a in argv])


class TestFullFlow:
    def test_gen_identify_predict_evaluate(self, workspace, capsys):
        tmp, spec_path, cfg_path = workspace
        data = tmp / "train.csv"
        assert run(["gen", "--spec", spec_path, "--seed", "5", "--out", data]) == 0
        model_path = tmp / "model.json"
        report_path = tmp / "report.txt"
        assert run([
            "identify", "--data", data, "--config", cfg_path,
            "--out-model", model_path, "--report", report_path,
        ]) == 0
        report = report_path.read_text()
        for section in ("HORIZONS", "TABLE1", "TABLE2", "GENERATORS", "RESIDUALS"):
            assert section in report

        pred_path = tmp / "pred.csv"
        assert run(["predict", "--model", model_path, "--data", data,
                    "--out", pred_path]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--model", model_path, "--data", data]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0].split() == ["dimension", "rmse", "relative_rmse"]
        rmse_eval = float(lines[1].split()[1])

        # cross-check: recompute the RMSE from the predict output file
        rows = pred_path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:2] == ["series", "t"]
        resid_col = header.index("resid1")
        resids = np.array([float(r.split(",")[resid_col]) for r in rows[1:]])
        assert rmse_eval == pytest.approx(np.sqrt(np.mean(resids**2)), rel=1e-6)

    def test_a1_report_states_each_fact_once(self, tmp_path):
        spec_path, cfg_path = tmp_path / "linear.spec", tmp_path / "linear.cfg"
        spec_path.write_text(spec_to_kv(linear_spec(50)))
        cfg_path.write_text(A1_CONFIG)
        data, report_path = tmp_path / "train.csv", tmp_path / "report.txt"
        assert run(["gen", "--spec", spec_path, "--seed", "1", "--out", data]) == 0
        assert run(["identify", "--data", data, "--config", cfg_path,
                    "--out-model", tmp_path / "model.json", "--report", report_path]) == 0
        text = report_path.read_text()
        sections = {block.split("\n")[0]: block.split("\n")[1:] for block in text.split("\n\n")}
        assert list(sections) == [
            "CONFIG", "HORIZONS", "TABLE1", "TABLE2", "GENERATORS", "RESIDUALS"
        ]

        def keys(section):
            return [line.split(" = ")[0] for line in sections[section]]

        fields = {f.name for f in dataclasses.fields(IdentConfig)}
        assert sorted(keys("CONFIG")) == sorted(fields - DEPRECATED)
        assert keys("HORIZONS") == ["columns", "rows_presented", "rows_kept"]
        assert "rows_presented = 16" in sections["HORIZONS"]
        # 50 series, below 4 times the 2**4 past monomials: every anchor pooled.
        assert "pool_windows = True" in sections["CONFIG"]
        every_key = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
        assert "pooled" not in every_key
        for key in ("t_plus_max", "t_minus_max", "retained_rank_n1"):
            assert every_key.count(key) == 1
        assert sum("n1" in line for line in text.splitlines()) == 1
        assert not DEPRECATED & set(every_key)
        # TABLE1 is one mass table, its rows numbered from 1.
        table1 = sections["TABLE1"]
        assert [line.split()[0] for line in table1] == [str(k) for k in range(1, len(table1) + 1)]

    def test_identify_is_reproducible(self, workspace):
        tmp, spec_path, cfg_path = workspace
        data = tmp / "train.csv"
        run(["gen", "--spec", spec_path, "--seed", "5", "--out", data])
        m1, m2 = tmp / "m1.json", tmp / "m2.json"
        run(["identify", "--data", data, "--config", cfg_path,
             "--out-model", m1, "--report", tmp / "r1.txt"])
        run(["identify", "--data", data, "--config", cfg_path,
             "--out-model", m2, "--report", tmp / "r2.txt"])
        assert m1.read_text() == m2.read_text()


class TestErrors:
    def test_predict_dimension_mismatch(self, tmp_path, capsys):
        from polysid import MonomialMap, ObserverModel, PowerMatrix, TimeSeriesSet
        from polysid.monomials import identity_power_matrix

        f_o = MonomialMap(np.array([[0.5, 0.1]]), identity_power_matrix(2))
        h_o = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        g_io = MonomialMap(np.array([[1.0]]), PowerMatrix(np.array([[1]]), (1,)))
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o, g_io=g_io, t_minus=1)
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(model))
        data = tmp_path / "data.csv"
        Y = np.random.default_rng(0).standard_normal((5, 2, 2))
        emit(TimeSeriesSet(Y), data)
        code = run(["predict", "--model", model_path, "--data", data,
                    "--out", tmp_path / "p.csv"])
        err = capsys.readouterr().err
        assert code != 0
        assert "DIM_MISMATCH" in err

    def test_config_missing_threshold(self, workspace, capsys):
        tmp, spec_path, cfg_path = workspace
        data = tmp / "train.csv"
        run(["gen", "--spec", spec_path, "--seed", "5", "--out", data])
        bad_cfg = tmp / "bad.cfg"
        bad_cfg.write_text("r2 = 0.9\n")
        code = run(["identify", "--data", data, "--config", bad_cfg,
                    "--out-model", tmp / "m.json", "--report", tmp / "r.txt"])
        err = capsys.readouterr().err
        assert code != 0
        assert "error: CONFIG:" in err

    def test_tiny_scale_gamma_is_an_overflow_error(self, workspace, capsys):
        tmp, spec_path, cfg_path = workspace
        data, model_path = tmp / "train.csv", tmp / "m.json"
        run(["gen", "--spec", spec_path, "--seed", "5", "--out", data])
        cfg_path.write_text(CONFIG + "scale_gamma = 1e-320\n")
        code = run(["identify", "--data", data, "--config", cfg_path,
                    "--out-model", model_path, "--report", tmp / "r.txt"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: OVERFLOW: non-finite values in the output scaling; the outputs "
            "overflow, so raise scale_gamma or rescale the data\n"
        )
        assert not model_path.exists()

    def test_missing_data_file_is_handled(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(reference_fixture_model()))
        code = run(["predict", "--model", model_path, "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "p.csv"])
        err = capsys.readouterr().err
        assert code != 0
        assert "error: IO:" in err

    @pytest.mark.parametrize(
        "command, bad, code",
        [
            ("gen", "spec", "PARSE"),
            ("identify", "data", "FORMAT"),
            ("identify", "config", "PARSE"),
            ("predict", "data", "FORMAT"),
            ("predict", "model", "PARSE"),
            ("evaluate", "model", "PARSE"),
            ("inspect", "model", "PARSE"),
        ],
    )
    def test_non_utf8_input_is_handled(self, workspace, capsys, command, bad, code):
        tmp, spec_path, cfg_path = workspace
        data_path, model_path = tmp / "data.csv", tmp / "model.json"
        emit(generate(decay_spec(400, t_1=12), 1), data_path)
        model_path.write_text(serialize_model(reference_fixture_model()))
        path = {"spec": spec_path, "data": data_path, "config": cfg_path, "model": model_path}[bad]
        text = path.read_bytes()
        path.write_bytes(text[: len(text) // 2] + b"\xff" + text[len(text) // 2:])
        argv = {
            "gen": ["gen", "--spec", spec_path, "--seed", 1, "--out", tmp / "out.csv"],
            "identify": ["identify", "--data", data_path, "--config", cfg_path,
                         "--out-model", tmp / "m.json", "--report", tmp / "r.txt"],
            "predict": ["predict", "--model", model_path, "--data", data_path,
                        "--out", tmp / "p.csv"],
            "evaluate": ["evaluate", "--model", model_path, "--data", data_path],
            "inspect": ["inspect", "--model", model_path],
        }[command]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: {path}: not UTF-8 text:")


class TestGen:
    @pytest.mark.parametrize("t_1", [10**14, 10**18], ids=["memory", "too-big"])
    def test_unallocatable_series_is_a_capacity_error(self, tmp_path, capsys, t_1):
        # Both sizes exceed the 47-bit user address space, so nothing is allocated.
        spec_path = tmp_path / "huge.spec"
        spec_path.write_text(spec_to_kv(decay_spec(5, t_1=t_1)))
        assert run(["gen", "--spec", spec_path, "--seed", "1", "--out", tmp_path / "y.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CAPACITY: ")
        assert f"t_1={t_1}, d_y=1, s=5" in err

    def test_negative_seed_is_invalid_input(self, tmp_path, capsys):
        spec_path = tmp_path / "decay.spec"
        spec_path.write_text(spec_to_kv(decay_spec(5)))
        assert run(["gen", "--spec", spec_path, "--seed", "-1", "--out", tmp_path / "y.csv"]) == 1
        err = capsys.readouterr().err
        assert err == "error: INVALID_INPUT: seed must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "y.csv").exists()


class TestHostileExponents:
    """An exponent of 2**62 would need 2**62 - 1 auxiliary rows to evaluate."""

    E = 2**62

    def test_predict_is_a_capacity_error(self, tmp_path, capsys):
        identity = identity_power_matrix(1)
        f_o = MonomialMap(np.array([[0.5]]), PowerMatrix(np.array([[self.E, 0]]), (self.E, 0)))
        model = ObserverModel(
            n=1, d_y=1, f_o=f_o, h_o=MonomialMap(np.ones((1, 1)), identity),
            g_io=MonomialMap(np.ones((1, 1)), identity), t_minus=1,
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(model))
        data = tmp_path / "data.csv"
        emit(generate(decay_spec(100), 3), data)
        argv = ["predict", "--model", model_path, "--data", data, "--out", tmp_path / "p.csv"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: CAPACITY: ")

    def test_gen_is_a_capacity_error(self, tmp_path, capsys):
        spec_path = tmp_path / "hostile.spec"
        spec_path.write_text(
            spec_to_kv(decay_spec(100)).replace("f_K = 1 0", f"f_K = {self.E} 0")
        )
        assert run(["gen", "--spec", spec_path, "--seed", "1", "--out", tmp_path / "y.csv"]) == 1
        assert capsys.readouterr().err.startswith("error: CAPACITY: ")


class TestPredictGuards:
    @staticmethod
    def write_model(path, e: int) -> None:
        """x(t+1) = x and y = x^e, from the state x = 1e11."""
        model = ObserverModel(
            n=1, d_y=1,
            h_o=MonomialMap(np.ones((1, 1)), PowerMatrix(np.array([[e]]), (e,))),
            f_o=MonomialMap(np.ones((1, 1)), PowerMatrix(np.array([[1, 0]]), (1, 0))),
            g_io=MonomialMap(np.array([[1e11]]), PowerMatrix(np.array([[0]]), (0,))),
            t_minus=1,
        )
        path.write_text(serialize_model(model))

    def test_overflowing_output_is_an_overflow_error(self, tmp_path, capsys):
        model_path, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "p.csv"
        self.write_model(model_path, 30)
        emit(generate(decay_spec(4), 3), data)
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: OVERFLOW: the output of series 1 at time 2 overflows\n"
        )
        assert not out.exists()

    def test_overflowing_residual_is_an_overflow_error(self, tmp_path, capsys):
        # y = -10 x^26 from the state x = 6e11 predicts -1.7e307 against 1.7e308.
        model = ObserverModel(
            n=1, d_y=1,
            h_o=MonomialMap(np.array([[-10.0]]), PowerMatrix(np.array([[26]]), (26,))),
            f_o=MonomialMap(np.ones((1, 1)), PowerMatrix(np.array([[1, 0]]), (1, 0))),
            g_io=MonomialMap(np.array([[6e11]]), PowerMatrix(np.array([[0]]), (0,))),
            t_minus=1,
        )
        model_path, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "p.csv"
        model_path.write_text(serialize_model(model))
        data.write_text("series,t,y1\n1,1,1.7e308\n1,2,1.7e308\n1,3,1.7e308\n")
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: OVERFLOW: the residual of series 1 at time 2 overflows\n"
        )
        assert not out.exists()

    def test_diverging_state_is_a_divergence_error(self, tmp_path, capsys):
        # CI's divergence case: x(t+1) = 10 x from the state x = 1 at time 2 passes
        # the guard after time 14, in every series; the first is named.
        spec_path, data = tmp_path / "linear.spec", tmp_path / "test.csv"
        spec_path.write_text(spec_to_kv(linear_spec(50)))
        assert run(["gen", "--spec", spec_path, "--seed", "2", "--out", data]) == 0
        model_path, out = tmp_path / "diverge.json", tmp_path / "p.csv"
        model_path.write_text(
            '{"format": "polysid-model", "version": 2, "n": 1, "d_y": 1,'
            ' "f_o": {"n_vars": 2, "k_max": [1, 0], "K": [[1, 0]], "L": [[10.0]]},'
            ' "h_o": {"n_vars": 1, "k_max": [1], "K": [[1]], "L": [[1.0]]},'
            ' "g_io": {"n_vars": 1, "k_max": [0], "K": [[0]], "L": [[1.0]]},'
            ' "t_minus": 1, "scaling": {"std": [1.0]}, "meta": {}}'
        )
        capsys.readouterr()
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: DIVERGENCE: state diverged in series 1 after time 14 (|x| > 1e+12 or NaN)\n"
        )
        assert not out.exists()

    def test_undecodable_model_is_a_parse_error(self, tmp_path, capsys):
        model_path, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "p.csv"
        model_path.write_text('{"format": "polysid-model", "version": 2, "n": ' + "1" * 5000 + "}")
        emit(generate(decay_spec(4), 3), data)
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            "error: PARSE: model document cannot be decoded: Exceeds the limit (4300 digits)"
        )
        assert not out.exists()

    def test_version_1_model_is_a_validation_error(self, tmp_path, capsys):
        doc = json.loads(serialize_model(reference_fixture_model()))
        doc.update(version=1, scaling={"mean": [0.7], "std": [2.0]})
        model_path, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "p.csv"
        model_path.write_text(json.dumps(doc))
        emit(generate(decay_spec(4), 3), data)
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: VALIDATION: model document version 1 is not supported; it must be 2: "
            "identify the model again\n"
        )
        assert not out.exists()

    def test_auxiliary_cells_over_the_cap_are_a_capacity_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # y = x^3 evaluates x^2 and x as auxiliary rows: 2 x 100 series cells.
        monkeypatch.setattr(monomials, "AUX_CELL_CAP", 199)
        model_path, data, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "p.csv"
        self.write_model(model_path, 3)
        emit(generate(decay_spec(100), 3), data)
        assert run(["predict", "--model", model_path, "--data", data, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: CAPACITY: the product chain needs at least 2 auxiliary rows for 100 samples, "
            "more than 199 cells\n"
        )
        assert not out.exists()


class TestConfig:
    @pytest.mark.parametrize(
        "line",
        [
            "max_total_degree_xy = -1",
            "k_max_x = -1",
            "k_max_y2 = -2",
            "scale_gamma = 0",
            "scale_gamma = -1",
            "scale_gamma = inf",
        ],
    )
    def test_bad_structural_value_rejected_by_resolved(self, line):
        ts = generate(decay_spec(20, t_1=12), 5)
        base = (
            "r2 = 0.99\nr4 = 0.01\n"
            "t_plus_max = 2\nt_minus_max = 2\n"
        )
        config_from_kv(base).resolved(ts)
        with pytest.raises(ConfigError) as err:
            config_from_kv(base + line + "\n").resolved(ts)
        assert line.split()[0] in str(err.value)

    @pytest.mark.parametrize(
        "line", ["k_max_x = 1 -1", "k_max_y = 1, 1", "k_max_y =", "k_max_x =", "k_max_y2 ="]
    )
    def test_bound_takes_one_integer(self, line):
        base = "r2 = 0.99\nr4 = 0.01\n"
        with pytest.raises(ParseError) as err:
            config_from_kv(base + line + "\n")
        assert repr(line.split()[0]) in str(err.value)

    @pytest.mark.parametrize("bound", [(1, 2), [1], 1.0, "1"])
    def test_bound_given_as_non_integer_is_a_config_error(self, bound):
        ts = generate(decay_spec(20, t_1=12), 5)
        for name in ("k_max_y", "k_max_x", "k_max_y2"):
            cfg = IdentConfig(r2=0.99, r4=0.01, **{name: bound})
            with pytest.raises(ConfigError, match=f"{name} must be a nonnegative integer"):
                cfg.resolved(ts)

    def test_keys_and_types_follow_the_config_fields(self):
        thresholds = "r2 = 0.9\nr4 = 0.01\n"
        cfg = config_from_kv(
            thresholds
            + "k_max_y = 2\nk_max_x = 3\nt_plus_max = 5\npool_windows = yes\n"
            "scale_gamma = 2\nmax_total_degree_xy = 3\n"
        )
        assert (cfg.r4, cfg.k_max_y, cfg.k_max_x) == (0.01, 2, 3)
        assert (cfg.t_plus_max, cfg.pool_windows, cfg.scale_gamma) == (5, True, 2.0)
        assert cfg.max_total_degree_xy == 3
        with pytest.raises(ConfigError, match="threshold 'r4' is mandatory"):
            config_from_kv(thresholds.replace("r4 = 0.01\n", ""))
        with pytest.raises(ConfigError, match="unknown config keys: colour"):
            config_from_kv(thresholds + "colour = red\n")
        with pytest.raises(ParseError, match="t_plus_max"):
            config_from_kv(thresholds + "t_plus_max = 2.5\n")

    @pytest.mark.parametrize("line", ["scale_outputs = no", "anchor_t = 3", "row_cap = 1000"])
    def test_removed_field_is_an_unknown_key(self, workspace, capsys, line):
        # Ignoring the key would change the model silently: identify refuses it.
        tmp, spec_path, cfg_path = workspace
        data, model_path = tmp / "train.csv", tmp / "model.json"
        assert run(["gen", "--spec", spec_path, "--seed", "5", "--out", data]) == 0
        cfg_path.write_text(CONFIG + line + "\n")
        capsys.readouterr()
        assert run(["identify", "--data", data, "--config", cfg_path,
                    "--out-model", model_path, "--report", tmp / "report.txt"]) == 1
        assert capsys.readouterr().err == (
            f"error: CONFIG: {cfg_path}: unknown config keys: {line.split()[0]}\n"
        )
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "name, value", [("r1", 0.999), ("r3", 0.001), ("block_limit", 2)],
        ids=["r1", "r3", "block_limit"],
    )
    def test_deprecated_r3_warns_and_changes_nothing(self, name, value):
        ts = generate(decay_spec(20, t_1=12), 5)
        plain = config_from_kv(CONFIG)
        with_value = [IdentConfig(**{**plain.__dict__, name: value}),
                      config_from_kv(CONFIG + f"{name} = {value}\n")]
        expected = serialize_model(identify(ts, plain)[0])
        for cfg in with_value:
            assert getattr(cfg, name) == value
            with pytest.warns(FutureWarning, match=f"{name} is ignored"):
                model, _ = identify(ts, cfg)
            assert serialize_model(model) == expected


class TestInspect:
    def test_reference_fixture_output(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(reference_fixture_model()))
        assert run(["inspect", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert "x1*x2*y, x1*x2, x1*y, x1, x2*y, x2" in out
        assert "(-0.0225, 0.0336)" in out
        assert "n = 2" in out

    def test_prints_the_scaling_divisor_and_no_mean(self, tmp_path, capsys):
        model = dataclasses.replace(reference_fixture_model(), scaling=OutputScaling([2.5]))
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(model))
        assert run(["inspect", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert out.endswith("output scaling:\n  std: (2.5,)\n")
        assert "mean" not in out
