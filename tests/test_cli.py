"""End-to-end command-line flows."""

from __future__ import annotations

import numpy as np
import pytest

from polysid import (
    ConfigError,
    IdentConfig,
    ParseError,
    deserialize_model,
    identify,
    serialize_model,
)
from polysid.cli import config_from_kv, main
from polysid.dataio import emit
from polysid.generate import spec_to_kv, generate

from conftest import decay_spec, linear_spec, reference_fixture_model

CONFIG = """\
r1 = 0.999
r2 = 0.999
r4 = 0.001
t_plus_min = 2
t_minus_min = 2
t_plus_max = 2
t_minus_max = 2
k_max_y = 1
"""


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
        model = ObserverModel(n=1, d_y=1, f_o=f_o, h_o=h_o, X0=np.ones((1, 1)),
                              g_io=g_io, t_minus=1)
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
        bad_cfg.write_text("r1 = 0.9\nr2 = 0.9\n")
        code = run(["identify", "--data", data, "--config", bad_cfg,
                    "--out-model", tmp / "m.json", "--report", tmp / "r.txt"])
        err = capsys.readouterr().err
        assert code != 0
        assert "error: CONFIG:" in err

    def test_missing_data_file_is_handled(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(reference_fixture_model()))
        code = run(["predict", "--model", model_path, "--data", tmp_path / "nope.csv",
                    "--out", tmp_path / "p.csv"])
        err = capsys.readouterr().err
        assert code != 0
        assert "error: IO:" in err


class TestConfig:
    @pytest.mark.parametrize(
        "line",
        [
            "max_total_degree_xy = -1",
            "k_max_x = -1",
            "k_max_x = 1 -1",
            "k_max_y =",
            "k_max_x =",
            "k_max_y2 =",
            "row_cap = 0",
            "scale_gamma = 0",
            "scale_gamma = -1",
        ],
    )
    def test_bad_structural_value_rejected_by_resolved(self, line):
        ts = generate(decay_spec(20, t_1=12), 5)
        base = (
            "r1 = 0.99\nr2 = 0.99\nr4 = 0.01\n"
            "t_plus_max = 2\nt_minus_max = 2\n"
        )
        config_from_kv(base).resolved(ts)
        with pytest.raises(ConfigError) as err:
            config_from_kv(base + line + "\n").resolved(ts)
        assert line.split()[0] in str(err.value)

    def test_keys_and_types_follow_the_config_fields(self):
        thresholds = "r1 = 0.9\nr2 = 0.9\nr4 = 0.01\n"
        cfg = config_from_kv(
            thresholds
            + "k_max_y = 2\nk_max_x = 1 2\nanchor_t = 5\npool_windows = yes\n"
            "scale_gamma = 2\nmax_total_degree_xy = 3\n"
        )
        assert (cfg.r4, cfg.k_max_y, cfg.k_max_x) == (0.01, 2, (1, 2))
        assert (cfg.anchor_t, cfg.pool_windows, cfg.scale_gamma) == (5, True, 2.0)
        assert cfg.max_total_degree_xy == 3
        with pytest.raises(ConfigError, match="threshold 'r4' is mandatory"):
            config_from_kv(thresholds.replace("r4 = 0.01\n", ""))
        with pytest.raises(ConfigError, match="unknown config keys: colour"):
            config_from_kv(thresholds + "colour = red\n")
        with pytest.raises(ParseError, match="anchor_t"):
            config_from_kv(thresholds + "anchor_t = 2.5\n")

    @pytest.mark.parametrize(
        "name, value", [("r3", 0.001), ("block_limit", 2)], ids=["r3", "block_limit"]
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
