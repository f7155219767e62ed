"""Series files, key-value documents, and synthetic generation."""

from __future__ import annotations

import numpy as np
import pytest

from polysid import (
    DivergenceError,
    FormatError,
    GeneratorSpec,
    InvalidInputError,
    MonomialMap,
    ParseError,
    PowerMatrix,
    TimeSeriesSet,
    generate,
    identity_power_matrix,
)
from polysid.dataio import (
    emit,
    emit_text,
    ingest,
    ingest_text,
    kv_bool,
    kv_matrix,
    parse_kv,
)
from polysid.generate import spec_from_kv, spec_to_kv

from conftest import decay_spec, linear_spec


class TestIngest:
    def test_two_series(self):
        text = "series,t,y1\n1,1,0.5\n1,2,0.6\n1,3,0.7\n2,1,1.5\n2,2,1.6\n2,3,1.7\n"
        ts = ingest_text(text)
        assert (ts.t_1, ts.d_y, ts.s) == (3, 1, 2)
        assert ts.Y[1, 0, 1] == 1.6

    def test_order_independent(self):
        shuffled = "series,t,y1\n2,3,1.7\n1,2,0.6\n2,1,1.5\n1,1,0.5\n1,3,0.7\n2,2,1.6\n"
        ts = ingest_text(shuffled)
        assert ts.Y[0, 0, 0] == 0.5
        assert ts.Y[2, 0, 1] == 1.7

    def test_missing_time_named(self):
        text = "series,t,y1\n1,1,0.5\n1,3,0.7\n"
        with pytest.raises(FormatError) as err:
            ingest_text(text)
        assert "t=2" in str(err.value) and "series 1" in str(err.value)

    def test_duplicate_time(self):
        text = "series,t,y1\n1,1,0.5\n1,1,0.6\n"
        with pytest.raises(FormatError) as err:
            ingest_text(text)
        assert "duplicate" in str(err.value)

    def test_ragged_row(self):
        text = "series,t,y1,y2\n1,1,0.5\n"
        with pytest.raises(FormatError):
            ingest_text(text)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            ingest_text("sid,t,y1\n1,1,0.5\n")
        with pytest.raises(FormatError):
            ingest_text("series,t,a1\n1,1,0.5\n")

    def test_round_trip_is_canonical(self, rng, tmp_path):
        for seed in range(5):
            ts = generate(linear_spec(4, t_1=6), seed)
            path = tmp_path / f"series_{seed}.csv"
            emit(ts, path)
            again = ingest(path)
            assert np.array_equal(again.Y, ts.Y)
            assert emit_text(again) == emit_text(ts)


class TestKeyValueDocs:
    def test_parse_with_comments(self):
        kv = parse_kv("# heading\nr1 = 0.9 # trailing\n\nname = x\n")
        assert kv == {"r1": "0.9", "name": "x"}

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_kv("r1 0.9\n", origin="cfg")
        assert "cfg:1" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_kv("a = 1\na = 2\n")

    def test_matrix_parsing(self):
        M = kv_matrix("1 2 ; 3 4", "m")
        assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ParseError):
            kv_matrix("1 2 ; 3", "m")

    def test_bool_parsing(self):
        assert kv_bool("true", "b") is True
        assert kv_bool("off", "b") is False
        with pytest.raises(ParseError):
            kv_bool("maybe", "b")

    def test_generator_spec_round_trip(self):
        spec = linear_spec(5, t_1=8)
        text = spec_to_kv(spec)
        back = spec_from_kv(text)
        assert back.n == spec.n and back.d_y == spec.d_y
        assert np.array_equal(back.f.L, spec.f.L)
        assert np.array_equal(back.f.K.K, spec.f.K.K)
        assert np.array_equal(back.h.L, spec.h.L)
        assert back.x0_min == spec.x0_min and back.x0_max == spec.x0_max
        assert back.t_1 == spec.t_1 and back.s == spec.s

    def test_spec_missing_key(self):
        with pytest.raises(ParseError):
            spec_from_kv("n = 1\n")

    @pytest.mark.parametrize(
        "key, value",
        [("noise_std", "nan"), ("noise_std", "inf"), ("x0_min", "-inf -1.0"),
         ("x0_max", "1.0 inf"), ("x0_min", "nan nan")],
    )
    def test_spec_rejects_non_finite(self, key, value):
        text = spec_to_kv(linear_spec(5, t_1=8))
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in text.splitlines()
        ]
        with pytest.raises(InvalidInputError, match=key):
            spec_from_kv("\n".join(lines))


class TestGenerate:
    def test_decay_trajectory(self):
        spec = decay_spec(3, t_1=4, x0_lo=1.0, x0_hi=1.0)
        ts = generate(spec, 42)
        expected = np.array([1.0, 0.5, 0.25, 0.125])
        for k in range(3):
            assert ts.Y[:, 0, k] == pytest.approx(expected, abs=1e-15)

    def test_single_step(self, rng):
        spec = decay_spec(5, t_1=1)
        ts = generate(spec, 3)
        assert ts.t_1 == 1
        assert (np.abs(ts.Y) <= 1.0).all()

    def test_deterministic(self):
        spec = linear_spec(6, t_1=9)
        a = generate(spec, 123)
        b = generate(spec, 123)
        assert np.array_equal(a.Y, b.Y)
        c = generate(spec, 124)
        assert not np.array_equal(a.Y, c.Y)

    def test_noise_feeds_back_through_dynamics(self):
        # x(t+1) = 0.3 y(t): with zero initial state the state is driven
        # purely by the measured (noisy) output
        f = MonomialMap(np.array([[0.0, 0.3]]), identity_power_matrix(2))
        h = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        spec = GeneratorSpec(
            n=1, d_y=1, f=f, h=h, x0_min=(0.0,), x0_max=(0.0,),
            noise_std=0.5, t_1=3, s=400,
        )
        ts = generate(spec, 7)
        Y = ts.Y[:, 0, :]
        # at t=1 the outputs are pure noise, y(1) = e(1); at t=2 the state
        # echoes it, y(2) = 0.3 e(1) + e(2).  Removing the echo leaves the
        # innovations y(t+1) - 0.3 y(t) = e(t+1).
        innovations = Y[1:] - 0.3 * Y[:-1]
        # The bound is the population correlation rho = 0.3 / sqrt(1 + 0.3^2)
        # of y(2) with y(1), plus or minus 4 standard errors of a sample
        # correlation over s series, (1 - rho^2) / sqrt(s).
        rho = 0.3 / np.sqrt(1 + 0.3**2)
        sigma = (1 - rho**2) / np.sqrt(spec.s)
        corr = np.corrcoef(Y[1], Y[0])[0, 1]
        assert abs(Y[0].std() - 0.5) < 0.1
        assert abs(corr - rho) < 4 * sigma
        assert innovations[0].std() == pytest.approx(0.5, abs=0.1)
        # e(t+1) is independent of y(t): population correlation 0, standard
        # error 1 / sqrt(s).  Feeding the noiseless output into f instead
        # would make it about -rho at each step; the two steps together keep
        # such a generate from passing by chance.
        for innovation, y in zip(innovations, Y[:-1]):
            assert abs(np.corrcoef(innovation, y)[0, 1]) < 4 / np.sqrt(spec.s)

    def test_divergence_guard(self):
        f = MonomialMap(np.array([[3.0, 0.0]]), identity_power_matrix(2))
        h = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        spec = GeneratorSpec(
            n=1, d_y=1, f=f, h=h, x0_min=(2.0,), x0_max=(2.0,),
            noise_std=0.0, t_1=200, s=1,
        )
        with pytest.raises(DivergenceError, match="series 1 after time"):
            generate(spec, 1)

    def test_arity_validation(self):
        f = MonomialMap(np.array([[0.5]]), PowerMatrix(np.array([[1, 0]]), (1, 0)))
        h = MonomialMap(np.array([[1.0]]), identity_power_matrix(1))
        with pytest.raises(Exception):
            GeneratorSpec(n=2, d_y=1, f=f, h=h, x0_min=(0.0, 0.0), x0_max=(1.0, 1.0),
                          noise_std=0.0, t_1=5, s=1)
