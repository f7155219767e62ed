"""Series files, key-value documents, and synthetic generation."""

from __future__ import annotations

import csv
import dataclasses
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from polysid import dataio
from polysid.dataio import (
    emit,
    emit_text,
    ingest,
    ingest_text,
    kv_bool,
    kv_matrix,
    long_csv_text,
    parse_kv,
)
from polysid.generate import spec_from_kv, spec_to_kv

from conftest import decay_spec, linear_spec, polynomial_spec


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "<string>: empty file, header row required"),
            ("sid,t,y1\n1,1,0.5\n", "<string>: header must be 'series,t,y1,...', got sid,t,y1"),
            ("series,t,a1\n1,1,0.5\n", "<string>: output columns must be y1, got a1"),
            ("series,t,y1\n1,1,0.5\n1,2\n", "<string>:3: expected 3 fields, got 2"),
            ("series,t,y1\n1,1,0.5\n1,x,0.6\n",
             "<string>:3: invalid literal for int() with base 10: 'x'"),
            ("series,t,y1\n1,1,0.5\n1,2,abc\n",
             "<string>:3: could not convert string to float: 'abc'"),
            ("series,t,y1\n1,1,0.5\n1,0,0.6\n", "<string>:3: times must start at 1, got t=0"),
            ("series,t,y1\n1,1,0.5\n1,2,nan\n", "<string>:3: non-finite value 'nan'"),
            ("series,t,y1,y2\n1,1,0.5,inf\n", "<string>:2: non-finite value 'inf'"),
            ("series,t,y1\n1,1,0.5\n1,0,-inf\n", "<string>:3: non-finite value '-inf'"),
            ("series,t,y1\n1,1,0.5\n1,2,0.6\n1,1,0.7\n",
             "<string>: duplicate time t=1 in series 1"),
            ("series,t,y1\n1,1,0.5\n1,2,0.6\n1,2,0.7\n1,1,0.8\n",
             "<string>: duplicate time t=2 in series 1"),
            ("series,t,y1\n2,1,0.5\n2,3,0.7\n2,2,0.6\n1,1,0.5\n1,3,0.7\n",
             "<string>: missing time t=2 in series 1"),
            ("series,t,y1\n1,1,0.5\n1,2,0.6\n2,1,0.5\n",
             "<string>: missing time t=2 in series 2"),
            ("series,t,y1\n\n", "<string>: no data rows"),
        ],
    )
    def test_fault_messages(self, text, message):
        with pytest.raises(FormatError) as err:
            ingest_text(text)
        assert str(err.value) == message

    def test_far_time_fails_before_allocating(self):
        with pytest.raises(FormatError, match="^<string>: missing time t=1 in series 1$"):
            ingest_text("series,t,y1\n1,1000000000000,0.5\n")

    def test_series_ids_beyond_int64(self):
        ts = ingest_text("series,t,y1\n100000000000000000000,1,0.5\n1,1,0.25\n")
        assert np.array_equal(ts.Y, [[[0.25, 0.5]]])

    @pytest.mark.parametrize(
        "rows, c_parser_reads",
        [
            ('"1",1,0.5\n"1",2,"0.25"\n', False),  # quoted fields
            ('"1\n",1,0.5\n1,2,0.25\n', False),  # a quoted newline
            ("1_0,1,0.5\n1_0,2,0.25\n", False),  # an underscore in an id
            ("1,1,0.5\n   \n1,2,0.25\n", False),  # a whitespace-only line
            ("\uff11,1,0.5\n\uff11,2,0.25\n", False),  # full-width digits
            ("1,1,0.5\r\n1,2,0.25\r\n", True),  # CRLF line endings
            ("1,1,0.5\n\n1,2,0.25\n\n", True),  # empty lines
        ],
        ids=["quoted", "quoted-newline", "underscore", "whitespace-line", "full-width",
             "crlf", "empty-lines"],
    )
    def test_files_either_parser_reads(self, rows, c_parser_reads):
        lines = io.StringIO(rows)
        assert (dataio._loadtxt_chunks(lines, 1) is not None) is c_parser_reads
        assert ingest_text("series,t,y1\n" + rows) == TimeSeriesSet([[[0.5]], [[0.25]]])

    @pytest.mark.parametrize(
        "row, message",
        [
            # numpy 1.23 reads "1.0" into an integer column with a warning.
            ("1.0,2,0.25", "invalid literal for int() with base 10: '1.0'"),
            # numpy strips the separator characters as whitespace ...
            ("1,2,0.25\x1c", "could not convert string to float: '0.25\\x1c'"),
            ("1,\x1f2,0.25", "invalid literal for int() with base 10: '\\x1f2'"),
            # ... and reads U+10112 in an integer column as a number.
            ("\U00010112,2,0.25", "invalid literal for int() with base 10: '\U00010112'"),
        ],
    )
    def test_fields_numpy_reads_are_faults(self, row, message):
        with pytest.raises(FormatError) as err:
            ingest_text(f"series,t,y1\n1,1,0.5\n{row}\n")
        assert str(err.value) == f"<string>:3: {message}"

    # In chunks of 4 records: the second chunk is blank, the third ends blank.
    CHUNKED = ["1,1,0.5", "", "1,2,0.6", "  ", "", "", "", "", "1,3,0.7",
               "2,1,1.5", "2,2,1.6", "", "2,3,1.7", "3,1,2.5", "3,2,2.6", "3,3,2.7"]

    def test_blank_lines_inside_and_across_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 4)
        ts = ingest_text("series,t,y1\n" + "\n".join(self.CHUNKED) + "\n")
        assert np.array_equal(ts.Y[:, 0, :], [[0.5, 1.5, 2.5], [0.6, 1.6, 2.6], [0.7, 1.7, 2.7]])

    @pytest.mark.parametrize("index", [8, 11, 15])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,3", "expected 3 fields, got 2"),
            ("3,3,x", "could not convert string to float: 'x'"),
            ("3,-2,0.5", "times must start at 1, got t=-2"),
            ("3,3,nan", "non-finite value 'nan'"),
            ("3,3,inf", "non-finite value 'inf'"),
            ("3,3,-inf", "non-finite value '-inf'"),
        ],
    )
    def test_faults_after_the_first_chunk_name_their_line(self, monkeypatch, index, row, message):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 4)
        rows = list(self.CHUNKED)
        rows[index] = row
        with pytest.raises(FormatError) as err:
            ingest_text("series,t,y1\n" + "\n".join(rows) + "\n")
        assert str(err.value) == f"<string>:{index + 2}: {message}"

    @pytest.mark.parametrize(
        "bad, long, first",
        [
            (1, 2, "long"),  # in one chunk, the CSV error comes first
            (2, 1, "long"),
            (1, 5, "bad"),  # in two chunks, the first fault in file order
            (5, 1, "long"),
        ],
    )
    def test_csv_error_comes_first_in_its_chunk(self, monkeypatch, bad, long, first):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 4)
        limit = csv.field_size_limit()
        rows = list(self.CHUNKED)
        rows[bad] = "3,3,x"
        rows[long] = "3,3," + "1" * (limit + 1)
        messages = {
            "bad": f"<string>:{bad + 2}: could not convert string to float: 'x'",
            "long": f"<string>:{long + 2}: field larger than field limit ({limit})",
        }
        with pytest.raises(FormatError) as err:
            ingest_text("series,t,y1\n" + "\n".join(rows) + "\n")
        assert str(err.value) == messages[first]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_chunks_of_empty_lines_stay_with_the_c_parser(self, monkeypatch, tmp_path, newline):
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 4)
        rows = newline * 4 + "1,1,0.5" + newline + newline * 5 + "1,2,0.25" + newline
        assert dataio._loadtxt_chunks(io.StringIO(rows, newline=""), 1)
        # A chunk with a whitespace-only line is still the record parser's.
        assert dataio._loadtxt_chunks(io.StringIO(" " + rows, newline=""), 1) is None
        # From disk too, through both parsers.
        path = tmp_path / "series.csv"
        path.write_text("series,t,y1" + newline + rows, encoding="utf-8", newline="")
        expected = TimeSeriesSet([[[0.5]], [[0.25]]])
        assert ingest(path) == expected
        monkeypatch.setattr(dataio, "_loadtxt_chunks", lambda lines, d_y: None)
        assert ingest(path) == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("rows", [["1,1,0.5", "1,2,0.25"], ['"1",1,0.5', "1,2,0.25"]],
                             ids=["c-parser", "record-parser"])
    def test_text_reads_as_the_same_file(self, tmp_path, newline, rows):
        text = newline.join(["series,t,y1", *rows]) + newline
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert ingest_text(text) == ingest(path) == TimeSeriesSet([[[0.5]], [[0.25]]])

    def test_emit_golden(self):
        Y = np.empty((2, 2, 2))
        Y[:, :, 0] = [[1e-05, 1e16], [-0.0, 5e-324]]
        Y[:, :, 1] = [[0.5, -2.0], [3.0, 1.25]]
        assert emit_text(TimeSeriesSet(Y)) == (
            "series,t,y1,y2\n"
            "1,1,1e-05,1e+16\n"
            "1,2,-0.0,5e-324\n"
            "2,1,0.5,-2.0\n"
            "2,2,3.0,1.25\n"
        )

    @pytest.mark.parametrize("shape", [(0, 2, 3), (3, 2, 0)])
    def test_long_csv_without_rows_is_the_header(self, shape):
        assert long_csv_text(["a", "b"], np.zeros(shape), t_start=4) == "series,t,a,b\n"

    def test_long_csv_without_columns(self):
        assert long_csv_text([], np.zeros((2, 0, 1)), t_start=4) == "series,t,\n1,4,\n1,5,\n"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_shuffled_chunked_round_trip(self, data):
        d_y = data.draw(st.integers(1, 3))
        t_1 = data.draw(st.integers(1, 6))
        s = data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        Y = data.draw(arrays(np.float64, (t_1, d_y, s), elements=finite))
        with mock.patch.object(dataio, "CHUNK_ROWS", data.draw(st.integers(1, 2 * s * t_1))):
            header, *rows = emit_text(TimeSeriesSet(Y)).splitlines()
            rows = data.draw(st.permutations(rows))
            again = ingest_text("\n".join([header, *rows]) + "\n")
        assert again.Y.tobytes() == Y.tobytes()


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

    @pytest.mark.parametrize("field", ["t_1", "s", "n", "d_y"])
    @pytest.mark.parametrize("value", ["5", 5.0, True, None])
    def test_spec_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got "):
            dataclasses.replace(linear_spec(5, t_1=8), **{field: value})


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

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "1", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be a nonnegative integer, got "):
            generate(decay_spec(2, t_1=3), seed)

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

    def test_holds_one_working_copy_of_the_series(self):
        # The recursion's outputs, the set's own copy of them and that copy's
        # finiteness mask peak at 2.18 times the set's size; one more working
        # copy of the series, noisy beside noise-free, reads 2.40 times.
        spec = dataclasses.replace(polynomial_spec(20000, t_1=40), noise_std=0.01)
        generate(dataclasses.replace(spec, s=10), 1)  # warm-up, outside the trace
        tracemalloc.start()
        try:
            ts = generate(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ts.Y.nbytes == 6_400_000
        assert peak < 2.3 * ts.Y.nbytes

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
