"""Property tests: outside input raises only PolysidError; models round-trip;
series files read the same with and without numpy's parser.

Examples are derandomized so that every run checks the same inputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polysid import (
    CapacityError,
    ConfigError,
    DimensionMismatchError,
    IdentConfig,
    InvalidInputError,
    MonomialMap,
    ObserverModel,
    OutputScaling,
    PolysidError,
    PowerMatrix,
    TimeSeriesSet,
    build_data_matrix,
    build_window_vectors,
    deserialize_model,
    enumerate_power_matrix,
    generate,
    identify,
    identity_power_matrix,
    initial_state_from_past,
    lk_reduce,
    mdtrunc,
    predict_one_step,
    serialize_model,
    svd_trunc,
)
from polysid import dataio
from polysid.cli import config_from_kv
from polysid.dataio import ingest_text
from polysid.generate import spec_from_kv, spec_to_kv
from polysid.numred import svd_trunc_chunks

from conftest import linear_spec, random_model

fuzz = settings(max_examples=150, deadline=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def only_polysid_errors(fn, *args) -> None:
    """Call ``fn``; any exception it raises must be a PolysidError."""
    try:
        fn(*args)
    except PolysidError:
        pass


def _paths(node, prefix=()):
    """Every (container, key) position in a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _model_document(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    while True:
        model = random_model(rng)
        if model.g_io is not None and (model.scaling.std != 1).all():
            return json.loads(serialize_model(model))


MODEL_DOCUMENT = _model_document(7)
MODEL_PATHS = list(_paths(MODEL_DOCUMENT))
SPEC_TEXT = spec_to_kv(linear_spec(4, t_1=6))
SPEC_KEYS = [line.split("=")[0].strip() for line in SPEC_TEXT.splitlines()]
CONFIG_KEYS = [
    "r1", "r2", "r3", "r4", "t_plus_min", "t_minus_max", "k_max_y", "k_max_x",
    "pool_windows", "scale_gamma", "max_total_degree_xy", "block_limit",
]
#: Numbers, with the edges of int64 and of float64 drawn often.
numbers = st.integers() | st.floats() | st.sampled_from([2**63, -(2**63) - 1, 10**400])
KV_VALUES = (
    st.text(alphabet="0123456789 .,;-+eEinfatrusyo\t", max_size=16)
    | st.text(max_size=12)
    | st.lists(numbers, min_size=1, max_size=4).map(lambda xs: " ".join(map(str, xs)))
)


@fuzz
@given(st.text())
def test_deserialize_arbitrary_text(text):
    only_polysid_errors(deserialize_model, text)


@fuzz
@given(st.sampled_from(MODEL_PATHS), json_values)
def test_deserialize_corrupted_document(path, value):
    doc = json.loads(json.dumps(MODEL_DOCUMENT))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    only_polysid_errors(deserialize_model, json.dumps(doc))


@fuzz
@given(st.text())
def test_ingest_arbitrary_text(text):
    only_polysid_errors(ingest_text, text)


#: Lines of a series file: text from the CSV alphabet.
near_csv_lines = st.text(alphabet="0123456789,.-+e nainf\r\x00\"", max_size=16)
#: Fields of a series file: numbers, and spellings that ``int`` or ``float``
#: and numpy's parser read differently.
csv_fields = (
    st.integers(-1, 3).map(str)
    | finite.map(repr)
    | st.sampled_from([
        " 1", "+1", "01", "1_0", '"1"', "1.0", "\uff11", "9" * 20, "nan", "-inf",
        "1e400", "1e-400", "0x1", "", " ", "\xa0", "\x1c1", "1\x1f", "\U00010112",
    ])
)
#: Lines of a series file with one or two outputs, mostly malformed.
csv_lines = (
    near_csv_lines
    | st.lists(csv_fields, min_size=3, max_size=4).map(",".join)
    | st.sampled_from(["", "  ", "\t"])
)


@st.composite
def series_files(draw):
    """A valid series file in shuffled order, then up to three edits.

    An edit replaces one field by a drawn one, or inserts or replaces a line.
    """
    d_y = draw(st.integers(1, 2))
    s, t_1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [
        [str(k), str(t), *map(repr, draw(st.lists(finite, min_size=d_y, max_size=d_y)))]
        for k in range(1, s + 1)
        for t in range(1, t_1 + 1)
    ]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["field", "insert", "replace"]))
        if edit == "field":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(csv_fields)
        else:
            rows[i:i + (edit == "replace")] = [[draw(csv_lines)]]
    header = ",".join(["series", "t", *(f"y{j + 1}" for j in range(d_y))])
    return [header, *map(",".join, rows)]


@fuzz
@given(st.lists(near_csv_lines, max_size=6))
def test_ingest_near_csv(rows):
    only_polysid_errors(ingest_text, "series,t,y1\n" + "\n".join(rows))


def _ingest_outcome(text: str):
    try:
        ts = ingest_text(text)
    except PolysidError as exc:
        return type(exc), str(exc)
    return ts.Y.shape, ts.Y.tobytes()


@fuzz
@given(series_files(), st.sampled_from(["\n", "\r\n"]), st.integers(1, 3))
def test_ingest_matches_the_record_parser(lines, newline, chunk_rows):
    text = newline.join(lines) + newline
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "CHUNK_ROWS", chunk_rows)
        both = _ingest_outcome(text)
        mp.setattr(dataio, "_loadtxt_chunks", lambda lines, d_y: None)
        assert both == _ingest_outcome(text)


@fuzz
@given(st.text())
def test_config_arbitrary_text(text):
    only_polysid_errors(config_from_kv, text)


@fuzz
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), KV_VALUES))
def test_config_fuzzed_values(kv):
    text = "\n".join(f"{key} = {value}" for key, value in kv.items())
    only_polysid_errors(config_from_kv, text)


@fuzz
@given(st.text())
def test_spec_arbitrary_text(text):
    only_polysid_errors(spec_from_kv, text)


@fuzz
@given(st.sampled_from(SPEC_KEYS), KV_VALUES)
def test_spec_fuzzed_value(key, value):
    lines = [
        f"{key} = {value}" if line.split("=")[0].strip() == key else line
        for line in SPEC_TEXT.splitlines()
    ]
    only_polysid_errors(spec_from_kv, "\n".join(lines))


#: Sample entries: numbers small enough that no monomial below overflows,
#: the non-finite floats, and entries that are not real numbers at all.
sample_entries = (
    st.floats(-1e3, 1e3)
    | st.integers(-1000, 1000)
    | st.booleans()
    | st.sampled_from([float("nan"), float("inf"), 10**400, 1 + 2j])
    | st.complex_numbers(max_magnitude=1e3)
    | st.text(max_size=4)
    | st.none()
)
samples_like = st.recursive(
    sample_entries, lambda inner: st.lists(inner, max_size=4), max_leaves=12
) | st.builds(
    lambda rows, dtype: np.asarray(rows, dtype=dtype).T,  # samples are the columns
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2), max_size=3),
    st.sampled_from([float, complex, str, object]),
)
POWER_MATRIX = PowerMatrix(np.array([[2, 1], [1, 1], [0, 2], [0, 0]]), (2, 2))


@fuzz
@given(samples_like)
def test_build_data_matrix_arbitrary_samples(samples):
    only_polysid_errors(build_data_matrix, samples, POWER_MATRIX)


#: x(t+1) = 0.1 (x1 + x2 + y), yhat = x1, and x = (y, y) after a window of one output.
GATED_MODEL = ObserverModel(
    n=2, d_y=1,
    f_o=MonomialMap(np.full((2, 3), 0.1), identity_power_matrix(3)),
    h_o=MonomialMap(np.array([[1.0, 0.0]]), identity_power_matrix(2)),
    g_io=MonomialMap(np.ones((2, 1)), identity_power_matrix(1)),
    t_minus=1,
)
GATED_SERIES = TimeSeriesSet(np.zeros((3, 1, 2)))
#: The other entry points that check a caller's array of floats, each called with one.
GATED_ENTRY_POINTS = {
    "TimeSeriesSet": TimeSeriesSet,
    "MonomialMap": lambda a: MonomialMap(a, POWER_MATRIX),
    "OutputScaling": OutputScaling,
    "predict_one_step": lambda a: predict_one_step(GATED_MODEL, GATED_SERIES, a),
    "initial_state_from_past": lambda a: initial_state_from_past(GATED_MODEL, a),
    "mdtrunc": lambda a: mdtrunc(a, 0.5),
    "svd_trunc_chunks": lambda a: svd_trunc_chunks([(a, a)], POWER_MATRIX, 0.5),
    "lk_reduce": lambda a: lk_reduce(a, POWER_MATRIX, 0.5),
    "GeneratorSpec-box": lambda a: dataclasses.replace(linear_spec(2), x0_min=a, x0_max=a),
    "GeneratorSpec-noise_std": lambda a: dataclasses.replace(linear_spec(2), noise_std=a),
}


@pytest.mark.parametrize("entry", GATED_ENTRY_POINTS)
@fuzz
@given(samples=samples_like)
def test_gated_entry_points_arbitrary_arrays(entry, samples):
    only_polysid_errors(GATED_ENTRY_POINTS[entry], samples)


#: An integer of more digits than Python prints.
BIG = 10**5000
#: Values of the wrong type, out of range, or at the edges of int64, float64 and printing.
SCALARS = [
    True, False, np.bool_(True), None, "1", "0.5", math.nan, math.inf, -math.inf, 1.5, 2.0,
    0, -1, np.int8(3), np.uint64(2**63), np.float32(0.5), Fraction(1, 2), Fraction(BIG),
    2**63, BIG, -BIG,
]
SCALAR_SERIES = TimeSeriesSet(np.linspace(-1.0, 1.0, 120).reshape(12, 1, 10))
SCALAR_CONFIG = dict(r2=0.999, r4=0.001, t_plus_max=2, t_minus_max=2)
#: Every caller scalar the integer and real gates check, each called with one.
SCALAR_ENTRY_POINTS = {
    **{
        f"IdentConfig-{name}": lambda v, name=name: identify(
            SCALAR_SERIES, IdentConfig(**{**SCALAR_CONFIG, name: v})
        )
        for name in (
            "r2", "r4", "scale_gamma", "t_plus_max", "t_minus_max", "k_max_y", "k_max_x",
            "k_max_y2", "max_total_degree_xy",
        )
    },
    "build_window_vectors-t": lambda v: build_window_vectors(GATED_SERIES, v, 1, 1),
    "build_window_vectors-t_plus": lambda v: build_window_vectors(GATED_SERIES, 2, v, 1),
    "build_window_vectors-t_minus": lambda v: build_window_vectors(GATED_SERIES, 2, 1, v),
    **{
        f"ObserverModel-{name}": lambda v, name=name: dataclasses.replace(GATED_MODEL, **{name: v})
        for name in ("n", "d_y", "t_minus")
    },
    "predict_one_step-t_start": lambda v: predict_one_step(
        GATED_MODEL, GATED_SERIES, np.zeros((2, 2)), v
    ),
    **{
        f"GeneratorSpec-{name}": lambda v, name=name: generate(
            dataclasses.replace(linear_spec(2, t_1=4), **{name: v}), 1
        )
        for name in ("t_1", "s", "n", "d_y")
    },
    "generate-seed": lambda v: generate(linear_spec(2, t_1=4), v),
    "PowerMatrix-k_max": lambda v: PowerMatrix([[1, 0]], v),
    "PowerMatrix-k_max entry": lambda v: PowerMatrix([[1, 0]], (v, 0)),
    "identity_power_matrix-n": identity_power_matrix,
    "enumerate_power_matrix-n": lambda v: enumerate_power_matrix(v, (1, 1)),
    "enumerate_power_matrix-k_max": lambda v: enumerate_power_matrix(1, v),
    "enumerate_power_matrix-k_max entry": lambda v: enumerate_power_matrix(2, (v, 1)),
    "enumerate_power_matrix-max_degree": lambda v: enumerate_power_matrix(2, (2, 2), max_degree=v),
    "mdtrunc-r": lambda v: mdtrunc([2.0, 1.0], v),
    "svd_trunc-r": lambda v: svd_trunc(np.eye(2), np.eye(2), v),
    "svd_trunc_chunks-r": lambda v: svd_trunc_chunks([(np.eye(2), np.eye(2))], POWER_MATRIX, v),
    "lk_reduce-r": lambda v: lk_reduce(np.ones((1, 4)), POWER_MATRIX, v),
}


@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_gated_entry_points_arbitrary_scalars(entry):
    for value in SCALARS:
        only_polysid_errors(SCALAR_ENTRY_POINTS[entry], value)


#: Calls that ended in a bare ValueError, TypeError or IndexError, or truncated
#: a non-integer silently, each with its error and message.
SCALAR_FAULTS = {
    "resolved-t_plus_max": (
        lambda: IdentConfig(**{**SCALAR_CONFIG, "t_plus_max": BIG}).resolved(SCALAR_SERIES),
        ConfigError, "t_plus_max must be an integer in 1..12, got about 10**5000",
    ),
    "identify-k_max_y": (
        lambda: identify(SCALAR_SERIES, IdentConfig(**SCALAR_CONFIG, k_max_y=BIG)),
        CapacityError,
        "past monomial lifting: power vector set has more than about 10**5000 rows, "
        "exceeding the cap of 1000000; lower k_max_y or t_minus_max",
    ),
    "generate-seed": (
        lambda: generate(linear_spec(2), -BIG),
        InvalidInputError, "seed must be a nonnegative integer, got about -10**5000",
    ),
    "ObserverModel-n": (
        lambda: dataclasses.replace(GATED_MODEL, n=BIG),
        DimensionMismatchError,
        "f_o must map about 10**5000 -> about 10**5000 variables, got 3 -> 2",
    ),
    "predict_one_step-t_start": (
        lambda: predict_one_step(GATED_MODEL, GATED_SERIES, np.zeros((2, 2)), t_start=BIG),
        InvalidInputError, "t_start must be an integer in 1..3, got about 10**5000",
    ),
    "enumerate_power_matrix-k_max": (
        lambda: enumerate_power_matrix(1, (BIG,)),
        CapacityError,
        "power vector set has more than about 10**5000 rows, exceeding the cap of 1000000",
    ),
    "identity_power_matrix-big": (
        lambda: identity_power_matrix(BIG),
        InvalidInputError, "n must be an integer in 1..10000, got about 10**5000",
    ),
    "identity_power_matrix-2.5": (
        lambda: identity_power_matrix(2.5),
        InvalidInputError, "n must be an integer in 1..10000, got 2.5",
    ),
    "mdtrunc": (
        lambda: mdtrunc([1.0], "0.5"),
        InvalidInputError, "threshold r must lie in (0, 1), got '0.5'",
    ),
    "svd_trunc": (
        lambda: svd_trunc(np.eye(2), np.eye(2), "0.5"),
        InvalidInputError, "threshold r must lie in (0, 1), got '0.5'",
    ),
    "lk_reduce": (
        lambda: lk_reduce(np.ones((1, 4)), POWER_MATRIX, None),
        InvalidInputError, "threshold r must lie in (0, 1), got None",
    ),
    "build_window_vectors": (
        lambda: build_window_vectors(SCALAR_SERIES, 5, 1.5, 2),
        InvalidInputError, "t_plus must be an integer in 1..12, got 1.5",
    ),
    "build_window_vectors-t": (
        lambda: build_window_vectors(SCALAR_SERIES, BIG, 1, 2),
        InvalidInputError, "anchor times t must be integers, got about 10**5000",
    ),
    "enumerate_power_matrix-k_max entry": (
        lambda: enumerate_power_matrix(2, (1.7, 1)),
        InvalidInputError, "k_max entry must be a nonnegative integer, got 1.7",
    ),
    "PowerMatrix-k_max entry": (
        lambda: PowerMatrix([[1, 0]], (1.5, 0)),
        InvalidInputError, "k_max entry must be a nonnegative integer, got 1.5",
    ),
    "enumerate_power_matrix-max_degree": (
        lambda: enumerate_power_matrix(2, (1, 1), max_degree=1.5),
        InvalidInputError, "max_degree must be a nonnegative integer, got 1.5",
    ),
    "enumerate_power_matrix-n": (
        lambda: enumerate_power_matrix(2.0, (1, 1)),
        InvalidInputError, "n must be a positive integer, got 2.0",
    ),
}


@pytest.mark.parametrize("fault", SCALAR_FAULTS)
def test_scalar_faults_are_coded_errors(fault):
    call, error, message = SCALAR_FAULTS[fault]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_complex_arrays_raise_without_warning():
    # numpy would drop the imaginary parts with a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^time series Y must be real"):
            TimeSeriesSet(np.ones((3, 1, 2)) * (1 + 2j))
        # Complex values held in an object array, numpy's and Python's.
        for value in (np.complex128(1 + 2j), np.complex64(1), 1 + 2j):
            with pytest.raises(InvalidInputError, match="^time series Y must be real"):
                TimeSeriesSet(np.array([[[0.5, value]]], dtype=object))
        with pytest.raises(InvalidInputError, match="^coefficient matrix L must be real"):
            MonomialMap(np.ones((1, 4)) * (1 + 2j), POWER_MATRIX)


@pytest.mark.parametrize(
    "Y",
    [np.array([[["1.5"]]]), np.array([[[b"1.5"]]]), np.ones((3, 1, 2), dtype=bool)]
    + [np.array([[[0.5, v]]], dtype=object) for v in (True, np.bool_(False), "1.5", b"1.5")],
    ids=["str", "bytes", "bool", "object-bool", "object-np.bool_", "object-str", "object-bytes"],
)
def test_booleans_and_strings_are_not_numbers(Y):
    # numpy would convert each to floats.
    with pytest.raises(InvalidInputError, match="^time series Y must hold numbers"):
        TimeSeriesSet(Y)


@pytest.mark.parametrize(
    "value", ["0.5", b"0.5", True, np.bool_(True)], ids=["str", "bytes", "bool", "np.bool_"]
)
def test_noise_std_of_a_boolean_or_string_is_an_error(value):
    with pytest.raises(InvalidInputError, match="^noise_std must hold numbers"):
        dataclasses.replace(linear_spec(2, t_1=4), noise_std=value)


def test_a_list_mixing_booleans_and_numbers_is_numbers():
    # numpy converts the list to floats before the gate sees it.
    assert TimeSeriesSet([[[0.5, True]]]).Y.tolist() == [[[0.5, 1.0]]]


@fuzz
@given(
    st.recursive(sample_entries, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
    st.lists(sample_entries, max_size=3) | sample_entries,
)
def test_power_matrix_arbitrary_entries(K, k_max):
    only_polysid_errors(lambda: build_data_matrix(np.ones((2, 2)), PowerMatrix(K, k_max)))


@st.composite
def models(draw):
    """Random structure (conftest's ``random_model``) with drawn coefficients."""
    base = random_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    nonzero = finite.filter(bool)  # deserialize_model rejects all-zero columns

    def redraw(M: MonomialMap) -> MonomialMap:
        return MonomialMap(draw(arrays(float, M.L.shape, elements=nonzero)), M.K)

    scaling = OutputScaling(
        draw(arrays(float, base.d_y, elements=st.floats(min_value=1e-300, max_value=1e300)))
    )
    return type(base)(
        n=base.n,
        d_y=base.d_y,
        f_o=redraw(base.f_o),
        h_o=redraw(base.h_o),
        scaling=scaling,
        g_io=None if base.g_io is None else redraw(base.g_io),
        t_minus=base.t_minus,
        meta=base.meta,
    )


@fuzz
@given(models())
def test_serialization_round_trip(model):
    doc = serialize_model(model)
    back = deserialize_model(doc)
    assert serialize_model(back) == doc
    assert np.array_equal(back.f_o.L, model.f_o.L)
