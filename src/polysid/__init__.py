"""polysid: identification of discrete-time polynomial observer systems.

The package identifies an observer model

    x(t+1) = f_o(x(t), y(t)),      yhat(t | t-1) = h_o(x(t)),

with polynomial ``f_o`` and ``h_o``, from finite sets of output time series,
and evaluates it by one-step-ahead prediction.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    InvalidInputError,
    NumericalOverflowError,
    ParseError,
    PolysidError,
    RankDeficiencyError,
    ValidationError,
)
from .genred import MonomialMap
from .generate import GeneratorSpec, generate
from .model import (
    ObserverModel,
    OutputScaling,
    PredictionReport,
    deserialize_model,
    initial_state_from_past,
    predict_one_step,
    predict_with_burn_in,
    serialize_model,
)
from .monomials import (
    PowerMatrix,
    build_data_matrix,
    enumerate_power_matrix,
    identity_power_matrix,
)
from .numred import SvdTruncResult, TruncationTable, lk_reduce, mdtrunc, svd_trunc
from .pipeline import IdentConfig, IdentDiagnostics, build_window_vectors, identify
from .series import TimeSeriesSet

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "DimensionMismatchError",
    "DivergenceError",
    "FormatError",
    "GeneratorSpec",
    "IdentConfig",
    "IdentDiagnostics",
    "InvalidInputError",
    "MonomialMap",
    "NumericalOverflowError",
    "ObserverModel",
    "OutputScaling",
    "ParseError",
    "PolysidError",
    "PowerMatrix",
    "PredictionReport",
    "RankDeficiencyError",
    "SvdTruncResult",
    "TimeSeriesSet",
    "TruncationTable",
    "ValidationError",
    "build_data_matrix",
    "build_window_vectors",
    "deserialize_model",
    "enumerate_power_matrix",
    "generate",
    "identify",
    "identity_power_matrix",
    "initial_state_from_past",
    "lk_reduce",
    "mdtrunc",
    "predict_one_step",
    "predict_with_burn_in",
    "serialize_model",
    "svd_trunc",
]
