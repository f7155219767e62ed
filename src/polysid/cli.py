"""Command-line interface: gen, identify, predict, evaluate, inspect."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from . import dataio
from .errors import ConfigError, PolysidError
from .generate import generate, spec_from_kv
from .model import (
    ObserverModel,
    deserialize_model,
    predict_with_burn_in,
    serialize_model,
)
from .monomials import monomial_name
from .pipeline import IdentConfig, IdentDiagnostics, identify


_KV_PARSERS = {bool: dataio.kv_bool, int: dataio.kv_int, float: dataio.kv_float}


def config_from_kv(text: str, origin: str = "<config>") -> IdentConfig:
    """Build an IdentConfig from a flat key-value document.

    The keys are the fields of :class:`IdentConfig`, each parsed by its
    type: one boolean, integer or number per key, so an exponent bound is a
    single integer.  The thresholds r2 and r4 are mandatory; structural
    parameters fall back to their defaults (echoed into the identification
    report).  The deprecated ``r1``, ``r3``, ``block_limit``, ``t_plus_min``
    and ``t_minus_min`` are still accepted and ignored.
    """
    kv = dataio.parse_kv(text, origin)
    fields = dataclasses.fields(IdentConfig)
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in kv:
            raise ConfigError(f"{origin}: threshold {f.name!r} is mandatory")
    unknown = set(kv) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{origin}: unknown config keys: {', '.join(sorted(unknown))}")

    hints = typing.get_type_hints(IdentConfig)
    kwargs = {}
    for key, raw in kv.items():
        kind = next(k for k in typing.get_args(hints[key]) or (hints[key],) if k is not type(None))
        kwargs[key] = _KV_PARSERS[kind](raw, key)
    return IdentConfig(**kwargs)


def render_report(diag: IdentDiagnostics) -> str:
    """Plain-text diagnostics report with fixed section headers."""
    lines: list[str] = []
    lines.append("CONFIG")
    for key, value in diag.config_echo.items():
        lines.append(f"{key} = {value}")
    lines.append("")

    (rec,) = diag.reductions
    lines.append("HORIZONS")
    lines.append(f"columns = {diag.n_columns}")
    lines.append(f"rows_presented = {rec.rows_presented}")
    lines.append(f"rows_kept = {rec.rows_kept}")
    lines.append("")

    lines.append("TABLE1")
    lines.append(rec.table1.to_text())
    lines.append("")

    lines.append("TABLE2")
    lines.append(diag.table2.to_text())
    lines.append("")

    lines.append("GENERATORS")
    lines.append(f"retained_rank_n1 = {diag.n1}")
    lines.append(f"retained_rank_n2 = {diag.n2}")
    lines.append(f"f_monomials_before = {diag.f_monomials_before}")
    lines.append(f"f_monomials_after = {diag.f_monomials_after}")
    lines.append("")

    lines.append("RESIDUALS")
    lines.append(f"training_relative_rmse = {diag.training_relative_rmse:.6g}")
    lines.append("series rmse")
    for k, v in enumerate(diag.training_rmse_per_series, start=1):
        lines.append(f"{k} {v:.6g}")
    return "\n".join(lines) + "\n"


def _model_var_names(model: ObserverModel) -> tuple[list[str], list[str]]:
    x_names = [f"x{i + 1}" for i in range(model.n)]
    y_names = ["y"] if model.d_y == 1 else [f"y{j + 1}" for j in range(model.d_y)]
    return x_names, y_names


def cmd_gen(args: argparse.Namespace) -> int:
    spec = spec_from_kv(dataio.read_document(args.spec), args.spec)
    ts = generate(spec, args.seed)
    dataio.emit(ts, args.out)
    print(f"wrote {ts.s} series of length {ts.t_1} (d_y={ts.d_y}) to {args.out}")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    ts = dataio.ingest(args.data)
    cfg = config_from_kv(dataio.read_document(args.config), args.config)
    model, diag = identify(ts, cfg)
    Path(args.out_model).write_text(serialize_model(model) + "\n")
    Path(args.report).write_text(render_report(diag))
    print(
        f"identified n={model.n} state model; training relative RMSE "
        f"{diag.training_relative_rmse:.3g}; model -> {args.out_model}, "
        f"report -> {args.report}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = deserialize_model(dataio.read_document(args.model))
    ts = dataio.ingest(args.data)
    report = predict_with_burn_in(model, ts)
    d = model.d_y
    columns = [f"yhat{i + 1}" for i in range(d)] + [f"resid{i + 1}" for i in range(d)]
    values = np.concatenate([report.predictions, report.residuals], axis=1)
    with open(args.out, "w", encoding="utf-8") as fh:
        dataio.write_long_csv(fh, columns, values, report.t_start)
    print(
        f"predicted t={report.t_start}..{ts.t_1} for {ts.s} series; max relative "
        f"RMSE {report.max_relative_rmse:.3g}; wrote {args.out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = deserialize_model(dataio.read_document(args.model))
    ts = dataio.ingest(args.data)
    report = predict_with_burn_in(model, ts)
    print("dimension rmse relative_rmse")
    for i in range(model.d_y):
        print(f"y{i + 1} {report.rmse[i]:.9g} {report.relative_rmse[i]:.9g}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = deserialize_model(dataio.read_document(args.model))
    x_names, y_names = _model_var_names(model)
    print(f"n = {model.n}")
    print(f"d_y = {model.d_y}")
    for name, M, var_names in (("h_o", model.h_o, x_names), ("f_o", model.f_o, x_names + y_names)):
        print(f"{name} basis: {', '.join(monomial_name(k, var_names) for k in M.K.K)}")
        print(f"{name} coefficients:")
        for row in M.L:
            print("  (" + ", ".join(repr(float(v)) for v in row) + ")")
    print("output scaling:")
    print(f"  std: {tuple(float(v) for v in model.scaling.std)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polysid",
        description=(
            "Identify discrete-time polynomial observer models from output "
            "time series and evaluate their one-step predictions."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("gen", help="generate synthetic series from a generator spec")
    pg.add_argument("--spec", required=True, help="generator spec document")
    pg.add_argument("--seed", required=True, type=int, help="PRNG seed")
    pg.add_argument("--out", required=True, help="output series file")
    pg.set_defaults(func=cmd_gen)

    pi = sub.add_parser("identify", help="identify an observer model from series")
    pi.add_argument("--data", required=True, help="input series file")
    pi.add_argument("--config", required=True, help="identification config document")
    pi.add_argument("--out-model", required=True, help="output model document")
    pi.add_argument("--report", required=True, help="output diagnostics report")
    pi.set_defaults(func=cmd_identify)

    pp = sub.add_parser("predict", help="one-step predictions on a series file")
    pp.add_argument("--model", required=True, help="model document")
    pp.add_argument("--data", required=True, help="input series file")
    pp.add_argument("--out", required=True, help="output predictions file")
    pp.set_defaults(func=cmd_predict)

    pe = sub.add_parser("evaluate", help="print per-dimension prediction RMSE")
    pe.add_argument("--model", required=True, help="model document")
    pe.add_argument("--data", required=True, help="input series file")
    pe.set_defaults(func=cmd_evaluate)

    ps = sub.add_parser("inspect", help="print a model in human-readable form")
    ps.add_argument("--model", required=True, help="model document")
    ps.set_defaults(func=cmd_inspect)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolysidError as exc:
        message = str(exc).splitlines() or [""]
        print(f"error: {exc.code}: {message[0]}", file=sys.stderr)
        for extra in message[1:]:
            print(extra, file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
