"""Benchmark of polysid: identification, batch prediction and the CLI round trip.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ident_pooled --seed 1 --seconds 20 --trace 0

The process pins BLAS to one thread, builds its inputs from ``--seed``,
sets up several times (input generation plus one untimed warm-up
operation), then runs the workload's operation until ``--seconds`` have
passed, checking every output.  With ``--trace 1`` it alternates untraced
and traced operations and reports per-layer metrics from the spans.

It prints a full report as one JSON line, then, as the last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The report, and
the spans of a traced run, are also written to ``bench/results/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import
# Compile from source on every run, so the first run in a checkout sets up
# like every later one and leaves no bytecode behind.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: Setups per run; ``setup_s`` is the import time plus their median.
SETUP_REPEATS = 3

#: name -> (unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = {
    "op_s": ("s", "lower"),
    "series_steps_per_s": ("1/s", "higher"),
    "model_n": ("count", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, source).  ``timed`` values are span self times,
#: ``counted`` ones are counted by the tracer or reported by polysid, and
#: ``computed`` ones are derived from shapes or sizes.
PER_LAYER = {
    "numred.svd_trunc.self_s": ("s", "lower", "timed"),
    "numred.svd_trunc.calls": ("count", "lower", "counted"),
    "numred.svd_trunc.input_cells": ("count", "lower", "computed"),
    "numred.lk_reduce.self_s": ("s", "lower", "timed"),
    "numred.lk_reduce.kept_frac": ("ratio", "higher", "computed"),
    "monomials.enumerate_power_matrix.self_s": ("s", "lower", "timed"),
    "monomials.enumerate_power_matrix.rows": ("count", "lower", "computed"),
    "pipeline.xy_dictionary.kept_frac": ("ratio", "higher", "computed"),
    "monomials.build_data_matrix.self_s": ("s", "lower", "timed"),
    "monomials.build_data_matrix.calls": ("count", "lower", "counted"),
    "monomials.build_data_matrix.cells": ("count", "lower", "computed"),
    "monomials.partition_power_matrix.self_s": ("s", "lower", "timed"),
    "monomials.merge_power_matrices.self_s": ("s", "lower", "timed"),
    "genred.eliminate_products.self_s": ("s", "lower", "timed"),
    "genred.eliminated": ("count", "higher", "computed"),
    "genred.eval_monomial_map_many.self_s": ("s", "lower", "timed"),
    "genred.eval_monomial_map_many.calls": ("count", "lower", "counted"),
    "model.initial_state_from_past.self_s": ("s", "lower", "timed"),
    "model.predict_one_step.self_s": ("s", "lower", "timed"),
    "pipeline.build_window_vectors.self_s": ("s", "lower", "timed"),
    "pipeline.eval_many_checked.self_s": ("s", "lower", "timed"),
    "pipeline.identify.self_s": ("s", "lower", "timed"),
    "pipeline.reductions": ("count", "lower", "counted"),
    "pipeline.n1": ("count", "lower", "counted"),
    "pipeline.columns": ("count", "lower", "counted"),
    "dataio.ingest.self_s": ("s", "lower", "timed"),
    "dataio.ingest.rows": ("count", "lower", "computed"),
    "dataio.emit.self_s": ("s", "lower", "timed"),
    "dataio.emit.rows": ("count", "lower", "computed"),
    "model.serialize_model.self_s": ("s", "lower", "timed"),
    "model.serialize_model.bytes": ("bytes", "lower", "computed"),
    "model.deserialize_model.self_s": ("s", "lower", "timed"),
    "model.deserialize_model.bytes": ("bytes", "lower", "computed"),
    "cli.cmd_predict.self_s": ("s", "lower", "timed"),
    "generate.generate.self_s": ("s", "lower", "timed"),
    "trace.unattributed_s": ("s", "lower", "timed"),
    "trace.overhead_s": ("s", "lower", "timed"),
    "quality.heldout_rel_rmse": ("ratio", "lower", "computed"),
}

#: Per-layer names that differ from their key in the traced profile.
PROFILE_KEYS = {
    "genred.eliminated": "genred.eliminate_products.eliminated",
    "pipeline.reductions": "pipeline.identify.reductions",
    "pipeline.n1": "pipeline.identify.n1",
    "pipeline.columns": "pipeline.identify.columns",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("ident_pooled", "predict_batch", "cli_roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    p.add_argument("--emit-model", action="store_true",
                   help="print the predict_batch model document and exit (set-up helper)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not args.emit_model and args.workload is None:
        p.error("--workload is required")
    return args


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (None if too few)."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(xs), "value": xs[k - 1]}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(wl, seconds: float, tracer) -> list[tuple[int, bool, object]]:
    """Run whole cycles over the inputs for about ``seconds``.

    Another cycle starts only if it would end nearer to ``seconds`` than
    stopping now.  Returns ``(input, traced, OpResult)`` per operation.
    With a tracer, each untraced operation is followed by a traced one on
    the same input.
    """
    ops = []
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for i in range(wl.inputs):
            for traced in (False, True) if tracer else (False,):
                gc.collect()
                ops.append((i, traced, wl.run(i, tracer if traced else None)))
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) / 2 >= seconds:
            return ops


def per_input_medians(ops, inputs: int, traced: bool) -> list[float]:
    medians = []
    for i in range(inputs):
        times = [r.seconds for j, t, r in ops if j == i and t == traced and r.error is None]
        if times:
            medians.append(statistics.median(times))
    return medians


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polysid" / "__init__.py").is_file():
        print(f"error: polysid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing  # these import numpy and polysid
    import workloads

    import_s = time.perf_counter() - T_START
    if args.emit_model:
        print(workloads.identify_model_document(args.seed, args.smoke))
        return 0

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=stem + "-", dir=results) as tmp:
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
            wl.setup(args.seed, Path(tmp))
            warm = wl.run(0)
            setups.append(time.perf_counter() - t0)
            warmups.append(warm)
        tracer = tracing.Tracer() if args.trace else None
        ops = measure(wl, args.seconds, tracer)

    untraced = [r for _, t, r in ops if not t]
    good = [r for r in untraced if r.error is None]
    medians = per_input_medians(ops, wl.inputs, traced=False)
    op_s = statistics.fmean(medians) if medians else None
    work = statistics.fmean(r.work for r in untraced)
    ns = {i: r.n for i, _, r in ops if r.error is None}
    end_to_end = {
        "op_s": op_s,
        "series_steps_per_s": work / op_s if op_s else None,
        "model_n": statistics.fmean(ns.values()) if ns else None,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(ops)
    failures = [r.error for _, _, r in ops if r.error is not None]
    rmses = [r.rmse for r in good]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "end_to_end": {
            name: {"value": end_to_end[name], "unit": unit, "better": better}
            for name, (unit, better) in END_TO_END.items()
        },
        "op_s_samples": {"count": len(good), "tail": tail([r.seconds for r in good])},
        "setup": {
            "import_s": import_s,
            "cold_s": import_s + setups[0],
            "repeats_s": setups,
            "warmup_op_s": [w.seconds for w in warmups],
            "warmup_errors": [w.error for w in warmups],
        },
        "heldout_rel_rmse": {  # the worst input's
            "value": max(rmses) if rmses else None, "unit": "ratio", "better": "lower",
        },
        "error_rate": {"value": len(failures) / attempted, "unit": "fraction",
                       "better": "lower", "codes": sorted(set(failures))},
        "shapes": [r.shapes for r in good[: wl.inputs]],
        "ops": [[i, traced, r.seconds, r.error] for i, traced, r in ops],
    }

    metrics = {
        name: {"value": end_to_end[name], "unit": unit} for name, (unit, _) in END_TO_END.items()
    }
    if tracer:
        layer = tracing.per_layer_metrics(tracer)
        traced_medians = per_input_medians(ops, wl.inputs, traced=True)
        layer["trace.overhead_s"] = (
            statistics.fmean(traced_medians) - op_s if traced_medians and op_s else None
        )
        layer["quality.heldout_rel_rmse"] = report["heldout_rel_rmse"]["value"]
        report["per_layer"] = {
            name: {
                "value": layer.get(PROFILE_KEYS.get(name, name), 0),
                "unit": unit, "better": better, "source": source,
            }
            for name, (unit, better, source) in PER_LAYER.items()
        }
        report["accounting"] = {
            "untraced_op_s": op_s,
            "traced_op_s": statistics.fmean(traced_medians) if traced_medians else None,
            "layer_self_s_sum": sum(
                v for k, v in layer.items() if k.endswith(".self_s")
            ) + layer["trace.unattributed_s"],
            "overhead_s": layer["trace.overhead_s"],
        }
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in report["per_layer"].items()
        }

    detail = dict(report)
    if tracer:
        detail["spans"] = [
            [s.id, s.name, s.parent, s.op, s.start, s.end, s.counts] for s in tracer.spans
        ]
    (results / f"{stem}.json").write_text(json.dumps(detail))
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
