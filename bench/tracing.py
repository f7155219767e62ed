"""Spans around polysid's public functions, and the per-layer metrics they give.

The tracer patches each function on the module attribute its caller looks
up (``from .numred import svd_trunc`` in ``pipeline`` is patched as
``polysid.pipeline.svd_trunc``).  Patches are installed for one traced
operation at a time and removed afterwards, so untraced operations run the
original code.  Spans are kept in memory; ``run.py`` writes them out when
the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from polysid import cli, dataio, genred, model, pipeline

# The package re-exports the function ``generate`` under the module's name.
generate = importlib.import_module("polysid.generate")


def _none(args, result) -> dict:
    return {}


def _identify_counts(args, result) -> dict:
    diag = result[1]
    return {
        "reductions": len(diag.reductions),
        "n1": diag.n1,
        "columns": diag.n_columns,
        "xy_kept": diag.f_monomials_before,
    }


#: (module, attribute, layer name, counter).  A counter maps the call's
#: arguments and result to the counts recorded on its span.
SITES: list[tuple[object, str, str, Callable]] = [
    (pipeline, "identify", "pipeline.identify", _identify_counts),
    (pipeline, "build_window_vectors", "pipeline.build_window_vectors", _none),
    (pipeline, "eval_many_checked", "pipeline.eval_many_checked", _none),
    (pipeline, "svd_trunc", "numred.svd_trunc", lambda a, r: {"input_cells": a[1].size}),
    (pipeline, "lk_reduce", "numred.lk_reduce", lambda a, r: {
        "presented": a[1].d_v, "kept": r[1].d_v,
    }),
    (pipeline, "enumerate_power_matrix", "monomials.enumerate_power_matrix",
     lambda a, r: {"rows": r.d_v}),
    (pipeline, "partition_power_matrix", "monomials.partition_power_matrix", _none),
    (pipeline, "merge_power_matrices", "monomials.merge_power_matrices", _none),
    (pipeline, "build_data_matrix", "monomials.build_data_matrix",
     lambda a, r: {"cells": r.size}),
    (pipeline, "eliminate_products", "genred.eliminate_products",
     lambda a, r: {"eliminated": a[1].m - r.d_x}),
    (genred, "build_data_matrix", "monomials.build_data_matrix",
     lambda a, r: {"cells": r.size}),
    (genred, "eval_monomial_map_many", "genred.eval_monomial_map_many", _none),
    (model, "eval_monomial_map_many", "genred.eval_monomial_map_many", _none),
    (model, "initial_state_from_past", "model.initial_state_from_past", _none),
    (model, "predict_one_step", "model.predict_one_step", _none),
    (generate, "eval_monomial_map_many", "genred.eval_monomial_map_many", _none),
    (dataio, "ingest", "dataio.ingest", lambda a, r: {"rows": r.s * r.t_1}),
    (dataio, "emit", "dataio.emit", lambda a, r: {"rows": a[0].s * a[0].t_1}),
    (cli, "identify", "pipeline.identify", _identify_counts),
    (cli, "generate", "generate.generate", _none),
    (cli, "serialize_model", "model.serialize_model", lambda a, r: {"bytes": len(r.encode())}),
    (cli, "deserialize_model", "model.deserialize_model",
     lambda a, r: {"bytes": len(a[0].encode())}),
    (cli, "cmd_predict", "cli.cmd_predict", _none),
]

#: Layers whose self time is reported, in report order.
LAYERS = sorted({name for _, _, name, _ in SITES})

ROOT = "op"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of a patched function, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, fn: Callable, name: str, counter: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1], self._op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Trace one operation: patch every site, record a root span, unpatch."""
        self._op += 1
        root = Span(len(self.spans), ROOT, None, self._op, 0.0, counts={"input": op})
        self.spans.append(root)
        self._stack = [root.id]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in SITES]
        for (mod, attr, fn), (_, _, name, counter) in zip(originals, SITES):
            setattr(mod, attr, self._wrap(fn, name, counter))
        try:
            root.start = time.perf_counter()
            yield
        finally:
            root.end = time.perf_counter()
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)
            self._stack = []

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def op_profile(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer self times and counts of one traced operation."""
    out: dict[str, float] = {f"{name}.self_s": 0.0 for name in LAYERS}
    out.update({f"{name}.calls": 0 for name in LAYERS})
    out["trace.unattributed_s"] = 0.0
    last_enumeration: dict[int, int] = {}
    for s in spans:
        if s.name == ROOT:
            out["trace.unattributed_s"] = own[s.id]
            continue
        out[f"{s.name}.self_s"] += own[s.id]
        out[f"{s.name}.calls"] += 1
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        if s.name == "monomials.enumerate_power_matrix":
            last_enumeration[s.parent] = s.counts["rows"]
    # The state-output box is the last enumeration called by identify; the
    # degree cap then keeps ``f_monomials_before`` of its rows.
    names = {s.id: s.name for s in spans}
    xy_rows = sum(
        rows for parent, rows in last_enumeration.items()
        if names[parent] == "pipeline.identify"
    )
    out["pipeline.xy_dictionary.kept_frac"] = _ratio(
        out.get("pipeline.identify.xy_kept", 0), xy_rows
    )
    out["numred.lk_reduce.kept_frac"] = _ratio(
        out.get("numred.lk_reduce.kept", 0), out.get("numred.lk_reduce.presented", 0)
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values: the mean over inputs of each input's median traced op.

    Counts repeat exactly between operations on the same input, so their
    median is that count.
    """
    own = tracer.self_times()
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    profiles: dict[int, list[dict]] = {}
    for spans in by_op.values():
        root = spans[0]
        profiles.setdefault(root.counts["input"], []).append(op_profile(spans, own))
    keys = sorted({k for plist in profiles.values() for p in plist for k in p})
    per_input = [
        {k: statistics.median(p.get(k, 0) for p in plist) for k in keys}
        for plist in profiles.values()
    ]
    return {k: statistics.fmean(p[k] for p in per_input) for k in keys}
