"""The benchmark's three workloads: inputs, one timed operation, and its gate.

Every input comes from the run seed, except ``predict_batch``'s model (see
``PredictBatch``).  A workload runs ``setup`` (input
generation plus one untimed warm-up operation) and then ``run(i)`` for each
of its inputs ``i``; ``run`` times only the operation under test and checks
its output afterwards, untimed.

Held-out initial states are drawn from the inner part of the training
box (``HELDOUT_BOX``).  Models identified from the pooled polynomial data
are accurate inside the training box and fragile at its corners: with
held-out states from the full box, 4 of 30 training seeds failed the 0.05
gate on 50 series (two by divergence), and 4 of 12 diverged on some of 5000
series, which aborts the whole ``predict_with_burn_in`` batch.  A workload
whose operations fail measures an abort, not the code path, so the held-out
box is shrunk; with it, all 30 seeds tested pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polysid import cli, model, pipeline
from polysid.errors import PolysidError
from polysid.generate import GeneratorSpec, generate, spec_to_kv
from polysid.genred import MonomialMap
from polysid.monomials import PowerMatrix, identity_power_matrix

#: Half-width of the held-out initial-state box; training uses the spec's box.
HELDOUT_BOX = 0.6

#: Run seed whose first ``ident_pooled`` training set gives ``predict_batch``'s model.
MODEL_SEED = 1

#: Gate on held-out max relative RMSE for the polynomial system (acceptance A2).
POLY_RMSE_GATE = 0.05

#: Gate on held-out max relative RMSE for the linear system (acceptance A1).
LINEAR_RMSE_GATE = 1e-5

#: Identification config of ``ident_pooled`` and of the ``predict_batch`` model.
POOLED_CONFIG = pipeline.IdentConfig(
    r1=0.9999, r2=0.9999, r3=0.001, r4=0.001,
    t_plus_min=1, t_minus_min=1, t_plus_max=8, t_minus_max=8,
    k_max_y=1, max_total_degree_xy=2, scale_gamma=2.0,
    pool_windows=True, block_limit=128,
)

#: Acceptance A1's config, as the key-value document ``polysid identify`` reads.
LINEAR_CONFIG_KV = """\
r1 = 0.9999
r2 = 0.9999
r3 = 0.001
r4 = 0.001
t_plus_min = 1
t_minus_min = 1
t_plus_max = 4
t_minus_max = 4
k_max_y = 1
max_total_degree_xy = 2
scale_gamma = 5.0
"""


def linear_spec(s: int, t_1: int) -> GeneratorSpec:
    """Two-state linear system y = x1 (the tests' ``linear_spec``)."""
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    f = MonomialMap(A, PowerMatrix(np.array([[1, 0, 0], [0, 1, 0]]), (1, 1, 0)))
    h = MonomialMap(np.array([[1.0, 0.0]]), identity_power_matrix(2))
    return GeneratorSpec(
        n=2, d_y=1, f=f, h=h, x0_min=(-1.0, -1.0), x0_max=(1.0, 1.0),
        noise_std=0.0, t_1=t_1, s=s,
    )


def polynomial_spec(s: int, t_1: int) -> GeneratorSpec:
    """Two-state multilinear system (the tests' ``polynomial_spec``)."""
    K_f = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 1], [1, 0, 0], [0, 1, 1], [0, 1, 0]])
    L_f = np.array(
        [
            [0.05, 0.10, 0.08, 0.45, -0.05, 0.12],
            [-0.04, 0.08, 0.05, 0.15, 0.07, 0.38],
        ]
    )
    f = MonomialMap(L_f, PowerMatrix(K_f, (1, 1, 1)))
    h = MonomialMap(np.array([[0.7, 0.3]]), identity_power_matrix(2))
    return GeneratorSpec(
        n=2, d_y=1, f=f, h=h, x0_min=(-0.8, -0.8), x0_max=(0.8, 0.8),
        noise_std=0.0, t_1=t_1, s=s,
    )


def heldout(spec: GeneratorSpec) -> GeneratorSpec:
    box = (HELDOUT_BOX,) * spec.n
    return dataclasses.replace(spec, x0_min=tuple(-b for b in box), x0_max=box)


def train_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def heldout_seed(seed: int, i: int) -> int:
    return 1000 * seed + 500 + i


@dataclass
class OpResult:
    """One timed operation and what its gate found."""

    seconds: float | None  # None when the operation raised before it was timed
    work: int              # series x time steps the operation processed
    error: str | None      # PolysidError code or gate name; None when it passed
    rmse: float = float("nan")
    n: int = 0
    shapes: dict = dataclasses.field(default_factory=dict)


def _failed(seconds: float | None, work: int, code: str) -> OpResult:
    return OpResult(seconds=seconds, work=work, error=code)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class IdentPooled:
    """``identify`` on pooled windows of the polynomial system.

    Why this workload: in a traced run, ``svd_trunc`` on 5000-column pooled
    windows takes about 60% of each call, and enumerating the 2^(n+1)-row
    state-output box to keep under 200 rows about 20% (and most of the peak
    memory).  The block path (partition and merge of the 256-row past
    dictionary at ``block_limit=128``) runs too.  The identified order is 17 or 18
    depending on the training set, and the 18-state models enumerate twice
    the rows, so each run identifies ``inputs`` training sets and reports
    the mean of their per-set medians.
    """

    name = "ident_pooled"

    def __init__(self, smoke: bool = False):
        self.s, self.t_1, self.s_heldout = (60, 20, 10) if smoke else (200, 40, 50)
        self.inputs = 2 if smoke else 8
        self.config = (
            dataclasses.replace(POOLED_CONFIG, t_plus_max=4, t_minus_max=4, block_limit=8)
            if smoke
            else POOLED_CONFIG
        )

    def setup(self, seed: int, workdir: Path) -> None:
        self.train = [
            generate(polynomial_spec(self.s, self.t_1), train_seed(seed, i))
            for i in range(self.inputs)
        ]
        self.held = [
            generate(heldout(polynomial_spec(self.s_heldout, self.t_1)), heldout_seed(seed, i))
            for i in range(self.inputs)
        ]

    def run(self, i: int, tracer=None) -> OpResult:
        ts = self.train[i]
        work = ts.s * ts.t_1
        try:
            with tracer.operation(i) if tracer else contextlib.nullcontext():
                (m, diag), seconds = _timed(pipeline.identify, ts, self.config)
            rep = model.predict_with_burn_in(m, self.held[i])
        except PolysidError as exc:
            return _failed(None, work, exc.code)
        rmse = rep.max_relative_rmse
        shapes = {
            "past_dictionary_rows": diag.reductions[-1].rows_presented,
            "columns": diag.n_columns,
            "n": m.n,
            "f_o_monomials": m.f_o.K.d_v,
            "g_io_monomials": m.g_io.K.d_v,
        }
        error = None if rmse <= POLY_RMSE_GATE else "GATE_RMSE"
        return OpResult(seconds, work, error, rmse, m.n, shapes)


def identify_model_document(seed: int, smoke: bool) -> str:
    """Serialized model of ``ident_pooled``'s first training set at ``seed``."""
    wl = IdentPooled(smoke)
    ts = generate(polynomial_spec(wl.s, wl.t_1), train_seed(seed, 0))
    m, _ = pipeline.identify(ts, wl.config)
    return model.serialize_model(m)


class PredictBatch:
    """``predict_with_burn_in`` of one identified model on a large batch.

    Why this workload: it runs the observer recursion, which evaluates small
    monomial maps (``f_o`` with about 180 monomials over 19 variables) once
    per step on every series, with no SVD and no enumeration;
    ``build_data_matrix`` takes over 90% of a traced call.  That uses the
    monomials layer differently from ``ident_pooled``, which lifts wide
    dictionaries a few times per call.

    The model comes from ``ident_pooled``'s first training set at
    ``MODEL_SEED`` whatever the run seed, and only the batch follows the
    seed: 17-state models of other training sets predict about 20% faster
    than 18-state ones, which made the time depend on the seed.  It is
    identified in a child process so that identification's peak memory
    stays out of this process's ``peak_rss_mb``.
    """

    name = "predict_batch"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.inputs = 1
        self.s_heldout = 200 if smoke else 5000

    def setup(self, seed: int, workdir: Path) -> None:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--emit-model", "--seed", str(MODEL_SEED)] + (["--smoke"] if self.smoke else []),
            capture_output=True, text=True, check=False, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"model identification failed:\n{proc.stderr}")
        self.model = model.deserialize_model(proc.stdout)
        t_1 = IdentPooled(self.smoke).t_1
        self.held = generate(
            heldout(polynomial_spec(self.s_heldout, t_1)), heldout_seed(seed, 499)
        )

    def run(self, i: int, tracer=None) -> OpResult:
        m, ts = self.model, self.held
        work = ts.s * (ts.t_1 - m.t_minus)
        try:
            with tracer.operation(i) if tracer else contextlib.nullcontext():
                rep, seconds = _timed(model.predict_with_burn_in, m, ts)
        except PolysidError as exc:
            return _failed(None, work, exc.code)
        shapes = {
            "series": ts.s,
            "steps": ts.t_1 - m.t_minus,
            "n": m.n,
            "f_o_monomials": m.f_o.K.d_v,
            "g_io_monomials": m.g_io.K.d_v,
        }
        finite = bool(np.isfinite(rep.predictions).all())
        error = None if finite else "GATE_NONFINITE"
        return OpResult(seconds, work, error, rep.max_relative_rmse, m.n, shapes)


class CliRoundtrip:
    """``gen -> gen -> identify -> predict`` through ``polysid.cli.main``.

    Why this workload: in a traced run, writing and reading 550k CSV rows,
    formatting predictions and JSON (de)serialization take about 80% of a
    round trip, while the SVD and enumeration layers take under 1%.  It
    is the workload that bypasses SVD and enumeration work.
    """

    name = "cli_roundtrip"

    def __init__(self, smoke: bool = False):
        self.inputs = 1
        self.s_train, self.s_heldout, self.t_1 = (100, 200, 30) if smoke else (2000, 5000, 30)

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        (workdir / "train.spec").write_text(spec_to_kv(linear_spec(self.s_train, self.t_1)))
        (workdir / "heldout.spec").write_text(spec_to_kv(linear_spec(self.s_heldout, self.t_1)))
        (workdir / "config.kv").write_text(LINEAR_CONFIG_KV)
        self.seed = seed

    def _argvs(self) -> list[list[str]]:
        d = str(self.dir)
        return [
            ["gen", "--spec", f"{d}/train.spec", "--seed", str(train_seed(self.seed, 0)),
             "--out", f"{d}/train.csv"],
            ["gen", "--spec", f"{d}/heldout.spec", "--seed", str(heldout_seed(self.seed, 0)),
             "--out", f"{d}/heldout.csv"],
            ["identify", "--data", f"{d}/train.csv", "--config", f"{d}/config.kv",
             "--out-model", f"{d}/model.json", "--report", f"{d}/report.txt"],
            ["predict", "--model", f"{d}/model.json", "--data", f"{d}/heldout.csv",
             "--out", f"{d}/predictions.csv"],
        ]

    def run(self, i: int, tracer=None) -> OpResult:
        work = (self.s_train + self.s_heldout) * self.t_1
        argvs = self._argvs()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.operation(i) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                codes = [cli.main(argv) for argv in argvs]
                seconds = time.perf_counter() - t0
        if any(codes):
            first = err.getvalue().split(":", 2)
            code = first[1].strip() if len(first) > 2 else "EXIT_CODE"
            return _failed(seconds, work, code)
        doc = json.loads((self.dir / "model.json").read_text())
        n, t_minus = int(doc["n"]), int(doc["t_minus"])
        table = np.loadtxt(self.dir / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
        steps = self.t_1 - t_minus
        shapes = {
            "train_series": self.s_train,
            "heldout_series": self.s_heldout,
            "prediction_rows": table.shape[0],
            "n": n,
            "f_o_monomials": len(doc["f_o"]["K"]),
            "g_io_monomials": len(doc["g_io"]["K"]),
        }
        if table.shape[0] != self.s_heldout * steps:
            return OpResult(seconds, work, "GATE_ROWS", n=n, shapes=shapes)
        yhat, resid = table[:, 2], table[:, 3]
        measured = yhat + resid
        rmse = float(np.sqrt(np.mean(resid**2)) / measured.std())
        error = None if rmse <= LINEAR_RMSE_GATE else "GATE_RMSE"
        return OpResult(seconds, work, error, rmse, n, shapes)


WORKLOADS = {wl.name: wl for wl in (IdentPooled, PredictBatch, CliRoundtrip)}
