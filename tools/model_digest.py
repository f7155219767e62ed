"""Print one sha256 per benchmark input: its identified model or its predictions.

Next to each model digest the script prints the model's state dimension
``n``, the retained rank ``n1`` of the past regression and the dynamics rank
``n2``; next to each prediction digest, the held-out max relative RMSE to 4
significant digits.  A change that moves only rounding changes digests but
should leave these numbers as they are.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tools/model_digest.py

The inputs are the benchmark's own, imported from ``bench/workloads.py``:

- the 16 ``ident_pooled`` training sets of seeds 1 and 2, the linear (A1)
  and polynomial (A2) acceptance sets, the two-output system of the test
  suite (``TestIdentify::test_two_output_system``), and the
  ``cli_roundtrip`` training set of seed 1, which goes through
  ``polysid.cli.main``: one digest of the model and one of the held-out
  predictions;
- the ``predict_batch`` batch of seed 1: one digest of its predictions.

That makes 41 lines.  A model's digest covers its numbers, not its
document: ``n``, ``d_y``, ``t_minus``, the output divisors ``scaling.std``
and the coefficient and exponent arrays of ``f_o``, ``h_o`` and ``g_io``.
So a change of the document layout leaves it as it is, and ``meta``, which
echoes the config, is left out.

The ``polysid`` imported is the first one on ``sys.path``, so ``PYTHONPATH``
chooses the source tree; this checkout's ``src/`` comes last.  Running the
script once with each of two source trees and comparing the output shows
whether a change keeps every model and prediction bit for bit.  BLAS runs
on one thread, as in the benchmark, and no bytecode is written.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from polysid import IdentConfig, cli, dataio, generate, identify, predict_with_burn_in  # noqa: E402
from polysid.genred import MonomialMap  # noqa: E402
from polysid.monomials import PowerMatrix, identity_power_matrix  # noqa: E402
from polysid.model import ObserverModel, deserialize_model  # noqa: E402

#: Seeds whose ``ident_pooled`` training sets are identified.
POOLED_SEEDS = (1, 2)

#: Seed of the ``cli_roundtrip`` and ``predict_batch`` inputs.
SEED = 1


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digest(model: ObserverModel) -> str:
    """Digest of the model's dimensions, output divisors and map arrays, each with its shape."""
    h = hashlib.sha256(repr((model.n, model.d_y, model.t_minus)).encode())
    maps = [M for M in (model.f_o, model.h_o, model.g_io) if M is not None]
    for a in [model.scaling.std] + [a for M in maps for a in (M.L, M.K.K)]:
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ranks(n: int, n1, n2) -> str:
    return f"n={n} n1={n1} n2={n2}"


def heldout(name: str, model: ObserverModel, ts, digest: str | None = None) -> None:
    """One line: the predictions' digest (or ``digest``) and the max relative RMSE."""
    report = predict_with_burn_in(model, ts)
    digest = digest or sha(np.ascontiguousarray(report.predictions).tobytes())
    print(f"{name} {digest} max_rel_rmse={report.max_relative_rmse:.4g}")


def identified(name: str, train, held, cfg) -> None:
    model, diag = identify(train, cfg)
    print(f"{name} model {model_digest(model)} {ranks(model.n, diag.n1, diag.n2)}")
    heldout(f"{name} heldout", model, held)


def two_output_spec(s: int):
    """A2's dynamics over ``(x1, x2, y1, y2)``, independent of ``y2``, seen
    through two outputs (the tests' two-output system)."""
    base = wl.polynomial_spec(s, 30)
    K = np.column_stack([base.f.K.K, np.zeros(base.f.K.d_v, dtype=int)])
    f = MonomialMap(base.f.L, PowerMatrix(K, (1, 1, 1, 0)))
    h = MonomialMap(np.array([[0.7, 0.3], [0.2, -0.5]]), identity_power_matrix(2))
    return dataclasses.replace(base, d_y=2, f=f, h=h)


def cli_roundtrip(workdir: Path) -> None:
    rt = wl.CliRoundtrip()
    rt.setup(SEED, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in rt._argvs()]
    if any(codes):
        raise SystemExit(f"cli_roundtrip failed with exit codes {codes}")
    model = deserialize_model((workdir / "model.json").read_text())
    # The ranks come from the identify report's GENERATORS section.
    lines = (workdir / "report.txt").read_text().splitlines()
    report = dict(line.split(" = ", 1) for line in lines if " = " in line)
    n1, n2 = report["retained_rank_n1"], report["retained_rank_n2"]
    name = f"cli_roundtrip seed={SEED}"
    print(f"{name} model {model_digest(model)} {ranks(model.n, n1, n2)}")
    predictions = sha((workdir / "predictions.csv").read_bytes())
    heldout(f"{name} heldout", model, dataio.ingest(workdir / "heldout.csv"), predictions)


def main(workdir: Path) -> None:
    # The benchmark's configs still set the deprecated r1, r3, block_limit,
    # t_plus_min, t_minus_min and pool_windows.
    warnings.filterwarnings(
        "ignore", "(r1|r3|block_limit|t_plus_min|t_minus_min|pool_windows) is ignored",
        FutureWarning,
    )
    pooled = wl.IdentPooled()
    for seed in POOLED_SEEDS:
        pooled.setup(seed, workdir)
        for i, (train, held) in enumerate(zip(pooled.train, pooled.held)):
            identified(f"ident_pooled seed={seed} set={i}", train, held, pooled.config)

    identified(
        "A1",
        generate(wl.linear_spec(50, 30), 1),
        generate(wl.linear_spec(10, 30), 2),
        cli.config_from_kv(wl.LINEAR_CONFIG_KV),
    )
    identified(
        "A2",
        generate(wl.polynomial_spec(60, 20), 11),
        generate(wl.polynomial_spec(10, 20), 12),
        dataclasses.replace(wl.POOLED_CONFIG, t_plus_max=4, t_minus_max=4),
    )
    identified(
        "two_output",
        generate(two_output_spec(100), 11),
        generate(two_output_spec(20), 12),
        IdentConfig(
            r2=0.9999, r4=0.001, t_plus_max=3, t_minus_max=3, k_max_y=1,
            max_total_degree_xy=2, scale_gamma=2.0,
        ),
    )
    cli_roundtrip(workdir)

    # PredictBatch.setup identifies its model in a child process that
    # imports this checkout's src/, so the same steps run here instead.
    batch = wl.PredictBatch()
    model = deserialize_model(wl.identify_model_document(wl.MODEL_SEED, smoke=False))
    held = generate(
        wl.heldout(wl.polynomial_spec(batch.s_heldout, pooled.t_1)),
        wl.heldout_seed(SEED, 499),
    )
    heldout(f"predict_batch seed={SEED} predictions", model, held)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
