"""Print one sha256 per benchmark input: its identified model or its predictions.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 tools/model_digest.py

The inputs are the benchmark's own, imported from ``bench/workloads.py``:

- the 16 ``ident_pooled`` training sets of seeds 1 and 2, the linear (A1)
  and polynomial (A2) acceptance sets, the two-output system of the test
  suite (``TestIdentify::test_two_output_system``), and the
  ``cli_roundtrip`` training set of seed 1, which goes through
  ``polysid.cli.main``: one digest of the model document without its
  ``meta`` and one of the held-out predictions;
- the ``predict_batch`` batch of seed 1: one digest of its predictions.

That makes 41 lines.

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
from polysid import IdentConfig, cli, generate, identify, predict_with_burn_in  # noqa: E402
from polysid.genred import MonomialMap  # noqa: E402
from polysid.monomials import PowerMatrix, identity_power_matrix  # noqa: E402
from polysid.model import ObserverModel, deserialize_model, serialize_model  # noqa: E402

#: Seeds whose ``ident_pooled`` training sets are identified.
POOLED_SEEDS = (1, 2)

#: Seed of the ``cli_roundtrip`` and ``predict_batch`` inputs.
SEED = 1


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digest(model: ObserverModel) -> str:
    """Digest of the model document without ``meta``, which echoes the config."""
    return sha(serialize_model(dataclasses.replace(model, meta={})).encode())


def predictions_digest(model: ObserverModel, ts) -> str:
    return sha(np.ascontiguousarray(predict_with_burn_in(model, ts).predictions).tobytes())


def identified(name: str, train, held, cfg) -> None:
    model, _ = identify(train, cfg)
    print(f"{name} model {model_digest(model)}")
    print(f"{name} heldout {predictions_digest(model, held)}")


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
    predictions = (workdir / "predictions.csv").read_bytes()
    print(f"cli_roundtrip seed={SEED} model {model_digest(model)}")
    print(f"cli_roundtrip seed={SEED} heldout {sha(predictions)}")


def main(workdir: Path) -> None:
    # The benchmark's configs still set the deprecated r3 and block_limit.
    warnings.filterwarnings("ignore", "(r3|block_limit) is ignored", FutureWarning)
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
        dataclasses.replace(
            wl.POOLED_CONFIG, t_plus_max=4, t_minus_max=4, pool_windows=None
        ),
    )
    identified(
        "two_output",
        generate(two_output_spec(100), 11),
        generate(two_output_spec(20), 12),
        IdentConfig(
            r1=0.9999, r2=0.9999, r4=0.001, t_plus_max=3, t_minus_max=3, k_max_y=1,
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
    print(f"predict_batch seed={SEED} predictions {predictions_digest(model, held)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
