"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<name>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent ../parent --change . --name my_change \\
        --what "what the change does" --workload predict_batch:21-30 \\
        --workload ident_pooled:11-20 --seconds 20

Each directory is a whole checkout, with its own ``bench/`` and ``src/``;
``bench/run.py`` runs from it as its working directory, so each tree
measures its own code.  Pair ``i`` of a workload uses the ``i``-th seed of
its range for both runs.  The parent runs first in odd pairs and second in
even ones, so a drift of the machine's load does not favour one tree.

For every end-to-end metric that ``BENCHMARK.json`` (in the change's tree)
lists, the file gives each tree's runs, median, quartiles
(``statistics.quantiles(n=4, method="inclusive")``) and interquartile
range; the number of pairs in which the change was better, in the metric's
direction (``change_better_in``, ties count for neither); the relative
change of the medians; and the metric's bound.  It also counts the
attempted and failed operations.  The file is rewritten after every pair,
so a run that is cut short leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

QUARTILES = "statistics.quantiles(n=4, method='inclusive')"


def seed_range(text: str) -> tuple[str, list[int]]:
    """``workload:first-last`` as the workload name and its seeds."""
    try:
        name, seeds = text.split(":")
        first, last = (int(v) for v in seeds.split("-"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {text!r}") from exc
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"seed range {seeds!r} is empty or negative")
    return name, list(range(first, last + 1))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    p.add_argument("--what", required=True, help="one line on what is compared")
    p.add_argument("--workload", type=seed_range, action="append", required=True,
                   metavar="WORKLOAD:FIRST-LAST")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--parent-commit", default=None, help="recorded as parent_commit")
    p.add_argument("--note", default=None, help="recorded under host, say the machine's load")
    p.add_argument("--out", type=Path, default=Path("."), help="directory of the file")
    return p.parse_args(argv)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process in ``tree``; its result line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1, "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p, c = spread(parent), spread(change)
    return {
        "parent": p,
        "change": c,
        "change_better_in": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "bound": bound,
    }


def summary(results: dict[str, list[dict]], seeds: list[int], metrics: list[dict]) -> dict:
    out = {
        "seeds": seeds[: len(results["parent"])],
        "failed_operations": {t: sum(r["failed"] for r in rs) for t, rs in results.items()},
        "attempted_operations": {t: sum(r["attempted"] for r in rs) for t, rs in results.items()},
    }
    if len(results["parent"]) < 2:  # quartiles need two runs
        return out
    for m in metrics:
        runs = {t: [r["metrics"][m["name"]]["value"] for r in rs] for t, rs in results.items()}
        out[m["name"]] = compare(runs["parent"], runs["change"], m["better"], m["bound"])
    return out


def host(note: str | None) -> dict:
    import numpy as np

    info = {
        "cpus": os.cpu_count(),
        "blas_threads": 1,  # bench/run.py pins it
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return info if note is None else {**info, "note": note}


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            raise SystemExit(f"no bench/run.py under {tree}")
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "what": args.what,
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "quartiles": QUARTILES,
        "host": host(args.note),
        "parent_commit": args.parent_commit,
        "pairing": "pair i uses the i-th seed of the workload's range in both trees; the "
                   "parent runs first at odd pairs and second at even ones; each tree runs "
                   "from its own directory",
        "workloads": {},
    }
    path = args.out / f"BENCH_{args.name}.json"
    for workload, seeds in args.workload:
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds, 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for tree in order:
                results[tree].append(run(trees[tree], workload, seed, args.seconds))
            doc["workloads"][workload] = summary(results, seeds, metrics)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload} pair {i}/{len(seeds)} (seed {seed}) done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
