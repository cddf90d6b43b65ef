#!/usr/bin/env python3
"""Record the benchmark of a parent checkout against a changed one.

For every workload and seed, runs ``python3 bench/run.py --workload W
--seed S --trace 0`` once in each checkout, one after the other (the
parent first on even pairs, the change first on odd ones), and writes the
median and quartiles of every end-to-end metric per side, every run, the
seeds and the environment to one JSON file:

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --seeds 1,2,3 --out BENCH_7.json

Each checkout is benchmarked from its own sources; nothing is installed.
Both checkouts' ``src`` and ``bench`` are byte-compiled before the first
run, so that no run pays for recompiling a stale ``__pycache__``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ns_sweep", "short_ops", "coupling_synth")


def run_bench(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(result, info) of one untraced benchmark run: its last two stdout lines."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(result), json.loads(info)["info"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                       cwd=checkout, check=True)

    record: dict = {
        "command": "python3 bench/run.py --workload W --seed S --trace 0",
        "seeds": seeds,
        "order": "parent first on even pairs, change first on odd pairs",
        "compiled": "python -m compileall -q src bench in both checkouts first",
        "workloads": {},
    }
    pair = 0
    for workload in WORKLOADS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result, info = run_bench(sides[side], workload, seed)
                runs[side].append({"seed": seed, **result})
                print(f"{workload} seed {seed} {side}: "
                      f"{ {k: v['value'] for k, v in result['metrics'].items()} }", flush=True)
                record.setdefault("environment", {
                    key: info[key]
                    for key in ("cpu_count", "cpus_usable", "python", "numpy", "scipy",
                                "blas_threads", "seconds")
                })
            pair += 1
        metrics = {}
        for name, first in runs["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            metrics[name] = {"unit": first["unit"],
                             **{side: summary(values[side]) for side in runs}}
        record["workloads"][workload] = {
            "metrics": metrics,
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
