"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``).  They check that the input
generator is a pure function of the seed, that the correctness gate
catches a planted wrong expectation and names it, and that per-layer
counts repeat exactly.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import workloads
from tracer import Tracer


def _inputs(workload: str, seed: int) -> tuple[list, dict[str, bytes]]:
    """Operations and document bytes, with the scratch directory elided."""
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        warmup, ops = workloads.generate(workload, seed, Path(tmp))
        argvs = [[arg.replace(tmp, "<work>") for arg in op.argv] for op in [warmup, *ops]]
        files = {path.name: path.read_bytes() for path in sorted(Path(tmp).iterdir())}
    return argvs, files


def test_generator_is_seeded():
    run.WORK.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        first = _inputs(workload, 11)
        assert first == _inputs(workload, 11), f"{workload}: one seed gave two input sets"
        assert first != _inputs(workload, 12), f"{workload}: two seeds gave one input set"


def test_planted_wrong_expectation_is_a_named_failure():
    run.WORK.mkdir(exist_ok=True)
    rng = workloads.np.random.default_rng(5)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        family = workloads._pure_pair_family(rng, 3, signalling=True)
        doc = workloads._cq_doc((2, 2), (3, 3), family, "planted", 0)
        path = workloads._write(Path(tmp) / "planted.json", doc)
        honest = workloads.Op(("verify", path), expect_exit=1)
        planted = workloads.Op(("verify", path), expect_exit=0)
        bench = run.Run(run.load_program(), "planted", 5, honest, [honest, planted])
        bench.warm_up()
        bench.job(0)
    assert bench.attempted == 3
    assert len(bench.failures) == 1, bench.failures
    failure = bench.failures[0]
    assert failure["workload"] == "planted" and failure["seed"] == 5
    assert failure["job"] == 0 and failure["index"] == 1
    assert failure["argv"] == ["verify", path]
    assert "expected 0" in failure["reason"]


def test_layer_counts_repeat():
    run.WORK.mkdir(exist_ok=True)
    counts = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            warmup, ops = workloads.generate("short_ops", 3, Path(tmp))
            bench = run.Run(run.load_program(), "short_ops", 3, warmup, ops)
            tracer = Tracer()
            tracer.install()
            try:
                bench.job(0)
            finally:
                tracer.uninstall()
        calls, _ = tracer.summary()
        counts.append((calls, tracer.counters))
        assert not bench.failures, bench.failures
    assert counts[0] == counts[1]
    assert counts[0][0]["cli.main"] == len(ops)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    sys.exit(0)
