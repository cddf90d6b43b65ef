#!/usr/bin/env python3
"""Benchmark for cqboxes: seeded CLI workloads run in one process.

Run from the repository root:

    python3 bench/run.py --workload ns_sweep --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``cqboxes`` CLI calls drawn from
``--seed`` (see ``workloads.py``), passed to ``cqboxes.cli.main`` in this
process with stdout captured, so interpreter start-up and the numpy import
are paid once and reported as ``setup_s`` rather than hidden in every
call.  Every call is checked against the verdict its inputs should get.
The list is repeated as a whole (a job) until ``--seconds`` is used up,
with at least three jobs.  ``job_s`` is the median job; ``op_p50_s`` and
``op_tail_s`` are percentiles over every call of every job; all three
are scaled by a reference pass run between calls, because the host's
speed drifts (see ``SpeedScale``).  The job time is the sum of its calls.

``--trace 0`` prints the end-to-end metrics; ``setup_s`` is the median
over fresh set-up probe processes.  ``--trace 1`` runs the same untraced
jobs without probes, then one more job with every traced layer wrapped
(see ``tracer.py``), and prints the per-layer metrics of that job with
the tracing overhead (traced job time over the raw median job); the
spans go to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, sample counts and any failed operation.  The exit code is 0
when a result was printed, and 2 when the program cannot be loaded from
``src/`` next to this directory.
"""
from __future__ import annotations

import os

# One process with one compute thread: pin the BLAS and OpenMP pools
# before numpy is imported (here or in a set-up probe, which inherits it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_JOBS = 3
TAIL_BEYOND = 10
REPORTED_FAILURES = 20
# Reported times are scaled to a machine that runs one ``reference`` pass
# in REFERENCE_S seconds, with a pass after every REFERENCE_EVERY_S
# seconds of calls (see ``SpeedScale``).
REFERENCE_S = 0.05
REFERENCE_EVERY_S = 0.5

# Layer spans reported as calls and self time; the rest as noted.
CALLS_AND_SELF = (
    "cli.main",
    "io.load_box",
    "io.save_box",
    "quantum.partial_trace",
    "quantum.trace_distance",
    "quantum.DensityMatrix",
    "quantum.StateVector",
    "boxes.cq_no_signalling",
    "boxes.cc_no_signalling",
    "boxes.draw_base",
    "synthesis.sample_states",
    "synthesis.simulate",
    "synthesis.bell_canonical_form",
    "bounds.verify_bound",
    "bounds.best_fidelity",
    "multipartite.w_phase_theorem_check",
    "multipartite.w_phase_box",
    "multipartite.is_local_equivalent",
)
SELF_ONLY = ("boxes.mix_boxes", "boxes.cq_box_distance")
COUNTS = {
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "boxes.ns_pairs": "count",
    "synthesis.states_built": "count",
    "bounds.ascents": "count",
    "multipartite.boxes_checked": "count",
}


class SetupError(RuntimeError):
    pass


def load_program():
    """Import ``cqboxes`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cqboxes.cli

    if not Path(cqboxes.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"cqboxes was imported from {cqboxes.__file__}, not {SRC}")
    return cqboxes.cli


def call(cli, argv) -> tuple[int | None, str, float, str | None]:
    """Exit code, captured stdout, wall seconds and any exception of one
    ``cli.main`` call."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an operation that raises is a failed operation
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error


class Run:
    """The operations of one workload and the record of running them."""

    def __init__(self, cli, workload: str, seed: int, warmup, ops) -> None:
        self.cli, self.workload, self.seed = cli, workload, seed
        self.warmup, self.ops = warmup, ops
        self.attempted = 0
        self.failures: list[dict] = []

    def _gate(self, job: int | str, index: int, op, code, stdout, error) -> None:
        self.attempted += 1
        reason = error or workloads.check(op, code, stdout)
        if reason:
            failure = {"workload": self.workload, "seed": self.seed, "job": job,
                       "index": index, "argv": list(op.argv), "reason": reason}
            self.failures.append(failure)
            print("failed operation: " + json.dumps(failure), file=sys.stderr)

    def warm_up(self) -> None:
        code, stdout, _, error = call(self.cli, self.warmup.argv)
        self._gate("warmup", 0, self.warmup, code, stdout, error)

    def job(self, job: int | str, after_call=None) -> tuple[float, list[float]]:
        """Run the whole list once and return its wall time and the time of
        each call; every call is gated after the job's clock stops.
        ``after_call`` gets each call's seconds as soon as it returns."""
        results = []
        start = time.perf_counter()
        for op in self.ops:
            results.append(call(self.cli, op.argv))
            if after_call is not None:
                after_call(results[-1][2])
        elapsed = time.perf_counter() - start
        for index, (op, (code, stdout, _, error)) in enumerate(zip(self.ops, results)):
            self._gate(job, index, op, code, stdout, error)
        return elapsed, [seconds for _, _, seconds, _ in results]


def set_up(workload: str, seed: int, work: Path) -> Run:
    cli = load_program()
    warmup, ops = workloads.generate(workload, seed, work)
    run = Run(cli, workload, seed, warmup, ops)
    run.warm_up()
    return run


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it is ready to time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SetupError(f"set-up probe exited with code {code}")
    return elapsed


def reference() -> float:
    """Seconds of a fixed pass of small numpy linear algebra (Hermitian
    eigenvalues, products, QR), independent of ``cqboxes``."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    hermitian, square = g + g.conj().T, g[:4, :4]
    total = 0.0
    start = time.perf_counter()
    for i in range(1000):
        total += np.linalg.eigvalsh(hermitian)[i % 8]
        total += float(np.trace(hermitian @ hermitian).real)
        total += abs(np.linalg.qr(square)[1][0, 0])
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise SetupError("reference pass gave a non-finite result")
    return elapsed


class SpeedScale:
    """Call times scaled to a machine that runs ``reference`` in
    ``REFERENCE_S`` seconds.

    The host's speed drifts by a third and more over seconds to minutes.
    The reference pass slows and speeds up with the program (interpreter-
    only work tracks it less well), so a call's time over a pass run
    next to it stays steady where raw time does not.  Calls are grouped
    into segments of at least ``REFERENCE_EVERY_S`` seconds, with a pass
    before the first and after every segment, and each segment's times
    are scaled by ``REFERENCE_S`` over the mean of the passes on either
    side of it.
    """

    def __init__(self) -> None:
        reference()  # warm-up
        self.passes = [reference()]
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= REFERENCE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.passes.append(reference())
        factor = REFERENCE_S / statistics.mean(self.passes[-2:])
        self.scaled.extend(t * factor for t in self.pending)
        self.pending = []


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and its value; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    calls, self_s = tracer.summary()
    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    strategy_s = sum(t for name, t in self_s.items()
                     if name.startswith("synthesis.") and name.endswith("_strategy"))
    metrics["synthesis.strategy_build.self_s"] = {"value": strategy_s, "unit": "s"}
    for name, unit in COUNTS.items():
        metrics[name] = {"value": tracer.counters[name], "unit": unit}
    pairs = tracer.counters["boxes.ns_pairs"]
    ratio = tracer.counters["boxes.witnesses"] / pairs if pairs else 0.0
    metrics["boxes.witness_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(args, work: Path) -> dict:
    setup_times = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    run = set_up(args.workload, args.seed, work)

    scale = SpeedScale()
    job_times: list[float] = []
    scaled_job_times: list[float] = []
    start = time.perf_counter()
    # stop when one more job (with its reference passes) would overrun,
    # leaving room for the traced job when there is one
    planned = 1 + args.trace
    while len(job_times) < MIN_JOBS or (
        (time.perf_counter() - start) * (len(job_times) + planned) / len(job_times)
        <= args.seconds
    ):
        _, times = run.job(len(job_times), scale.add)
        scale.flush()
        job_times.append(sum(times))
        scaled_job_times.append(sum(scale.scaled[-len(times):]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_pct, tail_s = tail(scale.scaled)

    info = environment(args) | {
        "ops_per_job": len(run.ops),
        "jobs": len(job_times),
        "job_times": job_times,
        "reference_times": scale.passes,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(scale.scaled),
        "setup_samples": setup_times,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, _ = run.job("traced")
        finally:
            tracer.uninstall()
        trace_file = TRACES / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_file)
        untraced_s = statistics.median(job_times)
        info |= {"traced_job_s": traced_s, "untraced_job_s": untraced_s,
                 "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))}
        metrics = layer_metrics(tracer, traced_s / untraced_s)
    else:
        metrics = {
            "job_s": {"value": statistics.median(scaled_job_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(scale.scaled), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed = len(run.failures)
    info |= {"attempted": run.attempted, "fail_ratio": failed / run.attempted,
             "failures": run.failures[:REPORTED_FAILURES]}
    print(json.dumps({"info": info}, sort_keys=True))
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqboxes" / "__init__.py").is_file():
        print(f"error: no cqboxes sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            if args.setup_probe:
                set_up(args.workload, args.seed, Path(tmp))
                print("ready", flush=True)
                return 0
            result = measure(args, Path(tmp))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
