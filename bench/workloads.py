"""Seeded inputs and per-operation correctness gates for the benchmark.

Every workload is a fixed list of ``cqboxes`` CLI invocations (argv lists)
drawn from one seed.  Box documents and phase assignments are written
with numpy and json straight from the documented document format, never
through ``cqboxes`` constructors, so that generating them (part of the
set-up time) does not move when the library changes.  Each operation
carries the verdict it should get; ``check`` compares a finished
operation against it.

Within a workload the mix of commands and the sizes of their inputs are
fixed; the seed only draws values (unitaries, phases, weights, RNG seeds).
That keeps the amount of work, and so the timings, nearly the same from
seed to seed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2 * math.pi
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call and the verdict it should get.

    ``expect`` holds extra expectations for the gate: ``violation`` (the
    predicted worst violation), ``grid_size`` (theorem sweeps) and
    ``bound`` (alpha, beta, m, n, kmax for the closed-form frontier).
    """

    argv: tuple[str, ...]
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# document helpers


def _pairs(values: np.ndarray) -> list:
    """Complex array as nested [real, imag] pairs, the document encoding."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def _cq_doc(input_sizes, dims, outputs: dict, label: str, expect_exit: int) -> dict:
    """``outputs`` maps an input tuple to ("amplitudes" | "matrix", array)."""
    return {
        "format": 1,
        "kind": "cq",
        "input_sizes": list(input_sizes),
        "parties": [{"label": chr(ord("A") + i), "dim": d} for i, d in enumerate(dims)],
        "outputs": {
            ",".join(map(str, key)): {field_: _pairs(arr)}
            for key, (field_, arr) in outputs.items()
        },
        "metadata": {"label": label, "expect_exit": expect_exit},
    }


def _cc_doc(input_sizes, output_sizes, table: np.ndarray, label: str, expect_exit: int) -> dict:
    return {
        "format": 1,
        "kind": "cc",
        "input_sizes": list(input_sizes),
        "output_sizes": list(output_sizes),
        "table": table.tolist(),
        "metadata": {"label": label, "expect_exit": expect_exit},
    }


def _keys(*sizes: int):
    return itertools.product(*(range(s) for s in sizes))


def _decreasing_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly decreasing positive weights summing to one, well separated."""
    raw = np.sort(rng.uniform(1.0, 2.0, size=n))[::-1] + np.arange(n)[::-1] * 0.3
    return raw / raw.sum()


# --------------------------------------------------------------------------
# two-party quantum families


def _pure_pair_family(rng, d: int, signalling: bool) -> dict:
    """(U_x W_xy D V_y^T) flattened: non-signalling when W is trivial; with
    an input-pair-dependent Alice unitary and non-uniform D it signals."""
    coeffs = np.sqrt(_decreasing_weights(rng, d))
    u = [_haar(rng, d) for _ in range(2)]
    v = [_haar(rng, d) for _ in range(2)]
    outputs = {}
    for x, y in _keys(2, 2):
        left = _haar(rng, d) if signalling else u[x]
        mat = left @ np.diag(coeffs) @ v[y].T
        outputs[(x, y)] = ("amplitudes", mat.reshape(-1))
    return outputs


def _mixed_pair_family(rng, d: int) -> dict:
    """(U_x (x) V_y) sigma (U_x (x) V_y)+ for one random density matrix sigma."""
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    u = [_haar(rng, d) for _ in range(2)]
    v = [_haar(rng, d) for _ in range(2)]
    outputs = {}
    for x, y in _keys(2, 2):
        k = np.kron(u[x], v[y])
        rho = k @ sigma @ k.conj().T
        outputs[(x, y)] = ("matrix", (rho + rho.conj().T) / 2)
    return outputs


def _block_pure_family(rng, blocks: tuple[int, ...]) -> dict:
    """Pure family U_x W_xy D V_y^T whose Schmidt coefficients are
    degenerate within ``blocks`` and W_xy is block-diagonal over them, so
    the family is non-signalling yet needs a block Haar coupling."""
    n = sum(blocks)
    levels = np.sort(rng.uniform(1.0, 2.0, size=len(blocks)))[::-1]
    levels = levels + np.arange(len(blocks))[::-1] * 0.5
    coeffs = np.repeat(levels, blocks)
    coeffs = coeffs / np.linalg.norm(coeffs)
    u = [_haar(rng, n) for _ in range(2)]
    v = [_haar(rng, n) for _ in range(2)]
    outputs = {}
    for x, y in _keys(2, 2):
        w = np.zeros((n, n), dtype=complex)
        offset = 0
        for b in blocks:
            w[offset : offset + b, offset : offset + b] = _haar(rng, b)
            offset += b
        mat = u[x] @ w @ np.diag(coeffs) @ v[y].T
        outputs[(x, y)] = ("amplitudes", mat.reshape(-1))
    return outputs


_BELL = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex
) / math.sqrt(2)


def _disordered_family(rng) -> dict:
    """Two-qubit states (U (x) V)(sum_i p_i |B_i><B_i|)(U (x) V)+ per input:
    every one-party marginal is maximally mixed, so the family is
    non-signalling by construction.  All inputs share the Bell weights p,
    which keeps the aligned mixture at four intervals for every seed."""
    p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
    core = sum(w * np.outer(b, b.conj()) for w, b in zip(p, _BELL))
    outputs = {}
    for key in _keys(2, 2):
        k = np.kron(_haar(rng, 2), _haar(rng, 2))
        rho = k @ core @ k.conj().T
        outputs[key] = ("matrix", (rho + rho.conj().T) / 2)
    return outputs


# --------------------------------------------------------------------------
# three-party families and phase assignments


def _w_phases(rng, perturb: tuple[int, tuple[int, ...], float] | None) -> np.ndarray:
    """(3, 2, 2, 2) phases on |100>, |010>, |001>: input-local parts plus a
    shared global phase, optionally with ket ``k`` bumped by delta times
    the product of the inputs in ``subset``."""
    a, b, c = (rng.uniform(-math.pi, math.pi, size=2) for _ in range(3))
    g = rng.uniform(-math.pi, math.pi, size=(2, 2, 2))
    xs, ys, zs = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    phases = np.stack([a[xs] + g, b[ys] + g, c[zs] + g])
    if perturb is not None:
        ket, subset, delta = perturb
        coords = (xs, ys, zs)
        bump = np.ones((2, 2, 2))
        for variable in subset:
            bump = bump * coords[variable]
        phases[ket] = phases[ket] + delta * bump
    return phases


def _w_family(phases: np.ndarray) -> dict:
    outputs = {}
    for key in _keys(2, 2, 2):
        amp = np.zeros(8, dtype=complex)
        amp[[4, 2, 1]] = np.exp(1j * phases[(slice(None),) + key]) / math.sqrt(3)
        outputs[key] = ("amplitudes", amp)
    return outputs


def _w_perturbation(rng) -> tuple[tuple[int, tuple[int, ...], float], float]:
    """A non-local bump on one ket and the worst violation it must cause,
    2 |sin(delta / 2)| / 3."""
    ket = int(rng.integers(3))
    subsets = [
        combo
        for r in range(1, 4)
        for combo in itertools.combinations(range(3), r)
        if combo != (ket,)
    ]
    subset = subsets[int(rng.integers(len(subsets)))]
    delta = float(rng.uniform(0.5, TWO_PI - 0.5))
    return (ket, subset, delta), 2 * abs(math.sin(delta / 2)) / 3


def _ghz_family(theta: float) -> dict:
    outputs = {}
    for key in _keys(2, 2, 2):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1 / math.sqrt(2)
        amp[7] = np.exp(1j * theta * key[0] * key[1] * key[2]) / math.sqrt(2)
        outputs[key] = ("amplitudes", amp)
    return outputs


def _mod_table(n: int) -> np.ndarray:
    table = np.zeros((2, 2, n, n))
    for x, y, a, b in itertools.product(range(2), range(2), range(n), range(n)):
        if (a - b) % n == x * y:
            table[x, y, a, b] = 1.0 / n
    return table


def _ghz_mod_table(n: int) -> np.ndarray:
    table = np.zeros((2, 2, 2, n, n, n))
    for x, y, z, b, c in itertools.product(range(2), range(2), range(2), range(n), range(n)):
        table[x, y, z, (b + c + x * y * z) % n, b, c] = 1.0 / n**2
    return table


def _random_table(rng, input_sizes, output_sizes) -> np.ndarray:
    """Independent random output distribution per input: signalling."""
    flat = rng.dirichlet(np.ones(int(np.prod(output_sizes))), size=int(np.prod(input_sizes)))
    return flat.reshape(tuple(input_sizes) + tuple(output_sizes))


# --------------------------------------------------------------------------
# closed forms used by the gates


def _wrap(angle: float) -> float:
    return (angle + math.pi) % TWO_PI - math.pi


def bound_value(n: int, k: int, alpha: float, beta: float, m: int) -> float:
    """alpha^4 + beta^4 + 2 alpha^2 beta^2 max_{L <= k} cos(g_L / 4L), with
    g_L the distance of L theta from the nearest multiple of 2 pi."""
    theta = TWO_PI * m / n
    best = max(math.cos(abs(_wrap(length * theta)) / (4 * length)) for length in range(1, k + 1))
    return alpha**4 + beta**4 + 2 * (alpha * beta) ** 2 * best


# --------------------------------------------------------------------------
# workloads


def _seed_arg(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _ns_sweep(rng, work: Path) -> tuple[Op, list[Op]]:
    phases = _w_phases(rng, None)
    warmup = Op(
        ("wphase", "--mode", "single", _write(work / "warmup.json", _assignment(phases))),
    )
    ops = []
    for _ in range(2):
        grid = np.sort(rng.uniform(0.0, TWO_PI, size=2))
        ops.append(
            Op(
                ("wphase", "--mode", "theorem", "--grid", ",".join(map(repr, grid.tolist())),
                 "--seed", _seed_arg(rng)),
                expect={"grid_size": len(grid)},
            )
        )
    return warmup, ops


def _assignment(phases: np.ndarray) -> dict:
    return {name: phases[i].tolist() for i, name in enumerate(("alpha", "beta", "gamma"))}


def _short_ops(rng, work: Path) -> tuple[Op, list[Op]]:
    ops: list[Op] = []

    def verify(name: str, doc: dict, expect_exit: int, **expect) -> None:
        ops.append(Op(("verify", _write(work / f"{name}.json", doc)), expect_exit, expect))

    for d in range(2, 9):
        verify(f"pure{d}", _cq_doc((2, 2), (d, d), _pure_pair_family(rng, d, False), "pure", 0), 0)
    for d in range(2, 5):
        verify(f"mixed{d}", _cq_doc((2, 2), (d, d), _mixed_pair_family(rng, d), "mixed", 0), 0)
        verify(
            f"signal{d}",
            _cq_doc((2, 2), (d, d), _pure_pair_family(rng, d, True), "signalling", 1),
            1,
        )
    for i in range(3):
        verify(f"w{i}", _cq_doc((2, 2, 2), (2, 2, 2), _w_family(_w_phases(rng, None)), "w", 0), 0)
    for i in range(2):
        perturb, violation = _w_perturbation(rng)
        doc = _cq_doc((2, 2, 2), (2, 2, 2), _w_family(_w_phases(rng, perturb)), "w-perturbed", 1)
        verify(f"wsig{i}", doc, 1, violation=violation)
    for i in range(2):
        theta = float(rng.uniform(0.1, TWO_PI - 0.1))
        verify(f"ghz{i}", _cq_doc((2, 2, 2), (2, 2, 2), _ghz_family(theta), "ghz", 0), 0)
    for n in range(2, 9):
        verify(f"mod{n}", _cc_doc((2, 2), (n, n), _mod_table(n), "mod", 0), 0)
    for n in range(2, 5):
        verify(f"ghzmod{n}", _cc_doc((2, 2, 2), (n, n, n), _ghz_mod_table(n), "ghz-mod", 0), 0)
    verify("ccsig2", _cc_doc((2, 2), (3, 3), _random_table(rng, (2, 2), (3, 3)), "cc-signalling", 1), 1)
    verify(
        "ccsig3",
        _cc_doc((2, 2, 2), (2, 2, 2), _random_table(rng, (2, 2, 2), (2, 2, 2)), "cc-signalling", 1),
        1,
    )

    for i in range(3):
        path = _write(work / f"assign{i}.json", _assignment(_w_phases(rng, None)))
        ops.append(Op(("wphase", "--mode", "single", path)))
    for i in range(3):
        perturb, violation = _w_perturbation(rng)
        path = _write(work / f"assignsig{i}.json", _assignment(_w_phases(rng, perturb)))
        ops.append(Op(("wphase", "--mode", "single", path), 1, {"violation": violation}))

    for n in (2, 3, 4):
        for residue in range(1, n):
            m = residue + n * int(rng.integers(0, 3))
            angle = float(rng.uniform(0.2, math.pi / 2 - 0.2))
            alpha, beta = math.cos(angle), math.sin(angle)
            # the ascent seed stays at its default so that the ascent work,
            # which sets this workload's job time, is the same for every seed
            argv = ("bound", "--n", str(n), "--m", str(m), "--alpha", repr(alpha),
                    "--beta", repr(beta))
            ops.append(Op(argv, expect={"bound": (alpha, beta, m, n, n)}))

    angle = float(rng.uniform(0.2, math.pi / 2 - 0.2))
    ab = ("--alpha", repr(math.cos(angle)), "--beta", repr(math.sin(angle)))
    weights = _decreasing_weights(rng, 3)
    phases = {
        f"{x},{y},{i}": f"{int(rng.integers(0, 6))}/{int(rng.choice([2, 3, 4, 6]))}"
        for x, y, i in _keys(2, 2, 3)
    }
    phase_n = int(rng.integers(3, 9))
    ghz_n = int(rng.integers(2, 7))
    synths = [
        ("bit-flip",),
        ("sign-flip", *ab),
        ("phase", "--m", str(int(rng.integers(1, phase_n))), "--n", str(phase_n), *ab),
        ("irrational-phase", "--theta", repr(float(rng.uniform(0.05, 0.95))), "--n", "64"),
        ("eight-output",),
        ("nonmax-pure", "--weights", ",".join(map(repr, weights.tolist())),
         "--phases", json.dumps(phases, sort_keys=True)),
        ("ghz-phase", "--m", str(int(rng.integers(1, ghz_n))), "--n", str(ghz_n)),
    ]
    ops.extend(Op(("synth", *argv)) for argv in synths)

    order = rng.permutation(len(ops))
    return ops[0], [ops[i] for i in order]


def _coupling_synth(rng, work: Path) -> tuple[Op, list[Op]]:
    disordered = [
        _write(work / f"disordered{i}.json",
               _cq_doc((2, 2), (2, 2), _disordered_family(rng), "disordered", 0))
        for i in range(4)
    ]
    warmup = Op(
        ("synth", "mixed-disordered", "--target", disordered[0], "--samples", "4",
         "--out", str(work / "warmup_out.json")),
    )
    ops = []
    for n in range(2, 9):
        ops.append(Op(("synth", "max-entangled", "--n", str(n), "--seed", _seed_arg(rng),
                       "--out", str(work / f"maxent{n}_out.json"))))
    blocks = (2, 1, 1)
    target = _write(work / "blocks.json",
                    _cq_doc((2, 2), (sum(blocks),) * 2, _block_pure_family(rng, blocks),
                            "block-pure", 0))
    ops.append(Op(("synth", "general-pure", "--target", target, "--seed", _seed_arg(rng),
                   "--out", str(work / "blocks_out.json"))))
    # three of the slowest calls per job, so that the tail percentile
    # (ten calls beyond it) falls among them and not between call kinds
    for i, target in enumerate(disordered[1:], 1):
        ops.append(Op(("synth", "mixed-disordered", "--target", target, "--seed", _seed_arg(rng),
                       "--out", str(work / f"disordered{i}_out.json"))))
    order = rng.permutation(len(ops))
    return warmup, [ops[i] for i in order]


@dataclass(frozen=True)
class Workload:
    """Why the workload is in the benchmark, and the function that makes
    its warm-up operation and operation list from an RNG and a directory."""

    why: str
    build: Callable[[np.random.Generator, Path], tuple[Op, list[Op]]]


WORKLOADS = {
    "ns_sweep": Workload(
        "W-phase theorem sweeps: whole families through the no-signalling check, "
        "where a batched kernel shows; synthesis, bounds and io stay idle",
        _ns_sweep,
    ),
    "short_ops": Workload(
        "seeded one-off verify, wphase, bound and exact synth calls: per-call "
        "parsing, loading and single-box checks set the median, bound ascents the tail",
        _short_ops,
    ),
    "coupling_synth": Workload(
        "Haar-coupling synth at 1000 samples with --out: sampling and simulate "
        "dominate, one box per call is checked, and documents are written",
        _coupling_synth,
    ),
}


def generate(workload: str, seed: int, work: Path) -> tuple[Op, list[Op]]:
    """Write the workload's documents under ``work`` and return its
    warm-up operation and its fixed, seeded list of operations."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload].build(rng, work)


# --------------------------------------------------------------------------
# correctness gate


def check(op: Op, code: int | None, stdout: str) -> str | None:
    """Why the finished operation is wrong, or None when it is right."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    command = op.argv[0]
    expect = op.expect
    if "violation" in expect:
        if abs(report["worst_violation"] - expect["violation"]) > MATCH_TOL:
            return f"worst_violation {report['worst_violation']!r}, expected {expect['violation']!r}"
    if command == "wphase" and report.get("mode") == "theorem":
        if report["equivalence_holds"] is not True:
            return "equivalence_holds is not true"
        if report["worst_violation_mismatch"] > MATCH_TOL:
            return f"worst_violation_mismatch {report['worst_violation_mismatch']!r}"
        if report["local_cases"] != expect["grid_size"] ** 6:
            return f"local_cases {report['local_cases']}, expected {expect['grid_size'] ** 6}"
    if command == "bound":
        alpha, beta, m, n, kmax = expect["bound"]
        for row in report["frontier"]:
            if row["confirmed"] is not True:
                return f"frontier row k={row['k']} not confirmed"
            want = bound_value(n, row["k"], alpha, beta, m)
            if abs(row["value"] - want) > MATCH_TOL:
                return f"frontier row k={row['k']} value {row['value']!r}, expected {want!r}"
        if len(report["frontier"]) != kmax:
            return f"frontier has {len(report['frontier'])} rows, expected {kmax}"
    if command == "synth":
        if report["passed"] is not True:
            return "synthesised box is not non-signalling"
        if not report["target_distance"] <= report["distance_tolerance"]:
            return f"target_distance {report['target_distance']!r} above tolerance"
        if "--out" in op.argv and not Path(op.argv[op.argv.index("--out") + 1]).is_file():
            return "--out file was not written"
    return None
