"""Command-line driver: verify boxes, synthesise the library's families
against their analytic targets, compute approximation frontiers, and
probe the three-party phase theorem.

Reports go to stdout as JSON with sorted keys, so a command is
byte-identical across runs given the same flags and seed; timing goes to
stderr.  Exit codes: 0 success, 1 a check failed (signalling found,
distance above tolerance, bound not confirmed), 2 bad usage or malformed
input, 3 finished with a budget warning, 4 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from cqboxes.bounds import best_fidelity, verify_bound
from cqboxes.boxes import (
    CCBox,
    CQBox,
    cc_no_signalling,
    cq_box_distance,
    cq_no_signalling,
)
from cqboxes.io import BoxDocumentError, _numbers, _read_json, load_box, save_box
from cqboxes.multipartite import (
    PhaseAssignment,
    ghz_phase_box,
    ghz_phase_strategy,
    is_local_equivalent,
    w_phase_box,
    w_phase_theorem_check,
)
from cqboxes.quantum import (
    MAX_TENSOR_DIM, TOLERANCE, bell_state, haar_from_normals, invalid_distribution,
    invalid_tolerance, invalid_unitary,
)
from cqboxes.synthesis import (
    bit_flip_strategy,
    eight_output_strategy,
    eight_output_targets,
    general_pure_strategy,
    irrational_phase_strategy,
    max_entangled_strategy,
    mixed_disordered_strategy,
    nonmax_family_box,
    nonmax_pure_strategy,
    phase_family_box,
    rational_phase_strategy,
    sign_flip_strategy,
    simulate,
    unitary_family_box,
)

MAX_WITNESSES = 10
BOUND_ALPHABET_CAP = 4
BOUND_KMAX_CAP = 64  # every row with k >= n already has value 1
THEOREM_FAMILY_CAP = 2**18  # families per side of a theorem sweep: --grid of at most 8 values


def _finite_float(text: str) -> float:
    """argparse type for a float flag: refuses NaN and infinities."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    if reason := invalid_tolerance(value := _finite_float(text)):
        raise argparse.ArgumentTypeError(reason)
    return value


def _int_in(lo: int, hi: int | None = None) -> type[argparse.Action]:
    """argparse action refusing an int flag outside [lo, hi] as a usage error."""

    class IntIn(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if value < lo:
                floor = "be non-negative" if lo == 0 else f"be at least {lo}"
                parser.error(f"{option_string} must {floor}, got {value}")
            if hi is not None and value > hi:
                parser.error(f"{option_string} {value} is above the cap of {hi}")
            setattr(namespace, self.dest, value)

    return IntIn


def _finite_floats(text: str) -> list[float]:
    return [_finite_float(part) for part in text.split(",")] if text else []


def _digest(record: dict, files: tuple[str, ...] = ()) -> str:
    """Short content hash over the command's parameters and input files."""
    h = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    for path in files:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def _verify_report(box, tol: float) -> tuple[dict, bool]:
    if isinstance(box, CCBox):
        kind, report = "cc", cc_no_signalling(box, tol=tol)
    else:
        kind, report = "cq", cq_no_signalling(box, tol=tol)
    worst = sorted(report.witnesses, key=lambda w: -w.violation)[:MAX_WITNESSES]
    return (
        {
            "kind": kind,
            "tolerance": report.tolerance,
            "passed": report.passed,
            "worst_violation": report.worst_violation,
            "witnesses": [dataclasses.asdict(w) for w in worst],
        },
        report.passed,
    )


def _cmd_verify(args) -> tuple[dict, int]:
    box = load_box(args.box, tol=args.tol)
    actual = "cc" if isinstance(box, CCBox) else "cq"
    if args.kind and args.kind != actual:
        raise ValueError(f"document is kind '{actual}', expected '{args.kind}'")
    body, passed = _verify_report(box, args.tol)
    report = {
        "command": "verify",
        "input": args.box,
        "digest": _digest({"tol": args.tol}, (args.box,)),
        **body,
    }
    return report, 0 if passed else 1


def _parse_weights(text: str) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--weights must be comma-separated numbers, got '{text}'") from exc
    if bad := [w for w in weights if not math.isfinite(w)]:
        raise ValueError(f"--weights must be finite numbers, got {bad[0]}")
    # the checks of nonmax_pure_strategy, reported in the flag's terms
    if len(weights) < 2:
        raise ValueError(f"--weights needs at least two levels, got '{text}'")
    if invalid_distribution(weights) or min(weights) <= 0:
        raise ValueError(f"--weights must be positive and sum to 1, got '{text}'")
    if any(b >= a for a, b in zip(weights, weights[1:])):
        raise ValueError(
            f"--weights must be strictly decreasing, got '{text}'; repeated levels "
            "form degenerate blocks, which general-pure handles"
        )
    return weights


def _parse_phases(text: str, levels: int) -> dict[tuple[int, int, int], Fraction]:
    try:
        # an object arrives as its (key, value) pairs, repeated keys included
        raw = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError:
        raw = None
    if not isinstance(raw, tuple):
        raise ValueError("--phases must be a JSON object like {\"1,1,0\": \"1/4\"}")
    phases, spellings = {}, {}
    for key, value in raw:
        try:
            parts = tuple(int(v) for v in key.split(","))
            fraction = Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad phase entry '{key}': {value!r}") from exc
        if len(parts) != 3:
            raise ValueError(f"phase key '{key}' must be 'x,y,level'")
        if not (0 <= parts[0] < 2 and 0 <= parts[1] < 2 and 0 <= parts[2] < levels):
            raise ValueError(
                f"--phases key '{key}' is out of range: x and y are 0 or 1, "
                f"level is below {levels}"
            )
        if parts in spellings:
            raise ValueError(
                f"--phases keys '{spellings[parts]}' and '{key}' both name entry "
                f"{','.join(map(str, parts))}"
            )
        spellings[parts] = key
        phases[parts] = fraction
    return phases


def _unitaries_from_box(box: CQBox) -> np.ndarray:
    """Read off the ``input_sizes + (n, n)`` stack of T with |psi> = (T x 1)|phi+_n>,
    rejecting outputs that are not maximally entangled."""
    dims = box.structure.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError("max-entangled targets need two parties of equal dimension")
    n = dims[0]
    mats = math.sqrt(n) * box.pure_vectors().reshape(box.input_sizes + (n, n))
    if fault := invalid_unitary(mats, 1e-6):
        raise ValueError(f"output at {fault[0]} is not maximally entangled")
    return mats


def _target_file(args) -> tuple[CQBox, dict]:
    """Load --target as a quantum-output box, with the report fields that
    record it as the construction's target and input file."""
    if not args.target:
        raise ValueError(f"{args.construction} requires --target")
    box = load_box(args.target, tol=args.tol)
    if not isinstance(box, CQBox):
        raise ValueError(f"{args.construction} needs a quantum-output target box")
    return box, {"target": box, "files": (args.target,)}


def _bit_flip(args) -> dict:
    target = CQBox.from_pure(
        (2, 2),
        {(x, y): bell_state(x * y) for x, y in itertools.product(range(2), range(2))},
    )
    return {"strategy": bit_flip_strategy(), "target": target}


def _sign_flip(args) -> dict:
    return {
        "strategy": sign_flip_strategy(args.alpha, args.beta),
        "target": phase_family_box(lambda x, y: math.pi * x * y, args.alpha, args.beta),
    }


def _phase(args) -> dict:
    return {
        "strategy": rational_phase_strategy(args.m, args.n, args.alpha, args.beta),
        # m is reduced exactly, as the strategy reduces it, before the float angle
        "target": phase_family_box(
            lambda x, y: 2 * math.pi * (args.m % args.n) * x * y / args.n, args.alpha, args.beta
        ),
    }


def _irrational_phase(args) -> dict:
    strategy, bound = irrational_phase_strategy(args.theta, args.n, args.alpha, args.beta)
    return {
        "strategy": strategy,
        "target": phase_family_box(
            lambda x, y: 2 * math.pi * (args.theta % 1.0) * x * y, args.alpha, args.beta
        ),
        # bound limits the infidelity; for pure states the trace distance
        # is sqrt(1 - fidelity)
        "tolerance": min(1.0, math.sqrt(bound)),
        "certificate": {
            "error_bound": bound,
            "numerator": round(args.n * args.theta),
            "denominator": args.n,
        },
    }


def _max_entangled(args) -> dict:
    # the report names whichever of --target and --n made the targets
    if args.target:
        target, built = _target_file(args)
        built["parameters"] = {"target": args.target}
        targets = _unitaries_from_box(target)
    else:
        if (n := args.n) < 2 or n * n > MAX_TENSOR_DIM:
            raise ValueError(f"--n {n} must give a joint dimension n^2 from 4 to {MAX_TENSOR_DIM}")
        rng = np.random.default_rng(args.seed)
        # the four draws of haar_unitary(n, rng), as one stack
        targets = haar_from_normals(rng.standard_normal((2, 2, 2 * n * n)), n)
        built = {"target": unitary_family_box(targets), "parameters": {"n": n}}
    return {**built, "strategy": max_entangled_strategy(targets)}


def _eight_output(args) -> dict:
    strategy = eight_output_strategy()
    table = strategy.ccbox.table  # uniform marginal: b pairs with its one a of weight 1/8
    pairings = {",".join(map(str, k)): table[k].argmax(axis=0).tolist() for k in np.ndindex(2, 3)}
    return {
        "strategy": strategy,
        "target": unitary_family_box(eight_output_targets()),
        "certificate": {"pairings": pairings},
    }


def _nonmax_pure(args) -> dict:
    weights = _parse_weights(args.weights)
    phases = _parse_phases(args.phases, len(weights))
    return {
        "strategy": nonmax_pure_strategy(weights, phases),
        "target": nonmax_family_box(weights, phases),
        "parameters": {
            "weights": weights,
            "phases": {",".join(map(str, k)): str(v) for k, v in sorted(phases.items())},
        },
    }


def _general_pure(args) -> dict:
    target, built = _target_file(args)
    return {**built, "strategy": general_pure_strategy(target)}


def _mixed_disordered(args) -> dict:
    target, built = _target_file(args)
    schedule = mixed_disordered_strategy(target)
    return {
        **built,
        "strategy": schedule,
        "tolerance": 1e-8,
        "certificate": {
            "intervals": len(schedule.weights),
            "interval_weights": schedule.weights.tolist(),
        },
    }


def _ghz_phase(args) -> dict:
    return {
        "strategy": ghz_phase_strategy(args.m, args.n),
        "target": ghz_phase_box(2 * math.pi * (args.m % args.n) / args.n),
    }


# synth flag -> its add_argument keywords
_SYNTH_FLAGS = {
    "alpha": {"type": _finite_float, "default": 1 / math.sqrt(2)},
    "beta": {"type": _finite_float, "default": 1 / math.sqrt(2)},
    "m": {"type": int, "default": 1, "help": "phase numerator"},
    "n": {"type": int, "default": 2, "help": "phase denominator / local dimension"},
    "theta": {"type": _finite_float, "default": 0.5, "help": "phase in turns of 2 pi"},
    "weights": {"default": "0.8,0.2", "help": "comma-separated level weights"},
    "phases": {"default": "{}", "help": 'JSON object of exact phases, e.g. {"1,1,0": "1/4"}'},
    "target": {"help": "target box document (max-entangled, general-pure, mixed-disordered)"},
    "samples": {"type": int, "action": _int_in(1), "default": 1000,
                "help": "samples for coupling strategies"},
}

# construction name -> (builder, the synth flags it reads), which is all that
# its sub-parser takes.  A builder returns the strategy and the analytic
# target, plus the report fields that differ from _SYNTH_DEFAULTS; the
# report's parameters are the flags read, less --samples, which the report
# records on its own, unless the builder returns its own.
_CONSTRUCTIONS = {
    "bit-flip": (_bit_flip, ()),
    "sign-flip": (_sign_flip, ("alpha", "beta")),
    "phase": (_phase, ("m", "n", "alpha", "beta")),
    "irrational-phase": (_irrational_phase, ("theta", "n", "alpha", "beta")),
    "max-entangled": (_max_entangled, ("n", "target", "samples")),
    "eight-output": (_eight_output, ()),
    "nonmax-pure": (_nonmax_pure, ("weights", "phases")),
    "general-pure": (_general_pure, ("target", "samples")),
    "mixed-disordered": (_mixed_disordered, ("target", "samples")),
    "ghz-phase": (_ghz_phase, ("m", "n")),
}
_SYNTH_DEFAULTS = {"tolerance": 1e-9, "certificate": None, "files": ()}


def _cmd_synth(args) -> tuple[dict, int]:
    builder, flags = _CONSTRUCTIONS[args.construction]
    parameters = {flag: getattr(args, flag) for flag in flags if flag != "samples"}
    built = {**_SYNTH_DEFAULTS, "parameters": parameters, **builder(args)}
    box = simulate(built["strategy"], samples=args.samples, seed=args.seed)
    distance = cq_box_distance(box, built["target"])
    body, ns_passed = _verify_report(box, args.tol)
    record = {
        "construction": args.construction,
        "parameters": built["parameters"],
        "samples": args.samples,
        "seed": args.seed,
    }
    report = {
        "command": "synth",
        **record,
        "digest": _digest(record, built["files"]),
        "target_distance": distance,
        "distance_tolerance": built["tolerance"],
        **body,
    }
    if built["certificate"] is not None:
        report["certificate"] = built["certificate"]
    metadata = {"label": f"synth-{args.construction}", "seed": args.seed, "tolerance": args.tol}
    if args.out:
        save_box(box, args.out, metadata)
        report["output"] = args.out
    if args.target_out:
        save_box(built["target"], args.target_out, metadata)
        report["target_output"] = args.target_out
    passed = ns_passed and distance <= built["tolerance"]
    return report, 0 if passed else 1


def _cmd_bound(args) -> tuple[dict, int]:
    if args.n > BOUND_ALPHABET_CAP:
        raise ValueError(
            f"--n {args.n}: phase denominators above {BOUND_ALPHABET_CAP} are refused "
            "(enumeration cap)"
        )
    kmax = args.kmax if args.kmax is not None else args.n
    record = {
        "n": args.n, "kmax": kmax, "m": args.m,
        "alpha": args.alpha, "beta": args.beta,
        "budget": args.budget, "restarts": args.restarts, "seed": args.seed,
    }
    # --budget buys one row per --restarts; the rows it buys come from one pass
    confirmed = min(kmax, args.budget // args.restarts)
    checks = []
    if confirmed:
        last = verify_bound(
            args.n, confirmed, args.alpha, args.beta, args.m,
            restarts=args.restarts, seed=args.seed,
        )
        checks = [*last.prefix, last]
    frontier = []
    failed = False
    for k in range(1, kmax + 1):
        check = checks[k - 1] if k <= confirmed else None
        result = check.bound if check else best_fidelity(args.n, k, args.alpha, args.beta, args.m)
        row = {
            "k": k,
            "value": result.value,
            "delta": result.delta,
            "cycle_length": result.cycle_length,
            "confirmed": check.confirmed if check else None,
        }
        if check:
            row["optimum"] = check.optimum
            if not check.confirmed:
                failed = True
                row["ascent"] = {
                    "restarts": args.restarts,
                    "sweeps": check.sweeps,
                    "unconverged": check.unconverged,
                }
        frontier.append(row)
    exceeded = confirmed < kmax
    report = {
        "command": "bound",
        **record,
        "digest": _digest(record),
        "frontier": frontier,
        "budget_exceeded": exceeded,
    }
    if kmax >= args.n:
        exact = frontier[args.n - 1]["value"] >= 1 - 1e-9
        report["full_alphabet_exact"] = exact
        if not exact:
            failed = True
    code = 1 if failed else 3 if exceeded else 0
    return report, code


def _load_assignment(path: str) -> PhaseAssignment:
    doc = _read_json(path, "assignment")
    if not isinstance(doc, dict) or not {"alpha", "beta", "gamma"} <= set(doc):
        raise ValueError("assignment must be an object with 'alpha', 'beta', 'gamma'")
    return PhaseAssignment(*(_numbers(doc[name], name) for name in ("alpha", "beta", "gamma")))


def _cmd_wphase(args) -> tuple[dict, int]:
    if args.mode == "single":
        if not args.assignment:
            raise ValueError("single mode requires an assignment file")
        assignment = _load_assignment(args.assignment)
        body, passed = _verify_report(w_phase_box(assignment), args.tol)
        decomposition = is_local_equivalent(assignment, args.tol)
        report = {
            "command": "wphase",
            "mode": "single",
            "input": args.assignment,
            "digest": _digest({"tol": args.tol}, (args.assignment,)),
            **body,
            "decomposition": None if decomposition is None else {
                name: phases.tolist() for name, phases in dataclasses.asdict(decomposition).items()
            },
        }
        return report, 0 if passed else 1

    if args.assignment:
        raise ValueError("theorem mode takes no assignment file")
    grid = args.grid or None  # an empty --grid keeps the default grid
    if grid is not None and len(grid) ** 6 > THEOREM_FAMILY_CAP:
        raise ValueError(
            f"--grid of {len(grid)} values makes {len(grid)}^6 local families, "
            f"above the cap of {THEOREM_FAMILY_CAP}"
        )
    kwargs = {"random_samples": args.random_samples, "seed": args.seed, "tol": args.tol}
    record = {"grid": grid, **kwargs}
    if grid is not None:
        kwargs["grid_values"] = grid
    result = w_phase_theorem_check(**kwargs)
    fields = dataclasses.asdict(result)
    counterexamples = fields.pop("counterexamples")
    report = {
        "command": "wphase",
        "mode": "theorem",
        "seed": args.seed,
        "digest": _digest(record),
        **fields,
        "equivalence_holds": result.equivalence_holds,
    }
    if counterexamples:  # failing clause -> its first assignment, as an assignment file
        report["counterexamples"] = {
            clause: {name: phases.tolist() for name, phases in assignment.items()}
            for clause, assignment in counterexamples.items()
        }
    return report, 0 if result.equivalence_holds else 1


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads a negative number in exponent form, or a
    comma-separated list of numbers led by a negative one, as a value
    (``--alpha -6e-1``, ``--grid -1e-3,2``) rather than as an option;
    subparsers are made of the same class."""

    _NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"^-{self._NUMBER}(,[-+]?{self._NUMBER})*$")


def _add_globals(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """Global flags, valid both before and after the subcommand."""
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--tol", type=_tolerance, default=TOLERANCE if defaults else suppress,
        help="numerical tolerance",
    )
    parser.add_argument(
        "--seed", type=int, action=_int_in(0), default=0 if defaults else suppress,
        help="random seed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cqboxes",
        description="Simulate and verify classical-input quantum-output boxes.",
    )
    _add_globals(parser, defaults=True)
    common = _Parser(add_help=False)
    _add_globals(common, defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", parents=[common], help="no-signalling check for a box document"
    )
    verify.add_argument("box", help="path to a box JSON document")
    verify.add_argument("--kind", choices=("cc", "cq"), help="require this document kind")

    synth = sub.add_parser(
        "synth", parents=[common], help="synthesise a family and compare it to its analytic target"
    )
    constructions = synth.add_subparsers(dest="construction", required=True)
    for name, (_, flags) in _CONSTRUCTIONS.items():
        # no abbreviations: --target would otherwise be read as --target-out
        # by a construction that takes no target
        entry = constructions.add_parser(name, parents=[common], allow_abbrev=False)
        # a finite strategy ignores samples; its report records the default
        entry.set_defaults(samples=_SYNTH_FLAGS["samples"]["default"])
        for flag in flags:
            entry.add_argument(f"--{flag}", **_SYNTH_FLAGS[flag])
        entry.add_argument("--out", help="write the synthesised box document here")
        entry.add_argument("--target-out", help="write the analytic target box document here")

    bound = sub.add_parser(
        "bound", parents=[common], help="best-fidelity frontier for restricted output alphabets"
    )
    bound.add_argument(
        "--n", type=int, action=_int_in(2), required=True, help="phase denominator (at most 4)"
    )
    bound.add_argument(
        "--kmax", type=int, action=_int_in(1, BOUND_KMAX_CAP),
        help="largest alphabet in the frontier (default n)",
    )
    bound.add_argument("--m", type=int, default=1, help="phase numerator")
    bound.add_argument("--alpha", type=_finite_float, default=0.8)
    bound.add_argument("--beta", type=_finite_float, default=0.6)
    bound.add_argument(
        "--budget", type=int, action=_int_in(0), default=64,
        help="ascent restarts to spend: each confirmed row costs --restarts, "
        "rows are confirmed from k = 1 up until it runs out",
    )
    bound.add_argument(
        "--restarts", type=int, action=_int_in(1), default=16,
        help="ascent restarts per row; fewer than 16 can leave a true bound unconfirmed (exit 1)",
    )

    wphase = sub.add_parser("wphase", parents=[common], help="probe the three-party phase locality theorem")
    wphase.add_argument(
        "--mode", choices=("theorem", "single"), default="theorem",
        help="sweep the whole theorem or test one assignment file",
    )
    wphase.add_argument("assignment", nargs="?", help="phase assignment JSON (single mode)")
    wphase.add_argument(
        "--grid", type=_finite_floats, help="comma-separated per-party phase grid values"
    )
    wphase.add_argument(
        "--random-samples", type=int, action=_int_in(0, THEOREM_FAMILY_CAP), default=40
    )

    return parser


# one parser per process: argparse parses each argv into a fresh namespace
_parser = functools.cache(build_parser)


def _render(report: dict) -> str:
    """The report as strict JSON; a NaN or infinity in it is a program fault."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"report is not valid JSON: {exc}") from exc


_HANDLERS = {
    "verify": _cmd_verify,
    "synth": _cmd_synth,
    "bound": _cmd_bound,
    "wphase": _cmd_wphase,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        report, code = _HANDLERS[args.command](args)
        text = _render(report)
    except (BoxDocumentError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(text)
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
