"""End-to-end acceptance checks for the headline guarantees of the package.

Each test exercises one guarantee at its stated tolerance and, on success,
writes a single ``criterion N: PASS`` line straight to the terminal, so a
``pytest -v`` run shows one pass/fail line per criterion.  Timing guards
are asserted where a runtime budget is part of the guarantee.
"""
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from cqboxes import cli
from cqboxes.boxes import (
    CCBox,
    CQBox,
    cc_no_signalling,
    chsh_value,
    cq_box_distance,
    cq_no_signalling,
    induced_ccbox,
    mix_boxes,
    pr_box,
)
from cqboxes.bounds import best_fidelity, verify_bound
from cqboxes.io import box_to_document, document_to_box, load_box
from cqboxes.multipartite import (
    ghz_phase_box,
    ghz_phase_strategy,
    w_phase_theorem_check,
)
from cqboxes.quantum import (
    DensityMatrix,
    PartyStructure,
    StateVector,
    bell_state,
    check_uu_star_invariance,
    fidelity,
    haar_unitary,
    phi_plus,
)
from cqboxes.synthesis import (
    bell_canonical_form,
    bit_flip_strategy,
    eight_output_strategy,
    eight_output_targets,
    general_pure_strategy,
    irrational_phase_strategy,
    max_entangled_strategy,
    mixed_disordered_strategy,
    nonmax_pure_strategy,
    phase_family_box,
    rational_phase_strategy,
    sign_flip_strategy,
    simulate,
    unitary_family_box,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _announce(capsys, line: str) -> None:
    """Write one pass line to the real terminal, bypassing capture."""
    with capsys.disabled():
        print(line)


def _coupling_non_signalling(coupling, draws: int = 5, seed: int = 0) -> float:
    """Worst no-signalling violation of a sampler-backed coupling.

    The alphabet is continuous, so a table comparison is impossible; the
    check verifies the two properties that make the coupling's marginals
    input-independent.  One side's sample stream is drawn once and must
    be byte-identical across input tuples.  The other side multiplies the
    conjugated draw by a per-input relabel, which leaves the (block) Haar
    marginal unchanged exactly when the relabel is unitary and supported
    on the blocks.
    """
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(*(range(s) for s in coupling.input_sizes)))
    mask = np.zeros((coupling.dim, coupling.dim), dtype=bool)
    offset = 0
    for d in coupling.block_dims:
        mask[offset : offset + d, offset : offset + d] = True
        offset += d
    worst = 0.0
    for key in keys:
        relabel = coupling.relabel[key]
        gram = relabel @ relabel.conj().T - np.eye(coupling.dim)
        worst = max(worst, float(np.max(np.abs(gram))))
        outside = np.abs(relabel[~mask])
        if outside.size:
            worst = max(worst, float(outside.max()))
    for _ in range(draws):
        base = coupling.draw_base(rng)
        reference = coupling.sample_pair(keys[0], base)[1]
        for key in keys[1:]:
            other = coupling.sample_pair(key, base)[1]
            worst = max(worst, float(np.max(np.abs(other - reference))))
    return worst


def _classical_component_violation(strategy) -> float:
    box = strategy.ccbox
    if isinstance(box, CCBox):
        return cc_no_signalling(box, tol=1e-9).worst_violation
    return _coupling_non_signalling(box)


def _bell_projectors() -> list[np.ndarray]:
    states = [bell_state(i).amplitudes for i in range(4)]
    return [np.outer(amp, amp.conj()) for amp in states]


def _random_disordered_family(rng: np.random.Generator) -> CQBox:
    """Two-qubit family: random Bell weights and local unitaries per input."""
    structure = PartyStructure.qubits("AB")
    projectors = _bell_projectors()
    outputs = {}
    for key in itertools.product(range(2), range(2)):
        weights = rng.dirichlet(np.ones(4))
        local = np.kron(haar_unitary(2, rng).matrix, haar_unitary(2, rng).matrix)
        rho = sum(w * p for w, p in zip(weights, projectors))
        outputs[key] = DensityMatrix(local @ rho @ local.conj().T, structure)
    return CQBox.from_outputs((2, 2), structure, outputs)


def test_criterion_1_haar_invariance_identity(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            worst = max(worst, check_uu_star_invariance(haar_unitary(n, rng), n))
    assert worst <= 1e-10

    # negative control: independent draws on the two factors break invariance
    lowest = math.inf
    for n in (2, 3, 4):
        for _ in range(3):
            u = haar_unitary(n, rng).matrix
            v = haar_unitary(n, rng).matrix
            phi = phi_plus(n).amplitudes
            residual = float(np.linalg.norm(np.kron(u, v) @ phi - phi))
            lowest = min(lowest, residual)
    assert lowest > 1e-2

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(
        capsys,
        f"criterion 1: PASS  invariance residual {worst:.1e} over 300 draws, "
        f"control residual >= {lowest:.2f}, {elapsed:.2f}s",
    )


def _nonmax_target(weights, phases) -> CQBox:
    n = len(weights)
    structure = PartyStructure.pair(n)
    outputs = {}
    for x, y in itertools.product(range(2), range(2)):
        amp = np.zeros(n * n, dtype=complex)
        for i, w in enumerate(weights):
            turn = float(phases.get((x, y, i), Fraction(0)))
            amp[i * n + i] = math.sqrt(w) * np.exp(2j * math.pi * turn)
        outputs[(x, y)] = StateVector(amp, structure)
    return CQBox.from_pure((2, 2), outputs)


def _two_block_family() -> CQBox:
    """Dimension-4 pure family whose Schmidt spectrum has two equal pairs."""
    coeffs = np.sqrt(np.array([0.4, 0.4, 0.1, 0.1]))
    inner = [
        haar_unitary(2, np.random.default_rng(71)).matrix,
        haar_unitary(2, np.random.default_rng(72)).matrix,
    ]
    dress_a = [np.eye(4, dtype=complex), haar_unitary(4, np.random.default_rng(73)).matrix]
    dress_b = [np.eye(4, dtype=complex), haar_unitary(4, np.random.default_rng(74)).matrix]
    structure = PartyStructure.pair(4)
    outputs = {}
    for x, y in itertools.product(range(2), range(2)):
        core = np.eye(4, dtype=complex)
        if x * y:
            core[:2, :2] = inner[0]
            core[2:, 2:] = inner[1]
        mat = dress_a[x] @ core @ np.diag(coeffs) @ dress_b[y].T
        outputs[(x, y)] = StateVector(mat.reshape(-1), structure)
    return CQBox.from_pure((2, 2), outputs)


def test_criterion_2_construction_exactness(capsys):
    start = time.monotonic()
    cases = []

    bell_targets = {
        (x, y): bell_state(x * y).amplitudes for x in range(2) for y in range(2)
    }
    target = CQBox.from_pure(
        (2, 2),
        {
            key: StateVector(amp, PartyStructure.qubits("AB"))
            for key, amp in bell_targets.items()
        },
    )
    cases.append(("bit-flip", bit_flip_strategy(), target))

    cases.append(
        (
            "sign-flip",
            sign_flip_strategy(0.8, 0.6),
            phase_family_box(lambda x, y: math.pi * x * y, 0.8, 0.6),
        )
    )

    for m, n in ((1, 4), (2, 3)):
        cases.append(
            (
                f"phase {m}/{n}",
                rational_phase_strategy(m, n, 0.8, 0.6),
                phase_family_box(lambda x, y: 2 * math.pi * m * x * y / n, 0.8, 0.6),
            )
        )

    rng = np.random.default_rng(20)
    for n in (2, 3):
        for rep in range(3):
            targets = np.reshape([haar_unitary(n, rng).matrix for _ in range(4)], (2, 2, n, n))
            cases.append(
                (
                    f"random maximally entangled n={n} #{rep}",
                    max_entangled_strategy(targets),
                    unitary_family_box(targets),
                )
            )

    cases.append(
        (
            "eight-output",
            eight_output_strategy(),
            unitary_family_box(eight_output_targets()),
        )
    )

    nonmax_cases = [
        ((0.7, 0.3), {(1, 1, 0): Fraction(1, 3), (1, 1, 1): Fraction(1, 6), (0, 1, 1): Fraction(1, 7)}),
        ((0.6, 0.3, 0.1), {(1, 1, 1): Fraction(1, 4), (1, 0, 2): Fraction(1, 3), (0, 1, 1): Fraction(1, 5)}),
    ]
    for weights, phases in nonmax_cases:
        cases.append(
            (
                f"nonmax n={len(weights)}",
                nonmax_pure_strategy(weights, phases),
                _nonmax_target(weights, phases),
            )
        )

    two_block = _two_block_family()
    cases.append(("two-block dim 4", general_pure_strategy(two_block), two_block))

    worst_distance = 0.0
    worst_component = 0.0
    for name, strategy, target in cases:
        box = simulate(strategy, samples=5, seed=9)
        distance = cq_box_distance(box, target)
        assert distance <= 1e-9, f"{name}: distance {distance:.3e}"
        assert cq_no_signalling(box, tol=1e-9).passed, f"{name}: quantum output signals"
        component = _classical_component_violation(strategy)
        assert component <= 1e-9, f"{name}: classical component violation {component:.3e}"
        worst_distance = max(worst_distance, distance)
        worst_component = max(worst_component, component)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(
        capsys,
        f"criterion 2: PASS  {len(cases)} constructions, worst distance "
        f"{worst_distance:.1e}, worst component violation {worst_component:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_computational_measurement_bridge(capsys):
    box = simulate(bit_flip_strategy(), seed=0)
    eye = np.eye(2)
    induced = induced_ccbox(box, [[eye, eye], [eye, eye]])
    reference = pr_box()
    tv = max(
        0.5 * float(np.abs(induced.table[x, y] - reference.table[x, y]).sum())
        for x in range(2)
        for y in range(2)
    )
    assert tv <= 1e-12
    value = chsh_value(induced)
    assert abs(value - 4.0) <= 1e-9
    assert value > 2.0 * math.sqrt(2.0)
    _announce(
        capsys,
        f"criterion 3: PASS  measured table matches at tv {tv:.1e}, "
        f"correlation value {value:.9f} exceeds {2 * math.sqrt(2):.4f}",
    )


def test_criterion_4_irrational_phase_approximation(capsys):
    theta = 1.0 / math.sqrt(2.0)
    amplitude = 1.0 / math.sqrt(2.0)
    target = phase_family_box(
        lambda x, y: 2.0 * math.pi * theta * x * y, amplitude, amplitude
    )
    previous = -1.0
    summary = []
    for n in (10, 100, 1000):
        strategy, bound = irrational_phase_strategy(theta, n)
        box = simulate(strategy, seed=5)
        worst = min(
            fidelity(box.output(key), target.output(key)) for key in target.inputs
        )
        assert worst >= 1.0 - bound, f"n={n}: fidelity {worst} below 1 - {bound}"
        assert worst >= previous, f"n={n}: fidelity decreased"
        previous = worst
        summary.append(f"n={n}: {worst:.7f}")
    _announce(
        capsys,
        "criterion 4: PASS  fidelity within bound and nondecreasing ("
        + ", ".join(summary)
        + ")",
    )


FROZEN_GAPS = {
    (2, 1): 0.134,
    (3, 1): 0.0615,
    (3, 2): 0.0156,
    (4, 1): 0.0350,
    (4, 2): 0.0350,
    (4, 3): 0.0038,
}


def test_criterion_5_resource_frontier(capsys):
    start = time.monotonic()
    confirmed = 0
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            result = best_fidelity(n, k)
            if k == n:
                assert result.value >= 1.0 - 1e-9, f"(n={n}, k={n}) not exact"
            else:
                floor = FROZEN_GAPS[(n, k)]
                assert result.value <= 1.0 - floor, (
                    f"(n={n}, k={k}) value {result.value:.6f} above 1 - {floor}"
                )
            check = verify_bound(n, k)
            assert check.confirmed, f"(n={n}, k={k}) ascent did not confirm"
            confirmed += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _announce(
        capsys,
        f"criterion 5: PASS  {confirmed} (n, k) pairs confirmed, frozen gaps "
        f"respected, {elapsed:.1f}s",
    )


def test_criterion_6_disordered_mixtures(capsys):
    rng = np.random.default_rng(3)
    projectors = _bell_projectors()
    worst_reconstruction = 0.0
    worst_aggregation = 0.0
    worst_distance = 0.0
    for family in range(10):
        box = _random_disordered_family(rng)

        for key, state in zip(box.inputs, map(box.output, box.inputs)):
            left, right, weights = bell_canonical_form(state)
            local = np.kron(left.matrix, right.matrix)
            rho = sum(w * p for w, p in zip(weights, projectors))
            error = float(np.max(np.abs(local @ rho @ local.conj().T - state.matrix)))
            assert error <= 1e-8, f"family {family} input {key}: {error:.3e}"
            worst_reconstruction = max(worst_reconstruction, error)

        schedule, strategies = mixed_disordered_strategy(box)
        for key, components in schedule.families.items():
            for index in {idx for _, idx in components}:
                total = sum(w for w, assign in schedule.intervals if assign[key] == index)
                expected = sum(p for p, idx in components if idx == index)
                gap = abs(total - expected)
                assert gap <= 1e-12
                worst_aggregation = max(worst_aggregation, gap)

        boxes = [simulate(s, samples=3, seed=11 + i) for i, s in enumerate(strategies)]
        mixed = mix_boxes([(w, b) for (w, _), b in zip(schedule.intervals, boxes)])
        distance = cq_box_distance(mixed, box)
        assert distance <= 1e-8, f"family {family}: distance {distance:.3e}"
        worst_distance = max(worst_distance, distance)

        for _, assignment in schedule.intervals:
            column = CQBox.from_pure(
                box.input_sizes,
                {key: schedule.pure_states[key][assignment[key]] for key in box.inputs},
            )
            assert cq_no_signalling(column, tol=1e-9).passed

    _announce(
        capsys,
        f"criterion 6: PASS  10 families, reconstruction {worst_reconstruction:.1e}, "
        f"aggregation {worst_aggregation:.1e}, mixture distance {worst_distance:.1e}",
    )


def test_criterion_7_three_party_phase_theorem(capsys):
    report = w_phase_theorem_check()
    assert report.local_all_non_signalling
    assert report.local_all_decomposable
    assert report.perturbed_all_signalling
    assert report.perturbed_none_decomposable
    assert report.random_equivalence_holds
    assert report.equivalence_holds
    # every perturbed case violates by at least the predicted law minus
    # the observed mismatch, which must clear 1e-3
    floor = 2.0 * math.sin(math.pi / 4.0) / 3.0 - report.worst_violation_mismatch
    assert floor >= 1e-3

    rng = np.random.default_rng(17)
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
        assert cq_no_signalling(ghz_phase_box(float(theta)), tol=1e-9).passed

    worst = 0.0
    for m, n in ((1, 2), (1, 3), (2, 3), (3, 4)):
        box = simulate(ghz_phase_strategy(m, n), seed=3)
        target = ghz_phase_box(2.0 * math.pi * m / n)
        worst = max(worst, cq_box_distance(box, target))
    assert worst <= 1e-10

    _announce(
        capsys,
        f"criterion 7: PASS  {report.local_cases} local + {report.perturbed_cases} "
        f"perturbed + {report.random_cases} random cases, violation floor "
        f"{floor:.3f}, three-party strategies within {worst:.1e}",
    )


def _run_cli(capsys, *argv: str):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_8_cli_contract(capsys, tmp_path):
    box_paths = sorted(
        p for p in FIXTURES.glob("*.json") if not p.name.startswith("w_assignment")
    )
    assert len(box_paths) >= 15

    for path in box_paths:
        box = load_box(path)
        rebuilt = document_to_box(box_to_document(box))
        if isinstance(box, CCBox):
            assert np.array_equal(box.table, rebuilt.table)
        else:
            assert cq_box_distance(box, rebuilt) <= 1e-12

    for path in box_paths:
        code, _ = _run_cli(capsys, "verify", str(path))
        expected = 1 if path.stem == "signalling_family" else 0
        assert code == expected, f"{path.name}: exit {code}, expected {expected}"

    code, _ = _run_cli(
        capsys, "wphase", "--mode", "single", str(FIXTURES / "w_assignment_table.json")
    )
    assert code == 0
    code, _ = _run_cli(
        capsys, "wphase", "--mode", "single", str(FIXTURES / "w_assignment_xz.json")
    )
    assert code == 1

    # determinism: identical invocations give byte-identical reports
    for argv in (
        ("synth", "phase", "--m", "2", "--n", "5", "--seed", "3"),
        ("verify", str(FIXTURES / "pr_box.json")),
        ("bound", "--n", "2"),
    ):
        first_code, first_out = _run_cli(capsys, *argv)
        second_code, second_out = _run_cli(capsys, *argv)
        assert first_code == second_code == 0
        assert first_out == second_out
        json.loads(first_out)

    # documented failure codes: 2 for malformed input, 3 for exhausted budget
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run_cli(capsys, "verify", str(bad))
    assert code == 2
    code, _ = _run_cli(capsys, "bound", "--n", "2", "--budget", "0")
    assert code == 3

    _announce(
        capsys,
        f"criterion 8: PASS  {len(box_paths)} golden round trips, exit codes "
        "0/1/2/3 honored, reports byte-identical across repeat runs",
    )
