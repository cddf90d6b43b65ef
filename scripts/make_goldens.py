"""Regenerate the golden box documents under fixtures/.

Every file is written deterministically from the library's target
builders (fixed seeds for the randomised families), so a clean checkout
reproduces the directory byte for byte:

    python3 scripts/make_goldens.py
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from cqboxes.boxes import CCBox, CQBox, mod_box, pr_box
from cqboxes.io import save_box
from cqboxes.multipartite import PhaseAssignment, ghz_phase_box, w_phase_box
from cqboxes.quantum import (
    DensityMatrix,
    PartyStructure,
    StateVector,
    basis_state,
    bell_state,
    haar_unitary,
)
from cqboxes.synthesis import (
    eight_output_targets,
    nonmax_family_box,
    phase_family_box,
    unitary_family_box,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HALF = 1 / math.sqrt(2)


def bit_flip_family() -> CQBox:
    return CQBox.from_pure(
        (2, 2),
        {(x, y): bell_state(x * y) for x, y in itertools.product(range(2), range(2))},
    )


def signalling_family() -> CQBox:
    """Both parties receive a copy of x*y, so each local state leaks the
    other side's input."""
    structure = PartyStructure.qubits("AB")
    states = {
        (x, y): basis_state(structure, (x * y, x * y))
        for x, y in itertools.product(range(2), range(2))
    }
    return CQBox.from_pure((2, 2), states)


def nonmax_pure_family() -> CQBox:
    phases = {
        (1, 1, 1): Fraction(1, 4),
        (1, 0, 2): Fraction(1, 3),
        (0, 1, 1): Fraction(1, 5),
    }
    return nonmax_family_box((0.6, 0.3, 0.1), phases)


def two_block_family() -> CQBox:
    """Schmidt coefficients sqrt(0.4, 0.4, 0.1, 0.1); the (1, 1) output
    additionally rotates inside each equal-coefficient block."""
    d = np.sqrt([0.4, 0.4, 0.1, 0.1])
    w1, w2 = haar_unitary(2, 71).matrix, haar_unitary(2, 72).matrix
    w = np.zeros((4, 4), dtype=complex)
    w[:2, :2], w[2:, 2:] = w1, w2
    dress_a = {0: np.eye(4, dtype=complex), 1: haar_unitary(4, 73).matrix}
    dress_b = {0: np.eye(4, dtype=complex), 1: haar_unitary(4, 74).matrix}
    states = {}
    for x, y in itertools.product(range(2), range(2)):
        core = w if (x, y) == (1, 1) else np.eye(4, dtype=complex)
        mat = dress_a[x] @ core @ np.diag(d) @ dress_b[y].T
        states[(x, y)] = StateVector(mat.reshape(-1), PartyStructure.pair(4))
    return CQBox.from_pure((2, 2), states)


def max_entangled_family() -> CQBox:
    rng = np.random.default_rng(42)
    targets = np.reshape([haar_unitary(2, rng).matrix for _ in range(4)], (2, 2, 2, 2))
    return unitary_family_box(targets)


DISORDERED_MIXES = {
    (0, 0): (1.0, 0.0, 0.0, 0.0),
    (0, 1): (0.5, 0.5, 0.0, 0.0),
    (1, 0): (0.25, 0.25, 0.25, 0.25),
    (1, 1): (0.7, 0.1, 0.1, 0.1),
}


def mixed_disordered_family() -> CQBox:
    structure = PartyStructure.qubits("AB")
    outputs = {}
    for key, weights in DISORDERED_MIXES.items():
        mat = sum(w * bell_state(i).density().matrix for i, w in enumerate(weights))
        outputs[key] = DensityMatrix(mat, structure)
    return CQBox.from_outputs((2, 2), structure, outputs)


def mixed_disordered_rotated() -> CQBox:
    """The same Bell mixtures behind seeded local unitaries per input, so
    that each correlation matrix is off-diagonal and the Bell-form
    decomposition has to lift its rotations to SU(2)."""
    structure = PartyStructure.qubits("AB")
    diagonal = mixed_disordered_family()
    outputs = {}
    for i, key in enumerate(DISORDERED_MIXES):
        frame = np.kron(haar_unitary(2, 90 + 2 * i).matrix, haar_unitary(2, 91 + 2 * i).matrix)
        mat = frame @ diagonal.output(key).matrix @ frame.conj().T
        outputs[key] = DensityMatrix(mat, structure)
    return CQBox.from_outputs((2, 2), structure, outputs)


def table_assignment() -> dict:
    """Per-party phases as in the locality table: alpha fires with x,
    beta with y, gamma with z."""
    grid = lambda fn: [[[fn(x, y, z) for z in (0, 1)] for y in (0, 1)] for x in (0, 1)]
    return {
        "alpha": grid(lambda x, y, z: 0.9 * x),
        "beta": grid(lambda x, y, z: -1.3 * y),
        "gamma": grid(lambda x, y, z: 2.1 * z),
    }


def xz_assignment() -> dict:
    grid = lambda fn: [[[fn(x, y, z) for z in (0, 1)] for y in (0, 1)] for x in (0, 1)]
    zero = grid(lambda x, y, z: 0.0)
    return {
        "alpha": zero,
        "beta": zero,
        "gamma": grid(lambda x, y, z: math.pi * x * z),
    }


def assignment_box(doc: dict) -> CQBox:
    return w_phase_box(
        PhaseAssignment(
            np.array(doc["alpha"]), np.array(doc["beta"]), np.array(doc["gamma"])
        )
    )


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    boxes: dict[str, CCBox | CQBox] = {
        "pr_box": pr_box(),
        "mod4_box": mod_box(4),
        "signalling_family": signalling_family(),
        "bit_flip_family": bit_flip_family(),
        "sign_flip_family": phase_family_box(lambda x, y: math.pi * x * y, HALF, HALF),
        "phase_quarter_turn": phase_family_box(
            lambda x, y: math.pi * x * y / 2, 0.8, 0.6
        ),
        "phase_two_thirds": phase_family_box(
            lambda x, y: 4 * math.pi * x * y / 3, HALF, HALF
        ),
        "irrational_sqrt2_target": phase_family_box(
            lambda x, y: math.sqrt(2) * math.pi * x * y, HALF, HALF
        ),
        "max_entangled_family": max_entangled_family(),
        "eight_output_family": unitary_family_box(eight_output_targets()),
        "nonmax_pure_family": nonmax_pure_family(),
        "two_block_family": two_block_family(),
        "mixed_disordered_family": mixed_disordered_family(),
        "mixed_disordered_rotated": mixed_disordered_rotated(),
        "w_phase_local": assignment_box(table_assignment()),
        "ghz_half_turn": ghz_phase_box(math.pi),
    }
    for name, box in sorted(boxes.items()):
        save_box(box, FIXTURES / f"{name}.json", metadata={"label": name})
        print(f"wrote fixtures/{name}.json")
    for name, doc in (
        ("w_assignment_table", table_assignment()),
        ("w_assignment_xz", xz_assignment()),
    ):
        path = FIXTURES / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote fixtures/{name}.json")


if __name__ == "__main__":
    main()
