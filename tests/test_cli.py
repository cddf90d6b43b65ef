"""Tests for the command-line interface, driven in process."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cqboxes import bounds, boxes, cli, multipartite, quantum, synthesis
from cqboxes.boxes import CCBox, CQBox, cq_box_distance, pr_box
from cqboxes.cli import main
from cqboxes.io import load_box, save_box
from cqboxes.quantum import (
    TOLERANCE,
    DensityMatrix,
    PartyStructure,
    basis_state,
    bell_state,
    haar_unitary,
    invalid_unitary,
)
from cqboxes.synthesis import unitary_family_box

ROOT = Path(__file__).resolve().parent.parent


def reference_unitaries_from_box(box: CQBox) -> np.ndarray:
    """``cli._unitaries_from_box`` as it was before it read the target as one
    stack: each output through ``pure_output``, scaled and stacked in Python."""
    n = box.structure.dims[0]
    mats = [math.sqrt(n) * box.pure_output(key).amplitudes.reshape(n, n) for key in box.inputs]
    mats = np.reshape(mats, box.input_sizes + (n, n))
    if fault := invalid_unitary(mats, 1e-6):
        raise ValueError(f"output at {fault[0]} is not maximally entangled")
    return mats


def _haar_stack(sizes: tuple[int, ...], n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.reshape([haar_unitary(n, rng).matrix for _ in range(math.prod(sizes))], sizes + (n, n))


# (name, target box): maximally entangled families, and families refused as
# not maximally entangled or as mixed
UNITARY_READ_FAMILIES = [
    *((f"haar n={n} inputs {sizes}", unitary_family_box(_haar_stack(sizes, n, 10 * n)))
      for n, sizes in [(2, (2, 2)), (3, (3, 2)), (4, (1, 4)), (6, (2, 3))]),
    *((name, load_box(ROOT / "fixtures" / f"{name}.json"))
      for name in ["max_entangled_family", "eight_output_family", "bit_flip_family",
                   "two_block_family", "nonmax_pure_family", "mixed_disordered_family"]),
]


def run(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def signalling_ccbox() -> CCBox:
    """Alice's marginal leaks Bob's input."""
    table = np.zeros((2, 2, 2, 2))
    for x, y in itertools.product(range(2), range(2)):
        table[x, y, y, 0] = 1.0
    return CCBox((2, 2), (2, 2), table)


def disordered_box() -> CQBox:
    structure = PartyStructure.qubits("AB")
    mixes = {
        (0, 0): (1.0, 0.0, 0.0, 0.0),
        (0, 1): (0.5, 0.5, 0.0, 0.0),
        (1, 0): (0.25, 0.25, 0.25, 0.25),
        (1, 1): (0.7, 0.1, 0.1, 0.1),
    }
    outputs = {}
    for key, weights in mixes.items():
        mat = sum(
            w * bell_state(i).density().matrix for i, w in enumerate(weights)
        )
        outputs[key] = DensityMatrix(mat, structure)
    return CQBox.from_outputs((2, 2), structure, outputs)


def assignment_doc(fn_a, fn_b, fn_c) -> dict:
    grid = lambda fn: [[[fn(x, y, z) for z in (0, 1)] for y in (0, 1)] for x in (0, 1)]
    return {"alpha": grid(fn_a), "beta": grid(fn_b), "gamma": grid(fn_c)}


class TestVerify:
    def test_cc_pass(self, capsys, tmp_path):
        path = tmp_path / "pr.json"
        save_box(pr_box(), path)
        code, report, err = run(capsys, "verify", str(path))
        assert code == 0
        assert report["kind"] == "cc"
        assert report["passed"] is True
        assert report["worst_violation"] <= 1e-9
        assert len(report["digest"]) == 16
        assert "elapsed" in err

    def test_cc_fail(self, capsys, tmp_path):
        path = tmp_path / "leak.json"
        save_box(signalling_ccbox(), path)
        code, report, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert report["passed"] is False
        assert report["worst_violation"] == pytest.approx(1.0, abs=1e-12)
        assert report["witnesses"]
        first = report["witnesses"][0]
        assert first["subgroup"] == ["A"]
        assert first["violation"] == pytest.approx(1.0, abs=1e-12)

    def test_cq_pass(self, capsys, tmp_path):
        box_path = tmp_path / "phase.json"
        code, _, _ = run(
            capsys, "synth", "phase", "--m", "1", "--n", "3",
            "--out", str(box_path),
        )
        assert code == 0
        code, report, _ = run(capsys, "verify", str(box_path))
        assert code == 0
        assert report["kind"] == "cq"

    def test_kind_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "pr.json"
        save_box(pr_box(), path)
        code, report, err = run(capsys, "verify", str(path), "--kind", "cq")
        assert code == 2
        assert report is None
        assert "kind" in err

    @pytest.mark.parametrize(
        "fixture, scale, argv, code, error",
        [
            # a norm of 1.00000001 is within --tol 1e-6 but beyond the default
            ("phase_quarter_turn", 1e-8, ["--tol", "1e-6", "verify"], 0, None),
            ("phase_quarter_turn", 1e-8, ["verify", "--tol", "1e-6"], 0, None),
            ("phase_quarter_turn", 1e-8, ["verify"], 2, "state vector norm 1.00000001 deviates from 1"),
            ("phase_quarter_turn", 1e-5, ["--tol", "1e-6", "verify"], 2, "state vector norm 1.00001 deviates from 1"),
            # a probability table summing to 1 + 5e-9 at input (0, 0)
            ("pr_box", 1e-8, ["--tol", "1e-6", "verify"], 0, None),
            ("pr_box", 1e-8, ["verify"], 2, "probabilities sum to 1.000000005, not 1 within"),
            # a target loads within --tol; the construction's own fixed
            # tolerance then refuses it
            ("two_block_family", 1e-8, ["synth", "general-pure", "--target"], 2,
             "invalid quantum box: output at input 0,0 is invalid: state vector norm 1.00000001"),
            ("two_block_family", 1e-8, ["--tol", "1e-6", "synth", "general-pure", "--target"], 2,
             "target family is signalling"),
        ],
    )
    def test_tol_reaches_load_validation(self, capsys, tmp_path, fixture, scale, argv, code, error):
        """A document is validated within --tol, for verify and for --target
        loads alike: the output or one probability at input (0, 0) scaled by
        1 + ``scale`` is accepted within 1e-6 and refused by name beyond it."""
        doc = json.loads((ROOT / "fixtures" / f"{fixture}.json").read_text())
        if doc["kind"] == "cc":
            doc["table"][0][0][0][0] *= 1 + scale
        else:
            amplitudes = doc["outputs"]["0,0"]["amplitudes"]
            amplitudes[:] = [[part * (1 + scale) for part in amp] for amp in amplitudes]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        got, report, err = run(capsys, *argv, str(path))
        assert got == code, err
        if error is None:
            assert report["tolerance"] == 1e-6
        else:
            assert error in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, report, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2
        assert report is None
        assert "error" in err


class TestSynth:
    def test_bit_flip(self, capsys, tmp_path):
        out = tmp_path / "bitflip.json"
        code, report, _ = run(capsys, "synth", "bit-flip", "--out", str(out))
        assert code == 0
        assert report["passed"] is True
        assert report["target_distance"] <= 1e-12
        box = load_box(out)
        assert isinstance(box, CQBox)
        assert box.structure.dims == (2, 2)

    def test_irrational_phase_reports_bound(self, capsys):
        theta = str(1 / np.sqrt(2))
        code, report, _ = run(
            capsys, "synth", "irrational-phase", "--theta", theta, "--n", "40"
        )
        assert code == 0
        bound = report["certificate"]["error_bound"]
        assert 0 < bound < 1e-3
        assert report["distance_tolerance"] == pytest.approx(math.sqrt(bound), abs=1e-15)
        assert report["target_distance"] <= report["distance_tolerance"]

    def test_max_entangled_random_targets(self, capsys, tmp_path):
        out = tmp_path / "maxent.json"
        target_out = tmp_path / "maxent_target.json"
        code, report, _ = run(
            capsys, "synth", "max-entangled", "--n", "3", "--samples", "3",
            "--seed", "7", "--out", str(out), "--target-out", str(target_out),
        )
        assert code == 0
        assert report["target_distance"] <= 1e-12
        assert cq_box_distance(load_box(out), load_box(target_out)) <= 1e-12

    def test_max_entangled_from_file(self, capsys, tmp_path):
        target_path = tmp_path / "target.json"
        code, _, _ = run(
            capsys, "synth", "eight-output", "--target-out", str(target_path)
        )
        assert code == 0
        code, report, _ = run(
            capsys, "synth", "max-entangled", "--target", str(target_path),
            "--samples", "3",
        )
        assert code == 0
        assert report["target_distance"] <= 1e-12

    def test_max_entangled_rejects_product_targets(self, capsys, tmp_path):
        target_path = tmp_path / "product.json"
        code, _, _ = run(
            capsys, "synth", "phase", "--alpha", "0.8", "--beta", "0.6",
            "--target-out", str(target_path),
        )
        assert code == 0
        code, report, err = run(
            capsys, "synth", "max-entangled", "--target", str(target_path)
        )
        assert code == 2
        assert "maximally entangled" in err

    @pytest.mark.parametrize("family", UNITARY_READ_FAMILIES, ids=[name for name, _ in UNITARY_READ_FAMILIES])
    def test_unitaries_match_the_per_input_reference(self, family):
        """The stack read off a target, or its refusal, is the per-input
        reference's, bit for bit, whether the target stores amplitudes or matrices."""
        _, box = family
        for stored in (box, CQBox(box.input_sizes, box.structure, box.matrices)):
            try:
                want = reference_unitaries_from_box(stored)
            except ValueError as error:
                with pytest.raises(ValueError, match=re.escape(str(error))):
                    cli._unitaries_from_box(stored)
            else:
                assert np.array_equal(cli._unitaries_from_box(stored), want)

    def test_eight_output_certificate(self, capsys):
        code, report, _ = run(capsys, "synth", "eight-output")
        assert code == 0
        pairings = report["certificate"]["pairings"]
        assert sorted(pairings) == ["0,0", "0,1", "0,2", "1,0", "1,1", "1,2"]
        assert pairings["0,0"] == list(range(8))
        assert sorted(pairings["1,1"]) == list(range(8))

    def test_nonmax_pure(self, capsys, tmp_path):
        out = tmp_path / "nonmax.json"
        code, report, _ = run(
            capsys, "synth", "nonmax-pure",
            "--weights", "0.6,0.3,0.1",
            "--phases", '{"1,1,1": "1/4", "1,0,2": "1/3"}',
            "--out", str(out),
        )
        assert code == 0
        assert report["passed"] is True
        assert report["target_distance"] <= 1e-12
        box = load_box(out)
        state = box.pure_output((1, 1))
        amp = state.amplitudes.reshape(3, 3)
        probs = np.abs(np.diag(amp)) ** 2
        assert probs == pytest.approx([0.6, 0.3, 0.1], abs=1e-9)

    def test_general_pure_from_target(self, capsys, tmp_path):
        target_path = tmp_path / "target.json"
        code, _, _ = run(
            capsys, "synth", "phase", "--m", "1", "--n", "4",
            "--alpha", "0.8", "--beta", "0.6", "--out", str(target_path),
        )
        assert code == 0
        out = tmp_path / "rebuilt.json"
        code, report, _ = run(
            capsys, "synth", "general-pure", "--target", str(target_path),
            "--samples", "3", "--out", str(out),
        )
        assert code == 0
        assert report["passed"] is True
        assert report["target_distance"] <= 1e-9
        assert cq_box_distance(load_box(out), load_box(target_path)) <= 1e-9

    def test_mixed_disordered_recombines(self, capsys, tmp_path):
        target_path = tmp_path / "mixed.json"
        save_box(disordered_box(), target_path)
        code, report, _ = run(
            capsys, "synth", "mixed-disordered", "--target", str(target_path),
            "--samples", "3",
        )
        assert code == 0
        assert report["passed"] is True
        assert report["target_distance"] <= 1e-9
        assert report["certificate"]["intervals"] <= 13
        weights = report["certificate"]["interval_weights"]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_phase(self, capsys, tmp_path):
        out = tmp_path / "ghz.json"
        code, report, _ = run(
            capsys, "synth", "ghz-phase", "--m", "1", "--n", "2", "--out", str(out)
        )
        assert code == 0
        assert report["passed"] is True
        assert report["target_distance"] <= 1e-12
        box = load_box(out)
        assert box.structure.labels == ("A", "B", "C")
        flipped = box.pure_output((1, 1, 1)).amplitudes
        plain = box.pure_output((0, 1, 1)).amplitudes
        assert np.vdot(plain, flipped) == pytest.approx(0.0, abs=1e-9)

    def test_phase_denominator_one_is_parameter_error(self, capsys):
        code, report, err = run(capsys, "synth", "phase", "--n", "1")
        assert code == 2
        assert report is None
        assert "denominator" in err

    def test_target_required(self, capsys):
        code, report, err = run(capsys, "synth", "general-pure")
        assert code == 2
        assert report is None
        assert "--target" in err


@pytest.mark.parametrize(
    "argv, twin",
    [
        (["synth", "phase", "--m", "1000000000001", "--n", "3"],
         ["synth", "phase", "--m", "2", "--n", "3"]),
        (["synth", "ghz-phase", "--m", "1000000000000", "--n", "3"],
         ["synth", "ghz-phase", "--m", "1", "--n", "3"]),
        (["synth", "irrational-phase", "--theta", "1e300"],
         ["synth", "irrational-phase", "--theta", "0"]),
        (["bound", "--n", "3", "--m", "1000000000001"], ["bound", "--n", "3", "--m", "2"]),
    ],
)
def test_large_phases_match_their_reduced_twins(capsys, argv, twin):
    """A phase numerator or turn count far beyond its period is reduced
    exactly before the float angle is formed, so the command reports what
    its reduced twin reports."""
    code, report, _ = run(capsys, *argv)
    twin_code, twin_report, _ = run(capsys, *twin)
    assert code == twin_code == 0
    for field in ("target_distance", "worst_violation", "frontier"):
        assert report.get(field) == twin_report.get(field), field


class ReadRecorder:
    """Wraps parsed arguments and records the name of every one read."""

    def __init__(self, args) -> None:
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


# one synth argv per path through each builder; max-entangled reads --n or --target
BUILDER_ARGVS = [
    ["bit-flip"], ["sign-flip"], ["phase"], ["irrational-phase"], ["max-entangled"],
    ["max-entangled", "--target", "fixtures/max_entangled_family.json"], ["eight-output"],
    ["nonmax-pure"], ["general-pure", "--target", "fixtures/two_block_family.json"],
    ["mixed-disordered", "--target", "fixtures/mixed_disordered_family.json"], ["ghz-phase"],
]


def test_each_construction_declares_exactly_the_flags_it_reads(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert {argv[0] for argv in BUILDER_ARGVS} == set(cli._CONSTRUCTIONS)
    read = {name: set() for name in cli._CONSTRUCTIONS}
    for argv in BUILDER_ARGVS:
        args = ReadRecorder(cli.build_parser().parse_args(["synth", *argv]))
        strategy = cli._CONSTRUCTIONS[argv[0]][0](args)["strategy"]
        read[argv[0]] |= args.read & set(cli._SYNTH_FLAGS)
        # --samples is read by simulate, and only for Haar-coupling draws
        if isinstance(strategy, synthesis.MixtureSchedule) or isinstance(
            strategy.ccbox, boxes.HaarCouplingBox
        ):
            read[argv[0]].add("samples")
    assert read == {name: set(flags) for name, (_, flags) in cli._CONSTRUCTIONS.items()}


# a value that each synth flag's own type accepts
SYNTH_FLAG_VALUES = {
    "alpha": "0.6", "beta": "0.8", "m": "1", "n": "3", "theta": "0.25", "weights": "0.7,0.3",
    "phases": "{}", "target": "fixtures/two_block_family.json", "samples": "7",
}
UNDECLARED_SYNTH_FLAGS = [
    (name, flag)
    for name, (_, flags) in cli._CONSTRUCTIONS.items()
    for flag in cli._SYNTH_FLAGS
    if flag not in flags
]


@pytest.mark.parametrize("name, flag", UNDECLARED_SYNTH_FLAGS)
def test_undeclared_synth_flag_exits_2_naming_it(capsys, name, flag):
    assert len(UNDECLARED_SYNTH_FLAGS) == 69
    value = SYNTH_FLAG_VALUES[flag]
    code, report, err = run(capsys, "synth", name, f"--{flag}", value)
    assert (code, report) == (2, None)
    assert f"unrecognized arguments: --{flag} {value}" in err


@pytest.mark.parametrize("name", list(cli._CONSTRUCTIONS))
def test_synth_help_lists_exactly_the_declared_flags(capsys, name):
    assert main(["synth", name, "--help"]) == 0
    listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
    assert listed == {"help", "tol", "seed", "out", "target-out", *cli._CONSTRUCTIONS[name][1]}


class TestBound:
    def test_frontier_values(self, capsys):
        code, report, _ = run(capsys, "bound", "--n", "3")
        assert code == 0
        frontier = report["frontier"]
        assert [row["k"] for row in frontier] == [1, 2, 3]
        assert frontier[1]["cycle_length"] == 2
        expected = 2 * (0.8 * 0.6) ** 2 * (1 - np.cos(np.pi / 12))
        assert frontier[1]["delta"] == pytest.approx(expected, abs=1e-12)
        assert all(row["confirmed"] is True for row in frontier)
        assert all(
            row["optimum"] == pytest.approx(row["value"], abs=1e-6) for row in frontier
        )
        assert report["full_alphabet_exact"] is True
        assert frontier[2]["value"] >= 1 - 1e-9

    def test_budget_warning(self, capsys):
        code, report, _ = run(capsys, "bound", "--n", "2", "--budget", "0")
        assert code == 3
        assert report["budget_exceeded"] is True
        assert all(row["confirmed"] is None for row in report["frontier"])
        assert report["full_alphabet_exact"] is True

    def test_partial_budget_confirms_prefix(self, capsys):
        code, report, _ = run(
            capsys, "bound", "--n", "3", "--budget", "8", "--restarts", "8", "--kmax", "2"
        )
        assert code == 3
        assert report["frontier"][0]["confirmed"] is True
        assert report["frontier"][1]["confirmed"] is None

    def test_large_alphabet_refused(self, capsys):
        code, report, err = run(capsys, "bound", "--n", "5", "--kmax", "1")
        assert code == 2
        assert report is None
        assert "--n 5: " in err and "refused" in err

    def test_default_restarts_confirm_a_row_that_few_restarts_leave(self, capsys):
        """With --restarts 4 every ascent of row k = 3 stalls in a wrong
        winding of its cycle; the default 16 confirm every row."""
        code, report, _ = run(
            capsys, "bound", "--n", "3", "--m", "2", "--kmax", "3", "--seed", "195",
            "--alpha", "0.5403023058681398", "--beta", "0.8414709848078965",
        )
        assert code == 0
        assert [row["confirmed"] for row in report["frontier"]] == [True] * 3

    def test_rejects_bad_denominator(self, capsys):
        code, report, err = run(capsys, "bound", "--n", "1", "--kmax", "1")
        assert code == 2
        assert report is None
        assert "error" in err


class TestWPhase:
    def test_theorem_small_grid(self, capsys):
        code, report, _ = run(
            capsys, "wphase", "--grid", "0,1.5707963267948966",
            "--random-samples", "5",
        )
        assert code == 0
        assert report["mode"] == "theorem"
        assert report["equivalence_holds"] is True
        assert report["local_cases"] == 64
        assert report["perturbed_cases"] == 108
        assert report["worst_violation_mismatch"] <= 1e-9

    def test_single_local_assignment(self, capsys, tmp_path):
        path = tmp_path / "local.json"
        doc = assignment_doc(
            lambda x, y, z: 0.9 * x,
            lambda x, y, z: -1.3 * y,
            lambda x, y, z: 2.1 * z,
        )
        path.write_text(json.dumps(doc))
        code, report, _ = run(capsys, "wphase", "--mode", "single", str(path))
        assert code == 0
        assert report["passed"] is True
        decomposition = report["decomposition"]
        assert decomposition is not None
        assert decomposition["a"][1] - decomposition["a"][0] == pytest.approx(0.9, abs=1e-9)
        assert decomposition["b"][1] - decomposition["b"][0] == pytest.approx(-1.3, abs=1e-9)
        assert decomposition["c"][1] - decomposition["c"][0] == pytest.approx(2.1, abs=1e-9)

    def test_single_interaction_fails_with_pair_witness(self, capsys, tmp_path):
        path = tmp_path / "xz.json"
        doc = assignment_doc(
            lambda x, y, z: 0.0,
            lambda x, y, z: 0.0,
            lambda x, y, z: math.pi * x * z,
        )
        path.write_text(json.dumps(doc))
        code, report, _ = run(capsys, "wphase", "--mode", "single", str(path))
        assert code == 1
        assert report["passed"] is False
        assert report["decomposition"] is None
        assert any(w["subgroup"] == ["B", "C"] for w in report["witnesses"])
        assert report["worst_violation"] == pytest.approx(2 / 3, abs=1e-9)

    def test_single_requires_assignment(self, capsys):
        code, report, err = run(capsys, "wphase", "--mode", "single")
        assert code == 2
        assert "assignment" in err

    def test_malformed_assignment(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": [[0.0]], "beta": [[0.0]]}))
        code, report, err = run(capsys, "wphase", "--mode", "single", str(path))
        assert code == 2
        assert "gamma" in err or "assignment" in err


def _files(tmp_path) -> dict[str, str]:
    """Input files for the usage-error cases, by placeholder name."""
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps(assignment_doc(*[lambda x, y, z: 0.0] * 3)))
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    cc_doc = tmp_path / "pr.json"
    save_box(pr_box(), cc_doc)
    nan_cc = tmp_path / "nan_cc.json"
    doc = json.loads(cc_doc.read_text())
    doc["table"][0][1][1][0] = math.nan
    nan_cc.write_text(json.dumps(doc))
    nan_cq = tmp_path / "nan_cq.json"
    doc = json.loads((ROOT / "fixtures" / "signalling_family.json").read_text())
    doc["outputs"]["0,1"]["amplitudes"][0][0] = math.nan
    nan_cq.write_text(json.dumps(doc))
    nan_assignment = tmp_path / "nan_assignment.json"
    doc = assignment_doc(*[lambda x, y, z: 0.0] * 3)
    doc["alpha"][0][0][0] = math.nan
    nan_assignment.write_text(json.dumps(doc))
    # the W-phase fixture with (field, index, value) entries replaced
    assignments = {
        "bool_assignment": [("alpha", (0, 0, 0), True), ("beta", (0, 0, 1), "0.5")],
        "string_assignment": [("beta", (0, 0, 1), "0.5")],
        "ragged_assignment": [("alpha", (0, 0), [0.0])],
        "inf_assignment": [("gamma", (1, 1, 1), -math.inf)],
    }
    for name, entries in assignments.items():
        doc = json.loads((ROOT / "fixtures" / "w_assignment_xz.json").read_text())
        for field, index, value in entries:
            row = doc[field]
            for i in index[:-1]:
                row = row[i]
            row[index[-1]] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    unequal = tmp_path / "unequal.json"
    structure = PartyStructure.pair(2, 3)
    save_box(
        CQBox.from_pure(
            (2, 2),
            {key: basis_state(structure, (0, 0)) for key in itertools.product(range(2), range(2))},
        ),
        unequal,
    )
    # the norm of one output is within tolerance of 1, its trace is not
    edge_band = tmp_path / "edge_band.json"
    doc = json.loads((ROOT / "fixtures" / "signalling_family.json").read_text())
    doc["outputs"]["1,0"]["amplitudes"] = [
        [part * (1 + 0.75 * TOLERANCE) for part in amp] for amp in doc["outputs"]["1,0"]["amplitudes"]
    ]
    edge_band.write_text(json.dumps(doc))
    return {
        "{edge_band}": str(edge_band),
        "{assignment}": str(assignment),
        "{missing}": str(tmp_path / "absent.json"),
        "{bad_json}": str(bad_json),
        "{cc_doc}": str(cc_doc),
        "{unequal}": str(unequal),
        "{nan_cc}": str(nan_cc),
        "{nan_cq}": str(nan_cq),
        "{nan_assignment}": str(nan_assignment),
        **{f"{{{name}}}": str(tmp_path / f"{name}.json") for name in assignments},
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "nonmax-pure", "--weights", "0.8,x"], "--weights"),
        (["synth", "nonmax-pure", "--phases", "[1]"], "--phases must be a JSON object"),
        (["synth", "nonmax-pure", "--phases", '{"1,1,0": "x"}'], "bad phase entry '1,1,0'"),
        (["synth", "nonmax-pure", "--phases", '{"1,1": "1/4"}'], "phase key '1,1'"),
        (["synth", "nonmax-pure", "--weights", "0.8,0.2", "--phases", '{"1,1,5": "1/2"}'],
         "--phases key '1,1,5' is out of range"),
        (["synth", "nonmax-pure", "--phases", '{"-1,1,0": "1/2"}'],
         "--phases key '-1,1,0' is out of range"),
        (["synth", "nonmax-pure", "--weights", "nan,0.2"], "--weights must be finite numbers, got nan"),
        (["synth", "nonmax-pure", "--weights", "0.2,0.8"],
         "--weights must be strictly decreasing, got '0.2,0.8'"),
        (["synth", "nonmax-pure", "--weights=-0.2,1.2"],
         "--weights must be positive and sum to 1, got '-0.2,1.2'"),
        (["synth", "nonmax-pure", "--weights", "0.5,0.4"],
         "--weights must be positive and sum to 1, got '0.5,0.4'"),
        (["synth", "nonmax-pure", "--weights", "1"], "--weights needs at least two levels"),
        (["synth", "nonmax-pure", "--phases", '{"1,1,0": "1/3", "1, 1,0": "1/2"}'],
         "--phases keys '1,1,0' and '1, 1,0' both name entry 1,1,0"),
        (["synth", "nonmax-pure", "--phases", '{"0,1,1": "1/3", "0,1,1": "1/3"}'],
         "--phases keys '0,1,1' and '0,1,1' both name entry 0,1,1"),
        (["bound", "--n", "2", "--kmax", "0"], "--kmax"),
        (["bound", "--n", "2", "--kmax", "65"], "--kmax 65 is above the cap of 64"),
        (["wphase", "--grid", "0,1,2,3,4,5,6,7,8"], "--grid of 9 values"),
        (["wphase", "--random-samples", "262145"], "--random-samples 262145 is above the cap"),
        (["wphase", "--mode", "theorem", "{assignment}"], "theorem mode takes no assignment"),
        (["wphase", "--mode", "single", "{missing}"], "cannot read assignment"),
        (["wphase", "--mode", "single", "{bad_json}"], "is not valid JSON"),
        (["synth", "general-pure", "--target", "{cc_doc}"], "quantum-output target"),
        (["synth", "max-entangled", "--target", "{unequal}"], "equal dimension"),
        (["synth", "phase", "--n", "10000000"], "n = 10000000"),
        (["synth", "irrational-phase", "--theta", "0.1234567", "--n", "10000000"], "n = 10000000"),
        (["synth", "ghz-phase", "--n", "81"], "n = 81"),
        (["synth", "max-entangled", "--n", "65"], "--n 65"),
        (["synth", "max-entangled", "--n", "0"], "--n 0"),
        (["synth", "max-entangled", "--n", "1"], "--n 1"),
        (["synth", "max-entangled", "--samples", "0"], "samples must be at least 1"),
        (["synth", "max-entangled", "--samples", "0"], "--samples must be at least 1"),
        (["synth", "max-entangled", "--samples", "-5"], "--samples must be at least 1, got -5"),
        (["synth", "bit-flip", "--samples", "7"], "unrecognized arguments: --samples 7"),
        (["bound", "--n", "2", "--kmax=0"], "--kmax must be at least 1, got 0"),
        (["bound", "--n", "0"], "--n must be at least 2, got 0"),
        (["bound", "--n", "3", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--seed", "-1", "wphase"], "--seed must be non-negative, got -1"),
        (["wphase", "--mode", "theorem", "--random-samples", "-3"], "--random-samples"),
        (["synth", "max-entangled", "--n", "33"], "--n 33"),
        (["verify", "{cc_doc}", "--tol", "nan"], "argument --tol"),
        (["verify", "{cc_doc}", "--tol", "inf"], "argument --tol"),
        (["verify", "{cc_doc}", "--tol", "-1"], "argument --tol: must be non-negative"),
        (["--tol", "nan", "verify", "{cc_doc}"], "argument --tol"),
        (["bound", "--n", "3", "--alpha", "nan"], "argument --alpha"),
        (["bound", "--n", "3", "--beta", "-inf"], "argument --beta"),
        (["synth", "irrational-phase", "--theta", "inf", "--n", "4"], "argument --theta"),
        (["synth", "irrational-phase", "--theta", "1e308", "--n", "4"], "theta = 1e+308"),
        (["synth", "sign-flip", "--alpha", "nan"], "argument --alpha"),
        (["wphase", "--grid", "nan"], "argument --grid"),
        (["wphase", "--grid", "0,1,inf"], "argument --grid"),
        (["bound", "--n", "3", "--restarts", "0"], "--restarts must be at least 1"),
        (["bound", "--n", "3", "--restarts", "-2"], "--restarts must be at least 1"),
        (["bound", "--n", "3", "--budget", "-1"], "--budget must be non-negative"),
        (["verify", "{nan_cc}"],
         "output distribution at input 0,1 is invalid: probabilities sum to nan, not a finite number"),
        (["synth", "sign-flip", "--alpha", "abc"], "argument --alpha: must be a finite number, got 'abc'"),
        (["synth", "nonmax-pure", "--phases", "{not json"], "--phases must be a JSON object"),
        (["synth", "nonmax-pure", "--weights", "inf,-inf"], "--weights must be finite numbers, got inf"),
        (["bound", "--n", "3", "--alpha", "0.9", "--beta", "0.9"],
         "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
        (["verify", "{nan_cq}"],
         "output at input 0,1 is invalid: state vector norm nan is not finite"),
        (["wphase", "--mode", "single", "{nan_assignment}"],
         "alpha must hold finite phases, got [[[nan, 0.0]"),
        (["wphase", "--mode", "single", "{inf_assignment}"], "gamma must hold finite phases"),
        (["wphase", "--mode", "single", "{bool_assignment}"],
         "field 'alpha' holds true, not a JSON number"),
        (["wphase", "--mode", "single", "{string_assignment}"],
         "field 'beta' holds \"0.5\", not a JSON number"),
        (["wphase", "--mode", "single", "{ragged_assignment}"],
         "field 'alpha' must hold numbers: setting an array element with a sequence"),
        (["verify", "{edge_band}"], "output at input 1,0 is invalid: density matrix trace"),
    ],
)
def test_input_errors_exit_2(capsys, tmp_path, argv, message):
    files = _files(tmp_path)
    code, report, err = run(capsys, *(files.get(arg, arg) for arg in argv))
    assert code == 2
    assert report is None
    assert message in err


@pytest.mark.parametrize("spelling", ["{flag} {value}", "{flag}={value}"])
@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["bound"], "--n", 2),
        (["bound", "--n", "2"], "--kmax", 1),
        (["bound", "--n", "2"], "--kmax", 64),
        (["bound", "--n", "2"], "--restarts", 1),
        (["bound", "--n", "2"], "--budget", 0),
        (["wphase"], "--random-samples", 0),
        (["wphase"], "--random-samples", 2**18),
        (["synth", "max-entangled"], "--samples", 1),
        (["verify", "box.json"], "--seed", 0),
    ],
)
def test_int_flags_accept_their_edge_values(spelling, command, flag, value):
    argv = [*command, *spelling.format(flag=flag, value=value).split()]
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, flag[2:].replace("-", "_")) == value


# stdout of these commands, byte for byte, as written before the theorem
# sweep checked its families as stacks (wphase, verify) and before the
# bound ascent ran its restarts as one stack (bound) and before the
# Bell-form rotations were lifted to SU(2) without scipy (synth)
# (name, argv) of each golden stdout, from the list that CI runs too
GOLDEN_STDOUT = [
    (name, argv)
    for name, *argv in (
        line.split() for line in (ROOT / "tests" / "goldens" / "commands.txt").read_text().splitlines()
    )
    if not name.startswith("#")
]


@pytest.mark.parametrize("name, argv", GOLDEN_STDOUT)
def test_golden_stdout(capsys, monkeypatch, name, argv):
    monkeypatch.chdir(ROOT)
    main(argv)
    assert capsys.readouterr().out == (ROOT / "tests" / "goldens" / f"{name}.stdout").read_text()


# (name, argv) of each golden --out document: the rotated mixed-disordered
# run pins every interval's seeded draws and the mixture sum, and the
# eight-output run the finite coupling's exact sum
GOLDEN_OUT = [
    ("synth_mixed_disordered_rotated",
     ["synth", "mixed-disordered", "--target", "fixtures/mixed_disordered_rotated.json"]),
    ("synth_eight_output", ["synth", "eight-output"]),
]


def test_golden_out_document(capsys, monkeypatch, tmp_path):
    """Each ``--out`` document of ``GOLDEN_OUT``, byte for byte."""
    monkeypatch.chdir(ROOT)
    for name, argv in GOLDEN_OUT:
        out = tmp_path / f"{name}.json"
        main([*argv, "--out", str(out)])
        capsys.readouterr()
        golden = ROOT / "tests" / "goldens" / f"{name}.out.json"
        assert out.read_bytes() == golden.read_bytes(), name


def count_calls(monkeypatch, name: str) -> list:
    """Patch ``name`` in every cqboxes module that holds it; each call
    appends one entry to the returned list."""
    calls = []
    inner = getattr(quantum, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    for module in (quantum, boxes, synthesis, cli, multipartite, bounds):
        if getattr(module, name, None) is inner:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, density, unitary",
    [
        # the target and the simulated box, each one stack; one relabel
        # stack per interval strategy (the rotated fixture has 7)
        (["synth", "mixed-disordered", "--target", "fixtures/mixed_disordered_rotated.json"], 2, 7),
        # the simulated box; the coupling's relabel stack, the four
        # targets drawn as one
        (["synth", "max-entangled", "--n", "8"], 1, 1),
    ],
)
def test_synth_validates_each_stack_once(capsys, monkeypatch, argv, density, unitary):
    monkeypatch.chdir(ROOT)
    density_calls = count_calls(monkeypatch, "invalid_density")
    unitary_calls = count_calls(monkeypatch, "invalid_unitary")
    assert main(argv) == 0
    capsys.readouterr()
    assert (len(density_calls), len(unitary_calls)) == (density, unitary)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 4, 2**31])
def test_max_entangled_targets_are_four_haar_draws(n, seed):
    """``max-entangled --n`` draws its four targets as one stack, with the
    bits of four ``haar_unitary`` calls on the one seeded stream."""
    args = cli.build_parser().parse_args(["synth", "max-entangled", "--n", str(n), "--seed", str(seed)])
    built = cli._max_entangled(args)
    rng = np.random.default_rng(seed)
    want = np.reshape([haar_unitary(n, rng).matrix for _ in range(4)], (2, 2, n, n))
    assert np.array_equal(built["strategy"].ccbox.relabel, want)
    assert np.array_equal(built["target"].amplitudes, unitary_family_box(want).amplitudes)


def test_failing_theorem_names_its_counterexample(capsys, monkeypatch, tmp_path):
    """A kernel that flags one local family fails the local clause only; the
    report carries that family as an assignment document."""
    kernel = multipartite.family_worst_violation
    calls = []

    def flag_fourth_family_once(amplitudes, structure):
        worst = kernel(amplitudes, structure)
        if not calls:
            worst[3] = 1.0
        calls.append(len(worst))
        return worst

    monkeypatch.setattr(multipartite, "family_worst_violation", flag_fourth_family_once)
    code, report, _ = run(capsys, "wphase", "--grid", "1.0,4.0", "--seed", "7")
    assert code == 1
    assert report["equivalence_holds"] is False
    assert report["local_all_non_signalling"] is False
    assert list(report["counterexamples"]) == ["local_all_non_signalling"]
    # family 3 in product order takes grid digits (0, 0, 0, 0, 1, 1) and
    # the fourth global phase drawn
    g = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(4, 2, 2, 2))[3]
    expected = assignment_doc(lambda x, y, z: 1.0, lambda x, y, z: 1.0, lambda x, y, z: 4.0)
    culprit = report["counterexamples"]["local_all_non_signalling"]
    for name in ("alpha", "beta", "gamma"):
        assert np.array_equal(culprit[name], np.array(expected[name]) + g), name
    # the culprit is an assignment document that single mode reads
    path = tmp_path / "culprit.json"
    path.write_text(json.dumps(culprit))
    monkeypatch.undo()
    code, single, _ = run(capsys, "wphase", "--mode", "single", str(path))
    assert code == 0 and single["decomposition"] is not None


def test_bound_frontier_ascends_each_cycle_length_once(capsys, monkeypatch):
    """One ``verify_bound`` pass confirms every row: ``bound --n 4`` runs
    the lengths 1..4 once each, in one lockstep kernel call, not one call
    per row or per length."""
    calls = {"verify_bound": 0, "_ascend_frontier": 0}
    shapes = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = inner(*args, **kwargs)
            if name == "_ascend_frontier":
                shapes.append(result[0].shape)
            return result

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "verify_bound")
    counted(bounds, "_ascend_frontier")
    code, report, _ = run(capsys, "bound", "--n", "4")
    assert code == 0 and all(row["confirmed"] for row in report["frontier"])
    assert calls == {"verify_bound": 1, "_ascend_frontier": 1}
    # one row of values per cycle length 1..4, one column per restart
    assert shapes == [(4, 16)]


def test_inexact_full_alphabet_fails_the_frontier(capsys, monkeypatch):
    """A closed form that falls short of 1 at k = n fails the frontier, with
    no ascent run (``--budget 0``), and exit 1 outranks the budget's exit 3."""
    closed_form = cli.best_fidelity
    monkeypatch.setattr(
        cli, "best_fidelity", lambda *args: dataclasses.replace(closed_form(*args), value=0.5)
    )
    code, report, _ = run(capsys, "bound", "--n", "2", "--budget", "0")
    assert code == 1
    assert report["full_alphabet_exact"] is False and report["budget_exceeded"] is True


def test_failing_bound_row_names_its_ascent(capsys, monkeypatch):
    """A kernel that stalls every length-3 restart fails row k = 3 only (its
    best cycle is length 3); that row alone carries its ascent."""
    kernel = bounds._ascend_frontier
    unconverged = {}

    def stall_length_three(theta, starts):
        value, used, stalled = kernel(theta, starts)
        value[2], used[2], stalled[2] = -1.0, 300, value.shape[1]
        unconverged.update(enumerate(stalled.tolist(), 1))
        return value, used, stalled

    monkeypatch.setattr(bounds, "_ascend_frontier", stall_length_three)
    code, report, _ = run(capsys, "bound", "--n", "4")
    assert code == 1
    failing = [row for row in report["frontier"] if row["confirmed"] is False]
    assert [row["k"] for row in failing] == [3]
    assert failing[0]["ascent"] == {
        "restarts": 16,
        "sweeps": 300,
        "unconverged": unconverged[1] + unconverged[2] + unconverged[3],
    }
    assert unconverged[3] == 16
    assert all("ascent" not in row for row in report["frontier"] if row["confirmed"])


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["synth", "sign-flip", "--alpha", "-6e-1", "--beta", "0.8"],
         ["synth", "sign-flip", "--alpha=-6e-1", "--beta", "0.8"]),
        (["bound", "--n", "2", "--alpha", "-8E-1", "--beta", "-.6e0", "--budget", "0"],
         ["bound", "--n", "2", "--alpha=-8E-1", "--beta=-.6e0", "--budget", "0"]),
        (["synth", "irrational-phase", "--theta", "-2.5e-1", "--n", "4"],
         ["synth", "irrational-phase", "--theta=-2.5e-1", "--n", "4"]),
        (["wphase", "--grid", "-1e-3,2", "--random-samples", "3"],
         ["wphase", "--grid=-1e-3,2", "--random-samples", "3"]),
        (["verify", "fixtures/pr_box.json", "--tol", "-1e-3"],
         ["verify", "fixtures/pr_box.json", "--tol=-1e-3"]),
    ],
)
def test_negative_exponent_floats_are_values(capsys, monkeypatch, spaced, joined):
    monkeypatch.chdir(ROOT)
    outputs = []
    for argv in (spaced, joined):
        code = main(argv)
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if not line.startswith("elapsed")]
        outputs.append((code, captured.out, errors))
    assert outputs[0] == outputs[1]
    assert not any("expected one argument" in line for line in outputs[0][2])


def test_kmax_at_the_cap_runs(capsys):
    code, report, _ = run(capsys, "bound", "--n", "2", "--kmax", "64", "--budget", "0")
    assert code == 3
    assert [row["k"] for row in report["frontier"]] == list(range(1, 65))


class TestContract:
    def test_stdout_is_deterministic(self, capsys):
        argv = ["synth", "phase", "--m", "2", "--n", "5"]
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_report_keys_sorted(self, capsys):
        code = main(["synth", "sign-flip"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value_exits_2(self, capsys):
        assert main(["bound", "--n", "three", "--kmax", "1"]) == 2

    def test_internal_error_exits_4(self, capsys, monkeypatch, tmp_path):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "verify", crash)
        path = tmp_path / "pr.json"
        save_box(pr_box(), path)
        code, report, err = run(capsys, "verify", str(path))
        assert code == 4
        assert report is None
        assert "internal error" in err and "boom" in err

    def test_non_finite_report_value_exits_4(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "bound", lambda args: ({"value": math.nan}, 0))
        code, report, err = run(capsys, "bound", "--n", "2")
        assert code == 4
        assert report is None
        assert "internal error" in err and "not valid JSON" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "verify" in capsys.readouterr().out


def test_one_parser_serves_every_call_without_leaking_state(capsys):
    """main builds its parser once per process; a flag, a usage error or
    --help in one call leaves the next call's defaults as they were."""
    cli._parser.cache_clear()
    box = str(ROOT / "fixtures" / "pr_box.json")
    for argv, tolerance in (
        (["verify", box, "--tol", "1e-6"], 1e-6),
        (["verify", box], TOLERANCE),
        (["--tol", "1e-6", "verify", box], 1e-6),
        (["verify", box], TOLERANCE),
    ):
        code, report, _ = run(capsys, *argv)
        assert (code, report["tolerance"]) == (0, tolerance), argv
    assert main(["bound", "--n", "three"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    code, report, _ = run(capsys, "bound", "--n", "2")
    assert (code, report["n"], report["kmax"]) == (0, 2, 2)
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
    code, report, _ = run(capsys, "verify", box)
    assert (code, report["tolerance"]) == (0, TOLERANCE)
    for argv, samples in (
        (["synth", "max-entangled", "--samples", "7"], 7), (["synth", "max-entangled"], 1000),
    ):
        code, report, _ = run(capsys, *argv)
        assert (code, report["samples"]) == (0, samples), argv
    assert cli._parser.cache_info().misses == 1


# every command, with every synth construction, in one fresh interpreter
NO_SCIPY_ARGVS = [
    ["verify", "fixtures/pr_box.json"],
    ["verify", "fixtures/mixed_disordered_rotated.json"],
    ["synth", "bit-flip"],
    ["synth", "sign-flip"],
    ["synth", "phase", "--m", "1", "--n", "5"],
    ["synth", "irrational-phase", "--theta", "0.3", "--n", "7"],
    ["synth", "max-entangled", "--n", "2", "--samples", "20"],
    ["synth", "eight-output"],
    ["synth", "nonmax-pure"],
    ["synth", "general-pure", "--target", "fixtures/two_block_family.json", "--samples", "20"],
    ["synth", "mixed-disordered", "--target", "fixtures/mixed_disordered_rotated.json",
     "--samples", "20"],
    ["synth", "ghz-phase", "--m", "1", "--n", "4"],
    ["bound", "--n", "3"],
    ["wphase", "--mode", "theorem", "--grid", "0,3.14", "--random-samples", "5"],
    ["wphase", "--mode", "single", "fixtures/w_assignment_table.json"],
]


def test_no_command_imports_scipy():
    assert {argv[1] for argv in NO_SCIPY_ARGVS if argv[0] == "synth"} == set(cli._CONSTRUCTIONS)
    script = (
        "import contextlib, io, json, sys\n"
        "from cqboxes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {NO_SCIPY_ARGVS!r}]\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
        "    m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(NO_SCIPY_ARGVS)
    assert result["scipy"] == []


def test_huge_input_sizes_fail_fast(tmp_path):
    """A document whose ``input_sizes`` name 10^18 settings, with 4 outputs,
    exits 2 naming the missing inputs under a 1 GiB address-space limit;
    listing them through ``np.ndindex`` stored each range and ran out of memory."""
    doc = json.loads((ROOT / "fixtures" / "phase_quarter_turn.json").read_text())
    doc["input_sizes"] = [10**9, 10**9]
    path = tmp_path / "huge_inputs.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "cqboxes.cli", "verify", str(path)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert done.returncode == 2, done.stderr
    assert "outputs missing for inputs [(0, 2), (0, 3), (0, 4), (0, 5)] and" in done.stderr
    assert time.perf_counter() - start < 10
