"""Tests for the command-line interface, driven in process."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqboxes import bounds, cli, multipartite
from cqboxes.boxes import CCBox, CQBox, cq_box_distance, pr_box
from cqboxes.cli import main
from cqboxes.io import load_box, save_box
from cqboxes.quantum import TOLERANCE, DensityMatrix, PartyStructure, basis_state, bell_state


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
        (["synth", "bit-flip", "--samples", "0"], "--samples must be at least 1"),
        (["synth", "bit-flip", "--samples", "-5"], "--samples must be at least 1, got -5"),
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
         "output at input 0,0,0 is invalid: state vector norm nan is not finite"),
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
        (["synth", "bit-flip"], "--samples", 1),
        (["verify", "box.json"], "--seed", 0),
    ],
)
def test_int_flags_accept_their_edge_values(spelling, command, flag, value):
    argv = [*command, *spelling.format(flag=flag, value=value).split()]
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, flag[2:].replace("-", "_")) == value


ROOT = Path(__file__).resolve().parent.parent
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
    for argv, samples in ((["synth", "bit-flip", "--samples", "7"], 7), (["synth", "bit-flip"], 1000)):
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
