"""Tests for box document serialisation."""
from __future__ import annotations

import importlib.util
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqboxes.boxes import CCBox, CQBox, cq_box_distance, mod_box, pr_box
from cqboxes.cli import main
from cqboxes.io import (
    BoxDocumentError,
    box_to_document,
    document_to_box,
    load_box,
    save_box,
)
from cqboxes.quantum import DensityMatrix, PartyStructure, bell_state
from cqboxes.synthesis import rational_phase_strategy, simulate

AB = PartyStructure.qubits("AB")
ROOT = Path(__file__).resolve().parent.parent


def pure_phase_box() -> CQBox:
    return simulate(rational_phase_strategy(1, 4, 0.8, 0.6))


def mixed_box() -> CQBox:
    """Half-half Bell mixture when both inputs fire, phi0 otherwise."""
    half = DensityMatrix(
        0.5 * bell_state(0).density().matrix + 0.5 * bell_state(1).density().matrix, AB
    )
    outputs = {
        (x, y): half if x * y else bell_state(0).density()
        for x, y in itertools.product(range(2), range(2))
    }
    return CQBox.from_outputs((2, 2), AB, outputs)


class TestRoundTrips:
    def test_cc_round_trip(self, tmp_path):
        path = tmp_path / "pr.json"
        save_box(pr_box(), path)
        loaded = load_box(path)
        assert isinstance(loaded, CCBox)
        assert loaded.input_sizes == (2, 2)
        assert loaded.output_sizes == (2, 2)
        assert np.array_equal(loaded.table, pr_box().table)

    def test_cc_larger_alphabet(self, tmp_path):
        path = tmp_path / "mod4.json"
        save_box(mod_box(4), path)
        assert np.array_equal(load_box(path).table, mod_box(4).table)

    def test_pure_cq_round_trip(self, tmp_path):
        box = pure_phase_box()
        path = tmp_path / "phase.json"
        save_box(box, path)
        loaded = load_box(path)
        assert isinstance(loaded, CQBox)
        assert loaded.structure.labels == ("A", "B")
        assert cq_box_distance(loaded, box) <= 1e-12

    def test_pure_outputs_stored_as_amplitudes(self):
        doc = box_to_document(pure_phase_box())
        assert doc["kind"] == "cq"
        assert set(doc["outputs"]) == {"0,0", "0,1", "1,0", "1,1"}
        for entry in doc["outputs"].values():
            assert "amplitudes" in entry and "matrix" not in entry

    def test_mixed_cq_round_trip(self, tmp_path):
        box = mixed_box()
        path = tmp_path / "mixed.json"
        save_box(box, path)
        loaded = load_box(path)
        assert cq_box_distance(loaded, box) <= 1e-12

    def test_mixed_outputs_fall_back_to_matrices(self):
        doc = box_to_document(mixed_box())
        assert "matrix" in doc["outputs"]["1,1"]
        assert "amplitudes" in doc["outputs"]["0,0"]

    def test_save_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_box(pure_phase_box(), first)
        save_box(pure_phase_box(), second)
        assert first.read_text() == second.read_text()


class TestEncoding:
    def test_complex_pairs(self):
        doc = box_to_document(pure_phase_box())
        amp = doc["outputs"]["1,1"]["amplitudes"]
        assert amp[0] == pytest.approx([0.8, 0.0], abs=1e-12)
        assert amp[3] == pytest.approx([0.0, 0.6], abs=1e-12)

    def test_parties_record_labels_and_dims(self):
        doc = box_to_document(pure_phase_box())
        assert doc["parties"] == [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}]

    def test_document_is_json_native(self):
        text = json.dumps(box_to_document(mixed_box()))
        assert isinstance(json.loads(text), dict)


class TestValidation:
    def test_missing_kind(self):
        with pytest.raises(BoxDocumentError, match="'kind'"):
            document_to_box({"input_sizes": [2, 2]})

    def test_unknown_kind(self):
        with pytest.raises(BoxDocumentError, match="unknown box kind"):
            document_to_box({"kind": "qq"})

    def test_cc_missing_table(self):
        with pytest.raises(BoxDocumentError, match="'table'"):
            document_to_box({"kind": "cc", "input_sizes": [2], "output_sizes": [2]})

    def test_cc_bad_table(self):
        doc = box_to_document(pr_box())
        doc["table"][0][0][0][0] = 0.75
        with pytest.raises(BoxDocumentError, match="table"):
            document_to_box(doc)

    def test_cc_ragged_table_names_the_field(self):
        doc = box_to_document(pr_box())
        for bad in ([[1, 2], [3]], [["a", "b"]], {"0": 1}):
            doc["table"] = bad
            with pytest.raises(BoxDocumentError, match="invalid classical box table"):
                document_to_box(doc)

    def test_cq_bad_parties(self):
        doc = box_to_document(pure_phase_box())
        doc["parties"] = [{"label": "A"}, {"label": "B"}]
        with pytest.raises(BoxDocumentError, match="'parties'"):
            document_to_box(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "box document must be a JSON object"),
            (lambda doc: {**doc, "outputs": []}, "field 'outputs' must be an object keyed by inputs"),
            (lambda doc: {**doc, "parties": "AB"},
             "field 'parties' must list objects with 'label' and 'dim'"),
            (lambda doc: {**doc, "parties": [{"label": "A", "dim": 2.5}, {"label": "B", "dim": 2}]},
             "field 'parties' gives party 'A' dim 2.5, not a positive integer"),
        ],
    )
    def test_malformed_cq_documents_name_the_field(self, edit, message):
        with pytest.raises(BoxDocumentError) as raised:
            document_to_box(edit(box_to_document(pure_phase_box())))
        assert str(raised.value) == message

    def test_only_boxes_are_serialised(self):
        with pytest.raises(TypeError, match="cannot serialise object"):
            box_to_document(object())

    def test_output_needs_exactly_one_payload(self):
        doc = box_to_document(pure_phase_box())
        entry = doc["outputs"]["0,0"]
        entry["matrix"] = box_to_document(mixed_box())["outputs"]["1,1"]["matrix"]
        with pytest.raises(BoxDocumentError, match="exactly one"):
            document_to_box(doc)
        del entry["matrix"], entry["amplitudes"]
        with pytest.raises(BoxDocumentError, match="exactly one"):
            document_to_box(doc)

    def test_malformed_input_key(self):
        doc = box_to_document(pure_phase_box())
        doc["outputs"]["0;0"] = doc["outputs"].pop("0,0")
        with pytest.raises(BoxDocumentError, match="0;0"):
            document_to_box(doc)

    def test_bad_complex_shape(self):
        doc = box_to_document(pure_phase_box())
        doc["outputs"]["0,0"]["amplitudes"] = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(BoxDocumentError, match="amplitudes"):
            document_to_box(doc)

    def test_unnormalised_amplitudes(self):
        doc = box_to_document(pure_phase_box())
        doc["outputs"]["0,0"]["amplitudes"] = [[2.0, 0.0], [0, 0], [0, 0], [0, 0]]
        with pytest.raises(BoxDocumentError, match="0,0"):
            document_to_box(doc)

    @pytest.mark.parametrize("box", [pure_phase_box(), mixed_box(), pr_box()], ids=["pure", "mixed", "cc"])
    def test_outputs_are_validated_within_the_callers_tol(self, tmp_path, box):
        """``load_box`` and ``document_to_box`` validate within ``tol``, which
        defaults to ``TOLERANCE``; a ``tol`` that is no tolerance is refused
        as the caller's fault, before the document is read."""
        doc = box_to_document(box)
        if isinstance(box, CCBox):
            doc["table"][0][0][0][0] *= 1 + 1e-8
        else:
            payload = "amplitudes" if "amplitudes" in doc["outputs"]["0,0"] else "matrix"
            doc["outputs"]["0,0"][payload] = (
                np.array(doc["outputs"]["0,0"][payload]) * (1 + 1e-8)
            ).tolist()
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BoxDocumentError, match="at input 0,0 is invalid"):
            load_box(path)
        assert isinstance(load_box(path, tol=1e-6), type(box))
        assert isinstance(document_to_box(doc, tol=1e-6), type(box))
        for tol in (math.nan, -1e-6):
            with pytest.raises(ValueError, match="^tol must be") as raised:
                document_to_box(doc, tol=tol)
            assert not isinstance(raised.value, BoxDocumentError)

    def test_empty_outputs_name_missing_inputs(self, capsys, tmp_path):
        doc = box_to_document(pure_phase_box())
        doc["outputs"] = {}
        with pytest.raises(BoxDocumentError, match=r"missing for inputs \[\(0, 0\), \(0, 1\)"):
            document_to_box(doc)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "outputs missing for inputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("cq", "input_sizes", [0, 2]),
            ("cq", "input_sizes", [-1, 2]),
            ("cq", "input_sizes", [2.5, 2]),
            ("cq", "input_sizes", 2),
            ("cq", "input_sizes", []),
            ("cc", "input_sizes", [0, 2]),
            ("cc", "output_sizes", [2, -1]),
        ],
    )
    def test_bad_sizes_name_the_field(self, capsys, tmp_path, kind, field, value):
        doc = box_to_document(pure_phase_box() if kind == "cq" else pr_box())
        doc[field] = value
        if kind == "cq":
            doc["outputs"] = {}
        with pytest.raises(BoxDocumentError, match=field):
            document_to_box(doc)
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert f"{field} must be a non-empty list of positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            ("pr_box.json", 0.5, "0.5", "field 'table' holds \"0.5\", not a JSON number"),
            ("pr_box.json", 0.0, False, "field 'table' holds false, not a JSON number"),
            ("pr_box.json", 0.0, 10**400, "field 'table' must hold numbers"),
            ("phase_quarter_turn.json", 0.8, "0.8",
             "field 'outputs['0,0'].amplitudes' holds \"0.8\", not a JSON number"),
            ("phase_quarter_turn.json", 0.0, None,
             "field 'outputs['0,0'].amplitudes' holds null, not a JSON number"),
            ("mixed_disordered_family.json", 0.0, True, "holds true, not a JSON number"),
        ],
        ids=["string-cell", "false-cell", "huge-int-cell", "string-amp", "null-amp", "true-amp"],
    )
    def test_an_entry_that_is_no_json_number_is_refused(
        self, capsys, tmp_path, name, old, new, message
    ):
        """Every payload number equal to ``old`` written as ``new`` instead."""

        def swap(node):
            if isinstance(node, dict):
                return {k: swap(v) for k, v in node.items()}
            if isinstance(node, list):
                return [swap(v) for v in node]
            return new if type(node) is float and node == old else node

        doc = swap(json.loads((ROOT / "fixtures" / name).read_text()))
        with pytest.raises(BoxDocumentError, match=re.escape(message)):
            document_to_box(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, key", [("2,0", "(2, 0)"), ("0", "(0,)")])
    def test_output_key_outside_input_range(self, capsys, tmp_path, name, key):
        doc = box_to_document(pure_phase_box())
        doc["outputs"][name] = doc["outputs"]["0,0"]
        with pytest.raises(BoxDocumentError, match=re.escape(f"output key {key} is outside")):
            document_to_box(doc)
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "outside the input range" in capsys.readouterr().err

    def test_huge_empty_box_names_first_missing_inputs(self):
        doc = box_to_document(pure_phase_box())
        doc["input_sizes"] = [100000, 100000]
        doc["outputs"] = {}
        with pytest.raises(BoxDocumentError) as info:
            document_to_box(doc)
        assert str(info.value).endswith(
            "outputs missing for inputs [(0, 0), (0, 1), (0, 2), (0, 3)] and 9999999996 more"
        )

    def test_parties_above_dimension_cap(self, capsys, tmp_path):
        doc = box_to_document(pure_phase_box())
        doc["parties"] = [{"label": "A", "dim": 33}, {"label": "B", "dim": 33}]
        with pytest.raises(BoxDocumentError, match="field 'parties' gives joint dimension 1089"):
            document_to_box(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "'parties'" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2", "abc", True, 0, -1, None, [2]])
    def test_party_dim_must_be_a_positive_int(self, capsys, tmp_path, dim):
        doc = json.loads((ROOT / "fixtures" / "phase_quarter_turn.json").read_text())
        doc["parties"][0]["dim"] = dim
        message = f"field 'parties' gives party 'A' dim {dim!r}, not a positive integer"
        with pytest.raises(BoxDocumentError, match=re.escape(message)):
            document_to_box(doc)
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("label", [{"x": 1}, 1, 1.5, ["B"], None, True])
    def test_party_label_must_be_a_string(self, capsys, tmp_path, label):
        doc = json.loads((ROOT / "fixtures" / "phase_quarter_turn.json").read_text())
        doc["parties"][1]["label"] = label
        message = f"field 'parties' gives label {label!r}, not a string"
        with pytest.raises(BoxDocumentError, match=re.escape(message)):
            document_to_box(doc)
        path = tmp_path / "label.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_party_labels_name_the_field(self, capsys, tmp_path):
        doc = json.loads((ROOT / "fixtures" / "phase_quarter_turn.json").read_text())
        doc["parties"][1]["label"] = "A"
        message = "field 'parties' has duplicate party labels: ['A', 'A']"
        with pytest.raises(BoxDocumentError, match=re.escape(message)):
            document_to_box(doc)
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["0, 1", "00,1", " 0,1"])
    def test_two_spellings_of_one_output_key(self, capsys, tmp_path, spelling):
        doc = json.loads((ROOT / "fixtures" / "max_entangled_family.json").read_text())
        doc["outputs"][spelling] = doc["outputs"]["1,1"]
        message = f"field 'outputs' keys '0,1' and '{spelling}' both name input 0,1"
        with pytest.raises(BoxDocumentError, match=re.escape(message)):
            document_to_box(doc)
        path = tmp_path / "spellings.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BoxDocumentError, match="cannot read"):
            load_box(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BoxDocumentError, match="not valid JSON"):
            load_box(path)

    def test_unsupported_format_version(self):
        doc = box_to_document(pr_box())
        doc["format"] = 2
        with pytest.raises(BoxDocumentError, match="format"):
            document_to_box(doc)

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "tagged.json"
        save_box(pr_box(), path, metadata={"label": "pr", "seed": 0, "tolerance": 1e-9})
        doc = json.loads(path.read_text())
        assert doc["format"] == 1
        assert doc["metadata"]["label"] == "pr"
        assert isinstance(load_box(path), CCBox)

    def test_metadata_must_be_object(self):
        doc = box_to_document(pr_box())
        doc["metadata"] = "pr"
        with pytest.raises(BoxDocumentError, match="'metadata'"):
            document_to_box(doc)


@st.composite
def random_boxes(draw) -> CQBox:
    """2-3 parties of dims 1-3 with 1-2 inputs each; every output pure,
    every output mixed, or a random blend of the two."""
    k = draw(st.integers(2, 3))
    sizes = tuple(draw(st.integers(1, 2)) for _ in range(k))
    structure = PartyStructure(tuple(zip("ABC", (draw(st.integers(1, 3)) for _ in range(k)))))
    kinds = draw(st.sampled_from(["pure", "mixed", "blend"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = structure.total_dim
    outputs = {}
    for key in np.ndindex(*sizes):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kinds == "pure" or (kinds == "blend" and rng.random() < 0.5):
            outputs[key] = z[0] / np.linalg.norm(z[0])
        else:
            rho = z @ z.conj().T
            outputs[key] = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    return CQBox.from_outputs(sizes, structure, outputs)


def _rewritten(box: CQBox) -> tuple[str, str, CQBox]:
    first = json.dumps(box_to_document(box), sort_keys=True)
    loaded = document_to_box(json.loads(first))
    return first, json.dumps(box_to_document(loaded), sort_keys=True), loaded


@settings(max_examples=100, deadline=None)
@given(box=random_boxes())
def test_io_round_trip(box):
    first, second, loaded = _rewritten(box)
    assert np.max(np.abs(loaded.matrices - box.matrices)) <= 1e-15
    before, after = json.loads(first), json.loads(second)
    assert before.keys() == after.keys()
    assert {k: v for k, v in before.items() if k != "outputs"} == {
        k: v for k, v in after.items() if k != "outputs"
    }
    for name, entry in before["outputs"].items():
        again = after["outputs"][name]
        assert entry.keys() == again.keys()
        if "matrix" in entry:
            assert entry == again
        else:
            assert np.max(np.abs(np.subtract(entry["amplitudes"], again["amplitudes"]))) <= 1e-15


BOX_FIXTURES = sorted(
    path.name for path in (ROOT / "fixtures").glob("*.json") if "kind" in json.loads(path.read_text())
)


def _numbers(node: list):
    """(list, index) of every number nested in ``node``."""
    for i, item in enumerate(node):
        if isinstance(item, list):
            yield from _numbers(item)
        else:
            yield node, i


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(BOX_FIXTURES),
    slot=st.integers(0, 2**16),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_non_finite_payload_entry_is_refused(tmp_path_factory, name, slot, bad):
    """One table cell, amplitude or matrix component of a fixture made NaN,
    Infinity or -Infinity (as json writes them) fails verify as bad input,
    with no numpy warning before the error."""
    doc = json.loads((ROOT / "fixtures" / name).read_text())
    if doc["kind"] == "cc":
        payload = doc["table"]
    else:
        payload = [value for entry in doc["outputs"].values() for value in entry.values()]
    numbers = list(_numbers(payload))
    node, i = numbers[slot % len(numbers)]
    node[i] = bad
    path = tmp_path_factory.mktemp("non_finite") / name
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2


def test_pure_document_is_a_fixed_point():
    first, second, _ = _rewritten(pure_phase_box())
    assert first == second


def test_goldens_regenerate_byte_for_byte(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_goldens", ROOT / "scripts" / "make_goldens.py"
    )
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    monkeypatch.setattr(make_goldens, "FIXTURES", tmp_path)
    make_goldens.main()
    fixtures = ROOT / "fixtures"
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in fixtures.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name
