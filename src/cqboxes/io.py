"""JSON documents for classical and quantum-output boxes.

A document is a plain JSON object with ``format`` 1 and a ``kind`` of
"cc" or "cq"; an optional ``metadata`` object carries a label, seed and
tolerance for provenance.
Classical boxes carry their probability table as nested lists.  Quantum
boxes carry one entry per input tuple (keys like "0,1"), each either a
pure state as ``amplitudes`` or a density matrix as ``matrix``; complex
numbers are encoded as [real, imag] pairs throughout.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cqboxes.boxes import CCBox, CQBox, _check_tolerance, _rank_one
from cqboxes.quantum import (
    MAX_TENSOR_DIM, TOLERANCE, PartyStructure, invalid_parties, real_array
)

__all__ = [
    "BoxDocumentError",
    "box_to_document",
    "document_to_box",
    "save_box",
    "load_box",
]


class BoxDocumentError(ValueError):
    """A JSON input is unreadable or malformed; the message names the file or field."""


def _encode_complex(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _numbers(data: object, field: str) -> np.ndarray:
    """``data``, nested lists of JSON numbers, as a float array."""
    try:
        return real_array(data)
    except ValueError as exc:
        raise BoxDocumentError(f"field '{field}' {exc}") from None


def _decode_complex(data: object, field: str) -> np.ndarray:
    arr = _numbers(data, field)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise BoxDocumentError(
            f"field '{field}' must hold complex numbers as [real, imag] pairs"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _key_string(key: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in key)


def _parse_key(text: str, field: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BoxDocumentError(
            f"field '{field}' has a malformed input key '{text}'"
        ) from exc


# largest entry change, 4 ulp of 1, that writing a stored matrix as amplitudes may cost
_REBUILD_TOL = 4 * np.finfo(float).eps


def _pure_amplitudes(box: CQBox, key: tuple[int, ...]) -> np.ndarray | None:
    """Amplitudes to write for one output, with the largest one real and
    positive, or None when the output must be written as a matrix.

    A box that stores amplitudes gives them.  For a stored matrix the
    candidate is ``_rank_one``'s pivot column over the root of the pivot,
    which is exact for a rank-one matrix up to rounding; it is used only
    when its outer product, the matrix the loader rebuilds, is within
    ``_REBUILD_TOL`` of the stored one, so a nearly pure output is not
    rounded to a pure one."""
    if box.amplitudes is not None:
        amp = box.amplitudes[key]
        pivot = amp[int(np.argmax(np.abs(amp)))]
        return amp * (abs(pivot) / pivot)
    amp, error = _rank_one(box.matrices[key])
    return None if error > _REBUILD_TOL else amp


def box_to_document(box: CCBox | CQBox, metadata: dict | None = None) -> dict:
    extra = {"metadata": dict(metadata)} if metadata else {}
    if isinstance(box, CCBox):
        return {
            "format": 1,
            "kind": "cc",
            "input_sizes": list(box.input_sizes),
            "output_sizes": list(box.output_sizes),
            "table": box.table.tolist(),
            **extra,
        }
    if isinstance(box, CQBox):
        outputs = {}
        for key in box.inputs:
            amp = _pure_amplitudes(box, key)
            field, values = ("matrix", box.matrices[key]) if amp is None else ("amplitudes", amp)
            outputs[_key_string(key)] = {field: _encode_complex(values)}
        return {
            "format": 1,
            "kind": "cq",
            "input_sizes": list(box.input_sizes),
            "parties": [{"label": label, "dim": int(dim)} for label, dim in box.structure.parties],
            "outputs": outputs,
            **extra,
        }
    raise TypeError(f"cannot serialise {type(box).__name__}")


def _require(doc: dict, field: str) -> object:
    if field not in doc:
        raise BoxDocumentError(f"box document is missing required field '{field}'")
    return doc[field]


def _decoded_outputs(raw: dict) -> dict[tuple[int, ...], np.ndarray]:
    """The ``outputs`` object of a cq document as arrays by input tuple."""
    outputs: dict[tuple[int, ...], np.ndarray] = {}
    spellings: dict[tuple[int, ...], str] = {}
    for name, entry in raw.items():
        key = _parse_key(name, "outputs")
        if key in spellings:
            raise BoxDocumentError(
                f"field 'outputs' keys '{spellings[key]}' and '{name}' both name "
                f"input {_key_string(key)}"
            )
        spellings[key] = name
        if not isinstance(entry, dict) or ("amplitudes" in entry) == ("matrix" in entry):
            raise BoxDocumentError(
                f"output '{name}' must provide exactly one of 'amplitudes' or 'matrix'"
            )
        payload = "amplitudes" if "amplitudes" in entry else "matrix"
        value = _decode_complex(entry[payload], f"outputs['{name}'].{payload}")
        # a vector is a pure state and a matrix a density matrix, so the
        # payload fixes the rank of the array
        outputs[key] = value.ravel() if payload == "amplitudes" else np.atleast_2d(value)
    return outputs


def document_to_box(doc: dict, *, tol: float = TOLERANCE) -> CCBox | CQBox:
    """The box a document describes, its outputs validated within ``tol``;
    a ``tol`` that is no tolerance is the caller's fault, not the document's."""
    _check_tolerance(tol)
    if not isinstance(doc, dict):
        raise BoxDocumentError("box document must be a JSON object")
    version = doc.get("format", 1)
    if version != 1:
        raise BoxDocumentError(f"unsupported document format {version!r} (expected 1)")
    if "metadata" in doc and not isinstance(doc["metadata"], dict):
        raise BoxDocumentError("field 'metadata' must be an object")
    kind = _require(doc, "kind")
    if kind == "cc":
        input_sizes = _require(doc, "input_sizes")
        output_sizes = _require(doc, "output_sizes")
        table = _require(doc, "table")
        try:
            return CCBox(input_sizes, output_sizes, _numbers(table, "table"), tol)
        except (TypeError, ValueError) as exc:
            raise BoxDocumentError(f"invalid classical box table: {exc}") from exc
    if kind == "cq":
        input_sizes = _require(doc, "input_sizes")
        try:
            parties = tuple((p["label"], p["dim"]) for p in _require(doc, "parties"))
        except (TypeError, KeyError) as exc:
            raise BoxDocumentError(
                "field 'parties' must list objects with 'label' and 'dim'"
            ) from exc
        if reason := invalid_parties(parties):
            raise BoxDocumentError(f"field 'parties' {reason}")
        structure = PartyStructure(parties)
        if structure.total_dim > MAX_TENSOR_DIM:
            raise BoxDocumentError(
                f"field 'parties' gives joint dimension {structure.total_dim}, "
                f"above the cap of {MAX_TENSOR_DIM}"
            )
        raw = _require(doc, "outputs")
        if not isinstance(raw, dict):
            raise BoxDocumentError("field 'outputs' must be an object keyed by inputs")
        # a non-finite number fails the box's validation, so numpy's warnings
        # for inf times 0, in decoding and in outer products, would only repeat it
        with np.errstate(invalid="ignore"):
            outputs = _decoded_outputs(raw)
            try:
                return CQBox.from_outputs(input_sizes, structure, outputs, tol=tol)
            except ValueError as exc:
                raise BoxDocumentError(f"invalid quantum box: {exc}") from exc
    raise BoxDocumentError(f"unknown box kind '{kind}' (expected 'cc' or 'cq')")


def save_box(box: CCBox | CQBox, path: str | Path, metadata: dict | None = None) -> None:
    document = box_to_document(box, metadata)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _read_json(path: str | Path, what: str) -> object:
    """The JSON value in the file at ``path``, which holds the ``what``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BoxDocumentError(f"cannot read {what} '{path}': {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BoxDocumentError(f"'{path}' is not valid JSON: {exc}") from exc


def load_box(path: str | Path, *, tol: float = TOLERANCE) -> CCBox | CQBox:
    return document_to_box(_read_json(path, "box document"), tol=tol)
