"""Dense linear algebra for small multi-party quantum states.

States carry an explicit ordered party structure of (label, dimension)
pairs.  Amplitudes and matrices are stored in the canonical tensor order
of that structure (first party most significant).  All operations are
pure functions, address parties by label, and run in double-precision
complex arithmetic.  Validity is decided in one place, the ``invalid_*``
fault reporters, which test for non-finite values first; other code only
phrases their faults in its own terms.  They use a global default
tolerance of ``TOLERANCE``; callers may override it per call.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

TOLERANCE = 1e-9
MAX_TENSOR_DIM = 1024  # largest joint dimension of a state or box, 16 MB per matrix
MAX_TABLE_ENTRIES = 2**22  # largest classical probability table built, 32 MB of floats
Fault = tuple[tuple[int, ...], str]  # stack index of an invalid state, and the reason
# a warnings filter entry that silences numpy's cast of complex entries to float
_QUIET_CASTS = ("ignore", None, np.exceptions.ComplexWarning, None, 0)

__all__ = [
    "TOLERANCE",
    "MAX_TENSOR_DIM",
    "MAX_TABLE_ENTRIES",
    "PartyStructure",
    "capped_dim",
    "invalid_parties",
    "invalid_vector",
    "invalid_density",
    "invalid_pure",
    "invalid_unitary",
    "invalid_distribution",
    "invalid_tolerance",
    "StateVector",
    "DensityMatrix",
    "UnitaryOperator",
    "SchmidtForm",
    "PAULI",
    "as_matrix",
    "real_array",
    "kron_all",
    "tensor",
    "partial_trace",
    "partial_trace_array",
    "apply_axis",
    "apply_local",
    "fidelity",
    "trace_distance",
    "trace_norm",
    "basis_state",
    "bell_state",
    "phi_plus",
    "two_level_state",
    "w_state",
    "pauli_x",
    "pauli_z_power",
    "phase_diag",
    "su2",
    "wrap_angle",
    "haar_from_normals",
    "haar_unitary",
    "schmidt",
    "check_uu_star_invariance",
]


def _frozen(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _positive_int(value: object) -> bool:
    """Whether ``value`` is an integer of at least 1; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def invalid_parties(parties: Sequence[tuple[object, object]]) -> str | None:
    """Why ``(label, dim)`` pairs are no party structure (labels must be
    distinct strings, dims positive integers), or None."""
    for label, dim in parties:
        if not isinstance(label, str):
            return f"gives label {label!r}, not a string"
        if not _positive_int(dim):
            return f"gives party '{label}' dim {dim!r}, not a positive integer"
    labels = [label for label, _ in parties]
    return f"has duplicate party labels: {labels}" if len(set(labels)) < len(labels) else None


@dataclass(frozen=True)
class PartyStructure:
    """Ordered collection of parties, each a (label, dimension) pair."""

    parties: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if reason := invalid_parties(self.parties):
            raise ValueError(f"party structure {reason}")

    @classmethod
    def qubits(cls, labels: str) -> "PartyStructure":
        return cls(tuple((label, 2) for label in labels))

    @classmethod
    def pair(cls, dim_a: int, dim_b: int | None = None) -> "PartyStructure":
        return cls((("A", dim_a), ("B", dim_b if dim_b is not None else dim_a)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.parties)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.parties)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.parties):
            if name == label:
                return i
        raise KeyError(f"unknown party label {label!r}; have {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.parties[self.index_of(label)][1]

    def subset(self, keep: Sequence[str]) -> "PartyStructure":
        keep_idx = sorted(self.index_of(label) for label in keep)
        return PartyStructure(tuple(self.parties[i] for i in keep_idx))


def capped_dim(structure: PartyStructure) -> int:
    """Joint dimension of ``structure``; ValueError above ``MAX_TENSOR_DIM``."""
    if structure.total_dim > MAX_TENSOR_DIM:
        raise ValueError(f"joint dimension {structure.total_dim} exceeds cap {MAX_TENSOR_DIM}")
    return structure.total_dim


def _first_fault(*checks) -> Fault | None:
    """(index, reason) of the first stack entry that fails a check, naming the
    first check it fails; a check is (failed mask, values, message template)."""
    failed = np.logical_or.reduce([mask for mask, _, _ in checks])
    if not failed.any():
        return None
    index = np.unravel_index(int(np.argmax(failed.ravel())), failed.shape)
    value, message = next((value, message) for mask, value, message in checks if mask[index])
    return tuple(int(i) for i in index), message.format(value[index])


def invalid_vector(amplitudes: np.ndarray, tol: float = TOLERANCE) -> Fault | None:
    """(index, reason) of the first non-unit vector of a stack ``(..., D)``, or None."""
    with np.errstate(invalid="ignore"):  # an infinite amplitude is reported below
        norms = np.linalg.norm(amplitudes, axis=-1)
    return _first_fault(
        # a NaN norm compares false against any tolerance, so test it first
        (~np.isfinite(norms), norms, "state vector norm {} is not finite"),
        (np.abs(norms - 1.0) > tol, norms, "state vector norm {} deviates from 1 beyond tolerance"),
    )


def invalid_density(matrices: np.ndarray, tol: float = TOLERANCE) -> Fault | None:
    """(index, reason) of the first matrix of a stack ``(..., D, D)`` that is
    not finite, Hermitian, of unit trace and positive semidefinite, or None."""
    skew = np.conj(np.swapaxes(matrices, -1, -2))  # one temporary stack, reused
    with np.errstate(invalid="ignore"):  # an infinite entry is reported below
        skew = np.max(np.abs(np.subtract(matrices, skew, out=skew)), axis=(-2, -1))
    # a NaN or infinite entry makes its skew non-finite; eigvalsh would fail
    # on it without saying where, so name it first
    if fault := _first_fault((~np.isfinite(skew), skew, "density matrix has a non-finite entry")):
        return fault
    lowest = np.min(np.linalg.eigvalsh(matrices), axis=-1)
    return _first_fault(
        (skew > tol, skew, "density matrix is not Hermitian within tolerance"),
        _unit_trace(np.trace(matrices, axis1=-2, axis2=-1), tol),
        (lowest < -tol, lowest, "density matrix has a negative eigenvalue beyond tolerance"),
    )


def invalid_unitary(matrices: np.ndarray, tol: float = TOLERANCE) -> Fault | None:
    """(index, reason) of the first matrix of a stack ``(..., n, n)`` with a
    non-finite entry or max |U U+ - 1| above ``tol``, or None."""
    with np.errstate(invalid="ignore"):  # an infinite entry is reported below
        product = matrices @ np.conj(np.swapaxes(matrices, -1, -2))
    error = np.max(np.abs(product - np.eye(matrices.shape[-1])), axis=(-2, -1))
    return _first_fault(
        (~np.isfinite(error), error, "matrix has a non-finite entry"),
        (error > tol, error, "matrix is not unitary within tolerance"),
    )


def invalid_distribution(p: np.ndarray, tol: float = TOLERANCE) -> Fault | None:
    """(index, reason) of the first row of a stack ``(..., n)`` that is not a
    distribution, non-negative and summing to 1 within ``tol``, or None."""
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):  # a non-finite entry is reported below
        sums = np.sum(p, axis=-1)
    lowest = np.min(p, axis=-1, initial=np.inf)
    return _first_fault(
        (~np.isfinite(sums), sums, "probabilities sum to {}, not a finite number"),
        (lowest < -tol, lowest, "probability {} is negative beyond tolerance"),
        (np.abs(sums - 1.0) > tol, sums, "probabilities sum to {}, not 1 within tolerance"),
    )


def invalid_tolerance(tol: object) -> str | None:
    """Why ``tol`` is no tolerance (a finite non-negative number), or None:
    a NaN tolerance would fail every comparison, a negative one every check."""
    if not isinstance(tol, numbers.Real) or not math.isfinite(tol):
        return f"must be a finite number, got {tol!r}"
    return f"must be non-negative, got {tol!r}" if tol < 0 else None


def _leaves(data: object, ndim: int) -> Iterable:
    """The entries of ``data``, nested sequences of regular depth ``ndim``."""
    for _ in range(ndim - 1):
        data = itertools.chain.from_iterable(data)
    return data if ndim else [data]


def real_array(data: object) -> np.ndarray:
    """``data`` as a float array, if it is nested lists of regular shape (or
    a numpy array) of ints and floats; else a ValueError saying why not.  A
    string, boolean or None entry is refused even where numpy would convert
    it.  Callers name the field in front of the reason."""
    leaves = data.tolist() if isinstance(data, np.ndarray) else data  # as Python scalars
    # complex entries are refused below, after the cast; the filter is put
    # in place by hand, as ``warnings.catch_warnings`` tripled a small cast's cost
    warnings.filters.insert(0, _QUIET_CASTS)
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"must hold numbers: {exc}") from None
    finally:
        warnings.filters.remove(_QUIET_CASTS)
    kinds = set(map(type, _leaves(leaves, arr.ndim))) - {int, float}  # these pass at once
    if refused := {k for k in kinds if not issubclass(k, numbers.Real) or k is bool}:
        bad = next(v for v in _leaves(leaves, arr.ndim) if type(v) in refused)
        raise ValueError(f"holds {json.dumps(bad, default=repr)}, not a JSON number")
    return arr


def _unit_trace(trace: np.ndarray, tol: float) -> tuple:
    return np.abs(trace.real - 1.0) > tol, trace, "density matrix trace {} deviates from 1"


def invalid_pure(amplitudes: np.ndarray, tol: float = TOLERANCE) -> Fault | None:
    """``invalid_vector``, then ``invalid_density`` of the outer products of a
    stack ``(..., D)``: these are Hermitian and positive semidefinite by
    construction, so only their traces sum |v_i|^2 are checked, at O(D) each."""
    return invalid_vector(amplitudes, tol) or _first_fault(
        _unit_trace(np.sum(amplitudes * amplitudes.conj(), axis=-1), tol)
    )


@dataclass(frozen=True)
class StateVector:
    """Pure state: unit-norm complex amplitude vector over a party structure."""

    amplitudes: np.ndarray
    structure: PartyStructure

    def __post_init__(self) -> None:
        amp = _frozen(np.asarray(self.amplitudes).ravel())
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (self.structure.total_dim,):
            raise ValueError(
                f"amplitude length {amp.shape[0]} does not match "
                f"structure dimension {self.structure.total_dim}"
            )
        if fault := invalid_pure(amp):
            raise ValueError(fault[1])

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.structure)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray
    structure: PartyStructure

    def __post_init__(self) -> None:
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        d = self.structure.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match structure dimension {d}")
        if fault := invalid_density(mat):
            raise ValueError(fault[1])


@dataclass(frozen=True)
class UnitaryOperator:
    """Square complex matrix satisfying U U+ = 1 within tolerance."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        if fault := invalid_unitary(mat):
            raise ValueError(fault[1])


@dataclass(frozen=True)
class SchmidtForm:
    """Bipartite decomposition psi = sum_i c_i |l_i>|r_i>.

    ``coefficients`` are non-negative and non-increasing; column i of
    ``left_basis`` / ``right_basis`` holds |l_i> / |r_i>.  ``blocks``
    groups coefficient indices that are degenerate within 1e-7.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    structure: PartyStructure

    def reconstruct(self) -> np.ndarray:
        r = len(self.coefficients)
        return ((self.left_basis[:, :r] * self.coefficients) @ self.right_basis[:, :r].T).ravel()


StateLike = StateVector | DensityMatrix


def _as_density(state: StateLike) -> DensityMatrix:
    return state.density() if isinstance(state, StateVector) else state


def as_matrix(obj: object) -> np.ndarray:
    """Complex array of a plain array or of a wrapper with a ``matrix``
    attribute, such as ``UnitaryOperator``."""
    return np.asarray(getattr(obj, "matrix", obj), dtype=complex)


def kron_all(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the arrays, first one most significant."""
    return reduce(np.kron, arrays)


def tensor(states: Sequence[StateLike]) -> StateLike:
    """Tensor product of states of the same kind, concatenating party structures."""
    if not states:
        raise ValueError("tensor requires at least one state")
    kinds = {type(s) for s in states}
    if len(kinds) > 1:
        raise ValueError("tensor requires all states of the same kind (vector or density)")
    structure = PartyStructure(tuple(p for s in states for p in s.structure.parties))
    capped_dim(structure)
    if isinstance(states[0], StateVector):
        return StateVector(kron_all([s.amplitudes for s in states]), structure)
    return DensityMatrix(kron_all([s.matrix for s in states]), structure)


def partial_trace_array(
    matrices: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Partial trace of each matrix in a stack of shape (..., D, D) laid out
    over party dimensions ``dims``, keeping the sorted party indices ``keep``."""
    dims = tuple(dims)
    batch = matrices.shape[:-2]
    t = matrices.reshape(batch + dims + dims)
    remaining = len(dims)
    d = math.prod(dims[i] for i in keep)
    for j in sorted(set(range(len(dims))) - set(keep), reverse=True):
        diagonal = np.diagonal(t, 0, len(batch) + j, len(batch) + j + remaining)
        if d == 1:  # a full trace, which np.trace sums pairwise, not in index order
            t = diagonal.sum(axis=-1)
        else:  # the diagonal blocks in index order, bit for bit as np.trace adds them
            t = diagonal[..., 0].copy()
            for i in range(1, dims[j]):
                t += diagonal[..., i]
        remaining -= 1
    return t.reshape(batch + (d, d))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on the parties in ``keep`` (original order kept)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one party")
    structure = rho.structure
    keep_idx = sorted(structure.index_of(label) for label in keep)
    sub = structure.subset([structure.labels[i] for i in keep_idx])
    return DensityMatrix(partial_trace_array(rho.matrix, structure.dims, keep_idx), sub)


def apply_axis(tensor_arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``mat`` to one axis of a tensor, leaving the axis order."""
    moved = np.tensordot(mat, tensor_arr, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def apply_local(state: StateLike, party: str, u: UnitaryOperator | np.ndarray) -> StateLike:
    """Apply a unitary to one party of a pure or mixed state."""
    mat = as_matrix(u)
    structure = state.structure
    j = structure.index_of(party)
    dims = structure.dims
    if mat.shape != (dims[j], dims[j]):
        raise ValueError(
            f"operator shape {mat.shape} does not match party {party!r} dimension {dims[j]}"
        )
    if isinstance(state, StateVector):
        t = state.amplitudes.reshape(dims)
        t = apply_axis(t, mat, j)
        return StateVector(t.reshape(-1), structure)
    k = len(dims)
    t = state.matrix.reshape(dims + dims)
    t = apply_axis(t, mat, j)
    t = apply_axis(t, mat.conj(), j + k)
    d = structure.total_dim
    return DensityMatrix(t.reshape(d, d), structure)


def _check_same_structure(p: StateLike, q: StateLike) -> None:
    if p.structure.dims != q.structure.dims:
        raise ValueError(
            f"state structures differ: {p.structure.parties} vs {q.structure.parties}"
        )


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    # zero the numerical-noise eigenvalues of rank-deficient inputs, which
    # would otherwise pollute the square root at the sqrt(eps) scale
    vals = np.clip(vals, 0.0, None)
    if vals[-1] > 0:
        vals[vals < vals[-1] * 1e-12] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(p: StateLike, q: StateLike) -> float:
    """Fidelity in [0, 1]; for pure states |<p|q>|^2, Uhlmann in general."""
    _check_same_structure(p, q)
    if isinstance(p, StateVector) and isinstance(q, StateVector):
        return float(min(1.0, abs(np.vdot(p.amplitudes, q.amplitudes)) ** 2))
    rho = _as_density(p).matrix
    sigma = _as_density(q).matrix
    singulars = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)
    return float(min(1.0, np.sum(singulars) ** 2))


def trace_distance(p: StateLike, q: StateLike) -> float:
    """Trace distance (half the trace norm of the difference) in [0, 1]."""
    _check_same_structure(p, q)
    delta = _as_density(p).matrix - _as_density(q).matrix
    return float(0.5 * trace_norm(delta))


def trace_norm(matrices: np.ndarray) -> np.ndarray:
    """Trace norm of each Hermitian matrix in a stack of shape (..., D, D)."""
    return np.sum(np.abs(np.linalg.eigvalsh(matrices)), axis=-1)


def basis_state(structure: PartyStructure, levels: Sequence[int]) -> StateVector:
    """Computational basis state |levels> over the given structure."""
    dims = structure.dims
    if len(levels) != len(dims):
        raise ValueError("one level per party required")
    amp = np.zeros(structure.total_dim, dtype=complex)
    amp[int(np.ravel_multi_index(tuple(levels), dims))] = 1.0
    return StateVector(amp, structure)


_BELL_AMPLITUDES = (
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
)


def bell_state(i: int) -> StateVector:
    """Two-qubit Bell state: 0 -> (|00>+|11>)/sqrt2, 1 -> (|01>+|10>)/sqrt2,
    2 -> (|00>-|11>)/sqrt2, 3 -> (|01>-|10>)/sqrt2."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Bell index must be 0..3, got {i}")
    return StateVector(_BELL_AMPLITUDES[i], PartyStructure.qubits("AB"))


def phi_plus(n: int) -> StateVector:
    """Maximally entangled state (1/sqrt n) sum_i |ii> on two n-level parties."""
    if n < 2:
        raise ValueError(f"local dimension must be at least 2, got {n}")
    amp = np.zeros(n * n, dtype=complex)
    amp[:: n + 1] = 1.0 / math.sqrt(n)
    return StateVector(amp, PartyStructure.pair(n))


def two_level_state(alpha: complex, beta: complex) -> StateVector:
    """alpha |00> + beta |11> on two qubits."""
    try:
        return StateVector(np.array([alpha, 0, 0, beta], dtype=complex), PartyStructure.pair(2))
    except ValueError as exc:  # a norm off 1, NaN included
        raise ValueError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1") from exc


def w_state() -> StateVector:
    """Three-qubit state (|100>+|010>+|001>)/sqrt3."""
    amp = np.zeros(8, dtype=complex)
    amp[[4, 2, 1]] = 1.0 / math.sqrt(3)
    return StateVector(amp, PartyStructure.qubits("ABC"))


def pauli_x() -> UnitaryOperator:
    return UnitaryOperator(np.array([[0, 1], [1, 0]], dtype=complex))


def pauli_z_power(t: float) -> UnitaryOperator:
    """diag(1, exp(i pi t)); t = 1 gives Pauli Z."""
    return UnitaryOperator(np.diag([1.0, np.exp(1j * math.pi * t)]))


def phase_diag(angles: Sequence[float]) -> UnitaryOperator:
    """Diagonal phase gate diag(exp(i angle_j))."""
    return UnitaryOperator(np.diag(np.exp(1j * np.asarray(angles, dtype=float))))


# Pauli X, Y, Z
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def su2(axis: Sequence[float], angle: float) -> UnitaryOperator:
    """Qubit rotation by ``angle`` about the unit Bloch vector ``axis``:
    cos(angle/2) 1 - i sin(angle/2) (axis . sigma)."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or invalid_vector(n):
        raise ValueError(f"axis must be a unit 3-vector, got {axis}")
    nsigma = n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]
    return UnitaryOperator(
        math.cos(angle / 2) * np.eye(2, dtype=complex) - 1j * math.sin(angle / 2) * nsigma
    )


def wrap_angle(angles: object) -> np.ndarray:
    """Angles (radians) wrapped into [-pi, pi)."""
    return (np.asarray(angles, dtype=float) + math.pi) % (2 * math.pi) - math.pi


def haar_from_normals(normals: np.ndarray, n: int) -> np.ndarray:
    """Haar-distributed n x n unitaries as plain arrays, unvalidated, from the
    2 n^2 standard normals per matrix on the last axis of ``normals`` (real
    parts of the Ginibre matrix in row-major order, then imaginary parts)."""
    z = normals[..., : n * n] + 1j * normals[..., n * n :]
    q, r = np.linalg.qr(z.reshape(normals.shape[:-1] + (n, n)) / math.sqrt(2))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed: int | np.random.Generator) -> UnitaryOperator:
    """Haar-distributed random unitary, deterministic given the seed.

    Drawn as the QR factor of a complex Ginibre matrix with the R-diagonal
    phases folded back in, which makes the distribution exactly invariant
    under left and right multiplication by fixed unitaries.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return UnitaryOperator(haar_from_normals(rng.standard_normal(2 * n * n), n))


def schmidt(state: StateVector) -> SchmidtForm:
    """Schmidt decomposition of a bipartite pure state; coefficients within
    1e-7 of their neighbour share a block."""
    dims = state.structure.dims
    if len(dims) != 2:
        raise ValueError(f"Schmidt decomposition requires exactly 2 parties, got {len(dims)}")
    mat = state.amplitudes.reshape(dims)
    left, coeffs, right_h = np.linalg.svd(mat, full_matrices=True)
    cuts = np.flatnonzero(np.abs(np.diff(coeffs)) > 1e-7) + 1
    blocks = [tuple(int(i) for i in block) for block in np.split(np.arange(len(coeffs)), cuts)]
    form = SchmidtForm(
        coefficients=_frozen(coeffs, dtype=float),
        left_basis=_frozen(left),
        right_basis=_frozen(right_h.T),
        blocks=tuple(blocks),
        structure=state.structure,
    )
    if np.linalg.norm(form.reconstruct() - state.amplitudes) > 1e-9:
        raise ArithmeticError("Schmidt reconstruction failed validation")
    return form


def check_uu_star_invariance(u: UnitaryOperator | np.ndarray, n: int) -> float:
    """Norm of (U x conj(U)) |phi+_n> - |phi+_n>; zero for any unitary U."""
    mat = as_matrix(u)
    if mat.shape != (n, n):
        raise ValueError(f"expected an {n} x {n} unitary, got shape {mat.shape}")
    phi = phi_plus(n).amplitudes
    moved = np.kron(mat, mat.conj()) @ phi
    return float(np.linalg.norm(moved - phi))
