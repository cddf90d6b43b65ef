"""Classical and classical-input/quantum-output boxes and their
no-signalling verifiers.

A box takes one classical input per party.  A C-C box returns one
classical output per party according to a conditional probability table;
a C-Q box returns a joint quantum state.  Both kinds are non-signalling
when every proper subgroup of parties sees statistics (or a reduced
state) that do not depend on the inputs of the complementary parties.
The checks decide this from the k leave-one-out groups alone, the k - 1
parties other than each party j, whose view must not depend on x_j: every
smaller group's view is a marginal (or partial trace) of one of theirs
(Barrett et al., PRA 71, 022101 (2005)).  Marginals and partial traces
contract distances, so a box within ``tol`` on the leave-one-out groups is
within (k - 1) ``tol`` on every proper subgroup.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from cqboxes.quantum import (
    MAX_TABLE_ENTRIES,
    TOLERANCE,
    DensityMatrix,
    PartyStructure,
    StateVector,
    _first_fault,
    _frozen,
    _positive_int,
    as_matrix,
    capped_dim,
    haar_from_normals,
    invalid_density,
    invalid_distribution,
    invalid_pure,
    invalid_tolerance,
    invalid_unitary,
    kron_all,
    partial_trace_array,
    trace_norm,
)

__all__ = [
    "CCBox",
    "HaarCouplingBox",
    "CQBox",
    "NoSignallingReport",
    "Witness",
    "pr_box",
    "mod_box",
    "cc_no_signalling",
    "cq_no_signalling",
    "family_worst_violation",
    "induced_ccbox",
    "chsh_value",
    "cq_box_distance",
]


def _check_tolerance(tol: object) -> None:
    """ValueError unless ``tol`` is a tolerance: a NaN one would pass every check."""
    if reason := invalid_tolerance(tol):
        raise ValueError(f"tol {reason}")


def _positive_sizes(sizes: object, field: str) -> tuple[int, ...]:
    """``sizes`` as a non-empty tuple of ints of at least 1; ValueError
    naming ``field`` otherwise."""
    try:
        values = tuple(sizes)
    except TypeError:
        values = ()
    if not values or not all(map(_positive_int, values)):
        raise ValueError(f"{field} must be a non-empty list of positive integers, got {sizes!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class CCBox:
    """Conditional probability table p(outputs | inputs) for k parties.

    ``table`` has shape ``input_sizes + output_sizes``, entries are
    non-negative and sum to one over outputs for every input setting,
    within the tolerance ``tol`` (not stored).
    """

    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: np.ndarray
    tol: InitVar[float] = TOLERANCE

    def __post_init__(self, tol: float) -> None:
        _check_tolerance(tol)
        object.__setattr__(self, "input_sizes", _positive_sizes(self.input_sizes, "input_sizes"))
        object.__setattr__(self, "output_sizes", _positive_sizes(self.output_sizes, "output_sizes"))
        if len(self.input_sizes) != len(self.output_sizes):
            raise ValueError("one output alphabet per party required")
        object.__setattr__(self, "table", tab := _frozen(self.table, float))
        if tab.shape != (expected := self.input_sizes + self.output_sizes):
            raise ValueError(f"table shape {tab.shape} does not match {expected}")
        if fault := invalid_distribution(tab.reshape(self.input_sizes + (-1,)), tol):
            key = ",".join(map(str, fault[0]))
            raise ValueError(f"output distribution at input {key} is invalid: {fault[1]}")

    @property
    def parties(self) -> int:
        return len(self.input_sizes)

    def probability(self, inputs: Sequence[int], outputs: Sequence[int]) -> float:
        return float(self.table[tuple(inputs) + tuple(outputs)])

    @classmethod
    def from_coupling(
        cls, input_sizes: Sequence[int], marginal: np.ndarray,
        bijections: Mapping[tuple[int, ...], np.ndarray],
    ) -> "CCBox":
        """Two-party table of a finite coupling: p(pi[b], b | x, y) = marginal[b]
        for pi = ``bijections[(x, y)]``.  Every bijection must preserve the
        marginal, so that neither side's statistics depend on the other's input."""
        q = np.asarray(marginal, dtype=float)
        if q.ndim != 1 or invalid_distribution(q):
            raise ValueError("marginal is not a probability distribution")
        n = q.shape[0]
        sizes = tuple(input_sizes)
        table = np.zeros(sizes + (n, n))
        for key in np.ndindex(*sizes):
            if key not in bijections:
                raise ValueError(f"missing bijection for input {key}")
            # compare the entries before any cast, which would truncate 0.9 to 0
            pi = np.asarray(bijections[key])
            if sorted(pi.tolist()) != list(range(n)):
                raise ValueError(f"pairing for input {key} is not a bijection on 0..{n - 1}")
            pi = pi.astype(int)
            if np.max(np.abs(q[pi] - q)) > TOLERANCE:
                # Alice's induced marginal q(pi(b)) must equal q itself
                raise ValueError(f"pairing for input {key} does not preserve the marginal")
            table[key + (pi, np.arange(n))] = q
        return cls(sizes, (n, n), table)


def _unitary_stack_shape(stack: np.ndarray, name: str) -> tuple[tuple[int, ...], int]:
    """(input_sizes, dim) of an ``input_sizes + (dim, dim)`` stack with at
    least one input axis and no empty axis; ValueError naming ``name`` otherwise."""
    shape = np.shape(stack)
    if len(shape) < 3 or shape[-1] != shape[-2] or 0 in shape:
        raise ValueError(f"{name} shape {shape} is not input_sizes + (dim, dim), all positive")
    return shape[:-2], shape[-1]


@dataclass(frozen=True)
class HaarCouplingBox:
    """Sampler-backed coupling over a continuous unitary output alphabet.

    Bob's output is a Haar-random unitary V, block-diagonal over
    ``block_dims``, positive integers that sum to ``dim`` (a single block by
    default).  Alice's output under a given input tuple is
    ``relabel[inputs] @ conj(V)``, ``relabel`` being a read-only
    ``input_sizes + (dim, dim)`` stack of unitaries (within 1e-6, a fault
    named by its input tuple), from whose shape ``dim`` and ``input_sizes``
    are read.  Bob's sample stream is drawn once, independent of the inputs.
    """

    relabel: np.ndarray
    block_dims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relabel", relabel := _frozen(self.relabel))
        _unitary_stack_shape(relabel, "relabel")
        # the tolerance that synth applies to the unitaries it reads off a target
        if fault := invalid_unitary(relabel, 1e-6):
            raise ValueError(f"relabel at input {fault[0]}: {fault[1]}")
        # the empty default, found without a truth test, which an array would fail
        default = isinstance(self.block_dims, (tuple, list)) and not self.block_dims
        blocks = _positive_sizes((self.dim,) if default else self.block_dims, "block_dims")
        object.__setattr__(self, "block_dims", blocks)
        if sum(blocks) != self.dim:
            raise ValueError(f"block dimensions {blocks} do not sum to {self.dim}")

    @property
    def dim(self) -> int:
        return self.relabel.shape[-1]

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.relabel.shape[:-2]

    def draw_base(self, rng: np.random.Generator, size: int | tuple[int, ...] = ()) -> np.ndarray:
        """Block-diagonal Haar samples for Bob (input-independent) over the
        leading shape ``size``; a stack of S equals S single draws, bit for bit."""
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        normals = rng.standard_normal(shape + (sum(2 * d * d for d in self.block_dims),))
        if len(self.block_dims) == 1:
            return haar_from_normals(normals, self.dim)
        v = np.zeros(shape + (self.dim, self.dim), dtype=complex)
        offset = start = 0
        for d in self.block_dims:
            block = slice(offset, offset + d)
            v[..., block, block] = haar_from_normals(normals[..., start : start + 2 * d * d], d)
            offset, start = offset + d, start + 2 * d * d
        return v


def _in_range(key: object, sizes: tuple[int, ...]) -> bool:
    shaped = isinstance(key, tuple) and len(key) == len(sizes)
    return shaped and all(0 <= v < n for v, n in zip(key, sizes))


def _ndindex(sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """``np.ndindex(*sizes)``, made lazily, as tuples of Python ints; numpy's
    first stores every range as a tuple, which huge ``sizes`` cannot afford."""
    if not sizes:
        yield ()
        return
    for head in range(sizes[0]):
        yield from ((head,) + rest for rest in _ndindex(sizes[1:]))


def _checked(
    out: np.ndarray, shape: tuple[int, ...], fault: Callable, tol: float = TOLERANCE
) -> np.ndarray:
    """``out``, a stack of outputs, made read-only once ``fault`` passes it within ``tol``."""
    if out.shape != shape:
        raise ValueError(f"output stack shape {out.shape} does not match {shape}")
    if bad := fault(out, tol):
        key, reason = bad
        raise ValueError(f"output at input {','.join(map(str, key))} is invalid: {reason}")
    out.setflags(write=False)
    return out


def _rank_one(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, error) of a ``(..., D, D)`` stack read as rank-one matrices.

    Each vector is the matrix's pivot column, at its largest real diagonal
    entry p, over the root of that entry, with entry p set to the root: exact
    for a rank-one matrix up to rounding, with a real, positive pivot.  The
    error is each matrix's max |v v+ - M|, the entry change of rebuilding it."""
    diagonal = np.diagonal(matrices, axis1=-2, axis2=-1).real
    p = np.argmax(diagonal, axis=-1)[..., None]
    root = np.sqrt(np.take_along_axis(diagonal, p, axis=-1))
    vectors = np.take_along_axis(matrices, p[..., None], axis=-1)[..., 0] / root
    np.put_along_axis(vectors, p, root, axis=-1)  # drop the rounding in the pivot's imaginary part
    rebuilt = vectors[..., :, None] * vectors[..., None, :].conj()
    return vectors, np.max(np.abs(rebuilt - matrices), axis=(-2, -1))


@dataclass(frozen=True, init=False, eq=False)
class CQBox:
    """Classical-input box whose output is a joint quantum state.

    It stores the one stack it is given, an output per input tuple over the
    shared party structure: ``amplitudes`` ``input_sizes + (D,)`` if every
    output is pure (checked for finiteness, norm and trace only), else density
    ``matrices`` ``input_sizes + (D, D)``, which a pure box builds on first
    read.  Both are checked within the tolerance ``tol`` (not stored).
    Mappings from input tuples go through ``from_outputs`` or ``from_pure``.
    """

    input_sizes: tuple[int, ...]
    structure: PartyStructure
    amplitudes: np.ndarray | None = field(default=None, repr=False)

    def __init__(
        self, input_sizes: Sequence[int], structure: PartyStructure,
        matrices: np.ndarray | None = None, amplitudes: np.ndarray | None = None,
        *, tol: float = TOLERANCE,
    ) -> None:
        _check_tolerance(tol)
        sizes = _positive_sizes(input_sizes, "input_sizes")
        object.__setattr__(self, "input_sizes", sizes)
        object.__setattr__(self, "structure", structure)
        if len(sizes) != len(structure.parties):
            raise ValueError("one classical input per party required")
        d = capped_dim(structure)
        if (matrices is None) == (amplitudes is None):
            raise ValueError("a C-Q box needs exactly one of matrices and amplitudes")
        # copy what the caller passed, so that the box cannot change under it
        if amplitudes is not None:
            amplitudes = _checked(
                np.array(amplitudes, dtype=complex), sizes + (d,), invalid_pure, tol
            )
        else:
            matrices = _checked(
                np.array(matrices, dtype=complex), sizes + (d, d), invalid_density, tol
            )
            object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "amplitudes", amplitudes)

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """A pure box's read-only outer products; ``__init__`` sets a mixed box's stack."""
        matrices = self.amplitudes[..., :, None] * self.amplitudes[..., None, :].conj()
        matrices.setflags(write=False)
        return matrices

    @classmethod
    def from_outputs(
        cls,
        input_sizes: Sequence[int],
        structure: PartyStructure,
        outputs: Mapping[tuple[int, ...], StateVector | DensityMatrix | np.ndarray],
        *, tol: float = TOLERANCE,
    ) -> "CQBox":
        """Box from a mapping of every input tuple to a density matrix or, for
        a pure output, a state vector (objects or arrays; all vectors keep
        amplitudes), checked within ``tol``."""
        sizes = _positive_sizes(input_sizes, "input_sizes")
        for key in outputs:
            if not _in_range(key, sizes):
                raise ValueError(f"output key {key!r} is outside the input range {sizes}")
        # every key is in range, so a full count means no input is missing
        absent = math.prod(sizes) - len(outputs)
        if absent:
            missing = (k for k in _ndindex(sizes) if k not in outputs)
            first = list(itertools.islice(missing, 4))
            more = f" and {absent - len(first)} more" if absent > len(first) else ""
            raise ValueError(f"outputs missing for inputs {first}{more}")
        d = capped_dim(structure)
        arrays = []
        for key in np.ndindex(*sizes):
            out = outputs[key]
            if getattr(out, "structure", structure).dims != structure.dims:
                raise ValueError(f"output at {key} has mismatched party structure")
            # a StateVector's amplitudes, a DensityMatrix's matrix, or the array
            arrays.append(as_matrix(getattr(out, "amplitudes", out)))
            if (shape := arrays[-1].shape) not in ((d,), (d, d)):
                raise ValueError(f"output at {key} has shape {shape}, not ({d},) or ({d}, {d})")
        if all(a.ndim == 1 for a in arrays):
            return cls(sizes, structure, amplitudes=np.reshape(arrays, sizes + (d,)), tol=tol)
        mats = [np.outer(a, a.conj()) if a.ndim == 1 else a for a in arrays]
        return cls(sizes, structure, np.reshape(mats, sizes + (d, d)), tol=tol)

    @classmethod
    def from_pure(
        cls,
        input_sizes: Sequence[int],
        states: Mapping[tuple[int, ...], StateVector],
    ) -> "CQBox":
        # with no states the structure is never read: the missing outputs are reported first
        first = next(iter(states.values()), None)
        return cls.from_outputs(input_sizes, getattr(first, "structure", None), states)

    @property
    def inputs(self) -> list[tuple[int, ...]]:
        return list(np.ndindex(*self.input_sizes))

    def _key(self, inputs: Sequence[int]) -> tuple[int, ...]:
        key = tuple(inputs)
        if not _in_range(key, self.input_sizes):
            raise KeyError(f"no output for inputs {key}; input sizes are {self.input_sizes}")
        return key

    def output(self, inputs: Sequence[int]) -> DensityMatrix:
        return DensityMatrix(self.matrices[self._key(inputs)], self.structure)

    def pure_output(self, inputs: Sequence[int]) -> StateVector:
        """The output state as a vector; fails if mixed, its rank-one error above 1e-7."""
        return StateVector(self.pure_vectors(self._key(inputs)), self.structure)

    def pure_vectors(self, key: tuple[int, ...] = ()) -> np.ndarray:
        """The pure outputs at and below the input prefix ``key``, one
        ``(..., D)`` stack: the stored amplitudes, or else each matrix's
        pivot column as ``_rank_one`` reads it, scaled to unit norm,
        refusing the first output whose rank-one error is not within 1e-7."""
        if self.amplitudes is not None:
            return self.amplitudes[key]
        vectors, error = _rank_one(self.matrices[key])
        # a NaN error fails the test too
        if fault := _first_fault((~(error <= 1e-7), error, "mixed (rank-one error {})")):
            raise ValueError(f"output at {key + fault[0]} is {fault[1]}")
        return vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)


@dataclass(frozen=True)
class Witness:
    """One observed dependence of a subgroup's statistics on outside inputs."""

    subgroup: tuple[str, ...]
    subgroup_inputs: tuple[int, ...]
    outside_inputs: tuple[tuple[int, ...], tuple[int, ...]]
    violation: float


@dataclass(frozen=True)
class NoSignallingReport:
    passed: bool
    worst_violation: float
    witnesses: tuple[Witness, ...]
    tolerance: float


def pr_box() -> CCBox:
    """Binary two-party box with p(a, b | x, y) = 1/2 iff (a - b) mod 2 = x * y."""
    return mod_box(2)


def mod_box(n: int, parties: int = 2) -> CCBox:
    """Box over outputs 0..n-1 and binary inputs with uniform weight on the
    output tuples satisfying (a_1 - a_2 - ... - a_k) mod n = x_1 x_2 ... x_k:
    (a - b) mod n = x y for two parties, (a - b - c) mod n = x y z for three."""
    if n < 2:
        raise ValueError(f"output alphabet must have at least 2 symbols, got {n}")
    if parties < 2:
        raise ValueError(f"at least 2 parties required, got {parties}")
    if (2 * n) ** parties > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"output alphabet n = {n} needs a table of (2n)^{parties} entries, "
            f"above the cap of {MAX_TABLE_ENTRIES}"
        )
    table = np.zeros((2,) * parties + (n,) * parties)
    rest = np.ix_(*[range(n)] * (parties - 1))  # outputs of parties 2..k
    for inputs in itertools.product(range(2), repeat=parties):
        first = (sum(rest) + math.prod(inputs)) % n
        table[inputs + (first,) + rest] = 1.0 / n ** (parties - 1)
    return CCBox((2,) * parties, (n,) * parties, table)


@functools.lru_cache(maxsize=16)
def _outside_pairs(outside: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(outside, 1)``, in combinations order."""
    return tuple(_frozen(index, int) for index in np.triu_indices(outside, 1))


def _subgroup_sweep(
    input_sizes: tuple[int, ...],
    view: Callable[[int], np.ndarray],
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Iterator[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]]:
    """No-signalling distances of a family of boxes, shared by both box kinds,
    over the leave-one-out groups: for each party j, the other k - 1 parties,
    whose view must not depend on x_j.

    ``view(j)`` is that group's view (output marginal or reduced state) for
    every family member and input setting, shape ``(F,) + input_sizes + view``.
    ``distance`` maps two equal-shaped stacks of views to their distances.
    Yields, per j from k - 1 down to 0 (the groups in combinations order;
    a single party has none), ``(group, first, second, dists)``:
    ``dists`` has shape ``(F, own settings, pairs of x_j)``, own settings in
    product order, and pair p compares x_j = ``first[p]`` with ``second[p]``
    in ``itertools.combinations`` order.  No view is held past its
    distances, so only one is alive at a time.
    """
    k = len(input_sizes)
    for j in reversed(range(k)) if k > 1 else ():
        group = tuple(i for i in range(k) if i != j)
        stack = view(j)
        # rows: the group's input settings; columns: party j's inputs
        stack = stack.transpose((0, *(1 + i for i in group), 1 + j, *range(k + 1, stack.ndim)))
        own = math.prod(input_sizes) // input_sizes[j]
        stack = stack.reshape((len(stack), own, input_sizes[j]) + stack.shape[k + 1 :])
        first, second = _outside_pairs(input_sizes[j])
        dists = distance(stack[:, :, first], stack[:, :, second])
        del stack
        yield group, first, second, dists


def _report(
    input_sizes: tuple[int, ...],
    labels: Sequence[str],
    view: Callable[[int], np.ndarray],
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
) -> NoSignallingReport:
    """One box's leave-one-out sweep (a family of one) with its witnesses:
    per group in combinations order (party k - 1 left out first), own inputs
    in product order, then pairs of the left-out party's inputs in
    combinations order.  A ``tol`` that is no tolerance is refused before
    any view is built."""
    _check_tolerance(tol)
    worst = 0.0
    witnesses = []
    for group, first, second, dists in _subgroup_sweep(input_sizes, view, distance):
        dists = dists[0]
        worst = max(worst, float(dists.max(initial=0.0)))
        own = list(np.ndindex(*(input_sizes[i] for i in group)))
        for row, pair in zip(*np.nonzero(dists > tol)):
            witnesses.append(
                Witness(
                    subgroup=tuple(labels[i] for i in group),
                    subgroup_inputs=own[row],
                    outside_inputs=((int(first[pair]),), (int(second[pair]),)),
                    violation=float(dists[row, pair]),
                )
            )
    return NoSignallingReport(
        passed=worst <= tol, worst_violation=worst, witnesses=tuple(witnesses), tolerance=tol
    )


def _trace_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * trace_norm(p - q)


def cc_no_signalling(box: CCBox, tol: float = TOLERANCE) -> NoSignallingReport:
    """Check that every leave-one-out group's output marginal, given its own
    inputs, is independent of the left-out party's input; a box within
    ``tol`` there is within (k - 1) ``tol`` on every proper subgroup."""
    k = box.parties
    sizes = tuple(box.input_sizes)

    def marginal(j):  # sum out party j's output, flatten the others'
        return box.table.sum(axis=k + j).reshape((1,) + sizes + (-1,))

    def total_variation(p, q):
        return 0.5 * np.sum(np.abs(p - q), axis=-1)

    labels = tuple(chr(ord("A") + i) for i in range(k))
    return _report(sizes, labels, marginal, total_variation, tol)


def cq_no_signalling(box: CQBox, tol: float = TOLERANCE) -> NoSignallingReport:
    """Check that every leave-one-out group's reduced state, given its own
    inputs, is independent (in trace distance) of the left-out party's
    input; a box within ``tol`` there is within (k - 1) ``tol`` on every
    proper subgroup.  A pure box is swept from its vectors, so its D x D
    ``matrices`` are never built."""
    reduced = functools.partial(_reduced, box)
    return _report(box.input_sizes, box.structure.labels, reduced, _trace_distances, tol)


def _reduced(box: CQBox, j: int) -> np.ndarray:
    """The box's outputs with party j traced out, shape ``(1,) + input_sizes
    + (D/d_j, D/d_j)``: summed from a pure box's vectors, so that no D x D
    stack is built, else traced from its matrices."""
    dims = box.structure.dims
    if box.amplitudes is not None:
        return _reduced_without(box.amplitudes[None], dims, j)
    return partial_trace_array(box.matrices[None], dims, [i for i in range(len(dims)) if i != j])


def _reduced_without(amps: np.ndarray, dims: tuple[int, ...], j: int) -> np.ndarray:
    """Reduced states ``(..., D/d_j, D/d_j)`` of a stack of pure states
    ``(..., D)`` with party j traced out: the sum of v_i v_i^dagger over
    party j's index i, in index order, where ``partial_trace_array`` of the
    outer products adds the same products in the same order (one 1x1 state
    is summed as its ``d == 1`` branch sums it), so the two agree bit for bit."""
    batch = amps.shape[:-1]
    before, after = math.prod(dims[:j]), math.prod(dims[j + 1 :])
    if before * after == 1:
        return (amps * amps.conj()).sum(axis=-1)[..., None, None]
    # m[..., i, :] holds the entries at party j's index i (swapaxes: moveaxis costs µs a call)
    m = amps.reshape(batch + (before, dims[j], after)).swapaxes(-3, -2).reshape(batch + (dims[j], -1))
    conj = m.conj()
    states = m[..., 0, :, None] * conj[..., 0, None, :]
    for i in range(1, dims[j]):
        states += m[..., i, :, None] * conj[..., i, None, :]
    return states


def family_worst_violation(amplitudes: np.ndarray, structure: PartyStructure) -> np.ndarray:
    """Worst no-signalling violation of each pure-output C-Q box in a family.

    ``amplitudes`` stacks the boxes' output vectors, shape
    ``(F,) + input_sizes + (D,)`` with one input axis per party of
    ``structure``.  The vectors are validated as ``CQBox`` validates one
    box, with the same messages, and no D x D matrix is built: the sweep
    runs once per leave-one-out group for the whole family, on the sums of
    ``_reduced_without``, as for one pure box.  Entry f equals
    ``cq_no_signalling(box_f).worst_violation`` bit for bit.
    """
    amps = np.asarray(amplitudes)
    k = len(structure.parties)
    if amps.ndim != k + 2:
        raise ValueError(
            f"family stack shape {amps.shape} needs a family axis, "
            f"{k} input axes and a vector axis"
        )
    sizes = _positive_sizes(amps.shape[1:-1], "input_sizes")
    amps = _checked(
        np.array(amps, dtype=complex), amps.shape[:1] + sizes + (capped_dim(structure),), invalid_pure
    )
    worst = np.zeros(len(amps))
    reduced = functools.partial(_reduced_without, amps, structure.dims)
    for *_, dists in _subgroup_sweep(sizes, reduced, _trace_distances):
        # fmax skips a NaN distance as the single-box max(worst, ...) does
        worst = np.fmax(worst, dists.max(axis=(1, 2), initial=0.0))
    return worst


def induced_ccbox(
    box: CQBox,
    measurements: Sequence[Sequence[np.ndarray]],
) -> CCBox:
    """Measure every party of a C-Q box in per-input orthonormal bases.

    ``measurements[j][x]`` is a unitary whose columns are party j's
    measurement basis under its input x; the result is the Born-rule
    probability table.
    """
    k = len(box.input_sizes)
    if len(measurements) != k:
        raise ValueError("one measurement family per party required")
    dims = box.structure.dims
    for j in range(k):
        if len(measurements[j]) != box.input_sizes[j]:
            raise ValueError(f"party {j} needs one basis per input symbol")
        for basis in measurements[j]:
            if np.asarray(basis).shape != (dims[j], dims[j]):
                raise ValueError(f"basis for party {j} has wrong shape")
    table = np.zeros(tuple(box.input_sizes) + dims)
    for key in box.inputs:
        frame = kron_all([np.asarray(measurements[j][key[j]], dtype=complex) for j in range(k)])
        rotated = frame.conj().T @ box.matrices[key] @ frame
        probs = np.clip(np.real(np.diagonal(rotated)), 0.0, None)
        table[key] = probs.reshape(dims)
    return CCBox(tuple(box.input_sizes), dims, table)


def chsh_value(box: CCBox) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) with outcomes (-1)^a, (-1)^b."""
    if box.input_sizes != (2, 2) or box.output_sizes != (2, 2):
        raise ValueError("binary two-party box required")
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a+b)
    corr = np.einsum("xyab,ab->xy", box.table, signs)
    return float(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1])


def cq_box_distance(box_a: CQBox, box_b: CQBox) -> float:
    """Largest trace distance between the two boxes' outputs over inputs.

    Two amplitude-stored boxes take O(D) per input: for unit vectors psi
    and phi (each stored vector over its norm), the trace distance of
    their states is ||phi - <psi|phi> psi||, the norm of phi's part
    orthogonal to psi.  The equal root of 1 - |<psi|phi>|^2 is not used:
    it cancels catastrophically, and can give 2.1e-8 at D = 256 for states
    that differ by 1e-15.  Any other pair takes half the trace norm of the
    difference of their density matrices.
    """
    if box_a.input_sizes != box_b.input_sizes or box_a.structure.dims != box_b.structure.dims:
        raise ValueError("boxes must share input alphabets and party structure")
    if box_a.amplitudes is None or box_b.amplitudes is None:
        return float(np.max(0.5 * trace_norm(box_a.matrices - box_b.matrices)))
    psi, phi = (
        amps / np.linalg.norm(amps, axis=-1, keepdims=True)
        for amps in (box_a.amplitudes, box_b.amplitudes)
    )
    overlap = np.einsum("...i,...i->...", psi.conj(), phi)
    return float(np.max(np.linalg.norm(phi - overlap[..., None] * psi, axis=-1)))
