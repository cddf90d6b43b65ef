"""Strategies that realise quantum-output boxes from classical boxes,
shared entanglement, and output-conditioned local unitaries.

A strategy consists of a classical box, a shared entangled state, and one
table of local unitaries per party.  Party j feeds its classical input x_j
to the box, receives output o_j, and applies ``unitaries[j][x_j, o_j]`` to
its share of the state; over a Haar coupling the output is itself a
unitary U, which the party applies as ``unitaries[j][x_j] @ U``, dressed
by its own input, or as U alone where the strategy has no dressing.
Simulating a strategy averages the resulting states over the box's
output distribution, which yields a quantum-output box that is
non-signalling whenever the classical box is.

The constructors in this module build strategies for several families of
target boxes: phase rotations of a two-level entangled state driven by
modular classical boxes, arbitrary maximally entangled families driven by
Haar couplings (given as one ``input_sizes + (n, n)`` stack of target
unitaries, which is the coupling's relabel), families over non-maximally
entangled states, arbitrary non-signalling pure families via
Schmidt-block couplings, and mixtures of maximally disordered two-qubit
states via Bell decomposition plus interval alignment.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from cqboxes.boxes import (
    CCBox,
    CQBox,
    HaarCouplingBox,
    cq_no_signalling,
    mod_box,
    pr_box,
)
from cqboxes.quantum import (
    PAULI,
    TOLERANCE,
    DensityMatrix,
    PartyStructure,
    StateVector,
    UnitaryOperator,
    _frozen,
    as_matrix,
    bell_state,
    capped_dim,
    invalid_distribution,
    invalid_unitary,
    invalid_vector,
    partial_trace,
    pauli_x,
    pauli_z_power,
    phi_plus,
    schmidt,
    two_level_state,
)

__all__ = [
    "Strategy",
    "MixtureSchedule",
    "simulate",
    "sample_states",
    "phase_family_box",
    "nonmax_family_box",
    "unitary_family_box",
    "bit_flip_strategy",
    "sign_flip_strategy",
    "modular_phase_strategy",
    "rational_phase_strategy",
    "irrational_phase_strategy",
    "max_entangled_strategy",
    "eight_output_strategy",
    "eight_output_targets",
    "nonmax_pure_strategy",
    "general_pure_strategy",
    "bell_canonical_form",
    "mixture_align",
    "mixed_disordered_strategy",
]


@dataclass(frozen=True)
class Strategy:
    """Classical box + shared pure state + output-conditioned local unitaries.

    ``unitaries[j]`` is party j's read-only table.  Over a finite box (a
    ``CCBox`` table; a finite coupling is built by ``CCBox.from_coupling``)
    it has shape ``(m_j, n_j, d_j, d_j)``: party j applies
    ``unitaries[j][x, o]`` at own input x and output symbol o.  Over a Haar
    coupling the output is a sampled ``(d_j, d_j)`` unitary U; party j
    applies ``unitaries[j][x] @ U`` for its ``(m_j, d_j, d_j)`` dressing,
    and a None dressing applies nothing.  Both kinds feed one weighted
    stack of state vectors per input, which ``simulate`` sums.
    """

    ccbox: CCBox | HaarCouplingBox
    shared: StateVector
    unitaries: tuple[np.ndarray | None, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.shared, StateVector):
            raise TypeError(f"shared state must be a StateVector, got {type(self.shared).__name__}")
        parties = len(self.ccbox.input_sizes)
        if len(self.unitaries) != parties:
            raise ValueError(f"expected {parties} unitary tables, got {len(self.unitaries)}")
        if len(self.shared.structure.parties) != parties:
            raise ValueError("shared state party count does not match the classical box")
        haar = isinstance(self.ccbox, HaarCouplingBox)
        # own input, and output symbol of a finite box, per party
        leads = zip(self.input_sizes) if haar else zip(self.input_sizes, self.ccbox.output_sizes)
        for (label, d), lead, table in zip(self.shared.structure.parties, leads, self.unitaries):
            if haar and d != (dim := self.ccbox.dim):
                raise ValueError(f"party {label}'s dimension {d} is not the coupling's {dim}")
            if (table is not None or not haar) and (got := np.shape(table)) != lead + (d, d):
                raise ValueError(f"party {label}'s unitary table must be {lead + (d, d)}, got {got}")
        frozen = tuple(a if a is None else _frozen(a) for a in self.unitaries)
        object.__setattr__(self, "unitaries", frozen)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(self.ccbox.input_sizes)


# complex entries per chunk array of vectors or unitary stacks (256 KB):
# bounds peak memory whatever the support size or sample count; larger
# chunks measured no faster
_CHUNK_ENTRIES = 2**14


def _dressed(strategy: Strategy, j: int, x: int, out: np.ndarray) -> np.ndarray:
    """Party j's unitaries at own input x for a stack of Haar coupling outputs."""
    dressing = strategy.unitaries[j]
    return out if dressing is None else dressing[x] @ out


def _weighted_unitaries(strategy: Strategy, samples: int, seed: int) -> Iterator[tuple]:
    """Per input, chunks of (each party's ``(S, d_j, d_j)`` unitary stack,
    ``(S,)`` weights): a finite box's support at that input with its table
    weights, or ``samples`` seeded Haar draws of weight 1/samples, drawn
    in chunks from one stream that every input shares.  Each chunk of
    draws is conjugated once, and party 1, whose output is the draw, is
    dressed once per chunk and own input."""
    ccbox, tables = strategy.ccbox, strategy.unitaries
    dims = strategy.shared.structure.dims
    chunk = max(1, _CHUNK_ENTRIES // max(math.prod(dims), *(d * d for d in dims)))
    if isinstance(ccbox, HaarCouplingBox):
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = np.random.default_rng(seed)
        for start in range(0, samples, chunk):
            bases = ccbox.draw_base(rng, min(chunk, samples - start))
            conj, weights = bases.conj(), np.full(len(bases), 1 / samples)
            bob = [_dressed(strategy, 1, y, bases) for y in range(ccbox.input_sizes[1])]
            for key in np.ndindex(*ccbox.input_sizes):
                alice = _dressed(strategy, 0, key[0], ccbox.relabel[key] @ conj)
                yield key, [alice, bob[key[1]]], weights
        return
    table = ccbox.table
    for key in np.ndindex(*ccbox.input_sizes):
        support = np.nonzero(table[key] > 0)
        for start in range(0, len(support[0]), chunk):
            rows = tuple(outs[start : start + chunk] for outs in support)
            stacks = [u[x][r] for u, x, r in zip(tables, key, rows)]
            yield key, stacks, table[key][rows]


def _weighted_vectors(strategy: Strategy, samples: int, seed: int) -> Iterator[tuple]:
    """Per input, chunks of (``(S, D)`` state vectors, ``(S,)`` weights):
    party j's unitary stack applied to axis j of the shared state."""
    dims = strategy.shared.structure.dims
    shared = strategy.shared.amplitudes.reshape(dims[0], -1)
    for key, stacks, weights in _weighted_unitaries(strategy, samples, seed):
        # party 0 acts on the one shared state: a single (S d_0, d_0) product
        t = stacks[0].reshape(-1, dims[0]) @ shared
        for j, m in enumerate(stacks[1:], 1):
            t = m[:, None] @ t.reshape(len(weights), math.prod(dims[:j]), dims[j], -1)
        vecs = t.reshape(len(weights), -1)
        if fault := invalid_vector(vecs):
            raise ValueError(fault[1])
        yield key, vecs, weights


def simulate(strategy: Strategy, *, samples: int = 1000, seed: int = 0) -> CQBox:
    """The quantum-output box the strategy realises.

    Finite classical boxes are summed exactly.  Haar-coupling strategies
    return the empirical mixture over ``samples`` seeded draws, with
    Bob's sample stream drawn once so that it cannot depend on inputs.
    """
    structure = strategy.shared.structure
    d = capped_dim(structure)
    mats = np.zeros(strategy.input_sizes + (d, d), dtype=complex)
    for key, vecs, weights in _weighted_vectors(strategy, samples, seed):
        mats[key] += (vecs.T * weights) @ vecs.conj()
    return CQBox(strategy.input_sizes, structure, mats)


def sample_states(
    strategy: Strategy, *, samples: int = 1000, seed: int = 0
) -> dict[tuple[int, ...], list[StateVector]]:
    """Per-input list of the pure states produced by each coupling draw."""
    if not isinstance(strategy.ccbox, HaarCouplingBox):
        raise TypeError("sample_states applies only to Haar-coupling strategies")
    structure = strategy.shared.structure
    result: dict[tuple[int, ...], list[StateVector]] = {}
    for key, vecs, _ in _weighted_vectors(strategy, samples, seed):
        result.setdefault(key, []).extend(StateVector(vec, structure) for vec in vecs)
    return result


def phase_family_box(
    phase: Callable[[int, int], float], alpha: complex, beta: complex
) -> CQBox:
    """Target family alpha |00> + beta e^{i phase(x, y)} |11> over binary inputs."""
    amps = np.zeros((2, 2, 4), dtype=complex)
    for x, y in itertools.product(range(2), range(2)):
        amps[x, y] = [alpha, 0, 0, beta * np.exp(1j * phase(x, y))]
    return CQBox((2, 2), PartyStructure.pair(2), amplitudes=amps)


def nonmax_family_box(weights: Sequence[float], phases: Mapping[tuple, Fraction | int]) -> CQBox:
    """Target family sum_i sqrt(w_i) e^{i 2 pi phases[x, y, i]} |ii> over
    binary inputs, a phase absent from ``phases`` being 0."""
    n = len(weights)
    amps = np.zeros((2, 2, n * n), dtype=complex)
    for x, y, (i, w) in itertools.product(range(2), range(2), enumerate(weights)):
        turn = float(phases.get((x, y, i), 0))
        amps[x, y, i * (n + 1)] = math.sqrt(w) * np.exp(2j * math.pi * turn)  # amplitude of |ii>
    return CQBox((2, 2), PartyStructure.pair(n), amplitudes=amps)


def unitary_family_box(targets: np.ndarray) -> CQBox:
    """Target family (T^{inputs} x 1) |phi+_n> for an ``input_sizes + (n, n)``
    stack of unitaries T^{inputs} = ``targets[inputs]``, one batched product."""
    targets = as_matrix(targets)
    sizes, n = targets.shape[:-2], targets.shape[-1]
    phi = phi_plus(n)
    amps = targets @ phi.amplitudes.reshape(n, n)
    return CQBox(sizes, phi.structure, amplitudes=amps.reshape(sizes + (n * n,)))


def bit_flip_strategy() -> Strategy:
    """Both parties flip their qubit of |phi+> when their box output is 1.

    Driven by the binary box with (a - b) mod 2 = x y, this realises the
    family that is |phi+> unless x = y = 1, where it is the bit-flipped
    Bell state (|01> + |10>)/sqrt2.
    """
    flips = [[np.eye(2, dtype=complex), pauli_x().matrix]] * 2  # per input, per output
    return Strategy(ccbox=pr_box(), shared=bell_state(0), unitaries=(flips, flips))


def sign_flip_strategy(alpha: complex, beta: complex) -> Strategy:
    """Phase-flip realisation of alpha |00> + beta e^{i pi x y} |11>.

    Alice applies diag(1, e^{i pi a}) and Bob diag(1, e^{-i pi b}); the
    binary box guarantees a - b = x y mod 2, so the |11> component picks
    up exactly the phase pi x y regardless of the individual outputs.
    """
    return rational_phase_strategy(1, 2, alpha, beta)


def modular_phase_strategy(m: int, n: int, shared: StateVector) -> Strategy:
    """Put the phase 2 pi (m/n) x_1 ... x_k on the |1...1> term of a shared
    k-qubit state alpha |0...0> + beta |1...1>.

    Uses the n-output modular box with (a_1 - a_2 - ... - a_k) mod n =
    x_1 ... x_k; party 1 applies diag(1, e^{i 2 pi a_1 m / n}), every
    other party diag(1, e^{-i 2 pi a_j m / n}), so the phases telescope to
    the target on |1...1>.  The fraction m/n is reduced first, so
    resources match the reduced denominator.
    """
    if n < 2:
        raise ValueError(f"denominator must be at least 2, got {n}")
    phase = Fraction(m % n, n)  # m = 0 still needs the binary box
    m_red, n_red = phase.numerator, max(phase.denominator, 2)

    box = mod_box(n_red, len(shared.structure.parties))  # refuses an alphabet too large first
    advance, retard = (
        [[np.diag([1.0, np.exp(sign * 2j * math.pi * out * m_red / n_red)]) for out in range(n_red)]]
        * 2  # the same for either own input
        for sign in (+1, -1)
    )
    return Strategy(box, shared, (advance,) + (retard,) * (box.parties - 1))


def rational_phase_strategy(m: int, n: int, alpha: complex, beta: complex) -> Strategy:
    """Realise alpha |00> + beta e^{i 2 pi (m/n) x y} |11> exactly.

    Uses the n-output box with (a - b) mod n = x y; Alice applies
    diag(1, e^{i 2 pi a m / n}), Bob diag(1, e^{-i 2 pi b m / n}).
    """
    return modular_phase_strategy(m, n, two_level_state(alpha, beta))


def irrational_phase_strategy(
    theta: float,
    n: int,
    alpha: complex = 1 / math.sqrt(2),
    beta: complex = 1 / math.sqrt(2),
) -> tuple[Strategy, float]:
    """Approximate alpha |00> + beta e^{i 2 pi theta x y} |11> with an
    n-output box, rounding theta to the nearest multiple of 1/n.

    Returns the strategy together with an upper bound on the infidelity
    to the target at any input, derived from the phase error
    delta = 2 pi |theta - round(n theta)/n|:  the worst-case infidelity
    is 2 |alpha beta|^2 (1 - cos delta), padded by 1e-12 for arithmetic.
    """
    if n < 2:
        raise ValueError(f"output count must be at least 2, got {n}")
    if not math.isfinite(n * theta):
        raise ValueError(f"theta = {theta} times n = {n} is not a finite number of turns")
    m = round(n * theta)
    delta = 2 * math.pi * abs(theta - m / n)
    bound = min(1.0, 2 * (abs(alpha) * abs(beta)) ** 2 * (1 - math.cos(delta)) + 1e-12)
    return rational_phase_strategy(m, n, alpha, beta), bound


def max_entangled_strategy(targets: np.ndarray) -> Strategy:
    """Realise the family (T^{x,y} x 1)|phi+_n> with a Haar coupling, for an
    ``input_sizes + (n, n)`` stack of unitaries T^{x,y} = ``targets[x, y]``.

    The stack is the coupling's relabel: Bob applies a Haar-random V,
    Alice applies T^{x,y} conj(V); since (conj(V) x V) leaves |phi+_n>
    invariant, every single draw already produces the target state exactly.
    """
    coupling = HaarCouplingBox(targets)
    return Strategy(coupling, phi_plus(coupling.dim), (None, None))


def _derive_pairing(unitaries: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairing b -> a with U_a U_b+ proportional to the target unitary, that is
    |tr(T+ U_a U_b+)| = d within 1e-9.  The labels' unitaries are pairwise
    non-proportional, so each b has a single candidate a."""
    d = target.shape[0]
    # tr(T+ U_a U_b+) = sum over i, j, k of conj(T_ij) (U_a)_ik conj(U_b)_jk
    overlap = np.abs(np.einsum("ij,aik,bjk->ab", target.conj(), unitaries, unitaries.conj()))
    hits = np.abs(overlap - d) < 1e-9
    if (missing := np.flatnonzero(~hits.any(axis=0))).size:
        raise ValueError(f"no output label pairs with b = {missing[0]} for the given target")
    return hits.argmax(axis=0)


def eight_output_targets() -> np.ndarray:
    """The ``(2, 3, 2, 2)`` stack of local target unitaries for the
    two-input/three-input family: identity except T^{1,1} = sqrt(Z) and T^{1,2} = X."""
    targets = np.array(np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2)))
    targets[1, 1], targets[1, 2] = pauli_z_power(0.5).matrix, pauli_x().matrix
    return targets


def eight_output_strategy() -> Strategy:
    """Drive the x in {0,1}, y in {0,1,2} family from one 8-output coupling.

    The output alphabet labels the unitaries Z^{k/2} and Z^{k/2} X for
    k = 0..3; Alice applies U_a and Bob conj(U_b).  The pairing for each
    input is matched so that U_a U_b+ equals that input's target up to
    phase, which leaves the uniform marginal intact.
    """
    unitaries = [pauli_z_power(k / 2).matrix for k in range(4)]
    unitaries = np.array(unitaries + [u @ pauli_x().matrix for u in unitaries])
    targets = eight_output_targets()
    bijections = {key: _derive_pairing(unitaries, targets[key]) for key in np.ndindex(2, 3)}
    coupling = CCBox.from_coupling((2, 3), np.full(8, 1 / 8), bijections)
    tables = ([unitaries] * 2, [unitaries.conj()] * 3)
    return Strategy(ccbox=coupling, shared=phi_plus(2), unitaries=tables)


def _as_fraction(value: object, context: str) -> Fraction:
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    raise TypeError(
        f"{context} must be an exact Fraction (or int) number of turns, got {value!r}; "
        "irrational phases need the approximation strategy instead"
    )


def nonmax_pure_strategy(
    p: Sequence[float],
    phases: Mapping[tuple[int, int, int], Fraction | int],
    local_a: np.ndarray | None = None,
    local_b: np.ndarray | None = None,
) -> Strategy:
    """Family U_A^x V_B^y W_A^{x,y} |Phi_p> over binary inputs, where
    |Phi_p> = sum_i sqrt(p_i)|ii> and W^{x,y}|i> = e^{i 2 pi phases[x,y,i]}|i>,
    a phase absent from ``phases`` being 0; U^x = ``local_a[x]`` and
    V^y = ``local_b[y]`` are ``(2, n, n)`` stacks, the identity if left out.

    The level phases, given as exact fractions of a turn, split into
    input-local parts (absorbed into diagonal dressings; Bob can carry
    the y-dependent part because diagonal phases act identically on
    either side of |Phi_p>) and an interaction part t_i * x * y.  The
    interaction is realised exactly by one L-output modular box, L being
    the common denominator of the t_i, with level-i phase steps of
    t_i * L / L turns per output unit.
    """
    weights = np.asarray(p, dtype=float)
    n = weights.shape[0]
    if n < 2:
        raise ValueError("at least two levels required")
    if invalid_distribution(weights) or np.min(weights) <= 0:
        raise ValueError("p must be strictly positive probabilities summing to 1")
    if np.any(np.diff(weights) >= 0):
        raise ValueError(
            "p must be strictly decreasing; repeated coefficients form degenerate "
            "blocks, which the general pure-family construction handles"
        )

    def get_phase(x: int, y: int, i: int) -> Fraction:
        return _as_fraction(phases.get((x, y, i), Fraction(0)), f"phase ({x},{y},{i})")

    interaction = [
        get_phase(1, 1, i) - get_phase(1, 0, i) - get_phase(0, 1, i) + get_phase(0, 0, i)
        for i in range(n)
    ]
    denominator = math.lcm(*(t.denominator for t in interaction))
    steps = [int(t * denominator) for t in interaction]

    # no interaction needs no correlation: a one-output box
    box = CCBox((2, 2), (1, 1), np.ones((2, 2, 1, 1))) if denominator == 1 else mod_box(denominator)

    tables = []
    for name, local, sign, own_phase in (
        ("local_a", local_a, 1, lambda x, i: get_phase(x, 0, i)),
        ("local_b", local_b, -1, lambda y, i: get_phase(0, y, i) - get_phase(0, 0, i)),
    ):
        local = [np.eye(n, dtype=complex)] * 2 if local is None else as_matrix(local)
        if np.shape(local) != (2, n, n):
            raise ValueError(f"{name} must have shape (2, {n}, {n}), got {np.shape(local)}")
        # each level's phase, in turns, at own input x and output symbol out
        tables.append([
            [local[x] @ np.diag(np.exp(2j * math.pi * np.array(
                [sign * out * steps[i] / denominator + float(own_phase(x, i)) for i in range(n)]
            ))) for out in range(denominator)]
            for x in range(2)
        ])

    shared = StateVector(np.diag(np.sqrt(weights)), PartyStructure.pair(n))
    return Strategy(ccbox=box, shared=shared, unitaries=tuple(tables))


def general_pure_strategy(targets: CQBox) -> Strategy:
    """Strategy reproducing an arbitrary non-signalling pure family.

    The reference output at input (0, ..., 0) is (F_A x F_B) sum_i c_i |ii>
    in its Schmidt bases F_A, F_B; non-signalling forces every output to
    share the coefficients c and to differ from the reference only by
    input-local unitaries U^x, V^y and a block unitary W^{x,y} acting
    within equal-coefficient Schmidt blocks.  The parties share the
    Schmidt core sum_i c_i |ii>, and W^{x,y} is handed to a block-diagonal
    Haar coupling (each block a maximally entangled subspace); Alice
    applies ``dressing[x] @ U`` = F_A U^x U to her coupling output U, Bob
    F_B V^y U to his, so every draw reproduces each target exactly.
    """
    if len(targets.input_sizes) != 2:
        raise ValueError("construction applies to two-party families")
    dims = targets.structure.dims
    if dims[0] != dims[1]:
        raise ValueError("construction requires equal local dimensions")
    n = dims[0]

    report = cq_no_signalling(targets, tol=TOLERANCE)
    if not report.passed:
        raise ValueError(
            f"target family is signalling (worst violation {report.worst_violation:.3e})"
        )
    pure = {key: targets.pure_output(key) for key in targets.inputs}

    form = schmidt(pure[(0, 0)])
    coeffs = form.coefficients
    if coeffs[-1] < 1e-7:
        raise ValueError("reference state must have full Schmidt rank")
    basis_a, basis_b = form.left_basis, form.right_basis
    inv_d = np.diag(1.0 / coeffs)
    block_dims = tuple(len(b) for b in form.blocks)

    def in_bases(key: tuple[int, ...]) -> np.ndarray:
        mat = pure[key].amplitudes.reshape(n, n)
        return basis_a.conj().T @ mat @ basis_b.conj()

    def check_unitary(mat: np.ndarray, what: str) -> np.ndarray:
        if invalid_unitary(mat, 1e-6):
            raise ValueError(f"family structure broken: {what} is not unitary")
        return mat

    nx, ny = targets.input_sizes
    u_x = {x: check_unitary(in_bases((x, 0)) @ inv_d, f"row dressing at x={x}") for x in range(nx)}
    v_y = {y: check_unitary((inv_d @ in_bases((0, y))).T, f"column dressing at y={y}") for y in range(ny)}

    block_of = np.repeat(np.arange(len(block_dims)), block_dims)  # the block of each level
    blocks_mask = block_of[:, None] == block_of[None, :]

    relabel = np.zeros(targets.input_sizes + (n, n), dtype=complex)
    for key in targets.inputs:
        x, y = key
        w = u_x[x].conj().T @ in_bases(key) @ v_y[y].conj() @ inv_d
        off_block = np.abs(w[~blocks_mask])
        if off_block.size and off_block.max() > 1e-6:
            raise ValueError(
                f"family structure broken: coupling part at input {key} mixes "
                "Schmidt blocks of unequal coefficient"
            )
        relabel[key] = check_unitary(np.where(blocks_mask, w, 0.0), f"coupling part at {key}")

    core = StateVector(np.diag(coeffs), targets.structure)
    dress_a = [basis_a @ u_x[x] for x in range(nx)]
    dress_b = [basis_b @ v_y[y] for y in range(ny)]
    coupling = HaarCouplingBox(relabel, block_dims)
    return Strategy(coupling, core, (dress_a, dress_b))


# Bell state i equals (B_i x 1)|phi+> for these local unitaries
_BELL_LOCALS = (
    np.eye(2, dtype=complex),
    PAULI[0],
    PAULI[2],
    PAULI[2] @ PAULI[0],
)


def _su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Lift a proper rotation to SU(2) through its unit quaternion.

    The quaternion (x, y, z, w) is formed as scipy 1.17.1's
    ``Rotation.from_matrix`` forms it from an orthogonal matrix, bit for
    bit: from the largest of the three diagonal entries and the trace,
    then divided by its norm.
    """
    det = np.linalg.det(rot)
    if det <= 0:
        raise ValueError(f"a proper rotation is required, got determinant {det}")
    r = np.asarray(rot, dtype=float).tolist()
    trace = r[0][0] + r[1][1] + r[2][2]
    decision = [r[0][0], r[1][1], r[2][2], trace]
    i = decision.index(max(decision))
    if i == 3:
        quat = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1], 1 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        quat = [0.0] * 4
        quat[i] = 1 - trace + 2 * r[i][i]
        quat[j] = r[j][i] + r[i][j]
        quat[k] = r[k][i] + r[i][k]
        quat[3] = r[k][j] - r[j][k]
    x, y, z, w = quat
    # added in this order: sum() compensates its rounding on Python 3.12+
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / norm, y / norm, z / norm, w / norm
    return w * np.eye(2, dtype=complex) - 1j * (
        x * PAULI[0] + y * PAULI[1] + z * PAULI[2]
    )


# sigma_i x sigma_j for the correlation matrix T_ij = tr(rho sigma_i x sigma_j)
_PAULI_PAIRS = tuple(np.kron(PAULI[i], PAULI[j]) for i in range(3) for j in range(3))


def _correlation_matrix(rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(rho @ pair)) for pair in _PAULI_PAIRS]).reshape(3, 3)


def _bell_weights_from_diagonal(t: np.ndarray) -> np.ndarray:
    t1, t2, t3 = t
    p = np.array(
        [
            1 + t1 - t2 + t3,
            1 + t1 + t2 - t3,
            1 - t1 + t2 + t3,
            1 - t1 - t2 - t3,
        ]
    ) / 4
    if np.min(p) < -1e-9:
        raise ValueError("correlation diagonal is not realisable by a Bell mixture")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def bell_canonical_form(
    rho: DensityMatrix,
) -> tuple[UnitaryOperator, UnitaryOperator, np.ndarray]:
    """Decompose a maximally disordered two-qubit state as local unitaries
    around a Bell-diagonal core: rho = (U x V) (sum_i p_i |B_i><B_i|) (U x V)+.

    The correlation matrix T_ij = tr(rho sigma_i x sigma_j) transforms as
    R(U) T R(V)^T under local unitaries; a sign-corrected singular value
    decomposition diagonalises it with proper rotations, which lift to
    SU(2).  If T is already diagonal the locals stay at the identity.
    """
    if rho.structure.dims != (2, 2):
        raise ValueError("two qubits required")
    for party in rho.structure.labels:
        marginal = partial_trace(rho, [party]).matrix
        if np.max(np.abs(marginal - np.eye(2) / 2)) > TOLERANCE:
            raise ValueError(f"party {party} marginal is not maximally mixed")

    t = _correlation_matrix(rho.matrix)
    off = t - np.diag(np.diagonal(t))
    eye = UnitaryOperator(np.eye(2, dtype=complex))
    if np.max(np.abs(off)) <= 1e-11:
        return eye, eye, _bell_weights_from_diagonal(np.diagonal(t))

    o1, s, o2t = np.linalg.svd(t)
    d1 = np.sign(np.linalg.det(o1))
    d2 = np.sign(np.linalg.det(o2t))
    r1 = o1 @ np.diag([1.0, 1.0, d1])
    r2 = o2t.T @ np.diag([1.0, 1.0, d2])
    diag = np.array([s[0], s[1], d1 * d2 * s[2]])
    u = _su2_from_rotation(r1)
    v = _su2_from_rotation(r2)
    return UnitaryOperator(u), UnitaryOperator(v), _bell_weights_from_diagonal(diag)


@dataclass(frozen=True)
class MixtureSchedule:
    """Common refinement of per-input mixture decompositions.

    Each interval carries a probability weight and, for every input, the
    index of the component that interval draws from.  Aggregating the
    interval weights by assigned index reproduces each input's original
    component probabilities.
    """

    intervals: tuple[tuple[float, Mapping[tuple[int, ...], int]], ...]
    families: Mapping[tuple[int, ...], tuple[tuple[float, int], ...]]
    pure_states: Mapping[tuple[int, ...], tuple[StateVector, ...]] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        for key, family in self.families.items():
            for index in {idx for _, idx in family}:
                total = sum(w for w, assign in self.intervals if assign[key] == index)
                expected = sum(p for p, idx in family if idx == index)
                if abs(total - expected) > 1e-12:
                    raise ValueError(
                        f"interval aggregation for input {key} component {index} "
                        f"gives {total}, expected {expected}"
                    )

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.intervals)


def mixture_align(
    families: Mapping[tuple[int, ...], Sequence[tuple[float, int]]],
) -> MixtureSchedule:
    """Align per-input mixtures on a common interval grid.

    Lays each input's components along [0, 1] in the given order and cuts
    at the union of all cumulative breakpoints; within one interval every
    input sticks to a single component.
    """
    cums: dict[tuple[int, ...], np.ndarray] = {}
    for key, family in families.items():
        probs = np.array([p for p, _ in family], dtype=float)
        if fault := invalid_distribution(probs):
            raise ValueError(f"component probabilities for input {key} are invalid: {fault[1]}")
        cums[key] = np.cumsum(probs)

    points = np.concatenate([c for c in cums.values()] + [np.array([1.0])])
    points = np.sort(points[points > 1e-15])
    merged = [float(points[0])]
    for value in points[1:]:
        if value - merged[-1] > 1e-15:
            merged.append(float(value))
    merged[-1] = 1.0

    intervals = []
    lo = 0.0
    for hi in merged:
        width = hi - lo
        mid = (lo + hi) / 2
        assignment = {}
        for key, family in families.items():
            seg = int(np.searchsorted(cums[key], mid))
            seg = min(seg, len(family) - 1)
            assignment[key] = family[seg][1]
        intervals.append((width, assignment))
        lo = hi
    return MixtureSchedule(
        intervals=tuple(intervals),
        families={key: tuple(family) for key, family in families.items()},
    )


def mixed_disordered_strategy(box: CQBox) -> tuple[MixtureSchedule, list[Strategy]]:
    """Realise a family of maximally disordered two-qubit states as an
    interval mixture of maximally entangled pure strategies.

    Every output decomposes as local unitaries around a Bell mixture; the
    mixtures are aligned on a common interval grid, and each interval's
    column of (maximally entangled) pure states becomes one Haar-coupling
    strategy.  Sampling an interval with its weight and running its
    strategy reproduces the box.
    """
    if box.structure.dims != (2, 2):
        raise ValueError("two-qubit boxes required")
    locals_uv: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    families: dict[tuple[int, ...], tuple[tuple[float, int], ...]] = {}
    for key in box.inputs:
        u, v, weights = bell_canonical_form(box.output(key))
        locals_uv[key] = (u.matrix, v.matrix)
        families[key] = tuple((float(w), i) for i, w in enumerate(weights))

    phi = phi_plus(2)
    pure_states = {
        key: tuple(
            StateVector((u @ local @ v.T @ phi.amplitudes.reshape(2, 2)).reshape(-1), phi.structure)
            for local in _BELL_LOCALS
        )
        for key, (u, v) in locals_uv.items()
    }
    schedule = replace(mixture_align(families), pure_states=pure_states)

    strategies = []
    for _, assignment in schedule.intervals:
        targets = np.reshape([
            locals_uv[key][0] @ _BELL_LOCALS[assignment[key]] @ locals_uv[key][1].T
            for key in box.inputs
        ], box.input_sizes + (2, 2))
        strategies.append(max_entangled_strategy(targets))
    return schedule, strategies
