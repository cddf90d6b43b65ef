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
non-signalling whenever the classical box is.  A finite box's states
are its support's unitaries applied party by party; a Haar coupling's
are formed per chunk of draws V, from one core (B V) Psi^T V^+ per own
input of Bob (B his dressing, Psi the shared state as a matrix), times
Alice's dressed relabel in one product per input tuple.

The constructors in this module build strategies for several families of
target boxes: phase rotations of a two-level entangled state driven by
modular classical boxes, arbitrary maximally entangled families driven by
Haar couplings (given as one ``input_sizes + (n, n)`` stack of target
unitaries, which is the coupling's relabel), families over non-maximally
entangled states, arbitrary non-signalling pure families via
Schmidt-block couplings, and mixtures of maximally disordered two-qubit
states via Bell decomposition plus interval alignment.  The last is one
``MixtureSchedule`` of arrays: the ``(I,)`` interval weights, the
``(I,) + input_sizes`` component index, the ``input_sizes + (4,)`` Bell
weights and the ``input_sizes + (4, 4)`` component states, with one
Haar-coupling strategy per interval; ``simulate`` takes the schedule as
it takes a strategy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from cqboxes.boxes import (
    CCBox,
    CQBox,
    HaarCouplingBox,
    _unitary_stack_shape,
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
    partial_trace_array,
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
    and a None dressing applies nothing; such a coupling drives two
    parties.  Both kinds give one weighted stack of state vectors per
    input, which ``simulate`` sums: a finite box's from its support, a
    Haar coupling's from one core of Bob's per chunk of draws and own
    input (see ``_coupled_vectors``).
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
        if haar and parties != 2:
            raise ValueError(f"a Haar coupling drives two parties, got {parties}")
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


def _weighted_unitaries(strategy: Strategy) -> Iterator[tuple]:
    """Per input, chunks of (each party's ``(S, d_j, d_j)`` unitary stack,
    ``(S,)`` weights) over a finite box's support at that input, with its
    table weights."""
    tables, table, dims = strategy.unitaries, strategy.ccbox.table, strategy.shared.structure.dims
    chunk = max(1, _CHUNK_ENTRIES // max(math.prod(dims), *(d * d for d in dims)))
    for key in np.ndindex(*strategy.input_sizes):
        support = np.nonzero(table[key] > 0)
        for start in range(0, len(support[0]), chunk):
            rows = tuple(outs[start : start + chunk] for outs in support)
            stacks = [u[x][r] for u, x, r in zip(tables, key, rows)]
            yield key, stacks, table[key][rows]


def _bob_cores(bases: np.ndarray, shared_t: np.ndarray, dressing: np.ndarray | None) -> np.ndarray:
    """The cores D V Psi^T V^+ of a ``(S, d, d)`` chunk of draws V, for the
    transpose ``shared_t`` of the shared state as a d x d matrix Psi: one
    ``(S, d, d)`` stack per own input of Bob, each dressed by his
    ``dressing[y]`` = D, or a single undressed stack where he has none."""
    # V Psi^T as one tall product, then one stacked product with V^+
    core = (bases.reshape(-1, bases.shape[-1]) @ shared_t).reshape(bases.shape)
    core = core @ bases.conj().swapaxes(-1, -2)
    return core[None] if dressing is None else dressing[:, None] @ core


def _coupled_vectors(strategy: Strategy, samples: int, seed: int) -> Iterator[tuple]:
    """Per input, chunks of (``(S, D)`` state vectors, ``(S,)`` weights) of
    ``samples`` seeded Haar draws V of weight 1/samples, drawn in chunks
    from one stream that every input shares.

    At input (x, y), draw V leaves the d x d shared state Psi as
    A conj(V) Psi V^T B^T, for Alice's A = dressing[x] @ relabel[x, y] and
    Bob's B = dressing[y].  Its transpose is C_y A^T, with Bob's core
    C_y = B V Psi^T V^+ formed once per chunk and own input, so every
    input tuple costs one tall product with the draws on its row side."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ccbox, (dress_a, dress_b) = strategy.ccbox, strategy.unitaries
    d = ccbox.dim
    alice = ccbox.relabel if dress_a is None else dress_a[:, None] @ ccbox.relabel
    alice_t, shared_t = alice.swapaxes(-1, -2), strategy.shared.amplitudes.reshape(d, d).T
    rng, chunk = np.random.default_rng(seed), max(1, _CHUNK_ENTRIES // (d * d))
    for start in range(0, samples, chunk):
        bases = ccbox.draw_base(rng, min(chunk, samples - start))
        cores, weights = _bob_cores(bases, shared_t, dress_b), np.full(len(bases), 1 / samples)
        for key in np.ndindex(*ccbox.input_sizes):
            # an undressed Bob has a single core, for every own input
            vecs_t = cores[key[1] % len(cores)].reshape(-1, d) @ alice_t[key]
            yield key, vecs_t.reshape(bases.shape).swapaxes(-1, -2).reshape(len(bases), -1), weights


def _finite_vectors(strategy: Strategy) -> Iterator[tuple]:
    """Per input, chunks of (``(S, D)`` state vectors, ``(S,)`` weights) over
    a finite box's support: party j's unitary stack applied to axis j of
    the shared state."""
    dims = strategy.shared.structure.dims
    shared = strategy.shared.amplitudes.reshape(dims[0], -1)
    for key, stacks, weights in _weighted_unitaries(strategy):
        # party 0 acts on the one shared state: a single (S d_0, d_0) product
        t = stacks[0].reshape(-1, dims[0]) @ shared
        for j, m in enumerate(stacks[1:], 1):
            t = m[:, None] @ t.reshape(len(weights), math.prod(dims[:j]), dims[j], -1)
        yield key, t.reshape(len(weights), -1), weights


def _weighted_vectors(strategy: Strategy, samples: int, seed: int) -> Iterator[tuple]:
    """Per input, chunks of (``(S, D)`` state vectors, ``(S,)`` weights) of
    a Haar coupling's draws or a finite box's support.  A vector that is
    not of unit norm is refused, naming its input."""
    if isinstance(strategy.ccbox, HaarCouplingBox):
        chunks = _coupled_vectors(strategy, samples, seed)
    else:
        chunks = _finite_vectors(strategy)
    for key, vecs, weights in chunks:
        if fault := invalid_vector(vecs):
            raise ValueError(f"output at input {','.join(map(str, key))} is invalid: {fault[1]}")
        yield key, vecs, weights


def _output_sum(strategy: Strategy, samples: int, seed: int) -> np.ndarray:
    """The ``input_sizes + (D, D)`` stack of the strategy's outputs: per
    input, its weighted state vectors' outer products, summed from 0."""
    d = capped_dim(strategy.shared.structure)
    mats = np.zeros(strategy.input_sizes + (d, d), dtype=complex)
    for key, vecs, weights in _weighted_vectors(strategy, samples, seed):
        mats[key] += (vecs.T * weights) @ vecs.conj()
    return mats


def simulate(strategy: Strategy | MixtureSchedule, *, samples: int = 1000, seed: int = 0) -> CQBox:
    """The quantum-output box the strategy realises.

    Finite classical boxes are summed exactly.  Haar-coupling strategies
    return the empirical mixture over ``samples`` seeded draws, with
    Bob's sample stream drawn once so that it cannot depend on inputs;
    per chunk of draws, Bob's core is formed once per own input and each
    input tuple's states are one product with it.  A
    mixture schedule sums interval i's strategy on seed + i into a stack
    of its own, and adds the stacks from 0, each times its interval
    weight, in interval order; a strategy is the one interval of weight 1.
    One box is built and validated, from the whole sum.
    """
    if isinstance(strategy, MixtureSchedule):
        if not strategy.strategies:
            raise ValueError("mixture requires at least one component")
        parts = zip(strategy.weights, strategy.strategies, itertools.count(seed))
        first = strategy.strategies[0]
    else:
        parts, first = [(1.0, strategy, seed)], strategy
    mats = sum(weight * _output_sum(item, samples, item_seed) for weight, item, item_seed in parts)
    return CQBox(first.input_sizes, first.shared.structure, mats)


def sample_states(
    strategy: Strategy, *, samples: int = 1000, seed: int = 0
) -> dict[tuple[int, ...], list[StateVector]]:
    """Per-input list of the pure states produced by each coupling draw,
    formed as ``simulate`` forms them, from Bob's core per chunk of draws."""
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
    sizes, n = _unitary_stack_shape(targets, "targets")
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
    mats = targets.pure_vectors().reshape(targets.input_sizes + (n, n))

    form = schmidt(StateVector(mats[0, 0], targets.structure))
    coeffs = form.coefficients
    if coeffs[-1] < 1e-7:
        raise ValueError("reference state must have full Schmidt rank")
    basis_a, basis_b = form.left_basis, form.right_basis
    inv_d = np.diag(1.0 / coeffs)
    block_dims = tuple(len(b) for b in form.blocks)

    in_bases = basis_a.conj().T @ mats @ basis_b.conj()
    u_x = in_bases[:, 0] @ inv_d
    v_y = (inv_d @ in_bases[0]).swapaxes(-1, -2)
    for stack, what in ((u_x, "row dressing at x"), (v_y, "column dressing at y")):
        if fault := invalid_unitary(stack, 1e-6):
            raise ValueError(f"family structure broken: {what}={fault[0][0]} is not unitary")

    w = u_x[:, None].conj().swapaxes(-1, -2) @ in_bases @ v_y[None].conj() @ inv_d
    block_of = np.repeat(np.arange(len(block_dims)), block_dims)  # the block of each level
    blocks_mask = block_of[:, None] == block_of[None, :]
    mixes = np.abs(np.where(blocks_mask, 0.0, w)).max(axis=(-2, -1)) > 1e-6
    relabel = np.where(blocks_mask, w, 0.0)
    # an input whose part mixes blocks reads as non-finite, so the first
    # input at fault is named, whichever of the two faults it has
    if fault := invalid_unitary(np.where(mixes[..., None, None], np.nan, relabel), 1e-6):
        key = fault[0]
        if mixes[key]:
            raise ValueError(
                f"family structure broken: coupling part at input {key} mixes "
                "Schmidt blocks of unequal coefficient"
            )
        raise ValueError(f"family structure broken: coupling part at {key} is not unitary")

    core = StateVector(np.diag(coeffs), targets.structure)
    return Strategy(HaarCouplingBox(relabel, block_dims), core, (basis_a @ u_x, basis_b @ v_y))


# Bell state i equals (B_i x 1)|phi+> for these local unitaries
_BELL_LOCALS = np.array([np.eye(2, dtype=complex), PAULI[0], PAULI[2], PAULI[2] @ PAULI[0]])


def _su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Lift a stack ``(..., 3, 3)`` of proper rotations to SU(2) through
    their unit quaternions.

    Each quaternion (x, y, z, w) is formed as scipy 1.17.1's
    ``Rotation.from_matrix`` forms it from an orthogonal matrix, bit for
    bit: from the largest of the three diagonal entries and the trace,
    then divided by its norm.
    """
    det = np.linalg.det(rot)
    if (improper := det <= 0).any():
        raise ValueError(f"a proper rotation is required, got determinant {det[improper].flat[0]}")
    r = np.moveaxis(np.asarray(rot, dtype=float), (-2, -1), (0, 1))
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    # the quaternion of each branch: the largest diagonal entry i, or the trace
    quats = np.empty((4, 4) + trace.shape)
    quats[3] = r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1], 1 + trace
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        quats[i, i] = 1 - trace + 2 * r[i, i]
        quats[i, j] = r[j, i] + r[i, j]
        quats[i, k] = r[k, i] + r[i, k]
        quats[i, 3] = r[k, j] - r[j, k]
    branch = np.argmax([r[0, 0], r[1, 1], r[2, 2], trace], axis=0)
    x, y, z, w = np.take_along_axis(quats, branch[None, None], axis=0)[0]
    # squares added left to right, as scipy adds them
    norm = np.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = (c[..., None, None] / norm[..., None, None] for c in (x, y, z, w))
    return w * np.eye(2, dtype=complex) - 1j * (x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


# sigma_i x sigma_j for the correlation matrix T_ij = tr(rho sigma_i x sigma_j)
_PAULI_PAIRS = np.array([np.kron(PAULI[i], PAULI[j]) for i in range(3) for j in range(3)])


def _bell_weights_from_diagonal(t: np.ndarray) -> np.ndarray:
    """Bell weights of a stack ``(..., 3)`` of correlation diagonals."""
    t1, t2, t3 = np.moveaxis(t, -1, 0)
    p = np.stack([1 + t1 - t2 + t3, 1 + t1 + t2 - t3, 1 - t1 + t2 + t3, 1 - t1 - t2 - t3], -1) / 4
    if np.min(p) < -1e-9:
        raise ValueError("correlation diagonal is not realisable by a Bell mixture")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _bell_forms(rho: np.ndarray, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bell canonical forms of a validated ``(..., 4, 4)`` stack of
    two-qubit states over the parties ``labels``: the ``(..., 2, 2)``
    locals u, v and the ``(..., 4)`` Bell weights of each, bit for bit as
    for that matrix alone."""
    marginals = np.stack([partial_trace_array(rho, (2, 2), [j]) for j in (0, 1)], axis=-3)
    biased = np.max(np.abs(marginals - np.eye(2) / 2), axis=(-2, -1)) > TOLERANCE
    if biased.any():  # the first input in order, then its first party
        raise ValueError(f"party {labels[np.argwhere(biased)[0][-1]]} marginal is not maximally mixed")

    t = np.trace(rho[..., None, :, :] @ _PAULI_PAIRS, axis1=-2, axis2=-1).real
    t = t.reshape(rho.shape[:-2] + (3, 3))
    diagonal = np.max(np.abs(np.where(np.eye(3, dtype=bool), 0.0, t)), axis=(-2, -1)) <= 1e-11

    o1, s, o2t = np.linalg.svd(t)
    d1, d2 = np.sign(np.linalg.det(o1)), np.sign(np.linalg.det(o2t))
    ones = np.ones_like(d1)
    r1 = o1 * np.stack([ones, ones, d1], -1)[..., None, :]
    r2 = o2t.swapaxes(-1, -2) * np.stack([ones, ones, d2], -1)[..., None, :]
    signed = s * np.stack([ones, ones, d1 * d2], -1)
    # an already-diagonal T keeps the identity locals and its own diagonal
    eye = np.eye(2, dtype=complex)
    u = np.where(diagonal[..., None, None], eye, _su2_from_rotation(r1))
    v = np.where(diagonal[..., None, None], eye, _su2_from_rotation(r2))
    diag = np.where(diagonal[..., None], np.diagonal(t, axis1=-2, axis2=-1), signed)
    return u, v, _bell_weights_from_diagonal(diag)


def bell_canonical_form(
    rho: DensityMatrix,
) -> tuple[UnitaryOperator, UnitaryOperator, np.ndarray]:
    """Decompose a maximally disordered two-qubit state as local unitaries
    around a Bell-diagonal core: rho = (U x V) (sum_i p_i |B_i><B_i|) (U x V)+.

    The correlation matrix T_ij = tr(rho sigma_i x sigma_j) transforms as
    R(U) T R(V)^T under local unitaries; a sign-corrected singular value
    decomposition diagonalises it with proper rotations, which lift to
    SU(2).  If T is already diagonal the locals stay at the identity.  The
    one-matrix case of the stack kernel that ``mixed_disordered_strategy``
    runs on a whole target box.
    """
    if rho.structure.dims != (2, 2):
        raise ValueError("two qubits required")
    u, v, weights = _bell_forms(rho.matrix, rho.structure.labels)
    return UnitaryOperator(u), UnitaryOperator(v), weights


@dataclass(frozen=True, eq=False)
class MixtureSchedule:
    """Common refinement of per-input mixture decompositions, as arrays.

    ``weights`` holds the ``(I,)`` interval weights, in order along [0, 1],
    and ``assignment`` the ``(I,) + input_sizes`` index of the component
    each interval draws at each input.  ``probabilities`` is the
    ``input_sizes + (K,)`` stack of component probabilities, which the
    interval weights reproduce when summed by assigned component.  A
    mixed-disordered schedule also holds the ``input_sizes + (K, D)`` stack
    of component states and one strategy per interval; ``simulate`` runs
    interval i's strategy on seed + i and adds its output stack by weight.
    Construction refuses interval weights that are no distribution, and
    interval strategies whose count, input sizes or party dims do not fit.
    The arrays are stored as read-only copies.
    """

    weights: np.ndarray
    assignment: np.ndarray
    probabilities: np.ndarray
    pure_states: np.ndarray | None = None
    strategies: tuple[Strategy, ...] = ()

    def __post_init__(self) -> None:
        for name, dtype in (("weights", float), ("assignment", int), ("probabilities", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.pure_states is not None:
            object.__setattr__(self, "pure_states", _frozen(self.pure_states))
        if invalid_distribution(self.weights):
            raise ValueError("mixture weights must form a probability distribution")
        drawn = self.assignment[..., None] == np.arange(self.probabilities.shape[-1])
        # each input's component weights, summed over the intervals in order
        weights = self.weights.reshape((-1,) + (1,) * (drawn.ndim - 1))
        totals = np.where(drawn, weights, 0.0).sum(axis=0)
        if (gaps := np.abs(totals - self.probabilities) > 1e-12).any():
            first = tuple(np.argwhere(gaps)[0].tolist())
            raise ValueError(
                f"interval aggregation for input {first[:-1]} component {first[-1]} "
                f"gives {totals[first]}, expected {self.probabilities[first]}"
            )
        if self.strategies and len(self.strategies) != len(self.weights):
            raise ValueError(f"{len(self.strategies)} interval strategies for {len(self.weights)} intervals")
        for i, strategy in enumerate(self.strategies):
            for name, value, expected in (
                ("input_sizes", strategy.input_sizes, self.assignment.shape[1:]),
                ("party dims", strategy.shared.structure.dims, self.strategies[0].shared.structure.dims),
            ):
                if value != expected:
                    raise ValueError(f"interval {i} strategy has {name} {value}, the schedule has {expected}")


def mixture_align(probabilities: np.ndarray) -> MixtureSchedule:
    """Align per-input mixtures on a common interval grid.

    Lays each input's components of an ``input_sizes + (K,)`` probability
    stack along [0, 1] in order and cuts at the union of all cumulative
    breakpoints; within one interval every input sticks to a single
    component, the first whose breakpoint reaches the interval's midpoint.
    """
    probs = np.asarray(probabilities, dtype=float)
    if fault := invalid_distribution(probs):
        raise ValueError(f"component probabilities for input {fault[0]} are invalid: {fault[1]}")
    # a negative entry within tolerance would put its breakpoint below the last
    probs = np.clip(probs, 0.0, None)
    cums = np.cumsum(probs, axis=-1)

    points = np.append(cums, 1.0)
    points = np.sort(points[points > 1e-15])
    merged = [float(points[0])]
    for value in points[1:]:
        if value - merged[-1] > 1e-15:
            merged.append(float(value))
    merged[-1] = 1.0

    edges = np.array([0.0] + merged)
    mids = (edges[:-1] + edges[1:]) / 2
    # per interval and input, how many breakpoints lie below the midpoint
    below = np.sum(cums < mids.reshape((-1,) + (1,) * probs.ndim), axis=-1)
    return MixtureSchedule(np.diff(edges), np.minimum(below, probs.shape[-1] - 1), probs)


def mixed_disordered_strategy(box: CQBox) -> MixtureSchedule:
    """Realise a family of maximally disordered two-qubit states as an
    interval mixture of maximally entangled pure strategies.

    Every output decomposes as local unitaries around a Bell mixture; the
    mixtures are aligned on a common interval grid, and each interval's
    column of (maximally entangled) pure states becomes one Haar-coupling
    strategy.  Sampling an interval with its weight and running its
    strategy reproduces the box, which ``simulate`` does with the schedule.
    """
    if box.structure.dims != (2, 2):
        raise ValueError("two-qubit boxes required")
    u, v, weights = _bell_forms(box.matrices, box.structure.labels)
    # u B_i v^T for every input and Bell component i, shape input_sizes + (4, 2, 2)
    components = u[..., None, :, :] @ _BELL_LOCALS @ v[..., None, :, :].swapaxes(-1, -2)
    vectors = (components @ phi_plus(2).amplitudes.reshape(2, 2)).reshape(box.input_sizes + (4, 4))

    schedule = mixture_align(weights)
    grid = tuple(np.indices(box.input_sizes))
    strategies = tuple(max_entangled_strategy(components[grid + (i,)]) for i in schedule.assignment)
    return replace(schedule, pure_states=vectors, strategies=strategies)
