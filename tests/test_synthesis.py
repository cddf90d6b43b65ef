import itertools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cqboxes import synthesis
from cqboxes.bounds import best_fidelity, spec_to_strategy
from cqboxes.boxes import (
    CCBox,
    CQBox,
    HaarCouplingBox,
    NoSignallingReport,
    chsh_value,
    cc_no_signalling,
    cq_box_distance,
    cq_no_signalling,
    induced_ccbox,
    mod_box,
    pr_box,
)
from cqboxes.io import load_box
from cqboxes.multipartite import PhaseAssignment, ghz_phase_strategy, w_phase_box
from cqboxes.quantum import (
    PAULI,
    DensityMatrix,
    PartyStructure,
    StateVector,
    apply_axis,
    bell_state,
    fidelity,
    haar_unitary,
    invalid_distribution,
    invalid_unitary,
    invalid_vector,
    partial_trace,
    pauli_x,
    pauli_z_power,
    phi_plus,
    schmidt,
    su2,
    two_level_state,
    w_state,
)
from cqboxes.synthesis import (
    MixtureSchedule,
    Strategy,
    _su2_from_rotation,
    bell_canonical_form,
    bit_flip_strategy,
    eight_output_strategy,
    eight_output_targets,
    general_pure_strategy,
    irrational_phase_strategy,
    max_entangled_strategy,
    mixed_disordered_strategy,
    mixture_align,
    nonmax_family_box,
    nonmax_pure_strategy,
    phase_family_box,
    rational_phase_strategy,
    sample_states,
    sign_flip_strategy,
    simulate,
    simulate_checked,
    unitary_family_box,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def reference_mix_boxes(weighted: Sequence[tuple[float, CQBox]]) -> CQBox:
    """Convex mixture of C-Q boxes with matching input sizes and party dims,
    summed from 0 in order: the per-box mixture ``simulate`` replaced with
    one sum over a schedule's intervals."""
    if not weighted:
        raise ValueError("mixture requires at least one component")
    if invalid_distribution([w for w, _ in weighted]):
        raise ValueError("mixture weights must form a probability distribution")
    first = weighted[0][1]
    for i, (_, box) in enumerate(weighted):
        for name, value, expected in (
            ("input_sizes", box.input_sizes, first.input_sizes),
            ("party dims", box.structure.dims, first.structure.dims),
        ):
            if value != expected:
                raise ValueError(
                    f"mixture component {i} has {name} {value}, component 0 has {expected}"
                )
    return CQBox(first.input_sizes, first.structure, sum(w * box.matrices for w, box in weighted))


def two_qubit_state(vec) -> StateVector:
    return StateVector(np.asarray(vec, dtype=complex), PartyStructure.pair(2))


def bell_mixture(weights) -> DensityMatrix:
    mat = np.zeros((4, 4), dtype=complex)
    for i, w in enumerate(weights):
        amp = bell_state(i).amplitudes
        mat += w * np.outer(amp, amp.conj())
    return DensityMatrix(mat, PartyStructure.pair(2))


class TestBitFlip:
    def test_realises_bell_family(self):
        box = simulate(bit_flip_strategy())
        for x, y in itertools.product(range(2), range(2)):
            target = bell_state(1 if x * y else 0)
            assert fidelity(box.pure_output((x, y)), target) == pytest.approx(1.0, abs=1e-12)

    def test_computational_measurement_gives_pr_statistics(self):
        box = simulate(bit_flip_strategy())
        eye = np.eye(2)
        induced = induced_ccbox(box, [[eye, eye], [eye, eye]])
        assert np.allclose(induced.table, pr_box().table, atol=1e-12)
        assert chsh_value(induced) == pytest.approx(4.0, abs=1e-12)

    def test_family_is_non_signalling(self):
        assert cq_no_signalling(simulate(bit_flip_strategy())).passed


class TestSignFlip:
    def test_matches_conditional_phase_family(self):
        alpha, beta = 0.8, 0.6
        box = simulate(sign_flip_strategy(alpha, beta))
        target = phase_family_box(lambda x, y: math.pi * x * y, alpha, beta)
        assert cq_box_distance(box, target) < 1e-12

    def test_output_at_11_has_flipped_sign(self):
        box = simulate(sign_flip_strategy(0.8, 0.6))
        state = two_qubit_state([0.8, 0, 0, -0.6])
        assert fidelity(box.pure_output((1, 1)), state) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_case_measured_in_hadamard_basis_is_pr(self):
        s = 1 / math.sqrt(2)
        box = simulate(sign_flip_strategy(s, s))
        induced = induced_ccbox(box, [[HADAMARD, HADAMARD], [HADAMARD, HADAMARD]])
        assert np.allclose(induced.table, pr_box().table, atol=1e-12)
        assert chsh_value(induced) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_unnormalised_amplitudes(self):
        with pytest.raises(ValueError):
            sign_flip_strategy(0.8, 0.8)


class TestRationalPhase:
    def test_two_thirds_turn(self):
        alpha, beta = 0.8, 0.6
        strategy = rational_phase_strategy(2, 3, alpha, beta)
        box = simulate(strategy)
        target = phase_family_box(lambda x, y: 4 * math.pi / 3 * x * y, alpha, beta)
        assert cq_box_distance(box, target) < 1e-12
        assert strategy.ccbox.output_sizes == (3, 3)

    def test_quarter_turn_output(self):
        alpha, beta = 0.8, 0.6
        box = simulate(rational_phase_strategy(1, 4, alpha, beta))
        state = two_qubit_state([alpha, 0, 0, 1j * beta])
        assert fidelity(box.pure_output((1, 1)), state) == pytest.approx(1.0, abs=1e-12)

    def test_fraction_is_reduced_before_sizing_the_box(self):
        full = rational_phase_strategy(2, 4, 0.8, 0.6)
        half = rational_phase_strategy(1, 2, 0.8, 0.6)
        assert full.ccbox.output_sizes == (2, 2)
        assert cq_box_distance(simulate(full), simulate(half)) < 1e-12

    def test_zero_numerator_gives_constant_family(self):
        box = simulate(rational_phase_strategy(0, 5, 0.8, 0.6))
        state = two_qubit_state([0.8, 0, 0, 0.6])
        for key in box.inputs:
            assert fidelity(box.pure_output(key), state) == pytest.approx(1.0, abs=1e-12)

    def test_every_case_is_non_signalling(self):
        for m, n in [(1, 2), (2, 3), (1, 4), (3, 5)]:
            box = simulate(rational_phase_strategy(m, n, 0.8, 0.6))
            assert cq_no_signalling(box, tol=1e-11).passed


class TestIrrationalPhase:
    def test_bound_is_tight_for_balanced_amplitudes(self):
        theta = 1 / math.sqrt(2)
        strategy, bound = irrational_phase_strategy(theta, 10)
        box = simulate(strategy)
        target = phase_family_box(
            lambda x, y: 2 * math.pi * theta * x * y, 1 / math.sqrt(2), 1 / math.sqrt(2)
        )
        worst = min(
            fidelity(box.pure_output(key), target.pure_output(key)) for key in box.inputs
        )
        # the only inexact input is (1, 1), where the bound is saturated
        assert worst >= 1 - bound
        assert (1 - worst) == pytest.approx(bound - 1e-12, abs=1e-12)

    def test_bound_decreases_and_fidelity_increases_with_n(self):
        theta = 1 / math.sqrt(2)
        previous = 1.0
        for n in [2, 5, 10, 50, 200]:
            strategy, bound = irrational_phase_strategy(theta, n)
            box = simulate(strategy)
            target = phase_family_box(
                lambda x, y: 2 * math.pi * theta * x * y,
                1 / math.sqrt(2),
                1 / math.sqrt(2),
            )
            worst = min(
                fidelity(box.pure_output(key), target.pure_output(key))
                for key in box.inputs
            )
            assert worst >= 1 - bound
            assert bound <= previous + 1e-15
            previous = bound
        assert bound < 1e-4

    def test_bound_never_exceeds_one(self):
        _, bound = irrational_phase_strategy(0.499, 2, 0.8, 0.6)
        assert bound <= 1.0

    def test_unbalanced_amplitudes_follow_overlap_formula(self):
        alpha, beta = 0.8, 0.6
        theta = 0.123456
        strategy, bound = irrational_phase_strategy(theta, 7, alpha, beta)
        box = simulate(strategy)
        delta = 2 * math.pi * abs(theta - round(7 * theta) / 7)
        overlap = abs(alpha**2 + beta**2 * np.exp(1j * delta)) ** 2
        target = phase_family_box(lambda x, y: 2 * math.pi * theta * x * y, alpha, beta)
        fid = fidelity(box.pure_output((1, 1)), target.pure_output((1, 1)))
        assert fid == pytest.approx(overlap, abs=1e-12)
        assert 1 - fid <= bound

    @settings(max_examples=20, deadline=None)
    @given(
        theta=st.floats(-2, 2),
        n=st.integers(2, 64),
        alpha=st.floats(0, 1, exclude_min=True),
    )
    def test_random_phases_stay_within_the_certified_distance(self, theta, n, alpha):
        """The trace distance of pure states is sqrt(1 - fidelity), so the
        infidelity bound certifies a distance of its square root."""
        beta = math.sqrt(1 - alpha**2)
        strategy, bound = irrational_phase_strategy(theta, n, alpha, beta)
        target = phase_family_box(lambda x, y: 2 * math.pi * theta * x * y, alpha, beta)
        assert cq_box_distance(simulate(strategy), target) <= math.sqrt(bound)


@st.composite
def unitary_stacks(draw) -> np.ndarray:
    """An ``input_sizes + (n, n)`` stack of Haar unitaries, 1-3 inputs per
    party and n = 2-4."""
    sizes = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.reshape([haar_unitary(n, rng).matrix for _ in range(math.prod(sizes))], sizes + (n, n))


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_unitary_family_box_matches_the_per_key_loop(n):
    """The one batched product against the per-input loop it replaced, for
    a contiguous stack and a broadcast one."""
    rng = np.random.default_rng(n)
    phi = phi_plus(n).amplitudes.reshape(n, n)
    for targets in (
        np.reshape([haar_unitary(n, rng).matrix for _ in range(6)], (2, 3, n, n)),
        np.broadcast_to(haar_unitary(n, rng).matrix, (2, 3, n, n)),
    ):
        looped = [(targets[key] @ phi).reshape(-1) for key in np.ndindex(2, 3)]
        assert np.array_equal(unitary_family_box(targets).amplitudes, np.reshape(looped, (2, 3, -1)))


@settings(max_examples=30, deadline=None)
@given(targets=unitary_stacks())
def test_max_entangled_strategy_realises_the_unitary_family(targets):
    simulated = simulate(max_entangled_strategy(targets), samples=3)
    assert simulated.input_sizes == targets.shape[:2]
    assert np.max(np.abs(simulated.matrices - unitary_family_box(targets).matrices)) <= 1e-12


class TestMaxEntangled:
    def targets(self, n, seed):
        return np.reshape([
            haar_unitary(n, seed + 17 * x + 5 * y).matrix
            for x, y in itertools.product(range(2), range(2))
        ], (2, 2, n, n))

    def test_every_sample_hits_the_target_exactly(self):
        n = 3
        targets = self.targets(n, 100)
        strategy = max_entangled_strategy(targets)
        target_box = unitary_family_box(targets)
        for key, states in sample_states(strategy, samples=20, seed=3).items():
            want = target_box.pure_output(key)
            for state in states:
                assert fidelity(state, want) == pytest.approx(1.0, abs=1e-10)

    def test_simulation_matches_target_family(self):
        n = 2
        targets = self.targets(n, 7)
        box = simulate(max_entangled_strategy(targets), samples=25, seed=1)
        assert cq_box_distance(box, unitary_family_box(targets)) < 1e-9

    def test_simulation_is_deterministic_in_the_seed(self):
        targets = self.targets(2, 9)
        strategy = max_entangled_strategy(targets)
        a = simulate(strategy, samples=10, seed=4)
        b = simulate(strategy, samples=10, seed=4)
        for key in a.inputs:
            assert np.array_equal(a.output(key).matrix, b.output(key).matrix)

    def test_rejects_non_square_targets(self):
        message = "relabel shape (2, 2, 2, 3) is not input_sizes + (dim, dim), all positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            max_entangled_strategy(np.zeros((2, 2, 2, 3)))

    @pytest.mark.parametrize("shape", [(2, 2, 2, 3), (2, 2), (2, 0, 2, 2)])
    def test_target_family_box_refuses_a_stack_by_the_same_rule(self, shape):
        """A non-square stack, or one with no or an empty input axis, is
        refused by name, by the rule ``HaarCouplingBox`` applies."""
        message = f"targets shape {shape} is not input_sizes + (dim, dim), all positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            unitary_family_box(np.zeros(shape))


class TestEightOutput:
    def test_simulation_matches_target_family(self):
        box = simulate(eight_output_strategy())
        target = unitary_family_box(eight_output_targets())
        assert cq_box_distance(box, target) < 1e-12

    def test_family_is_non_signalling(self):
        assert cq_no_signalling(simulate(eight_output_strategy()), tol=1e-11).passed

    def test_pairings_are_marginal_preserving_bijections(self):
        coupling = eight_output_strategy().ccbox
        assert coupling.input_sizes == (2, 3) and coupling.output_sizes == (8, 8)
        for key in np.ndindex(2, 3):
            block = coupling.table[key]
            # both parties' marginals are the uniform one, and each b has one partner a
            assert block.sum(axis=0) == pytest.approx(np.full(8, 1 / 8))
            assert block.sum(axis=1) == pytest.approx(np.full(8, 1 / 8))
            assert np.count_nonzero(block) == 8
            pi = block.argmax(axis=0)
            assert sorted(pi.tolist()) == list(range(8))

    def test_trivial_inputs_pair_identically(self):
        coupling = eight_output_strategy().ccbox
        for key in [(0, 0), (0, 1), (0, 2), (1, 0)]:
            assert np.array_equal(coupling.table[key].argmax(axis=0), np.arange(8))
            assert np.array_equal(coupling.table[key], np.eye(8) / 8)

    def test_derived_pairings_synthesise_the_targets(self):
        strategy = eight_output_strategy()
        unitaries = [pauli_z_power(k / 2).matrix for k in range(4)]
        unitaries += [u @ pauli_x().matrix for u in unitaries[:4]]
        targets = eight_output_targets()
        assert targets.shape == (2, 3, 2, 2)
        for key in np.ndindex(2, 3):
            target = targets[key]
            pi = strategy.ccbox.table[key].argmax(axis=0)
            for b in range(8):
                product = unitaries[pi[b]] @ unitaries[b].conj().T
                overlap = abs(np.trace(target.conj().T @ product))
                assert overlap == pytest.approx(2.0, abs=1e-12)


def reference_derive_pairing(
    unitaries: Sequence[np.ndarray], target: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """Bijection b -> a with U_a U_b+ proportional to the target unitary.

    For each b the candidate a's satisfy |tr(T+ U_a U_b+)| = d (equality
    up to a global phase); a deterministic backtracking search then picks
    a perfect matching, smallest candidates first.
    """
    d = target.shape[0]
    k = len(unitaries)
    candidates = []
    for b in range(k):
        options = []
        for a in range(k):
            overlap = abs(np.trace(target.conj().T @ unitaries[a] @ unitaries[b].conj().T))
            if abs(overlap - d) < tol:
                options.append(a)
        if not options:
            raise ValueError(f"no output label pairs with b = {b} for the given target")
        candidates.append(options)

    assignment = [-1] * k
    used: set[int] = set()

    def place(b: int) -> bool:
        if b == k:
            return True
        for a in candidates[b]:
            if a not in used:
                assignment[b] = a
                used.add(a)
                if place(b + 1):
                    return True
                used.discard(a)
                assignment[b] = -1
        return False

    if not place(0):
        raise ValueError("no bijection is consistent with the target")
    return np.array(assignment, dtype=int)


class TestPairingMatch:
    """The vectorised overlap match against the backtracking search it replaced."""

    @staticmethod
    def labels() -> list[np.ndarray]:
        unitaries = [pauli_z_power(k / 2).matrix for k in range(4)]
        return unitaries + [u @ pauli_x().matrix for u in unitaries[:4]]

    def test_eight_output_targets_match_the_search(self):
        unitaries = self.labels()
        targets = eight_output_targets()
        for key in np.ndindex(2, 3):
            target = targets[key]
            expected = reference_derive_pairing(unitaries, target)
            got = synthesis._derive_pairing(np.array(unitaries), target)
            assert np.array_equal(got, expected), key

    def test_every_label_product_matches_the_search(self):
        # any U_c U_e+ up to a global phase is a reachable target
        unitaries = self.labels()
        rng = np.random.default_rng(4)
        for c, e in itertools.product(range(8), repeat=2):
            target = np.exp(1j * rng.uniform(0, 2 * np.pi)) * unitaries[c] @ unitaries[e].conj().T
            expected = reference_derive_pairing(unitaries, target)
            got = synthesis._derive_pairing(np.array(unitaries), target)
            assert np.array_equal(got, expected), (c, e)

    def test_unreachable_target_names_the_first_unpaired_output(self):
        unitaries = self.labels()
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        message = "no output label pairs with b = 0 for the given target"
        with pytest.raises(ValueError, match=message):
            reference_derive_pairing(unitaries, hadamard)
        with pytest.raises(ValueError, match=message):
            synthesis._derive_pairing(np.array(unitaries), hadamard)


class TestNonMaxPure:
    def test_quarter_turn_matches_rational_phase_construction(self):
        alpha, beta = 0.8, 0.6
        strategy = nonmax_pure_strategy(
            [alpha**2, beta**2], {(1, 1, 1): Fraction(1, 4)}
        )
        box = simulate(strategy)
        reference = simulate(rational_phase_strategy(1, 4, alpha, beta))
        assert cq_box_distance(box, reference) < 1e-12
        assert strategy.ccbox.output_sizes == (4, 4)

    def test_target_builder_is_what_the_strategy_realises(self):
        phases = {(1, 1, 1): Fraction(1, 4), (1, 0, 2): Fraction(1, 3), (0, 1, 1): Fraction(1, 5)}
        target = nonmax_family_box((0.6, 0.3, 0.1), phases)
        assert np.array_equal(target.amplitudes, load_box(FIXTURES / "nonmax_pure_family.json").amplitudes)
        realised = simulate(nonmax_pure_strategy((0.6, 0.3, 0.1), phases))
        assert cq_box_distance(realised, target) < 1e-12

    def test_three_level_family_with_local_and_interaction_phases(self):
        p = [0.5, 0.3, 0.2]
        phases = {
            (0, 0, 0): Fraction(1, 7),
            (1, 0, 1): Fraction(1, 3),
            (0, 1, 2): Fraction(1, 2),
            (1, 1, 1): Fraction(1, 4),
            (1, 1, 2): Fraction(5, 6),
        }
        q_a = haar_unitary(3, 41).matrix
        q_b = haar_unitary(3, 42).matrix
        local_a = np.array([np.eye(3), q_a])
        local_b = np.array([np.eye(3), q_b])
        strategy = nonmax_pure_strategy(p, phases, local_a, local_b)
        box = simulate(strategy)

        def phase(x, y, i):
            return float(phases.get((x, y, i), Fraction(0)))

        states = {}
        for x, y in itertools.product(range(2), range(2)):
            amp = np.zeros((3, 3), dtype=complex)
            for i in range(3):
                amp[i, i] = math.sqrt(p[i]) * np.exp(2j * math.pi * phase(x, y, i))
            dressed = local_a[x] @ amp @ local_b[y].T
            states[(x, y)] = StateVector(dressed.reshape(-1), PartyStructure.pair(3))
        target = CQBox.from_pure((2, 2), states)
        assert cq_box_distance(box, target) < 1e-12
        assert cq_no_signalling(box, tol=1e-11).passed

    def test_interaction_denominators_set_the_box_size(self):
        strategy = nonmax_pure_strategy(
            [0.5, 0.3, 0.2],
            {(1, 1, 1): Fraction(1, 4), (1, 1, 2): Fraction(5, 6)},
        )
        assert strategy.ccbox.output_sizes == (12, 12)

    def test_purely_local_phases_need_no_correlation(self):
        strategy = nonmax_pure_strategy(
            [0.7, 0.3],
            {
                (1, 0, 1): Fraction(1, 3),
                (0, 1, 1): Fraction(2, 5),
                (1, 1, 1): Fraction(1, 3) + Fraction(2, 5),
            },
        )
        assert strategy.ccbox.output_sizes == (1, 1)
        box = simulate(strategy)
        state = np.zeros(4, dtype=complex)
        state[0] = math.sqrt(0.7)
        state[3] = math.sqrt(0.3) * np.exp(2j * math.pi * (1 / 3 + 2 / 5))
        assert fidelity(box.pure_output((1, 1)), two_qubit_state(state)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_non_decreasing_weights(self):
        with pytest.raises(ValueError):
            nonmax_pure_strategy([0.5, 0.5], {(1, 1, 1): Fraction(1, 4)})

    def test_rejects_float_phases(self):
        with pytest.raises(TypeError):
            nonmax_pure_strategy([0.7, 0.3], {(1, 1, 1): 0.25})


class TestGeneralPure:
    def nondegenerate_family(self):
        strategy = nonmax_pure_strategy(
            [0.5, 0.3, 0.2],
            {(1, 1, 1): Fraction(1, 4), (1, 0, 2): Fraction(1, 3)},
            local_a=np.array([haar_unitary(3, 50 + x).matrix for x in range(2)]),
            local_b=np.array([haar_unitary(3, 60 + y).matrix for y in range(2)]),
        )
        return simulate(strategy)

    def degenerate_family(self):
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

    def test_reproduces_a_nondegenerate_family_every_sample(self):
        targets = self.nondegenerate_family()
        strategy = general_pure_strategy(targets)
        for key, states in sample_states(strategy, samples=15, seed=2).items():
            want = targets.pure_output(key)
            for state in states:
                assert fidelity(state, want) == pytest.approx(1.0, abs=1e-9)

    def test_reproduces_a_degenerate_block_family_every_sample(self):
        targets = self.degenerate_family()
        strategy = general_pure_strategy(targets)
        assert strategy.ccbox.block_dims == (2, 2)
        for key, states in sample_states(strategy, samples=15, seed=8).items():
            want = targets.pure_output(key)
            for state in states:
                assert fidelity(state, want) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_entangled_family_becomes_single_block(self):
        stack = np.reshape([
            haar_unitary(3, 80 + 3 * x + y).matrix for x, y in itertools.product(range(2), range(2))
        ], (2, 2, 3, 3))
        targets = unitary_family_box(stack)
        strategy = general_pure_strategy(targets)
        assert strategy.ccbox.block_dims == (3,)
        box = simulate(strategy, samples=10, seed=1)
        assert cq_box_distance(box, targets) < 1e-9

    def test_rejects_signalling_families(self):
        states = {
            (0, 0): bell_state(0),
            (0, 1): bell_state(0),
            (1, 0): bell_state(0),
            (1, 1): two_qubit_state([1, 0, 0, 0]),
        }
        with pytest.raises(ValueError, match="signalling"):
            general_pure_strategy(CQBox.from_pure((2, 2), states))

    def test_rejects_rank_deficient_reference(self):
        states = {
            key: two_qubit_state([1, 0, 0, 0])
            for key in itertools.product(range(2), range(2))
        }
        with pytest.raises(ValueError, match="rank"):
            general_pure_strategy(CQBox.from_pure((2, 2), states))


class TestSu2Lift:
    def test_lift_reproduces_the_rotation(self):
        rng = np.random.default_rng(5)
        paulis = [PAULI_X, PAULI_Y, PAULI_Z]
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = Rotation.from_rotvec(rng.uniform(0, math.pi) * axis)
            u = _su2_from_rotation(rot.as_matrix())
            realised = np.array(
                [
                    [0.5 * np.trace(paulis[j] @ u @ paulis[k] @ u.conj().T) for k in range(3)]
                    for j in range(3)
                ]
            )
            assert np.allclose(np.real(realised), rot.as_matrix(), atol=1e-12)
            assert np.allclose(np.imag(realised), 0.0, atol=1e-12)


def scipy_su2(rot: np.ndarray) -> np.ndarray:
    """The lift as it was before it moved to numpy, through scipy's
    quaternion: kept as the reference it must match bit for bit."""
    x, y, z, w = Rotation.from_matrix(rot).as_quat()
    return w * np.eye(2, dtype=complex) - 1j * (x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


def quaternion_branch(rot: np.ndarray) -> int:
    """Which of (R00, R11, R22, trace) is largest, first on ties."""
    return int(np.argmax([rot[0, 0], rot[1, 1], rot[2, 2], rot[0, 0] + rot[1, 1] + rot[2, 2]]))


ROTATION_KINDS = {"near-identity": 3, "half-turn x": 0, "half-turn y": 1, "half-turn z": 2,
                  "generic": None, "svd factor": None}


@st.composite
def proper_rotations(draw, kind: str) -> np.ndarray:
    """A proper rotation of one kind: a small angle about any axis, close
    to a half turn about one coordinate axis, any angle about any axis,
    or a sign-fixed SVD factor as ``bell_canonical_form`` makes them."""
    entries = st.floats(-1, 1, allow_subnormal=False)
    if kind == "svd factor":
        o1, _, _ = np.linalg.svd(np.array(draw(st.lists(entries, min_size=9, max_size=9))).reshape(3, 3))
        return o1 @ np.diag([1.0, 1.0, np.sign(np.linalg.det(o1))])
    axis = np.array(draw(st.lists(entries, min_size=3, max_size=3)))
    if kind.startswith("half-turn"):
        axis = np.eye(3)[ROTATION_KINDS[kind]] + 1e-2 * axis
        angle = math.pi - draw(st.floats(0, 1e-2))
    else:
        assume(np.linalg.norm(axis) > 0.1)
        angle = draw(st.floats(-1e-3, 1e-3) if kind == "near-identity" else st.floats(0, math.pi))
    return Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()


class TestSu2LiftMatchesScipy:
    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, kind, data):
        rot = data.draw(proper_rotations(kind))
        if ROTATION_KINDS[kind] is not None:
            assert quaternion_branch(rot) == ROTATION_KINDS[kind]
        assert np.array_equal(_su2_from_rotation(rot), scipy_su2(rot))

    @pytest.mark.parametrize("rot", [np.eye(3), np.diag([1.0, -1.0, -1.0]),
                                     np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])])
    def test_exact_branch_corners(self, rot):
        assert np.array_equal(_su2_from_rotation(rot), scipy_su2(rot))

    @pytest.mark.parametrize("rot", [np.diag([1.0, 1.0, -1.0]), -np.eye(3), np.zeros((3, 3))])
    def test_rejects_non_positive_determinants(self, rot):
        with pytest.raises(ValueError, match="proper rotation"):
            _su2_from_rotation(rot)
        with pytest.raises(ValueError):
            scipy_su2(rot)


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_bell_canonical_form_matches_the_scipy_lift(weights, seeds):
    frame = np.kron(haar_unitary(2, seeds[0]).matrix, haar_unitary(2, seeds[1]).matrix)
    core = bell_mixture(np.array(weights) / sum(weights)).matrix
    rho = DensityMatrix(frame @ core @ frame.conj().T, PartyStructure.pair(2))
    u, v, p = bell_canonical_form(rho)
    with mock.patch.object(synthesis, "_su2_from_rotation", scipy_su2):
        u_ref, v_ref, p_ref = bell_canonical_form(rho)
    assert np.array_equal(u.matrix, u_ref.matrix)
    assert np.array_equal(v.matrix, v_ref.matrix)
    assert np.array_equal(p, p_ref)


class TestBellCanonicalForm:
    def test_singlet_is_already_diagonal(self):
        u, v, p = bell_canonical_form(bell_state(3).density())
        assert np.array_equal(u.matrix, np.eye(2))
        assert np.array_equal(v.matrix, np.eye(2))
        assert p == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)

    def test_maximally_mixed_state_is_uniform(self):
        rho = DensityMatrix(np.eye(4) / 4, PartyStructure.pair(2))
        _, _, p = bell_canonical_form(rho)
        assert p == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-12)

    def test_even_mix_of_first_two_bell_states(self):
        _, _, p = bell_canonical_form(bell_mixture([0.5, 0.5, 0.0, 0.0]))
        assert p == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)

    def test_rotated_bell_mixture_is_recovered(self):
        weights = np.array([0.5, 0.25, 0.15, 0.1])
        u_in = haar_unitary(2, 21).matrix
        v_in = haar_unitary(2, 22).matrix
        frame = np.kron(u_in, v_in)
        rho = DensityMatrix(
            frame @ bell_mixture(weights).matrix @ frame.conj().T,
            PartyStructure.pair(2),
        )
        u, v, p = bell_canonical_form(rho)
        assert sorted(p) == pytest.approx(sorted(weights), abs=1e-9)
        out_frame = np.kron(u.matrix, v.matrix)
        rebuilt = out_frame @ bell_mixture(p).matrix @ out_frame.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-9

    def test_rotated_pure_bell_state_is_recovered(self):
        u_in = haar_unitary(2, 31).matrix
        frame = np.kron(u_in, np.eye(2))
        amp = frame @ bell_state(1).amplitudes
        rho = two_qubit_state(amp).density()
        u, v, p = bell_canonical_form(rho)
        out_frame = np.kron(u.matrix, v.matrix)
        rebuilt = out_frame @ bell_mixture(p).matrix @ out_frame.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-9
        assert max(p) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_biased_marginals(self):
        rho = two_qubit_state([0.8, 0, 0, 0.6]).density()
        with pytest.raises(ValueError, match="marginal"):
            bell_canonical_form(rho)


def reference_su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """The lift as it was before it took stacks: one rotation, Python floats."""
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
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / norm, y / norm, z / norm, w / norm
    return w * np.eye(2, dtype=complex) - 1j * (x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


REFERENCE_PAULI_PAIRS = tuple(np.kron(PAULI[i], PAULI[j]) for i in range(3) for j in range(3))


def reference_correlation_matrix(rho: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.trace(rho @ pair)) for pair in REFERENCE_PAULI_PAIRS]).reshape(3, 3)


def reference_bell_weights(t: np.ndarray) -> np.ndarray:
    t1, t2, t3 = t
    p = np.array([1 + t1 - t2 + t3, 1 + t1 + t2 - t3, 1 - t1 + t2 + t3, 1 - t1 - t2 - t3]) / 4
    if np.min(p) < -1e-9:
        raise ValueError("correlation diagonal is not realisable by a Bell mixture")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def reference_bell_canonical_form(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bell_canonical_form`` as it was before it ran on stacks: one
    state, a marginal ``DensityMatrix`` per party, nine traces, and the
    singular value decomposition only off the diagonal shortcut."""
    for party in rho.structure.labels:
        marginal = partial_trace(rho, [party]).matrix
        if np.max(np.abs(marginal - np.eye(2) / 2)) > 1e-9:
            raise ValueError(f"party {party} marginal is not maximally mixed")
    t = reference_correlation_matrix(rho.matrix)
    off = t - np.diag(np.diagonal(t))
    if np.max(np.abs(off)) <= 1e-11:
        return np.eye(2, dtype=complex), np.eye(2, dtype=complex), reference_bell_weights(np.diagonal(t))
    o1, s, o2t = np.linalg.svd(t)
    d1 = np.sign(np.linalg.det(o1))
    d2 = np.sign(np.linalg.det(o2t))
    r1 = o1 @ np.diag([1.0, 1.0, d1])
    r2 = o2t.T @ np.diag([1.0, 1.0, d2])
    diag = np.array([s[0], s[1], d1 * d2 * s[2]])
    u = reference_su2_from_rotation(r1)
    v = reference_su2_from_rotation(r2)
    return u, v, reference_bell_weights(diag)


def near_half_turn(rng: np.random.Generator, axis: int) -> np.ndarray:
    """A qubit unitary whose rotation is within 1e-3 of a half turn about
    coordinate axis ``axis``, so that its lift takes quaternion branch ``axis``."""
    direction = np.eye(3)[axis] + 1e-3 * rng.normal(size=3)
    return su2(direction / np.linalg.norm(direction), math.pi - 1e-3 * rng.random()).matrix


BELL_FORM_KINDS = ("rotated", "diagonal", "zero-weight", "near-half-turn")


def bell_form_output(rng: np.random.Generator, kind: str) -> np.ndarray:
    """One maximally disordered two-qubit state of a kind: Bell weights in
    random local frames, with no frame, with zero weights, or in frames
    near a half turn about a random coordinate axis."""
    weights = rng.dirichlet(np.ones(4))
    if kind == "zero-weight":
        weights = weights * (rng.random(4) < 0.5)
        weights = weights / weights.sum() if weights.sum() > 0 else np.eye(4)[rng.integers(4)]
    core = bell_mixture(weights).matrix
    if kind == "diagonal":
        return core
    if kind == "near-half-turn":
        frame = np.kron(near_half_turn(rng, rng.integers(3)), near_half_turn(rng, rng.integers(3)))
    else:
        frame = np.kron(haar_unitary(2, rng).matrix, haar_unitary(2, rng).matrix)
    rho = frame @ core @ frame.conj().T
    return (rho + rho.conj().T) / 2


@st.composite
def bell_form_stacks(draw) -> np.ndarray:
    """``input_sizes + (4, 4)`` stacks over one to three input axes whose
    outputs mix every kind of ``bell_form_output``."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outputs = [bell_form_output(rng, BELL_FORM_KINDS[draw(st.integers(0, 3))])
               for _ in range(math.prod(sizes))]
    return np.reshape(outputs, sizes + (4, 4))


def assert_bell_forms_match_the_reference(stack: np.ndarray) -> None:
    u, v, weights = synthesis._bell_forms(stack, ("A", "B"))
    for key in np.ndindex(*stack.shape[:-2]):
        want = reference_bell_canonical_form(DensityMatrix(stack[key], PartyStructure.pair(2)))
        for got, ref in zip((u[key], v[key], weights[key]), want, strict=True):
            assert np.array_equal(got, ref), key


class TestBellFormsMatchTheReference:
    @settings(max_examples=100, deadline=None)
    @given(stack=bell_form_stacks())
    def test_bit_for_bit_per_matrix(self, stack):
        assert_bell_forms_match_the_reference(stack)

    def test_every_kind_and_quaternion_branch_is_reached(self, monkeypatch):
        """One fixed stack of every kind takes both the diagonal shortcut and
        all four quaternion branches of the reference lift."""
        rng = np.random.default_rng(2027)
        stack = np.reshape([bell_form_output(rng, kind) for kind in BELL_FORM_KINDS * 16],
                           (4, 16, 4, 4))
        branches = []
        lift = reference_su2_from_rotation

        def spy(rot):
            branches.append(quaternion_branch(rot))
            return lift(rot)

        monkeypatch.setitem(globals(), "reference_su2_from_rotation", spy)
        assert_bell_forms_match_the_reference(stack)
        assert set(branches) == {0, 1, 2, 3}
        assert len(branches) < 2 * stack[..., 0, 0].size  # the diagonal outputs take no lift

    def test_first_biased_marginal_is_named(self):
        """Of a stack, the first output with a biased marginal in input order
        is refused, naming the first party at fault there."""
        stack = np.array([bell_state(0).density().matrix] * 3)
        stack[1] = np.kron(np.eye(2) / 2, np.diag([0.75, 0.25]))
        stack[2] = np.kron(np.diag([0.75, 0.25]), np.eye(2) / 2)
        with pytest.raises(ValueError, match="party Bob marginal is not maximally mixed"):
            synthesis._bell_forms(stack, ("Alice", "Bob"))


def reference_mixture_align(families):
    """``mixture_align`` as it was before the schedule became arrays: per-input
    (probability, component) lists, a ``searchsorted`` per input and
    interval, and the (weight, {input: component}) intervals it returned."""
    cums = {}
    for key, family in families.items():
        probs = np.array([p for p, _ in family], dtype=float)
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
    return tuple(intervals)


def as_families(probabilities: np.ndarray) -> dict:
    """An ``input_sizes + (K,)`` stack as per-input (probability, component) lists."""
    return {
        key: [(float(p), i) for i, p in enumerate(probabilities[key])]
        for key in np.ndindex(*probabilities.shape[:-1])
    }


def assert_schedule_matches_the_reference(schedule: MixtureSchedule, probabilities) -> None:
    probabilities = np.asarray(probabilities, dtype=float)
    intervals = reference_mixture_align(as_families(probabilities))
    sizes = probabilities.shape[:-1]
    assert np.array_equal(schedule.weights, [w for w, _ in intervals])
    assignment = [[a[key] for key in np.ndindex(*sizes)] for _, a in intervals]
    assert np.array_equal(schedule.assignment, np.reshape(assignment, (len(intervals),) + sizes))
    assert np.array_equal(schedule.probabilities, probabilities)


@st.composite
def probability_stacks(draw) -> np.ndarray:
    """``input_sizes + (K,)`` probability stacks over one or two input axes:
    rows that are generic, hold zeros or repeated entries, or repeat one row
    with each entry moved a few ulps, which puts breakpoints within 1e-15
    of each other."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = rng.dirichlet(np.ones(k))
    kinds = [
        lambda: rng.dirichlet(np.ones(k)),
        lambda: rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.6),
        lambda: np.full(k, 1 / k),
        lambda: np.eye(k)[rng.integers(k)],
        lambda: shared * (1 + np.finfo(float).eps * rng.integers(-4, 5, size=k)),
    ]
    rows = [kinds[draw(st.integers(0, len(kinds) - 1))]() for _ in range(math.prod(sizes))]
    # a row of zeros after masking becomes one certain component
    rows = [row / row.sum() if row.sum() > 0 else np.eye(k)[0] for row in rows]
    return np.reshape(rows, sizes + (k,))


class TestMixtureAlign:
    def test_three_against_two_components(self):
        schedule = mixture_align([[0.3, 0.2, 0.5], [0.5, 0.5, 0.0]])
        assert schedule.weights == pytest.approx((0.3, 0.2, 0.5), abs=1e-12)
        assert schedule.assignment[:, 0].tolist() == [0, 1, 2]
        assert schedule.assignment[:, 1].tolist() == [0, 0, 1]

    def test_interval_count_is_bounded_by_breakpoints(self):
        families = [[0.25, 0.25, 0.25, 0.25], [0.4, 0.6], [0.1, 0.2, 0.7]]
        schedule = mixture_align([row + [0.0] * (4 - len(row)) for row in families])
        bound = 1 + sum(len(f) - 1 for f in families)
        assert len(schedule.weights) <= bound

    def test_zero_weight_components_are_skipped(self):
        schedule = mixture_align([[0.5, 0.0, 0.5]])
        assert len(schedule.weights) == 2
        assert schedule.assignment[:, 0].tolist() == [0, 2]

    def test_aggregation_validation_rejects_bad_schedules(self):
        message = "interval aggregation for input (0,) component 0 gives 1.0, expected 0.5"
        with pytest.raises(ValueError, match=re.escape(message)):
            MixtureSchedule(weights=[0.5, 0.5], assignment=[[0], [0]], probabilities=[[0.5, 0.5]])

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError):
            mixture_align([[0.5, 0.4]])

    def test_fields_are_read_only_arrays(self):
        schedule = mixture_align([[0.3, 0.7], [0.6, 0.4]])
        assert schedule.weights.shape == (3,) and schedule.assignment.shape == (3, 2)
        assert schedule.pure_states is None
        built = mixed_disordered_strategy(load_box(FIXTURES / "mixed_disordered_rotated.json"))
        for array in (schedule.weights, schedule.assignment, schedule.probabilities, built.pure_states):
            assert not array.flags.writeable

    def test_breakpoints_chained_within_the_merge_gap(self):
        """Breakpoints 4e-16 apart in a chain merge until 1e-15 has built up
        from the last kept one, which a test of neighbouring gaps would not."""
        steps = [0.5 + 4e-16 * i for i in range(4)]
        rows = [[s, 1 - s] for s in steps]
        schedule = mixture_align(rows)
        assert_schedule_matches_the_reference(schedule, rows)
        assert len(schedule.weights) == 3

    @settings(max_examples=200, deadline=None)
    @given(probabilities=probability_stacks())
    def test_matches_the_per_input_reference(self, probabilities):
        assert_schedule_matches_the_reference(mixture_align(probabilities), probabilities)

    def test_a_negative_entry_within_tolerance_aligns_as_zero(self):
        """An entry of -1e-13 puts its breakpoint below the one before it;
        aligned as given, the stack made 6 intervals, one of width 1e-13
        drawing the negative entry.  It is read as the 0 it stands for: the
        schedule is the clipped stack's 4 intervals, and stores that stack."""
        probabilities = [[0.3, -1e-13, 0.7], [0.5, 0.25, 0.25]]
        assert np.diff(np.cumsum(probabilities[0])).min() < 0
        clipped = np.clip(probabilities, 0.0, None)
        schedule, want = mixture_align(probabilities), mixture_align(clipped)
        for name in ("weights", "assignment", "probabilities"):
            assert np.array_equal(getattr(schedule, name), getattr(want, name)), name
        assert schedule.assignment.tolist() == [[0, 0], [2, 0], [2, 1], [2, 2]]


class TestMixedDisordered:
    def family(self) -> CQBox:
        structure = PartyStructure.pair(2)
        u = haar_unitary(2, 91).matrix
        v = haar_unitary(2, 92).matrix
        frame = np.kron(u, v)
        rotated = frame @ bell_mixture([0.5, 0.2, 0.2, 0.1]).matrix @ frame.conj().T
        outputs = {
            (0, 0): DensityMatrix(np.eye(4) / 4, structure),
            (0, 1): bell_mixture([0.5, 0.5, 0.0, 0.0]),
            (1, 0): bell_mixture([0.7, 0.0, 0.0, 0.3]),
            (1, 1): DensityMatrix(rotated, structure),
        }
        return CQBox.from_outputs((2, 2), structure, outputs)

    def test_interval_mixture_recombines_to_the_box(self):
        box = self.family()
        schedule = mixed_disordered_strategy(box)
        parts = [
            (w, simulate(strategy, samples=3, seed=10 + i))
            for i, (w, strategy) in enumerate(zip(schedule.weights, schedule.strategies))
        ]
        mixed = reference_mix_boxes(parts)
        assert cq_box_distance(mixed, box) < 1e-9
        assert np.array_equal(simulate(schedule, samples=3, seed=10).matrices, mixed.matrices)

    def test_interval_count_bound(self):
        box = self.family()
        schedule = mixed_disordered_strategy(box)
        nonzero = np.sum(schedule.probabilities > 1e-15, axis=-1)
        assert len(schedule.weights) <= 1 + np.sum(nonzero - 1)

    def test_pure_states_decompose_each_output(self):
        box = self.family()
        schedule = mixed_disordered_strategy(box)
        assert schedule.pure_states.shape == (2, 2, 4, 4)
        for key in box.inputs:
            mat = np.zeros((4, 4), dtype=complex)
            for p, amp in zip(schedule.probabilities[key], schedule.pure_states[key], strict=True):
                mat += p * np.outer(amp, amp.conj())
            assert np.max(np.abs(mat - box.output(key).matrix)) < 1e-9

    def test_every_interval_strategy_is_maximally_entangled(self):
        box = self.family()
        schedule = mixed_disordered_strategy(box)
        for strategy, assignment in zip(schedule.strategies, schedule.assignment, strict=True):
            for key, states in sample_states(strategy, samples=2, seed=0).items():
                want = two_qubit_state(schedule.pure_states[key][assignment[key]])
                for state in states:
                    assert fidelity(state, want) == pytest.approx(1.0, abs=1e-9)

    def test_mixture_is_non_signalling(self):
        assert cq_no_signalling(self.family(), tol=1e-11).passed

    def test_a_schedule_without_strategies_simulates_to_a_refusal(self):
        with pytest.raises(ValueError, match="mixture requires at least one component"):
            simulate(mixture_align([[0.5, 0.5]]))

    def test_interval_weights_must_form_a_distribution(self):
        """Weights 1.5 and -0.5 on the one component aggregate to its
        probability 1, and are still refused when the schedule is built."""
        with pytest.raises(ValueError, match="mixture weights must form a probability distribution"):
            MixtureSchedule(weights=[1.5, -0.5], assignment=[[0], [0]], probabilities=[[1.0]])

    def test_one_strategy_per_interval(self):
        schedule = mixed_disordered_strategy(self.family())
        with pytest.raises(ValueError, match="6 interval strategies for 7 intervals"):
            replace(schedule, strategies=schedule.strategies[:-1])

    @pytest.mark.parametrize(
        "targets, message",
        [
            (np.broadcast_to(np.eye(2), (2, 3, 2, 2)),
             "interval 1 strategy has input_sizes (2, 3), the schedule has (2, 2)"),
            (np.broadcast_to(np.eye(3), (2, 2, 3, 3)),
             "interval 1 strategy has party dims (3, 3), the schedule has (2, 2)"),
        ],
    )
    def test_interval_strategies_must_fit_the_schedule(self, targets, message):
        schedule = mixed_disordered_strategy(self.family())
        strategies = (schedule.strategies[0], max_entangled_strategy(targets), *schedule.strategies[2:])
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(schedule, strategies=strategies)


def reference_mixed_disordered_strategy(box: CQBox):
    """``mixed_disordered_strategy`` as it was before the Bell-form locals
    became one stack and the schedule became arrays: a dict of locals, the
    per-input reference alignment, and each interval's targets formed again
    from the locals, input by input.  Returns the (weight, assignment)
    intervals, the per-input families and pure states, and the strategies."""
    locals_uv, families = {}, {}
    for key in box.inputs:
        u, v, weights = bell_canonical_form(box.output(key))
        locals_uv[key] = (u.matrix, v.matrix)
        families[key] = tuple((float(w), i) for i, w in enumerate(weights))
    phi = phi_plus(2)
    pure_states = {
        key: tuple(
            StateVector((u @ local @ v.T @ phi.amplitudes.reshape(2, 2)).reshape(-1), phi.structure)
            for local in synthesis._BELL_LOCALS
        )
        for key, (u, v) in locals_uv.items()
    }
    intervals = reference_mixture_align(families)
    strategies = []
    for _, assignment in intervals:
        targets = np.reshape([
            locals_uv[key][0] @ synthesis._BELL_LOCALS[assignment[key]] @ locals_uv[key][1].T
            for key in box.inputs
        ], box.input_sizes + (2, 2))
        strategies.append(max_entangled_strategy(targets))
    return intervals, families, pure_states, strategies


@st.composite
def disordered_families(draw) -> CQBox:
    """Maximally disordered two-qubit families over 1-3 inputs a side:
    per input, random locals around Bell weights that are generic, or
    hold equal or zero entries."""
    inputs = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [
        lambda: rng.dirichlet(np.ones(4)),
        lambda: rng.permutation([0.5, 0.5, 0.0, 0.0]),
        lambda: np.full(4, 0.25),
        lambda: rng.permutation([0.4, 0.4, 0.2, 0.0]),
        lambda: np.eye(4)[rng.integers(4)],
    ]
    mats = np.zeros(inputs + (4, 4), dtype=complex)
    for key in np.ndindex(*inputs):
        weights = kinds[draw(st.integers(0, len(kinds) - 1))]()
        frame = np.kron(haar_unitary(2, rng).matrix, haar_unitary(2, rng).matrix)
        mats[key] = frame @ bell_mixture(weights).matrix @ frame.conj().T
    return CQBox(inputs, PartyStructure.pair(2), mats)


@st.composite
def shared_weight_families(draw) -> CQBox:
    """Families whose inputs share one set of Bell weights under different
    random frames, stored as matrices: each input's Bell form reads the
    weights back a few ulps apart, so breakpoints lie within the 1e-15
    merge gap of each other."""
    inputs = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = bell_mixture(rng.dirichlet(np.ones(4)) * 0.8 + 0.05).matrix
    mats = np.zeros(inputs + (4, 4), dtype=complex)
    for key in np.ndindex(*inputs):
        frame = np.kron(haar_unitary(2, rng).matrix, haar_unitary(2, rng).matrix)
        rho = frame @ core @ frame.conj().T
        mats[key] = (rho + rho.conj().T) / 2
    return CQBox(inputs, PartyStructure.pair(2), mats)


def assert_mixed_disordered_matches_the_reference(box: CQBox) -> None:
    schedule = mixed_disordered_strategy(box)
    intervals, families, pure_states, strategies = reference_mixed_disordered_strategy(box)
    probabilities = np.reshape([[p for p, _ in families[key]] for key in box.inputs],
                               box.input_sizes + (4,))
    assert_schedule_matches_the_reference(schedule, probabilities)
    assert len(schedule.strategies) == len(strategies)
    for strategy, want in zip(schedule.strategies, strategies):
        assert np.array_equal(strategy.ccbox.relabel, want.ccbox.relabel)
    for key in box.inputs:
        want = [state.amplitudes for state in pure_states[key]]
        assert np.array_equal(schedule.pure_states[key], want)


@settings(max_examples=40, deadline=None)
@given(box=disordered_families())
def test_mixed_disordered_matches_the_per_input_reference(box):
    assert_mixed_disordered_matches_the_reference(box)


@settings(max_examples=40, deadline=None)
@given(box=shared_weight_families())
def test_shared_weight_families_match_the_per_input_reference(box):
    assert_mixed_disordered_matches_the_reference(box)


@settings(max_examples=15, deadline=None)
@given(box=st.one_of(disordered_families(), shared_weight_families()),
       seed=st.integers(0, 2**16), samples=st.integers(1, 5))
def test_simulated_mixture_matches_the_per_interval_mix(box, seed, samples):
    """``simulate`` on the schedule gives the bits of the per-interval path
    it replaced: interval i simulated on seed + i, and ``reference_mix_boxes``
    over the reference's interval weights, as Python floats."""
    intervals, _, _, strategies = reference_mixed_disordered_strategy(box)
    mixed = reference_mix_boxes([
        (weight, simulate(strategy, samples=samples, seed=seed + i))
        for i, ((weight, _), strategy) in enumerate(zip(intervals, strategies))
    ])
    simulated = simulate(mixed_disordered_strategy(box), samples=samples, seed=seed)
    assert np.array_equal(simulated.matrices, mixed.matrices)


IDENTITY_TABLE = np.broadcast_to(np.eye(2), (2, 2, 2, 2))  # per input and output of pr_box


class TestStrategyValidation:
    def test_table_count_must_match(self):
        with pytest.raises(ValueError, match="expected 2 unitary tables, got 1"):
            Strategy(ccbox=pr_box(), shared=bell_state(0), unitaries=(IDENTITY_TABLE,))

    def test_shared_state_must_be_pure(self):
        with pytest.raises(TypeError, match="StateVector"):
            Strategy(
                ccbox=pr_box(), shared=bell_state(0).density(), unitaries=(IDENTITY_TABLE,) * 2
            )

    @pytest.mark.parametrize(
        "shape, axis", [((3, 2, 2, 2), "inputs"), ((2, 3, 2, 2), "outputs"), ((2, 2, 3, 3), "dim")]
    )
    def test_table_shape_must_match_the_box_and_state(self, shape, axis):
        bad = np.zeros(shape, dtype=complex)
        for unitaries, label in (((bad, IDENTITY_TABLE), "A"), ((IDENTITY_TABLE, bad), "B")):
            message = f"party {label}'s unitary table must be (2, 2, 2, 2), got {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                Strategy(pr_box(), bell_state(0), unitaries)

    def test_finite_tables_are_required(self):
        with pytest.raises(ValueError, match=re.escape("party B's unitary table must be")):
            Strategy(pr_box(), bell_state(0), (IDENTITY_TABLE, None))

    def test_haar_dressing_shapes(self):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
        Strategy(coupling, phi_plus(2), (None, np.zeros((3, 2, 2))))
        message = "party B's unitary table must be (3, 2, 2), got (2, 2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            Strategy(coupling, phi_plus(2), (None, np.zeros((2, 2, 2))))

    @pytest.mark.parametrize(
        "state, label",
        [(phi_plus(2), "A"), (StateVector(np.eye(6, dtype=complex)[0], PartyStructure.pair(3, 2)), "B")],
    )
    def test_haar_coupling_dim_must_match_the_shared_state(self, state, label):
        """A mismatch used to pass here and fail in ``simulate`` with numpy's
        reshape error, naming no party."""
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(3), (2, 2, 3, 3)))
        message = f"party {label}'s dimension 2 is not the coupling's 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            Strategy(coupling, state, (None, None))

    def test_tables_are_read_only_copies(self):
        table = np.array(IDENTITY_TABLE)
        strategy = Strategy(pr_box(), bell_state(0), (table, table))
        table[0, 0] = 0
        assert np.array_equal(strategy.unitaries[0], IDENTITY_TABLE)
        assert not strategy.unitaries[0].flags.writeable

    def test_sample_states_requires_a_coupling_sampler(self):
        strategy = bit_flip_strategy()
        with pytest.raises(TypeError):
            sample_states(strategy, samples=3)


QUTRIT_BOX = unitary_family_box(np.broadcast_to(np.eye(3), (2, 2, 3, 3)))
UNEQUAL_BOX = CQBox.from_outputs(
    (1, 1), PartyStructure.pair(2, 3), {(0, 0): np.eye(6, dtype=complex)[0]}
)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Strategy(pr_box(), w_state(), (IDENTITY_TABLE,) * 2),
         "shared state party count does not match the classical box"),
        (lambda: irrational_phase_strategy(0.3, 1), "output count must be at least 2, got 1"),
        (lambda: nonmax_pure_strategy([1.0], {}), "at least two levels required"),
        (lambda: nonmax_pure_strategy([0.6, 0.6], {}), "p must be strictly positive probabilities"),
        (lambda: nonmax_pure_strategy([1.0, 0.0], {}), "p must be strictly positive probabilities"),
        (lambda: nonmax_pure_strategy([math.nan, 0.2], {}), "p must be strictly positive probabilities"),
        (lambda: nonmax_pure_strategy([math.inf, -math.inf], {}), "p must be strictly positive"),
        (lambda: nonmax_pure_strategy([0.7, 0.3], {}, local_b=np.eye(2)),
         "local_b must have shape (2, 2, 2), got (2, 2)"),
        (lambda: general_pure_strategy(w_phase_box(PhaseAssignment(*np.zeros((3, 2, 2, 2))))),
         "construction applies to two-party families"),
        (lambda: general_pure_strategy(UNEQUAL_BOX), "construction requires equal local dimensions"),
        (lambda: synthesis._bell_weights_from_diagonal(np.ones(3)),
         "correlation diagonal is not realisable by a Bell mixture"),
        (lambda: bell_canonical_form(phi_plus(3).density()), "two qubits required"),
        (lambda: mixed_disordered_strategy(QUTRIT_BOX), "two-qubit boxes required"),
        (lambda: mixture_align([[-0.2, 1.2]]),
         "component probabilities for input (0,) are invalid: probability -0.2 is negative"),
        (lambda: mixture_align([[1.0, 0.0], [math.nan, 1.0]]),
         "component probabilities for input (1,) are invalid: probabilities sum to nan, not a finite"),
        (lambda: mixture_align([[math.inf, -math.inf]]),
         "component probabilities for input (0,) are invalid: probabilities sum to nan"),
    ],
)
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert message in str(raised.value)


@pytest.mark.parametrize(
    "key, amplitudes, message",
    [
        # Bob's Schmidt coefficients change with x, so row x = 1 is no unitary dressing
        ((1, 0), [0.8, 0, 0, 0.6], "family structure broken: row dressing at x=1 is not unitary"),
        # the levels of weight 0.7 and 0.3 swap sides, mixing the two Schmidt blocks
        ((1, 1), [0, math.sqrt(0.7), math.sqrt(0.3), 0],
         "family structure broken: coupling part at input (1, 1) mixes Schmidt blocks"),
    ],
)
def test_general_pure_names_a_broken_family_structure(monkeypatch, key, amplitudes, message):
    """Past a no-signalling check made to pass, a family that breaks the
    Schmidt structure is refused where it breaks."""
    passing = NoSignallingReport(passed=True, worst_violation=0.0, witnesses=(), tolerance=1e-9)
    monkeypatch.setattr(synthesis, "cq_no_signalling", lambda box, tol: passing)
    states = {k: two_qubit_state([math.sqrt(0.7), 0, 0, math.sqrt(0.3)]) for k in np.ndindex(2, 2)}
    states[key] = two_qubit_state(amplitudes)
    with pytest.raises(ValueError, match=re.escape(message)):
        general_pure_strategy(CQBox.from_pure((2, 2), states))


def reference_draw(coupling: HaarCouplingBox, rng: np.random.Generator) -> np.ndarray:
    """One block-diagonal base drawn block by block, one Haar unitary each."""
    v = np.zeros((coupling.dim, coupling.dim), dtype=complex)
    offset = 0
    for d in coupling.block_dims:
        v[offset : offset + d, offset : offset + d] = haar_unitary(d, rng).matrix
        offset += d
    return v


def reference_dressed(strategy: Strategy, j: int, x: int, out: np.ndarray) -> np.ndarray:
    """Party j's unitary at own input x for a Haar coupling output (or a
    stack of them): dressed, where the party has a dressing."""
    dressing = strategy.unitaries[j]
    return out if dressing is None else dressing[x] @ out


def reference_pair(coupling: HaarCouplingBox, key: tuple[int, ...], base: np.ndarray) -> tuple:
    """(Alice unitary, Bob unitary) at one input tuple for a base draw or a
    stack of them: relabel[key] @ conj(V) and V itself, each rotated into
    its frame F as F @ U @ F^+ where the coupling is framed."""
    pair = (coupling.relabel[key] @ base.conj(), base)
    frames = (getattr(coupling, "frame_a", None), getattr(coupling, "frame_b", None))
    return tuple(u if f is None else f @ u @ f.conj().T for u, f in zip(pair, frames))


def reference_sample_vectors(strategy: Strategy, samples: int, seed: int) -> dict:
    """The per-sample loop the batched sampler replaced: one base draw,
    one dressing of each party's output and one local application per
    sample and input, as a ``(samples, D)`` array per input."""
    coupling = strategy.ccbox
    rng = np.random.default_rng(seed)
    bases = [coupling.draw_base(rng) for _ in range(samples)]
    dims = strategy.shared.structure.dims
    result = {}
    for key in np.ndindex(*coupling.input_sizes):
        vecs = []
        for base in bases:
            pair = reference_pair(coupling, key, base)
            mats = [reference_dressed(strategy, j, key[j], u) for j, u in enumerate(pair)]
            t = strategy.shared.amplitudes.reshape(dims)
            for axis, mat in enumerate(mats):
                t = apply_axis(t, np.asarray(mat, dtype=complex), axis)
            vecs.append(t.reshape(-1))
        result[key] = np.array(vecs)
    return result


def reference_mixtures(strategy: Strategy, samples: int, seed: int) -> dict:
    mixtures = {}
    for key, vecs in reference_sample_vectors(strategy, samples, seed).items():
        mat = np.zeros((vecs.shape[1],) * 2, dtype=complex)
        for vec in vecs:
            mat += np.outer(vec, vec.conj())
        mixtures[key] = mat / samples
    return mixtures


def block_family() -> CQBox:
    """Pure family over Schmidt coefficients sqrt(0.35, 0.35, 0.2, 0.1),
    whose coupling part at (1, 1) is block-diagonal over blocks (2, 1, 1)."""
    d = np.sqrt([0.35, 0.35, 0.2, 0.1])
    w = np.zeros((4, 4), dtype=complex)
    w[:2, :2] = haar_unitary(2, 75).matrix
    w[2, 2], w[3, 3] = np.exp(0.4j), np.exp(-1.1j)
    dress_a = {0: np.eye(4, dtype=complex), 1: haar_unitary(4, 76).matrix}
    dress_b = {0: np.eye(4, dtype=complex), 1: haar_unitary(4, 77).matrix}
    states = {}
    for x, y in itertools.product(range(2), range(2)):
        core = w if (x, y) == (1, 1) else np.eye(4, dtype=complex)
        mat = dress_a[x] @ core @ np.diag(d) @ dress_b[y].T
        states[(x, y)] = StateVector(mat.reshape(-1), PartyStructure.pair(4))
    return CQBox.from_pure((2, 2), states)


def sampled_strategies() -> list[tuple[str, Strategy]]:
    cases = []
    for n in range(2, 9):
        rng = np.random.default_rng(40 + n)
        targets = np.reshape([haar_unitary(n, rng).matrix for _ in range(4)], (2, 2, n, n))
        cases.append((f"max-entangled n={n}", max_entangled_strategy(targets)))
    two_block = load_box(FIXTURES / "two_block_family.json")
    cases.append(("general-pure two_block_family", general_pure_strategy(two_block)))
    cases.append(("general-pure blocks (2, 1, 1)", general_pure_strategy(block_family())))
    strategies = mixed_disordered_strategy(TestMixedDisordered().family()).strategies
    cases.extend((f"mixed-disordered interval {i}", s) for i, s in enumerate(strategies))
    return cases


SAMPLED = sampled_strategies()


class TestBatchedSamplerMatchesReference:
    @pytest.mark.parametrize("dim, blocks", [(3, ()), (4, (2, 1, 1)), (4, (2, 2))])
    def test_stacked_draws_equal_sequential_draws(self, dim, blocks):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(dim), (2, 2, dim, dim)), blocks)
        rng = np.random.default_rng(12)
        sequential = np.array([coupling.draw_base(rng) for _ in range(50)])
        rng = np.random.default_rng(12)
        assert np.array_equal(sequential, [reference_draw(coupling, rng) for _ in range(50)])
        rng = np.random.default_rng(12)
        stacked = np.concatenate([coupling.draw_base(rng, (20,)), coupling.draw_base(rng, 30)])
        assert stacked.shape == (50, dim, dim)
        assert np.array_equal(stacked, sequential)
        assert coupling.draw_base(np.random.default_rng(3), (2, 5)).shape == (2, 5, dim, dim)

    @pytest.mark.parametrize("name, strategy", SAMPLED, ids=[name for name, _ in SAMPLED])
    def test_sample_states_match_the_loop(self, name, strategy):
        reference = reference_sample_vectors(strategy, 40, 5)
        batched = sample_states(strategy, samples=40, seed=5)
        assert batched.keys() == reference.keys()
        for key, states in batched.items():
            amps = np.array([state.amplitudes for state in states])
            assert amps.shape == reference[key].shape
            assert np.max(np.abs(amps - reference[key])) <= 1e-13

    @pytest.mark.parametrize("name, strategy", SAMPLED, ids=[name for name, _ in SAMPLED])
    def test_simulate_matches_the_loop(self, name, strategy):
        reference = reference_mixtures(strategy, 200, 9)
        box = simulate(strategy, samples=200, seed=9)
        for key in box.inputs:
            assert np.max(np.abs(box.output(key).matrix - reference[key])) <= 1e-12

    def test_chunks_cross_boundaries(self, monkeypatch):
        _, strategy = SAMPLED[1]  # max-entangled n = 3, joint dimension 9
        whole = simulate(strategy, samples=23, seed=4)
        states = sample_states(strategy, samples=23, seed=4)
        monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 9 * 5)  # chunks of 5, 5, 5, 5, 3
        chunked = simulate(strategy, samples=23, seed=4)
        reference = reference_mixtures(strategy, 23, 4)
        for key in whole.inputs:
            assert np.max(np.abs(chunked.output(key).matrix - whole.output(key).matrix)) <= 1e-13
            assert np.max(np.abs(chunked.output(key).matrix - reference[key])) <= 1e-12
        for key, chunked_states in sample_states(strategy, samples=23, seed=4).items():
            assert [s.amplitudes.tobytes() for s in chunked_states] == [
                s.amplitudes.tobytes() for s in states[key]
            ]
        monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 1)  # one sample per chunk
        single = simulate(strategy, samples=23, seed=4)
        for key in whole.inputs:
            assert np.max(np.abs(single.output(key).matrix - reference[key])) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 2), (2, 0, 2, 2)])
    def test_targets_need_a_positive_input_axis(self, shape):
        """A stack with no input axis, or an empty one, is refused when the
        coupling is built."""
        message = f"relabel shape {shape} is not input_sizes + (dim, dim), all positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            max_entangled_strategy(np.zeros(shape))

    def test_non_unitary_dressing_fails_the_norm_check(self):
        _, good = SAMPLED[0]
        doubling = 2 * np.broadcast_to(np.eye(2), (2, 2, 2))  # per own input
        strategy = Strategy(ccbox=good.ccbox, shared=good.shared, unitaries=(doubling, None))
        for run in (sample_states, simulate):
            with pytest.raises(ValueError, match="norm .* deviates from 1"):
                run(strategy, samples=3)

    @pytest.mark.parametrize("parties", [1, 3])
    def test_haar_coupling_drives_two_parties(self, parties):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(2), (2,) * parties + (2, 2)))
        amplitudes = np.eye(2**parties, 1).reshape(-1)
        shared = StateVector(amplitudes, PartyStructure(tuple(zip("ABC", (2,) * parties))))
        with pytest.raises(ValueError, match=f"a Haar coupling drives two parties, got {parties}"):
            Strategy(coupling, shared, (None,) * parties)

    def test_sample_count_must_be_positive(self):
        _, strategy = SAMPLED[0]
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            simulate(strategy, samples=0)


@st.composite
def non_signalling_strategies(draw) -> Strategy:
    """A random non-signalling classical box, a convex mixture of product
    boxes and the modular box, driving random output-conditioned local
    unitaries on a random shared pure state."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = draw(st.integers(1, 3))
    weights = rng.dirichlet(np.ones(components + 1))
    table = weights[0] * mod_box(n, parties=k).table
    for w in weights[1:]:
        product = np.ones((2,) * k + (n,) * k)
        for j in range(k):
            cond = rng.random((2, n))
            shape = [1] * (2 * k)
            shape[j], shape[k + j] = 2, n
            product = product * (cond / cond.sum(axis=1, keepdims=True)).reshape(shape)
        table = table + w * product
    ccbox = CCBox((2,) * k, (n,) * k, table)
    structure = PartyStructure(tuple(zip("ABC", dims)))
    z = rng.standard_normal(structure.total_dim) + 1j * rng.standard_normal(structure.total_dim)
    shared = StateVector(z / np.linalg.norm(z), structure)
    unitaries = tuple(
        np.array([[haar_unitary(d, rng).matrix for _ in range(n)] for _ in range(2)]) for d in dims
    )
    return Strategy(ccbox=ccbox, shared=shared, unitaries=unitaries)


@settings(max_examples=60, deadline=None)
@given(strategy=non_signalling_strategies())
def test_core_lemma_non_signalling_box_gives_non_signalling_cq_box(strategy):
    assert cc_no_signalling(strategy.ccbox).passed
    report = cq_no_signalling(simulate(strategy))
    assert report.passed, report.worst_violation


def reference_finite_simulate(strategy: Strategy) -> np.ndarray:
    """The per-entry loop the stacked finite kernel replaced: per positive
    table entry, one lookup in each party's table, one local application
    per party and one weighted outer product, summed in support order."""
    table_box = strategy.ccbox
    dims = strategy.shared.structure.dims
    d = strategy.shared.structure.total_dim
    mats = np.zeros(tuple(table_box.input_sizes) + (d, d), dtype=complex)
    for key in np.ndindex(*table_box.input_sizes):
        block = table_box.table[key]
        for out_key in np.argwhere(block > 0):
            t = strategy.shared.amplitudes.reshape(dims)
            for j in range(len(dims)):
                mat = strategy.unitaries[j][key[j], int(out_key[j])]
                t = apply_axis(t, mat, j)
            vec = t.reshape(-1)
            mats[key] += block[tuple(out_key)] * np.outer(vec, vec.conj())
    return mats


def finite_strategies() -> list[tuple[str, Strategy]]:
    q_a, q_b = haar_unitary(3, 41).matrix, haar_unitary(3, 42).matrix
    phases = {(1, 1, 0): Fraction(1, 4), (1, 1, 2): Fraction(1, 3), (0, 1, 1): Fraction(1, 6)}
    cases = [
        ("bit-flip", bit_flip_strategy()),
        ("sign-flip", sign_flip_strategy(0.6, 0.8)),
        ("rational-phase 2/3", rational_phase_strategy(2, 3, 0.8, 0.6)),
        ("rational-phase 3/7", rational_phase_strategy(3, 7, 1 / math.sqrt(2), 1 / math.sqrt(2))),
        ("irrational-phase", irrational_phase_strategy(math.sqrt(2) - 1, 16, 0.6, 0.8)[0]),
        ("eight-output", eight_output_strategy()),
        ("nonmax-pure", nonmax_pure_strategy([0.5, 0.3, 0.2], phases)),
        (
            "nonmax-pure dressed",
            nonmax_pure_strategy(
                [0.5, 0.3, 0.2],
                phases,
                np.array([np.eye(3), q_a]),
                np.array([np.eye(3), q_b]),
            ),
        ),
        ("nonmax-pure local only", nonmax_pure_strategy([0.7, 0.3], {(1, 0, 1): Fraction(1, 3)})),
        ("ghz-phase 1/2", ghz_phase_strategy(1, 2)),
        ("ghz-phase 2/7", ghz_phase_strategy(2, 7)),
    ]
    for n, k in [(2, 1), (3, 2), (4, 3), (5, 2), (5, 5)]:
        spec = best_fidelity(n, k).certificate
        cases.append((f"bound certificate n={n} k={k}", spec_to_strategy(spec, 0.8, 0.6)))
    return cases


FINITE = finite_strategies()


@st.composite
def finite_strategies_with_zeros(draw) -> Strategy:
    """A random (not necessarily non-signalling) table with zero entries,
    2-3 parties of local dimension 1-3, and a random unitary per party,
    input and output symbol."""
    k = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(k))
    inputs = tuple(draw(st.integers(1, 2)) for _ in range(k))
    outputs = tuple(draw(st.integers(1, 3)) for _ in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.random(inputs + (math.prod(outputs),))
    flat[rng.random(flat.shape) < 0.5] = 0.0
    flat[..., rng.integers(flat.shape[-1])] += 0.1  # every input keeps some support
    table = (flat / flat.sum(axis=-1, keepdims=True)).reshape(inputs + outputs)
    structure = PartyStructure(tuple(zip("ABC", dims)))
    z = rng.standard_normal(structure.total_dim) + 1j * rng.standard_normal(structure.total_dim)
    unitaries = tuple(
        np.array([[haar_unitary(d, rng).matrix for _ in range(n_out)] for _ in range(n_in)])
        for d, n_in, n_out in zip(dims, inputs, outputs)
    )
    return Strategy(
        ccbox=CCBox(inputs, outputs, table),
        shared=StateVector(z / np.linalg.norm(z), structure),
        unitaries=unitaries,
    )


class TestStackedFiniteMatchesReference:
    @pytest.mark.parametrize("name, strategy", FINITE, ids=[name for name, _ in FINITE])
    def test_constructions_match_the_loop(self, name, strategy):
        box = simulate(strategy)
        assert np.max(np.abs(box.matrices - reference_finite_simulate(strategy))) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(strategy=finite_strategies_with_zeros())
    def test_random_tables_match_the_loop(self, strategy):
        box = simulate(strategy)
        assert np.max(np.abs(box.matrices - reference_finite_simulate(strategy))) <= 1e-13

    def test_support_crosses_chunk_boundaries(self, monkeypatch):
        strategy = ghz_phase_strategy(2, 7)  # 49 support entries per input
        reference = reference_finite_simulate(strategy)
        for entries in (8 * 10, 1):  # chunks of 10 entries, then of one entry
            monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", entries)
            assert np.max(np.abs(simulate(strategy).matrices - reference)) <= 1e-13

    def test_non_unitary_table_fails_the_norm_check(self):
        strategy = Strategy(pr_box(), bell_state(0), (2 * IDENTITY_TABLE, IDENTITY_TABLE))
        with pytest.raises(ValueError, match="norm .* deviates from 1"):
            simulate(strategy)

    def test_norm_refusal_names_its_input(self):
        """Party A's unitary at x = 1, o = 1 scales one amplitude by 1.001;
        input (1, 0) is the first whose support reaches it."""
        table = np.array(IDENTITY_TABLE)
        table[1, 1] = [[0, 1.001], [1, 0]]
        message = (
            "output at input 1,0 is invalid: "
            "state vector norm 1.0005001249375232 deviates from 1 beyond tolerance"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(Strategy(pr_box(), bell_state(0), (table, IDENTITY_TABLE)))


@st.composite
def schmidt_dressed_families(draw) -> CQBox:
    """A random non-signalling pure family (U^x x V^y)(W^{x,y} x 1) sum_i d_i |ii>:
    Schmidt coefficients d in equal-coefficient blocks, input-local
    dressings U^x, V^y and block-diagonal couplings W^{x,y}."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(blocks)
    inputs = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # distinct block coefficients, at least 0.1 apart before normalising
    levels = np.sort(rng.permutation(np.arange(1, 9))[: len(blocks)])[::-1] * 0.1
    coeffs = np.repeat(levels, blocks)
    coeffs = coeffs / np.linalg.norm(coeffs)
    dress_a = [haar_unitary(n, rng).matrix for _ in range(inputs[0])]
    dress_b = [haar_unitary(n, rng).matrix for _ in range(inputs[1])]
    states = {}
    for x, y in itertools.product(range(inputs[0]), range(inputs[1])):
        w = np.zeros((n, n), dtype=complex)
        offset = 0
        for size in blocks:
            w[offset : offset + size, offset : offset + size] = haar_unitary(size, rng).matrix
            offset += size
        mat = dress_a[x] @ w @ np.diag(coeffs) @ dress_b[y].T
        states[(x, y)] = StateVector(mat.reshape(-1), PartyStructure.pair(n))
    return CQBox.from_pure(inputs, states)


@settings(max_examples=25, deadline=None)
@given(box=schmidt_dressed_families(), seed=st.integers(0, 1000))
def test_schmidt_dressed_families_round_trip_through_general_pure(box, seed):
    simulated = simulate(general_pure_strategy(box), samples=5, seed=seed)
    assert np.max(np.abs(simulated.matrices - box.matrices)) <= 1e-9


def reference_general_pure_strategy(targets: CQBox) -> Strategy:
    """``general_pure_strategy`` as it was before it read the family as one
    stack: each output through ``pure_output``, each dressing, coupling
    part and unitarity check once per input, in Python."""
    n = targets.structure.dims[0]
    pure = {key: targets.pure_output(key) for key in targets.inputs}
    form = schmidt(pure[(0, 0)])
    coeffs = form.coefficients
    basis_a, basis_b = form.left_basis, form.right_basis
    inv_d = np.diag(1.0 / coeffs)
    block_dims = tuple(len(b) for b in form.blocks)

    def in_bases(key):
        mat = pure[key].amplitudes.reshape(n, n)
        return basis_a.conj().T @ mat @ basis_b.conj()

    def check_unitary(mat, what):
        if invalid_unitary(mat, 1e-6):
            raise ValueError(f"family structure broken: {what} is not unitary")
        return mat

    nx, ny = targets.input_sizes
    u_x = {x: check_unitary(in_bases((x, 0)) @ inv_d, f"row dressing at x={x}") for x in range(nx)}
    v_y = {y: check_unitary((inv_d @ in_bases((0, y))).T, f"column dressing at y={y}") for y in range(ny)}
    block_of = np.repeat(np.arange(len(block_dims)), block_dims)
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
    return Strategy(HaarCouplingBox(relabel, block_dims), core, (dress_a, dress_b))


def both_storages(box: CQBox) -> list[CQBox]:
    """The family stored as amplitudes and as density matrices."""
    return [box, CQBox(box.input_sizes, box.structure, box.matrices)]


@settings(max_examples=20, deadline=None)
@given(box=schmidt_dressed_families(), seed=st.integers(0, 1000))
def test_general_pure_matches_the_per_input_reference(box, seed):
    for stored in both_storages(box):
        got = simulate(general_pure_strategy(stored), samples=4, seed=seed)
        want = simulate(reference_general_pure_strategy(stored), samples=4, seed=seed)
        assert np.array_equal(got.matrices, want.matrices)


@pytest.mark.parametrize("name", ["two_block_family", "nonmax_pure_family", "max_entangled_family"])
def test_general_pure_fixtures_match_the_per_input_reference(name):
    for stored in both_storages(load_box(FIXTURES / f"{name}.json")):
        strategy, reference = general_pure_strategy(stored), reference_general_pure_strategy(stored)
        assert np.array_equal(strategy.ccbox.relabel, reference.ccbox.relabel)
        assert all(map(np.array_equal, strategy.unitaries, reference.unitaries))
        got, want = (simulate(s, samples=6, seed=1).matrices for s in (strategy, reference))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("scaled", "swapped", "coupling part at (1, 1) is not unitary"),
        ("swapped", "scaled", "coupling part at input (1, 1) mixes Schmidt blocks"),
    ],
)
def test_general_pure_names_the_first_broken_coupling_part(monkeypatch, first, second, message):
    """With faults of both kinds, the input that comes first is named."""
    passing = NoSignallingReport(passed=True, worst_violation=0.0, witnesses=(), tolerance=1e-9)
    monkeypatch.setattr(synthesis, "cq_no_signalling", lambda box, tol: passing)
    faults = {
        # the two levels keep their sides but trade weights: a non-unitary diagonal part
        "scaled": [math.sqrt(0.3), 0, 0, math.sqrt(0.7)],
        # the two levels swap sides, mixing the two Schmidt blocks
        "swapped": [0, math.sqrt(0.7), math.sqrt(0.3), 0],
    }
    states = {k: two_qubit_state([math.sqrt(0.7), 0, 0, math.sqrt(0.3)]) for k in np.ndindex(3, 2)}
    states[(1, 1)], states[(2, 1)] = two_qubit_state(faults[first]), two_qubit_state(faults[second])
    targets = CQBox.from_pure((3, 2), states)
    for build in (general_pure_strategy, reference_general_pure_strategy):
        with pytest.raises(ValueError, match=re.escape(f"family structure broken: {message}")):
            build(targets)


@dataclass(frozen=True)
class FramedHaarCouplingBox(HaarCouplingBox):
    """The coupling that ``general_pure_strategy`` built before its Schmidt
    bases moved into the shared state and the dressings: ``reference_pair``
    rotates both outputs into the frames F, as F @ U @ F^+.  Kept as the
    reference the Schmidt-core strategy must stay close to."""

    frame_a: np.ndarray | None = None
    frame_b: np.ndarray | None = None


@dataclass(frozen=True)
class FramedStrategy:
    """A strategy over a ``FramedHaarCouplingBox``, whose shared state (the
    reference output) is no multiple of the identity on a coupling block,
    so ``Strategy`` refuses it: only ``reference_sampled_simulate`` runs it,
    on the per-draw unitaries of ``reference_weighted_vectors``."""

    ccbox: FramedHaarCouplingBox
    shared: StateVector
    unitaries: tuple

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(self.ccbox.input_sizes)


def reference_framed_strategy(targets: CQBox) -> FramedStrategy:
    """``general_pure_strategy`` with a framed coupling and unframed
    dressings, rebuilt from the reference output's Schmidt form; only the
    coupling parts are taken from the strategy under test.  Only the
    per-draw loop of ``reference_weighted_unitaries`` applies the frames, so
    ``reference_simulate`` runs it through that loop."""
    coupling = general_pure_strategy(targets).ccbox
    reference = targets.pure_output((0, 0))
    form = schmidt(reference)
    frame_a, frame_b = np.asarray(form.left_basis), np.asarray(form.right_basis)
    n = frame_a.shape[0]
    inv_d = np.diag(1.0 / form.coefficients)

    def in_frames(key):
        mat = targets.pure_output(key).amplitudes.reshape(n, n)
        return frame_a.conj().T @ mat @ frame_b.conj()

    nx, ny = targets.input_sizes
    dress_a = [frame_a @ (in_frames((x, 0)) @ inv_d) @ frame_a.conj().T for x in range(nx)]
    dress_b = [frame_b @ (inv_d @ in_frames((0, y))).T @ frame_b.conj().T for y in range(ny)]
    framed = FramedHaarCouplingBox(coupling.relabel, coupling.block_dims, frame_a, frame_b)
    return FramedStrategy(ccbox=framed, shared=reference, unitaries=(dress_a, dress_b))


# the Schmidt core reorders the framed products, which moves the last bits
FRAMED_BOUND = 1e-12


@settings(max_examples=15, deadline=None)
@given(box=schmidt_dressed_families(), seed=st.integers(0, 1000))
def test_general_pure_stays_near_the_framed_coupling(box, seed):
    simulated = simulate(general_pure_strategy(box), samples=5, seed=seed)
    framed = reference_simulate(reference_framed_strategy(box), samples=5, seed=seed)
    assert np.max(np.abs(simulated.matrices - framed.matrices)) <= FRAMED_BOUND


@pytest.mark.parametrize(
    "name", ["two_block_family", "nonmax_pure_family", "max_entangled_family"]
)
def test_general_pure_fixtures_stay_near_the_framed_coupling(name):
    box = load_box(FIXTURES / f"{name}.json")
    simulated = simulate(general_pure_strategy(box), samples=40, seed=3)
    framed = reference_simulate(reference_framed_strategy(box), samples=40, seed=3)
    assert np.max(np.abs(simulated.matrices - framed.matrices)) <= FRAMED_BOUND


def reference_weighted_vectors(strategy: Strategy, samples: int, seed: int):
    """``_weighted_vectors`` as it was before party 0's stack became one
    matrix product and a Haar coupling's states came from Bob's cores: a
    broadcast product per sample for every party, on the unitaries of
    ``reference_weighted_unitaries``."""
    dims = strategy.shared.structure.dims
    for key, stacks, weights in reference_weighted_unitaries(strategy, samples, seed):
        t = strategy.shared.amplitudes.reshape(1, -1)
        for j, m in enumerate(stacks):
            t = m[:, None] @ t.reshape(len(t), math.prod(dims[:j]), dims[j], -1)
        vecs = t.reshape(len(t), -1)
        if fault := invalid_vector(vecs):
            raise ValueError(fault[1])
        yield key, vecs, weights


def reference_bob_cores(bases: np.ndarray, shared_t: np.ndarray, dressing: np.ndarray | None) -> np.ndarray:
    """The cores D V Psi^T V^+ of a ``(S, d, d)`` chunk of draws V, for the
    transpose ``shared_t`` of the shared state as a d x d matrix Psi: one
    ``(S, d, d)`` stack per own input of Bob, each dressed by his
    ``dressing[y]`` = D, or a single undressed stack where he has none."""
    # V Psi^T as one tall product, then one stacked product with V^+
    core = (bases.reshape(-1, bases.shape[-1]) @ shared_t).reshape(bases.shape)
    core = core @ bases.conj().swapaxes(-1, -2)
    return core[None] if dressing is None else dressing[:, None] @ core


def reference_coupled_vectors(strategy: Strategy, samples: int, seed: int):
    """The sampled Haar states ``simulate`` summed before it gave a coupling
    its exact output: per input, chunks of (``(S, D)`` state vectors,
    ``(S,)`` weights) of ``samples`` seeded draws V of weight 1/samples,
    drawn in chunks from one stream that every input shares.

    At input (x, y), draw V leaves the d x d shared state Psi as
    A conj(V) Psi V^T B^T, for Alice's A = dressing[x] @ relabel[x, y] and
    Bob's B = dressing[y].  Its transpose is C_y A^T, with Bob's core
    C_y = B V Psi^T V^+ formed once per chunk and own input, so every
    input tuple costs one tall product with the draws on its row side.  A
    vector that is not of unit norm is refused, naming its input."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ccbox, (dress_a, dress_b) = strategy.ccbox, strategy.unitaries
    d = ccbox.dim
    alice = ccbox.relabel if dress_a is None else dress_a[:, None] @ ccbox.relabel
    alice_t, shared_t = alice.swapaxes(-1, -2), strategy.shared.amplitudes.reshape(d, d).T
    rng, chunk = np.random.default_rng(seed), max(1, synthesis._CHUNK_ENTRIES // (d * d))
    for start in range(0, samples, chunk):
        bases = ccbox.draw_base(rng, min(chunk, samples - start))
        cores, weights = reference_bob_cores(bases, shared_t, dress_b), np.full(len(bases), 1 / samples)
        for key in np.ndindex(*ccbox.input_sizes):
            # an undressed Bob has a single core, for every own input
            vecs_t = cores[key[1] % len(cores)].reshape(-1, d) @ alice_t[key]
            vecs = vecs_t.reshape(bases.shape).swapaxes(-1, -2).reshape(len(bases), -1)
            if fault := invalid_vector(vecs):
                raise ValueError(f"output at input {','.join(map(str, key))} is invalid: {fault[1]}")
            yield key, vecs, weights


def reference_sampled_simulate(
    strategy: Strategy | MixtureSchedule, *, samples: int, seed: int, vectors=reference_coupled_vectors
) -> CQBox:
    """The Haar accumulation ``simulate`` ran before it gave a coupling its
    exact output: per input, the weighted outer products of the sampled
    state vectors of ``vectors(strategy, samples, seed)``, summed from 0; a
    schedule sums interval i on seed + i into a stack of its own and adds
    the stacks from 0, each times its interval weight, in interval order.
    ``vectors`` = ``reference_weighted_vectors`` also runs test-only
    couplings, such as a ``FramedStrategy``."""
    if isinstance(strategy, MixtureSchedule):
        parts, first = zip(strategy.weights, strategy.strategies, itertools.count(seed)), strategy.strategies[0]
    else:
        parts, first = [(1.0, strategy, seed)], strategy
    d = first.shared.structure.total_dim

    def sampled(item, item_seed: int) -> np.ndarray:
        mats = np.zeros(item.input_sizes + (d, d), dtype=complex)
        for key, vecs, weights in vectors(item, samples, item_seed):
            mats[key] += (vecs.T * weights) @ vecs.conj()
        return mats

    mats = sum(weight * sampled(item, item_seed) for weight, item, item_seed in parts)
    return CQBox(first.input_sizes, first.shared.structure, mats)


def reference_simulate(strategy: Strategy, *, samples: int, seed: int) -> CQBox:
    """The sampled mixture of ``reference_weighted_vectors``' state vectors:
    a Haar coupling's through ``reference_sampled_simulate``, a finite
    box's through ``simulate`` with those vectors patched in."""
    if isinstance(strategy.ccbox, HaarCouplingBox):
        return reference_sampled_simulate(
            strategy, samples=samples, seed=seed, vectors=reference_weighted_vectors
        )

    def patched(item: Strategy):
        return reference_weighted_vectors(item, samples, seed)

    with mock.patch.object(synthesis, "_weighted_vectors", patched):
        return simulate(strategy, samples=samples, seed=seed)


# a Haar coupling's exact output differs from a sampled mixture in the last
# bits; a finite box's states keep theirs
HAAR_BOUND = 1e-13


def assert_simulate_matches_the_broadcast(strategy: Strategy, samples: int, seed: int) -> None:
    box = simulate(strategy, samples=samples, seed=seed)
    reference = reference_simulate(strategy, samples=samples, seed=seed)
    if isinstance(strategy.ccbox, HaarCouplingBox):
        assert np.max(np.abs(box.matrices - reference.matrices)) <= HAAR_BOUND
    else:
        assert np.array_equal(box.matrices, reference.matrices)


def rotated_fixture_strategies() -> list[tuple[str, Strategy]]:
    box = load_box(FIXTURES / "mixed_disordered_rotated.json")
    strategies = mixed_disordered_strategy(box).strategies
    return [(f"mixed-disordered rotated interval {i}", s) for i, s in enumerate(strategies)]


ALL_CONSTRUCTIONS = SAMPLED + FINITE + rotated_fixture_strategies()


class TestFirstPartyProductMatchesTheBroadcast:
    @pytest.mark.parametrize(
        "name, strategy", ALL_CONSTRUCTIONS, ids=[name for name, _ in ALL_CONSTRUCTIONS]
    )
    def test_every_construction(self, name, strategy):
        assert_simulate_matches_the_broadcast(strategy, 60, 2)

    @pytest.mark.parametrize("samples", [1, 5, 23, 200])
    def test_sample_counts_across_chunks(self, monkeypatch, samples):
        _, strategy = SAMPLED[1]  # max-entangled n = 3, joint dimension 9
        assert_simulate_matches_the_broadcast(strategy, samples, 4)
        monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 9 * 5)  # chunks of 5 draws
        assert_simulate_matches_the_broadcast(strategy, samples, 4)

    @settings(max_examples=40, deadline=None)
    @given(strategy=finite_strategies_with_zeros())
    def test_random_tables(self, strategy):
        assert_simulate_matches_the_broadcast(strategy, 1, 0)


def reference_weighted_unitaries(strategy: Strategy, samples: int, seed: int):
    """``_weighted_unitaries`` as it was before each party's unitaries were
    formed once per own input, and before its Haar branch gave way to Bob's
    cores: every party once per input tuple (and chunk), a Haar chunk
    through ``reference_pair`` for each input tuple."""
    ccbox, tables = strategy.ccbox, strategy.unitaries
    dims = strategy.shared.structure.dims
    chunk = max(1, synthesis._CHUNK_ENTRIES // max(math.prod(dims), *(d * d for d in dims)))
    if isinstance(ccbox, HaarCouplingBox):
        rng = np.random.default_rng(seed)
        for start in range(0, samples, chunk):
            bases = ccbox.draw_base(rng, min(chunk, samples - start))
            for key in np.ndindex(*ccbox.input_sizes):
                pair = reference_pair(ccbox, key, bases)
                stacks = [reference_dressed(strategy, j, key[j], u) for j, u in enumerate(pair)]
                yield key, stacks, np.full(len(bases), 1 / samples)
        return
    table = ccbox.table
    for key in np.ndindex(*ccbox.input_sizes):
        per_symbol = [u[x] for u, x in zip(tables, key)]
        support = np.nonzero(table[key] > 0)
        for start in range(0, len(support[0]), chunk):
            rows = tuple(outs[start : start + chunk] for outs in support)
            yield key, [m[r] for m, r in zip(per_symbol, rows)], table[key][rows]


@pytest.mark.parametrize("name, strategy", SAMPLED, ids=[name for name, _ in SAMPLED])
def test_sample_states_match_the_reference_unitaries(name, strategy):
    """Each draw's state, formed from Bob's core, is within ``HAAR_BOUND``
    of the reference's per-draw unitaries applied by broadcast."""
    reference: dict = {}
    for key, vecs, _ in reference_weighted_vectors(strategy, 23, 6):
        reference.setdefault(key, []).extend(vecs)
    states = sample_states(strategy, samples=23, seed=6)
    assert states.keys() == reference.keys()
    for key, vecs in reference.items():
        amps = np.array([state.amplitudes for state in states[key]])
        assert amps.shape == np.shape(vecs)
        assert np.max(np.abs(amps - vecs)) <= HAAR_BOUND


def assert_simulate_matches_the_per_tuple_maps(strategy: Strategy, samples: int, seed: int):
    """A finite box's unitaries from the per-tuple reference keep every bit;
    a Haar coupling forms no unitaries, so its states are held to the
    reference's within ``HAAR_BOUND``."""
    if isinstance(strategy.ccbox, HaarCouplingBox):
        assert_simulate_matches_the_broadcast(strategy, samples, seed)
        return
    box = simulate(strategy, samples=samples, seed=seed)

    def per_tuple(strategy: Strategy):
        return reference_weighted_unitaries(strategy, samples, seed)

    with mock.patch.object(synthesis, "_weighted_unitaries", per_tuple):
        reference = simulate(strategy, samples=samples, seed=seed)
    assert np.array_equal(box.matrices, reference.matrices)


class TestMapsOncePerOwnInputMatchTheReference:
    @settings(max_examples=40, deadline=None)
    @given(strategy=finite_strategies_with_zeros())
    def test_random_tables(self, strategy):
        assert_simulate_matches_the_per_tuple_maps(strategy, 1, 0)

    @pytest.mark.parametrize("name, strategy", FINITE, ids=[name for name, _ in FINITE])
    def test_finite_constructions(self, name, strategy):
        assert_simulate_matches_the_per_tuple_maps(strategy, 1, 0)

    @pytest.mark.parametrize(
        "name", ["two_block_family", "nonmax_pure_family", "max_entangled_family"]
    )
    def test_general_pure_fixtures(self, name):
        strategy = general_pure_strategy(load_box(FIXTURES / f"{name}.json"))
        assert_simulate_matches_the_per_tuple_maps(strategy, 40, 3)

    @pytest.mark.parametrize("samples", [1, 23, 200])
    def test_max_entangled_across_chunks(self, monkeypatch, samples):
        _, strategy = SAMPLED[1]  # max-entangled n = 3, joint dimension 9
        assert_simulate_matches_the_per_tuple_maps(strategy, samples, 4)
        monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 9 * 5)  # chunks of 5 draws
        assert_simulate_matches_the_per_tuple_maps(strategy, samples, 4)

    @pytest.mark.parametrize("dressed", [False, True])
    def test_draws_checked_once_per_chunk_whatever_the_dressing(self, monkeypatch, dressed):
        """The draws are checked in the shared frame, once per chunk, whether
        or not Bob is dressed; the output is the sampled reference's, of
        Bob's cores per chunk and own input, within ``HAAR_BOUND``."""
        frames = []
        formed = synthesis._shared_frames

        def counted(strategy, samples, seed):
            for start, chunk in formed(strategy, samples, seed):
                frames.append(len(chunk))
                yield start, chunk

        coupling = HaarCouplingBox(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
        dressing = np.array([haar_unitary(2, 8 + y).matrix for y in range(3)])
        strategy = Strategy(coupling, phi_plus(2), (None, dressing if dressed else None))
        monkeypatch.setattr(synthesis, "_shared_frames", counted)
        monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 4 * 5)  # chunks of 5 draws
        box = simulate(strategy, samples=12)
        # 3 chunks of 5, 5 and 2 draws, one shared-frame stack each
        assert frames == [5, 5, 2]
        reference = reference_sampled_simulate(strategy, samples=12, seed=0)
        assert np.max(np.abs(box.matrices - reference.matrices)) <= HAAR_BOUND


@st.composite
def max_entangled_strategies(draw) -> Strategy:
    """A max-entangled coupling over four Haar targets of dimension 2-8."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return max_entangled_strategy(np.reshape([haar_unitary(n, rng).matrix for _ in range(4)], (2, 2, n, n)))


@settings(max_examples=30, deadline=None)
@given(
    strategy=st.one_of(
        max_entangled_strategies(),
        schmidt_dressed_families().map(general_pure_strategy),
        disordered_families().map(mixed_disordered_strategy),
    ),
    seed=st.integers(0, 1000),
    samples=st.integers(1, 30),
)
def test_exact_output_is_within_the_spread_of_the_sampled_mixture(strategy, seed, samples):
    """The sampled mixture the exact output replaced lies within the
    largest draw spread of it, in trace distance, as the pass rule of
    ``synth`` assumes; the spread itself is rounding."""
    exact, check = simulate_checked(strategy, samples=samples, seed=seed)
    sampled = reference_sampled_simulate(strategy, samples=samples, seed=seed)
    assert cq_box_distance(exact, sampled) <= check.spread + 1e-12
    assert 0 <= check.draw < samples
    assert (check.interval is not None) == isinstance(strategy, MixtureSchedule)
    assert check.spread <= 1e-13


@pytest.mark.parametrize(
    "blocks, amplitudes, message",
    [
        ((2,), two_level_state(0.8, 0.6).amplitudes, "coupling block 0 (deviation 1.000e-01)"),
        ((1, 2), np.diag([0.8, 0.48, 0.36]).ravel(), "coupling block 1 (deviation 6.000e-02)"),
        # an entry across the two blocks, on block 0's row
        ((1, 1), [0.6, 0.64, 0, 0.48], "coupling block 0 (deviation 6.400e-01)"),
    ],
)
def test_haar_coupling_needs_a_block_scalar_shared_state(blocks, amplitudes, message):
    """The core lemma holds only for a shared state that is c_b times the
    identity on each coupling block; the first block off it is named."""
    d = sum(blocks)
    coupling = HaarCouplingBox(np.broadcast_to(np.eye(d), (2, 2, d, d)), blocks)
    shared = StateVector(amplitudes, PartyStructure.pair(d))
    with pytest.raises(ValueError, match=re.escape(f"not a multiple of the identity on {message}")):
        Strategy(coupling, shared, (None, None))


def test_a_schmidt_core_is_block_scalar_on_one_level_blocks():
    coupling = HaarCouplingBox(np.broadcast_to(np.eye(2), (2, 2, 2, 2)), (1, 1))
    Strategy(coupling, two_level_state(0.8, 0.6), (None, None))


def test_the_draw_check_names_the_draw_that_moves_the_state(monkeypatch):
    """Draw 7, in the second chunk of 5, is scaled by 1 + 1e-6: the check
    names it with its spread, (2e-6 + 1e-12) |Psi|_F, and ``simulate``
    refuses it; the exact output does not move."""
    _, strategy = SAMPLED[0]  # max-entangled n = 2
    exact = simulate(strategy, samples=12, seed=3)
    draw = HaarCouplingBox.draw_base
    seen = []

    def scale_draw_7(self, rng, size=()):
        bases = draw(self, rng, size)
        start = sum(seen)
        seen.append(len(bases))
        if start <= 7 < start + len(bases):
            bases[7 - start] *= 1 + 1e-6
        return bases

    monkeypatch.setattr(HaarCouplingBox, "draw_base", scale_draw_7)
    monkeypatch.setattr(synthesis, "_CHUNK_ENTRIES", 4 * 5)  # chunks of 5 draws
    box, check = simulate_checked(strategy, samples=12, seed=3)
    assert seen == [5, 5, 2]
    assert (check.draw, check.interval) == (7, None)
    assert check.spread == pytest.approx(2e-6, rel=1e-5)
    assert np.array_equal(box.amplitudes, exact.amplitudes)
    seen.clear()
    with pytest.raises(ValueError, match=r"^Haar draw 7 moves the shared state by 2\.0"):
        simulate(strategy, samples=12, seed=3)
