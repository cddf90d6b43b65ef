"""Tests for classical and classical-quantum boxes and their verifiers."""
from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqboxes import boxes
from cqboxes.boxes import (
    CCBox,
    CQBox,
    HaarCouplingBox,
    NoSignallingReport,
    Witness,
    cc_no_signalling,
    chsh_value,
    cq_box_distance,
    cq_no_signalling,
    family_worst_violation,
    induced_ccbox,
    mod_box,
    pr_box,
)
from cqboxes.io import load_box, save_box
from cqboxes.multipartite import PhaseAssignment, ghz_phase_box, w_phase_box
from cqboxes.quantum import (
    TOLERANCE,
    DensityMatrix,
    PartyStructure,
    StateVector,
    _first_fault,
    apply_local,
    basis_state,
    bell_state,
    haar_unitary,
    invalid_density,
    invalid_pure,
    invalid_vector,
    kron_all,
    partial_trace,
    partial_trace_array,
    pauli_x,
    phi_plus,
    trace_distance,
    trace_norm,
    w_state,
)
from cqboxes.synthesis import Strategy, phase_family_box, unitary_family_box
from test_synthesis import reference_mix_boxes, reference_weighted_unitaries

AB = PartyStructure.qubits("AB")


def correlated_bell_box() -> CQBox:
    """Target family: phi0 when x*y = 0, the bit-flipped Bell state when x*y = 1."""
    states = {
        (x, y): bell_state(1) if x * y else bell_state(0)
        for x, y in itertools.product(range(2), range(2))
    }
    return CQBox.from_pure((2, 2), states)


class TestCCBoxTables:
    def test_pr_box_entries(self):
        box = pr_box()
        for x, y, a, b in itertools.product(range(2), repeat=4):
            expected = 0.5 if (a - b) % 2 == x * y else 0.0
            assert box.probability((x, y), (a, b)) == pytest.approx(expected, abs=1e-15)

    def test_pr_marginal_uniform(self):
        box = pr_box()
        for x, y in itertools.product(range(2), range(2)):
            p_a0 = box.table[x, y, 0, :].sum()
            assert p_a0 == pytest.approx(0.5, abs=1e-15)

    def test_mod_box_entries(self):
        box = mod_box(4)
        assert box.probability((1, 1), (2, 1)) == pytest.approx(0.25, abs=1e-15)
        assert box.probability((1, 1), (3, 1)) == pytest.approx(0.0, abs=1e-15)
        assert box.probability((0, 1), (3, 3)) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mod_box_matches_entry_loops(self, n):
        two = np.zeros((2, 2, n, n))
        for x, y, a, b in itertools.product(range(2), range(2), range(n), range(n)):
            if (a - b) % n == x * y:
                two[x, y, a, b] = 1.0 / n
        three = np.zeros((2, 2, 2, n, n, n))
        for x, y, z, b, c in itertools.product(range(2), range(2), range(2), range(n), range(n)):
            three[x, y, z, (b + c + x * y * z) % n, b, c] = 1.0 / n**2
        assert np.array_equal(mod_box(n).table, two)
        assert np.array_equal(mod_box(n, parties=3).table, three)

    def test_mod_box_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            mod_box(1)
        with pytest.raises(ValueError, match="parties"):
            mod_box(3, parties=1)

    def test_table_validation(self):
        bad = np.zeros((2, 2, 2, 2))
        with pytest.raises(ValueError):
            CCBox((2, 2), (2, 2), bad)
        neg = np.full((2, 2, 2, 2), 0.25)
        neg[0, 0, 0, 0] = -0.25
        neg[0, 0, 1, 1] = 0.75
        with pytest.raises(ValueError):
            CCBox((2, 2), (2, 2), neg)
        with pytest.raises(ValueError, match="input_sizes"):
            CCBox((0, 2), (2, 2), np.zeros((0, 2, 2, 2)))
        with pytest.raises(ValueError, match="output_sizes"):
            CCBox((2, 2), (2, 1.5), bad)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({(0, 1, 1, 0): math.nan}, "input 0,1 is invalid: probabilities sum to nan, not a finite number"),
            ({(1, 0, 0, 0): math.inf}, "input 1,0 is invalid: probabilities sum to inf, not a finite number"),
            ({(1, 1, 0, 0): -math.inf},
             "input 1,1 is invalid: probabilities sum to -inf, not a finite number"),
            ({(0, 0, 0, 0): -0.25, (0, 0, 1, 1): 1.25},
             "input 0,0 is invalid: probability -0.25 is negative beyond tolerance"),
            ({(1, 1, 0, 1): 0.0}, "input 1,1 is invalid: probabilities sum to 0.5, not 1 within tolerance"),
        ],
    )
    def test_bad_table_entries_name_their_input(self, edits, message):
        table = np.array(pr_box().table)
        for key, value in edits.items():
            table[key] = value
        with pytest.raises(ValueError, match="^output distribution at " + re.escape(message) + "$"):
            CCBox((2, 2), (2, 2), table)

    def test_constructors_pass_no_signalling_tightly(self):
        for box in (pr_box(), mod_box(3), mod_box(5)):
            report = cc_no_signalling(box, tol=1e-12)
            assert report.passed, report.worst_violation


def reference_coupling_table(sizes, marginal, bijections) -> np.ndarray:
    """The coupling table built one input at a time: Alice's output pi[b]
    pairs with Bob's b at probability marginal[b]."""
    n = len(marginal)
    table = np.zeros(tuple(sizes) + (n, n))
    for key in np.ndindex(*sizes):
        table[key + (np.asarray(bijections[key]), np.arange(n))] = marginal
    return table


class TestFromCoupling:
    def test_identity_coupling_is_correlated_randomness(self):
        box = CCBox.from_coupling(
            (2, 2),
            np.array([0.5, 0.5]),
            {key: np.arange(2) for key in itertools.product(range(2), range(2))},
        )
        for x, y, a, b in itertools.product(range(2), repeat=4):
            expected = 0.5 if a == b else 0.0
            assert box.probability((x, y), (a, b)) == pytest.approx(expected, abs=1e-15)

    def test_mod_pairing_reproduces_mod_box(self):
        n = 4
        bijections = {
            (x, y): np.array([(b + x * y) % n for b in range(n)])
            for x, y in itertools.product(range(2), range(2))
        }
        box = CCBox.from_coupling((2, 2), np.full(n, 1 / n), bijections)
        np.testing.assert_allclose(box.table, mod_box(n).table, atol=1e-15)

    def test_table_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for sizes, n in (((2, 2), 3), ((2, 3), 8), ((3, 1), 5)):
            marginal = np.full(n, 1 / n)
            bijections = {key: rng.permutation(n) for key in np.ndindex(*sizes)}
            box = CCBox.from_coupling(sizes, marginal, bijections)
            assert box.input_sizes == sizes and box.output_sizes == (n, n)
            expected = reference_coupling_table(sizes, marginal, bijections)
            assert box.table.tobytes() == expected.tobytes()
        # a non-uniform marginal, preserved by a pairing within its level sets
        marginal = np.array([0.5, 0.2, 0.2, 0.1])
        bijections = {key: np.array([0, 2, 1, 3]) for key in np.ndindex(2, 2)}
        box = CCBox.from_coupling((2, 2), marginal, bijections)
        expected = reference_coupling_table((2, 2), marginal, bijections)
        assert box.table.tobytes() == expected.tobytes()

    def test_rejects_non_integer_pairings(self):
        # a cast to int would read [0.9, 1.2] as the identity [0, 1]
        with pytest.raises(ValueError, match=re.escape("pairing for input (0, 0) is not a bijection on 0..1")):
            CCBox.from_coupling((2, 2), [0.5, 0.5], {k: [0.9, 1.2] for k in np.ndindex(2, 2)})

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match=re.escape("pairing for input (0, 0) is not a bijection on 0..1")):
            CCBox.from_coupling(
                (2, 2),
                np.array([0.5, 0.5]),
                {key: np.array([0, 0]) for key in itertools.product(range(2), range(2))},
            )

    def test_rejects_marginal_breaking_pairing(self):
        # swapping outputs under one input leaks that input through Alice's marginal
        bijections = {key: np.arange(2) for key in itertools.product(range(2), range(2))}
        bijections[(1, 1)] = np.array([1, 0])
        with pytest.raises(ValueError, match=re.escape("pairing for input (1, 1) does not preserve the marginal")):
            CCBox.from_coupling((2, 2), np.array([0.7, 0.3]), bijections)

    @pytest.mark.parametrize(
        "marginal",
        [[0.5, 0.6], [1.2, -0.2], [0.5, 0.4], [math.nan, 1.0], [0.5, math.nan],
         [math.inf, -math.inf], [[0.5, 0.5]], 1.0],
    )
    def test_rejects_non_distribution_marginal(self, marginal):
        bijections = {key: np.arange(2) for key in np.ndindex(2, 2)}
        with pytest.raises(ValueError, match="^marginal is not a probability distribution$"):
            CCBox.from_coupling((2, 2), np.array(marginal), bijections)

    def test_rejects_missing_bijection(self):
        bijections = {key: np.arange(2) for key in np.ndindex(2, 2) if key != (1, 0)}
        with pytest.raises(ValueError, match=re.escape("missing bijection for input (1, 0)")):
            CCBox.from_coupling((2, 2), np.array([0.5, 0.5]), bijections)

    def test_materialised_coupling_is_non_signalling(self):
        n = 3
        bijections = {
            (x, y): np.array([(b + x * y) % n for b in range(n)])
            for x, y in itertools.product(range(2), range(2))
        }
        box = CCBox.from_coupling((2, 2), np.full(n, 1 / n), bijections)
        assert cc_no_signalling(box, tol=1e-12).passed


class TestHaarCoupling:
    def test_pair_relation(self):
        """The undressed strategy hands Alice relabel[inputs] @ conj(V) and Bob
        the draw V itself, as the per-draw reference forms them, which
        ``simulate``'s states match (``test_sample_states_match_the_reference_unitaries``)."""
        target = haar_unitary(3, 5).matrix
        relabel = np.array([[np.eye(3), np.eye(3)], [np.eye(3), target]])
        coupling = HaarCouplingBox(relabel)
        base = coupling.draw_base(np.random.default_rng(0))
        pairs = {key: stacks for key, stacks, _ in reference_weighted_unitaries(
            Strategy(coupling, phi_plus(3), (None, None)), samples=1, seed=0
        )}
        u_a, u_b = pairs[(1, 1)]
        np.testing.assert_allclose(u_a[0], target @ base.conj(), atol=1e-14)
        np.testing.assert_allclose(u_b[0], base, atol=1e-15)
        np.testing.assert_allclose(pairs[(0, 0)][0][0], base.conj(), atol=1e-14)

    @pytest.mark.parametrize(
        "entry, reason",
        [
            # refused here, not left to simulate's norm check, which names no input
            (2 * np.eye(2), "matrix is not unitary within tolerance"),
            # unit-norm columns give unit-norm states, which simulate cannot tell apart
            (np.diag([math.sqrt(2), 0.0]), "matrix is not unitary within tolerance"),
            (np.array([[1.0, math.nan], [0.0, 1.0]]), "matrix has a non-finite entry"),
        ],
    )
    def test_non_unitary_relabel_names_its_input(self, entry, reason):
        relabel = np.array(np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2)))
        relabel[1, 2] = entry
        with pytest.raises(ValueError, match=re.escape(f"relabel at input (1, 2): {reason}")):
            HaarCouplingBox(relabel)

    def test_relabel_within_the_synth_tolerance_is_kept(self):
        relabel = np.broadcast_to(np.eye(2) * (1 + 4e-7), (2, 2, 2, 2))
        assert HaarCouplingBox(relabel).dim == 2

    def test_block_structure(self):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(4), (2, 2, 4, 4)), block_dims=(2, 2))
        base = coupling.draw_base(np.random.default_rng(1))
        np.testing.assert_allclose(base[:2, 2:], 0, atol=1e-15)
        np.testing.assert_allclose(base[2:, :2], 0, atol=1e-15)
        for block in (base[:2, :2], base[2:, 2:]):
            np.testing.assert_allclose(block @ block.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "blocks", [(3, -1), (1.5, 0.5), (True, True), (2, 0), np.array([0])], ids=repr
    )
    def test_block_dims_must_be_positive_integers(self, blocks):
        """Blocks that sum to dim but are no positive integers are refused
        when the coupling is built, not inside ``draw_base``."""
        message = f"block_dims must be a non-empty list of positive integers, got {blocks!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HaarCouplingBox(np.broadcast_to(np.eye(2), (2, 2, 2, 2)), block_dims=blocks)

    def test_block_dims_may_be_an_array(self):
        """An array is read as its entries, with no truth test of the array."""
        relabel = np.broadcast_to(np.eye(2), (2, 2, 2, 2))
        assert HaarCouplingBox(relabel, block_dims=np.array([1, 1])).block_dims == (1, 1)

    def test_relabel_is_a_read_only_copy(self):
        relabel = np.array(np.broadcast_to(np.eye(2), (2, 2, 2, 2)))
        coupling = HaarCouplingBox(relabel)
        relabel[1, 1] = 0
        np.testing.assert_array_equal(coupling.relabel[1, 1], np.eye(2))
        assert not coupling.relabel.flags.writeable

    @pytest.mark.parametrize("sizes", [(3,), (2, 3), (1, 2, 3)])
    def test_sizes_are_read_from_the_stack(self, sizes):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(4), sizes + (4, 4)))
        assert (coupling.input_sizes, coupling.dim, coupling.block_dims) == (sizes, 4, (4,))

    def test_base_stream_input_independent(self):
        coupling = HaarCouplingBox(np.broadcast_to(np.eye(2), (2, 2, 2, 2)))
        base1 = coupling.draw_base(np.random.default_rng(9))
        base2 = coupling.draw_base(np.random.default_rng(9))
        np.testing.assert_array_equal(base1, base2)


class TestCCNoSignalling:
    def test_pr_box_passes(self):
        report = cc_no_signalling(pr_box())
        assert report.passed
        assert report.worst_violation <= 1e-12
        assert report.witnesses == ()

    def test_output_echoing_input_fails(self):
        # a = y deterministically, b constant: Alice's marginal reveals y
        table = np.zeros((2, 2, 2, 2))
        for x, y in itertools.product(range(2), range(2)):
            table[x, y, y, 0] = 1.0
        report = cc_no_signalling(CCBox((2, 2), (2, 2), table))
        assert not report.passed
        assert report.worst_violation == pytest.approx(1.0, abs=1e-12)
        assert any(w.subgroup == ("A",) for w in report.witnesses)

    def test_three_party_check(self):
        # a = y*z with others constant: the A marginal depends on (y, z)
        table = np.zeros((2, 2, 2, 2, 2, 2))
        for x, y, z in itertools.product(range(2), repeat=3):
            table[x, y, z, y * z, 0, 0] = 1.0
        report = cc_no_signalling(CCBox((2, 2, 2), (2, 2, 2), table))
        assert not report.passed
        assert report.worst_violation == pytest.approx(1.0, abs=1e-12)


class TestCQNoSignalling:
    def test_correlated_bell_family_passes(self):
        box = correlated_bell_box()
        report = cq_no_signalling(box)
        assert report.passed
        # every marginal is maximally mixed
        for key in box.inputs:
            for party in "AB":
                np.testing.assert_allclose(
                    partial_trace(box.output(key), [party]).matrix,
                    np.eye(2) / 2,
                    atol=1e-12,
                )

    def test_signalling_family_fails(self):
        # Alice's reduced state flips with Bob's input
        states = {
            (x, y): basis_state(AB, (y, y)) for x, y in itertools.product(range(2), range(2))
        }
        report = cq_no_signalling(CQBox.from_pure((2, 2), states))
        assert not report.passed
        assert report.worst_violation == pytest.approx(1.0, abs=1e-12)
        assert report.witnesses[0].violation > 0.5

    def test_w_phase_perturbation_fails_on_bc(self):
        # gamma = pi * x * z puts an x-dependent phase on C's ket: the BC
        # pair sees it.  Oracle: the off-diagonal of the BC reduction moves
        # by |e^{i pi} - 1| / 3, so the trace distance is 2/3.
        structure = PartyStructure.qubits("ABC")
        states = {}
        for x, y, z in itertools.product(range(2), repeat=3):
            amp = np.zeros(8, dtype=complex)
            amp[4] = 1 / math.sqrt(3)
            amp[2] = 1 / math.sqrt(3)
            amp[1] = np.exp(1j * math.pi * x * z) / math.sqrt(3)
            states[(x, y, z)] = StateVector(amp, structure)
        report = cq_no_signalling(CQBox.from_pure((2, 2, 2), states))
        assert not report.passed
        bc = [w for w in report.witnesses if w.subgroup == ("B", "C")]
        assert bc and max(w.violation for w in bc) == pytest.approx(2 / 3, abs=1e-9)

    def test_invariant_under_fixed_local_unitary(self):
        box = correlated_bell_box()
        u = haar_unitary(2, 123)
        rotated = CQBox.from_outputs(
            box.input_sizes,
            box.structure,
            {key: apply_local(box.output(key), "A", u) for key in box.inputs},
        )
        assert cq_no_signalling(rotated).passed


class TestInducedBox:
    def test_computational_measurement_of_bell_family_gives_pr(self):
        box = correlated_bell_box()
        eye = [np.eye(2), np.eye(2)]
        induced = induced_ccbox(box, [eye, eye])
        np.testing.assert_allclose(induced.table, pr_box().table, atol=1e-15)

    def test_induced_box_of_nonsignalling_box_is_nonsignalling(self):
        box = correlated_bell_box()
        rng = np.random.default_rng(4)
        bases = [
            [haar_unitary(2, rng).matrix for _ in range(2)],
            [haar_unitary(2, rng).matrix for _ in range(2)],
        ]
        induced = induced_ccbox(box, bases)
        assert cc_no_signalling(induced, tol=1e-9).passed

    def test_dimension_mismatch(self):
        box = correlated_bell_box()
        with pytest.raises(ValueError):
            induced_ccbox(box, [[np.eye(3), np.eye(3)], [np.eye(2), np.eye(2)]])


class TestCHSH:
    def test_pr_box_reaches_four(self):
        assert chsh_value(pr_box()) == pytest.approx(4.0, abs=1e-12)

    def test_product_state_respects_local_bound(self):
        # measuring a product C-Q box anywhere stays within the local bound 2
        product = basis_state(AB, (0, 0))
        box = CQBox.from_pure((2, 2), {key: product for key in pr_box_inputs()})
        rng = np.random.default_rng(21)
        for _ in range(10):
            bases = [
                [haar_unitary(2, rng).matrix for _ in range(2)],
                [haar_unitary(2, rng).matrix for _ in range(2)],
            ]
            value = chsh_value(induced_ccbox(box, bases))
            assert abs(value) <= 2 + 1e-9

    def test_requires_binary_alphabets(self):
        with pytest.raises(ValueError):
            chsh_value(mod_box(3))


def pr_box_inputs():
    return [tuple(t) for t in itertools.product(range(2), range(2))]


class TestCQBoxDistance:
    def test_distance_to_constant_box(self):
        # the correlated family differs from the constant-phi0 box only at
        # (1,1), where the outputs are orthogonal Bell states: distance 1
        box = correlated_bell_box()
        constant = CQBox.from_pure((2, 2), {key: bell_state(0) for key in box.inputs})
        oracle = trace_distance(bell_state(0), bell_state(1))
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert cq_box_distance(box, constant) == pytest.approx(oracle, abs=1e-12)
        assert cq_box_distance(box, box) == pytest.approx(0.0, abs=1e-12)

    def test_structure_mismatch(self):
        box = correlated_bell_box()
        bigger = CQBox.from_pure(
            (2, 3),
            {
                (x, y): bell_state(0)
                for x, y in itertools.product(range(2), range(3))
            },
        )
        with pytest.raises(ValueError):
            cq_box_distance(box, bigger)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CCBox((2, 2), (2,), np.zeros((2, 2, 2))), "one output alphabet per party required"),
        (lambda: CCBox((2, 2), (2, 2), np.zeros((2, 2, 2))),
         "table shape (2, 2, 2) does not match (2, 2, 2, 2)"),
        (lambda: HaarCouplingBox(np.broadcast_to(np.eye(3), (2, 2, 3, 3)), block_dims=(1, 1)),
         "block dimensions (1, 1) do not sum to 3"),
        (lambda: HaarCouplingBox(np.zeros((2, 2, 2, 3))),
         "relabel shape (2, 2, 2, 3) is not input_sizes + (dim, dim), all positive"),
        (lambda: CQBox((2,), AB, amplitudes=np.zeros((2, 4))), "one classical input per party required"),
        (lambda: CQBox.from_outputs((1, 1), AB, {(0, 0): w_state()}),
         "output at (0, 0) has mismatched party structure"),
        (lambda: CQBox.from_outputs((1, 1), AB, {(0, 0): np.ones(3)}),
         "output at (0, 0) has shape (3,), not (4,) or (4, 4)"),
        (lambda: CQBox((1, 1), PartyStructure((("A", 2.5), ("B", 2))), amplitudes=np.zeros((1, 1, 5))),
         "party structure gives party 'A' dim 2.5, not a positive integer"),
        (lambda: induced_ccbox(correlated_bell_box(), [[np.eye(2)] * 2]),
         "one measurement family per party required"),
        (lambda: induced_ccbox(correlated_bell_box(), [[np.eye(2)], [np.eye(2)] * 2]),
         "party 0 needs one basis per input symbol"),
        (lambda: reference_mix_boxes([]), "mixture requires at least one component"),
        # a NaN tolerance used to fail the PR box, and to fail a C-Q box with no witness
        (lambda: cc_no_signalling(pr_box(), tol=math.nan), "tol must be a finite number, got nan"),
        (lambda: cq_no_signalling(correlated_bell_box(), tol=math.nan),
         "tol must be a finite number, got nan"),
        (lambda: cq_no_signalling(correlated_bell_box(), tol=-1e-3), "tol must be non-negative, got -0.001"),
        # a NaN tolerance would let every output through validation
        (lambda: CQBox((1, 1), AB, amplitudes=np.full((1, 1, 4), 2.0), tol=math.nan),
         "tol must be a finite number, got nan"),
        (lambda: CQBox.from_outputs((1, 1), AB, {(0, 0): np.eye(4)}, tol=math.inf),
         "tol must be a finite number, got inf"),
        (lambda: CCBox((1,), (1,), [[1.0]], math.nan), "tol must be a finite number, got nan"),
        (lambda: CCBox((1,), (2,), [[0.5, 0.5 + 1e-8]], 1e-9),
         "output distribution at input 0 is invalid: probabilities sum to 1.00000001"),
    ],
)
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert message in str(raised.value)


class TestCQBoxType:
    def test_missing_input_rejected(self):
        with pytest.raises(ValueError):
            CQBox.from_outputs((2, 2), AB, {(0, 0): bell_state(0).density()})

    def test_from_pure_without_states_names_the_missing_inputs(self):
        with pytest.raises(ValueError, match="outputs missing for inputs"):
            CQBox.from_pure((2, 2), {})

    def test_sizes_and_keys_validated(self):
        outputs = {key: bell_state(0).density() for key in itertools.product(range(2), range(2))}
        with pytest.raises(ValueError, match="input_sizes"):
            CQBox.from_outputs((0, 2), AB, {})
        with pytest.raises(ValueError, match=r"output key \(2, 0\)"):
            CQBox.from_outputs((2, 2), AB, {**outputs, (2, 0): bell_state(0).density()})

    def test_joint_dimension_capped_before_allocation(self):
        big = PartyStructure.pair(33)
        with pytest.raises(ValueError, match="joint dimension 1089"):
            CQBox.from_outputs((1, 1), big, {(0, 0): np.eye(1089)[0]})
        with pytest.raises(ValueError, match="joint dimension 1089"):
            CQBox((1, 1), big, amplitudes=np.zeros((1, 1, 1089)))

    def test_stack_fields_validated_once(self):
        box = correlated_bell_box()
        assert box.matrices.shape == (2, 2, 4, 4) and box.amplitudes.shape == (2, 2, 4)
        assert not box.matrices.flags.writeable and not box.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="exactly one of matrices and amplitudes"):
            CQBox((2, 2), AB)
        bad = np.array(box.matrices)
        bad[1, 0] = np.diag([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError, match="output at input 1,0 is invalid: density matrix"):
            CQBox((2, 2), AB, bad)
        amps = np.array(box.amplitudes)
        amps[0, 1] *= 2
        with pytest.raises(ValueError, match="output at input 0,1 is invalid: state vector norm"):
            CQBox((2, 2), AB, amplitudes=amps)

    def test_pure_box_builds_its_matrices_on_first_read(self):
        """A pure box keeps only its amplitudes until ``matrices`` is read;
        then it builds the outer products once, read-only."""
        box = load_box(FIXTURES / "phase_quarter_turn.json")
        assert box.amplitudes is not None
        cq_no_signalling(box)
        assert "matrices" not in vars(box)
        matrices = box.matrices
        amps = box.amplitudes
        assert np.array_equal(matrices, amps[..., :, None] * amps[..., None, :].conj())
        assert not matrices.flags.writeable
        assert box.matrices is matrices
        mixed = CQBox(box.input_sizes, box.structure, matrices)
        assert mixed.amplitudes is None and not mixed.matrices.flags.writeable
        assert np.array_equal(mixed.matrices, matrices) and mixed.matrices is not matrices

    def test_out_of_range_inputs_rejected(self):
        box = correlated_bell_box()
        for key in [(2, 0), (-1, 0), (0,), (0, 0, 0)]:
            with pytest.raises(KeyError, match=re.escape(f"no output for inputs {key}")):
                box.output(key)
            with pytest.raises(KeyError):
                box.pure_output(key)

    def test_pure_output_roundtrip(self):
        box = correlated_bell_box()
        v = box.pure_output((1, 1))
        np.testing.assert_allclose(v.amplitudes, bell_state(1).amplitudes, atol=1e-12)

    def test_pure_output_rejects_mixed(self):
        mixed = DensityMatrix(np.eye(4) / 4, AB)
        box = CQBox.from_outputs((2, 2), AB, {key: mixed for key in pr_box_inputs()})
        with pytest.raises(ValueError):
            box.pure_output((0, 0))

    def test_pure_vectors_read_below_a_prefix(self):
        """A mixed (0, 0) output refuses the whole stack, naming (0, 0), but
        leaves the pure (0, 1) output readable, alone or under prefix (0, 1)."""
        outputs = {key: bell_state(2).density() for key in pr_box_inputs()}
        outputs[(0, 0)] = DensityMatrix(np.eye(4) / 4, AB)
        box = CQBox.from_outputs((2, 2), AB, outputs)
        v = box.pure_output((0, 1))
        assert abs(np.vdot(v.amplitudes, bell_state(2).amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(box.pure_vectors((0, 1)), v.amplitudes)
        assert box.pure_vectors((1,)).shape == (2, 4)
        message = "output at (0, 0) is mixed (rank-one error 0.25)"
        for read in (box.pure_vectors, lambda: box.pure_vectors((0,)), lambda: box.pure_output((0, 0))):
            with pytest.raises(ValueError, match=re.escape(message)):
                read()

    def test_pure_vectors_of_stored_amplitudes_are_the_amplitudes(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        stored = CQBox((2, 3), AB, amplitudes=amps)
        assert np.array_equal(stored.pure_vectors(), amps)
        assert np.array_equal(stored.pure_vectors((1, 2)), amps[1, 2])

    def test_pure_output_extracts_from_rank_one_matrix(self):
        box = CQBox.from_outputs((2, 2), AB, {key: bell_state(2).density() for key in pr_box_inputs()})
        v = box.pure_output((0, 1))
        overlap = abs(np.vdot(v.amplitudes, bell_state(2).amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)


# The two rank-one readers that ``_rank_one`` replaced: io's per-output
# pivot column and the batched eigh of ``CQBox.pure_vectors``, kept as the
# references the one reader must reproduce.


def reference_io_rank_one(m: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """io's reader of one stored matrix: the pivot column over the root of
    the pivot, and the largest entry change of rebuilding the matrix."""
    p = int(np.argmax(m.diagonal().real))
    root = np.sqrt(m[p, p].real)
    amp = m[:, p] / root
    amp[p] = root  # drop the rounding in the pivot's imaginary part
    return amp, np.max(np.abs(np.outer(amp, amp.conj()) - m))


def reference_eigh_vectors(matrices: np.ndarray) -> np.ndarray:
    """``pure_vectors`` of a matrix stack through one batched eigh: the top
    eigenvectors, refusing the first top eigenvalue below 1 - 1e-7."""
    vals, vecs = np.linalg.eigh(matrices)
    top = vals[..., -1]
    if fault := _first_fault((top < 1 - 1e-7, top, "mixed (top eigenvalue {})")):
        raise ValueError(f"output at {fault[0]} is {fault[1]}")
    return vecs[..., :, -1]


@st.composite
def rank_one_stacks(draw, kinds=("pure", "nearly", "mixed", "tied"), min_dim=1):
    """A ``(B, D, D)`` stack of density matrices at D = min_dim..64 and each
    output's mixedness e.  An output is one of ``kinds``: a random pure
    state (e = 0); one with all |v_i|^2 equal, so every diagonal entry ties
    ("tied", e = 0); or (1 - e) v v+ + e rho, rho being a random pure state
    orthogonal to v or the maximally mixed state, with e up to 1e-9
    ("nearly") or from 1e-5 to 1/2 ("mixed")."""
    d = draw(st.integers(min_dim, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices, mixedness = [], []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "tied":
            z = 1j ** rng.integers(0, 4, d)
        else:
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = z / np.linalg.norm(z)
        m, e = np.outer(v, v.conj()), 0.0
        if kind in ("nearly", "mixed") and d > 1:
            e = draw(st.floats(1e-12, 1e-9) if kind == "nearly" else st.floats(1e-5, 0.5))
            if draw(st.booleans()):
                w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                w -= np.vdot(v, w) * v
                w /= np.linalg.norm(w)
                rho = np.outer(w, w.conj())
            else:
                rho = np.eye(d) / d
            m = (1 - e) * m + e * rho
        matrices.append(m)
        mixedness.append(e)
    return np.array(matrices), mixedness


def one_party_box(matrices: np.ndarray) -> CQBox:
    """A ``(B, D, D)`` stack as the outputs of a one-party box."""
    structure = PartyStructure((("A", matrices.shape[-1]),))
    return CQBox(matrices.shape[:1], structure, matrices)


class TestOneRankOneReader:
    """``_rank_one`` is io's per-output reader run on a stack, and
    ``pure_vectors`` reads matrix outputs through it where one batched eigh
    read them before."""

    @settings(max_examples=150, deadline=None)
    @given(stack=rank_one_stacks())
    def test_kernel_is_the_per_output_reader_bit_for_bit(self, stack):
        matrices, _ = stack
        vectors, error = boxes._rank_one(matrices)
        assert vectors.shape == matrices.shape[:-1] and error.shape == matrices.shape[:1]
        for m, v, e in zip(matrices, vectors, error, strict=True):
            want, want_error = reference_io_rank_one(m)
            assert np.array_equal(v, want) and np.array_equal(e, want_error)
            # io reads one output at a time, as a stack of no leading axes
            one, one_error = boxes._rank_one(m)
            assert np.array_equal(one, want) and np.array_equal(one_error, want_error)
        # more leading axes change no bit
        stacked, stacked_error = boxes._rank_one(matrices[None, :, None])
        assert np.array_equal(stacked[0, :, 0], vectors) and np.array_equal(stacked_error[0, :, 0], error)

    @settings(max_examples=100, deadline=None)
    @given(stack=rank_one_stacks(kinds=("pure", "nearly", "tied")))
    def test_pure_vectors_match_the_eigh_reader_up_to_a_phase(self, stack):
        box = one_party_box(stack[0])
        vectors = box.pure_vectors()
        overlaps = np.abs(np.sum(reference_eigh_vectors(box.matrices).conj() * vectors, axis=-1))
        assert np.all(overlaps >= 1 - 1e-12), overlaps
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=-1), 1.0, rtol=0, atol=1e-14)
        # the pivot entry, at the largest diagonal entry, is real and positive
        p = np.argmax(np.diagonal(box.matrices, axis1=-2, axis2=-1).real, axis=-1)
        pivots = vectors[np.arange(len(p)), p]
        assert np.all(pivots.imag == 0) and np.all(pivots.real > 0)

    @settings(max_examples=100, deadline=None)
    @given(stack=rank_one_stacks(min_dim=2))
    def test_both_readers_refuse_every_mixed_output(self, stack):
        matrices, mixedness = stack
        mixed = [i for i, e in enumerate(mixedness) if e >= 1e-5]
        for i in mixed:
            box = one_party_box(matrices[i : i + 1])
            with pytest.raises(ValueError, match=re.escape("output at (0,) is mixed (rank-one error ")):
                box.pure_vectors()
            with pytest.raises(ValueError, match=re.escape("output at (0,) is mixed (top eigenvalue ")):
                reference_eigh_vectors(box.matrices)
        if mixed:  # a whole stack names its first mixed output
            box = one_party_box(matrices)
            with pytest.raises(ValueError, match=re.escape(f"output at ({mixed[0]},) is mixed")):
                box.pure_vectors()
            with pytest.raises(ValueError, match=re.escape(f"output at ({mixed[0]},) is mixed")):
                reference_eigh_vectors(box.matrices)

    def test_a_nan_error_counts_as_mixed(self, monkeypatch):
        box = one_party_box(np.eye(2)[None] / 2)
        monkeypatch.setattr(boxes, "_rank_one", lambda m: (m[..., 0], np.full(m.shape[:-2], np.nan)))
        with pytest.raises(ValueError, match=re.escape("output at (0,) is mixed (rank-one error nan)")):
            box.pure_vectors()


class TestMixBoxes:
    def test_two_component_mixture(self):
        a = correlated_bell_box()
        b = CQBox.from_pure((2, 2), {key: bell_state(2) for key in pr_box_inputs()})
        mixed = reference_mix_boxes([(0.25, a), (0.75, b)])
        expected = 0.25 * a.output((1, 1)).matrix + 0.75 * b.output((1, 1)).matrix
        np.testing.assert_allclose(mixed.output((1, 1)).matrix, expected, atol=1e-14)

    @pytest.mark.parametrize(
        "weights", [(0.6, 0.6), (-0.5, 1.5), (math.nan, 1.0), (0.5, math.nan), (math.inf, -math.inf)]
    )
    def test_weights_validated(self, weights):
        a = correlated_bell_box()
        with pytest.raises(ValueError, match="^mixture weights must form a probability distribution$"):
            reference_mix_boxes([(w, a) for w in weights])

    def test_mismatched_components_rejected(self):
        phase = phase_family_box(lambda x, y: x * y, 0.8, 0.6)
        wide = unitary_family_box(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
        qutrits = unitary_family_box(np.broadcast_to(np.eye(3), (2, 2, 3, 3)))
        narrow = CQBox.from_pure((1, 2), {(0, y): bell_state(0) for y in range(2)})
        cases = [
            ([phase, wide], "component 1 has input_sizes (2, 3)"),
            ([wide, phase], "component 1 has input_sizes (2, 2)"),
            ([phase, qutrits], "component 1 has party dims (3, 3)"),
            ([phase, narrow], "component 1 has input_sizes (1, 2)"),
        ]
        for boxes, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                reference_mix_boxes([(0.5, box) for box in boxes])


# Reference no-signalling checks: one Python loop per proper subgroup, own
# input setting and outside input pair, over all 2^k - 2 subgroups.  The
# array sweep behind cc_no_signalling and cq_no_signalling checks only the k
# leave-one-out groups: it must reproduce the reference restricted to them
# exactly, and bound the reference over every subgroup by a factor k - 1.


def _reference_subgroups(k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(1, k):
        out.extend(itertools.combinations(range(k), r))
    return out


def _leave_one_out(k: int) -> list[tuple[int, ...]]:
    """The groups of k - 1 parties, in ``_reference_subgroups`` order."""
    return [group for group in _reference_subgroups(k) if len(group) == k - 1]


def reference_cc_sweep(box: CCBox, tol: float) -> dict:
    """Per proper subgroup, in ``_reference_subgroups`` order: its worst
    violation and its witnesses above ``tol``."""
    k = box.parties
    labels = tuple(chr(ord("A") + i) for i in range(k))
    sweep = {}
    for subgroup in _reference_subgroups(k):
        complement = tuple(i for i in range(k) if i not in subgroup)
        marg = box.table.sum(axis=tuple(k + i for i in complement))
        worst, witnesses = 0.0, []
        for own in itertools.product(*(range(box.input_sizes[i]) for i in subgroup)):
            dists = []
            for outside in itertools.product(
                *(range(box.input_sizes[i]) for i in complement)
            ):
                idx = [0] * k
                for pos, i in enumerate(subgroup):
                    idx[i] = own[pos]
                for pos, i in enumerate(complement):
                    idx[i] = outside[pos]
                dists.append((outside, marg[tuple(idx)].ravel()))
            for (o1, p1), (o2, p2) in itertools.combinations(dists, 2):
                d = float(0.5 * np.sum(np.abs(p1 - p2)))
                worst = max(worst, d)
                if d > tol:
                    witnesses.append(
                        Witness(tuple(labels[i] for i in subgroup), own, (o1, o2), d)
                    )
        sweep[subgroup] = (worst, witnesses)
    return sweep


def reference_cq_sweep(box: CQBox, tol: float) -> dict:
    """``reference_cc_sweep`` for a C-Q box, in trace distance."""
    k = len(box.input_sizes)
    labels = box.structure.labels
    sweep = {}
    for subgroup in _reference_subgroups(k):
        keep = [labels[i] for i in subgroup]
        complement = tuple(i for i in range(k) if i not in subgroup)
        worst, witnesses = 0.0, []
        for own in itertools.product(*(range(box.input_sizes[i]) for i in subgroup)):
            reduced = []
            for outside in itertools.product(
                *(range(box.input_sizes[i]) for i in complement)
            ):
                idx = [0] * k
                for pos, i in enumerate(subgroup):
                    idx[i] = own[pos]
                for pos, i in enumerate(complement):
                    idx[i] = outside[pos]
                reduced.append((outside, partial_trace(box.output(idx), keep)))
            for (o1, r1), (o2, r2) in itertools.combinations(reduced, 2):
                d = trace_distance(r1, r2)
                worst = max(worst, d)
                if d > tol:
                    witnesses.append(Witness(tuple(keep), own, (o1, o2), d))
        sweep[subgroup] = (worst, witnesses)
    return sweep


def reference_report(sweep: dict, tol: float, groups: list) -> NoSignallingReport:
    """The reference report over ``groups``, witnesses in their order."""
    worst = max((sweep[g][0] for g in groups), default=0.0)
    witnesses = tuple(w for g in groups for w in sweep[g][1])
    return NoSignallingReport(worst <= tol, worst, witnesses, tol)


def reference_sweep(box, tol: float) -> dict:
    return (reference_cc_sweep if isinstance(box, CCBox) else reference_cq_sweep)(box, tol)


def assert_same_report(report: NoSignallingReport, reference: NoSignallingReport) -> None:
    assert report.passed == reference.passed
    assert report.worst_violation == reference.worst_violation
    assert report.witnesses == reference.witnesses
    assert report.tolerance == reference.tolerance


# Rounding room of loo <= all <= (k - 1) loo: the bound holds for exact
# views, and a local box's distances are rounding, of a few ulps of 1 each.
# Over 20,000 random 3- and 4-party boxes (local, kicked by a weight of
# 1e-6 to 0.1 of a random box, or random) all - (k - 1) loo was at most
# 1.1e-16; all exceeded loo on 3,149 of them, by a factor of up to 1.85.
RELATION_SLACK = 64 * np.finfo(float).eps


def assert_leave_one_out_bound(loo: float, every: float, k: int) -> None:
    """loo <= all <= (k - 1) loo: each proper subgroup's view is a marginal
    (or partial trace) of a leave-one-out group's, which contracts distance,
    and changing its at most k - 1 outside inputs one at a time moves it by
    at most loo each time."""
    assert loo <= every <= (k - 1) * loo + RELATION_SLACK, (loo, every)


def check_against_reference(box, tol: float) -> None:
    """The sweep's report is the reference's over the leave-one-out groups,
    bit for bit, and bounds the reference's worst over every subgroup."""
    check = cc_no_signalling if isinstance(box, CCBox) else cq_no_signalling
    report = check(box, tol=tol)
    sweep = reference_sweep(box, tol)
    k = len(box.input_sizes)
    assert_same_report(report, reference_report(sweep, tol, _leave_one_out(k)))
    every = max(worst for worst, _ in sweep.values())
    assert_leave_one_out_bound(report.worst_violation, every, k)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BOX_FIXTURES = sorted(
    path.name for path in FIXTURES.glob("*.json") if '"kind"' in path.read_text()
)
TOLERANCES = (0.0, 1e-12, TOLERANCE, 1e-3, 0.2, 1.0)
# the weight of a random box mixed into a local one: none, a small kick
# (where a smaller subgroup may see more than every leave-one-out group), all
KICKS = (0.0, 1e-3, 1.0)


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def random_unit_vectors(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def local_vectors(rng: np.random.Generator, inputs: tuple, dims: tuple, families: int) -> np.ndarray:
    """``(families,) + inputs + (D,)`` products of per-party unit vectors,
    each chosen by its party's own input."""
    amps = np.ones((families,) + inputs + (1,), dtype=complex)
    for j, (n, d) in enumerate(zip(inputs, dims)):
        shape = [families] + [1] * len(inputs) + [d]
        shape[1 + j] = n
        amps = (amps[..., :, None] * random_unit_vectors(rng, tuple(shape))[..., None, :]).reshape(
            amps.shape[:-1] + (-1,)
        )
    return amps


@st.composite
def sizes_and_rng(draw, parties=st.integers(2, 4), kicks=st.sampled_from(KICKS)):
    """Input sizes 1-3 (1-2 for four parties) and local output sizes (or
    dimensions) 1-2 for 2-4 parties, a seeded generator, and the weight of
    a random box mixed into a local one."""
    k = draw(parties)
    inputs = tuple(draw(st.integers(1, 2 if k == 4 else 3)) for _ in range(k))
    outputs = tuple(draw(st.integers(1, 2)) for _ in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return inputs, outputs, rng, draw(kicks)


@st.composite
def cc_tables(draw, parties=st.integers(2, 4), kicks=st.sampled_from(KICKS)) -> CCBox:
    inputs, outputs, rng, kick = draw(sizes_and_rng(parties, kicks))
    k = len(inputs)
    # product of per-party conditionals: non-signalling up to rounding
    local = np.ones(inputs + outputs)
    for j in range(k):
        cond = rng.random((inputs[j], outputs[j]))
        shape = [1] * (2 * k)
        shape[j], shape[k + j] = inputs[j], outputs[j]
        local = local * (cond / cond.sum(axis=1, keepdims=True)).reshape(shape)
    noise = rng.random(inputs + outputs)
    noise = noise / noise.reshape(inputs + (-1,)).sum(axis=-1).reshape(inputs + (1,) * k)
    return CCBox(inputs, outputs, (1 - kick) * local + kick * noise)


@st.composite
def cq_boxes(draw, parties=st.integers(2, 4), kicks=st.sampled_from(KICKS)) -> CQBox:
    """Pure boxes stored as amplitudes and mixed ones stored as matrices."""
    inputs, dims, rng, kick = draw(sizes_and_rng(parties, kicks))
    structure = PartyStructure(tuple(zip("ABCD", dims)))
    d = structure.total_dim
    if draw(st.booleans()):
        amps = (1 - kick) * local_vectors(rng, inputs, dims, 1)[0]
        amps += kick * random_unit_vectors(rng, inputs + (d,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        return CQBox(inputs, structure, amplitudes=amps)
    # product of per-party states chosen by each party's own input
    states = [[_random_density(rng, n) for _ in range(x)] for x, n in zip(inputs, dims)]
    outputs = {}
    for key in itertools.product(*(range(n) for n in inputs)):
        mat = np.array([[1.0]], dtype=complex)
        for j, x in enumerate(key):
            mat = np.kron(mat, states[j][x])
        outputs[key] = (1 - kick) * mat + kick * _random_density(rng, d)
    return CQBox.from_outputs(inputs, structure, outputs)


class TestSweepMatchesReference:
    @pytest.mark.parametrize("name", BOX_FIXTURES)
    def test_fixtures(self, name):
        box = load_box(FIXTURES / name)
        for tol in TOLERANCES:
            check_against_reference(box, tol)

    @settings(max_examples=150, deadline=None)
    @given(box=cc_tables(), tol=st.sampled_from(TOLERANCES))
    def test_random_cc_tables(self, box, tol):
        check_against_reference(box, tol)

    @settings(max_examples=150, deadline=None)
    @given(box=cq_boxes(), tol=st.sampled_from(TOLERANCES))
    def test_random_cq_boxes(self, box, tol):
        check_against_reference(box, tol)

    @settings(max_examples=60, deadline=None)
    @given(
        box=st.one_of(
            cc_tables(st.integers(3, 4), st.floats(1e-6, 0.1)),
            cq_boxes(st.integers(3, 4), st.floats(1e-6, 0.1)),
        )
    )
    def test_leave_one_out_bounds_every_subgroup(self, box):
        """loo <= all <= (k - 1) loo on 3- and 4-party boxes near a local
        one, where a smaller subgroup can see more than any leave-one-out
        group; C-C tables and pure and mixed C-Q boxes."""
        check = cc_no_signalling if isinstance(box, CCBox) else cq_no_signalling
        every = max(worst for worst, _ in reference_sweep(box, TOLERANCE).values())
        assert_leave_one_out_bound(check(box).worst_violation, every, len(box.input_sizes))

    @settings(max_examples=60, deadline=None)
    @given(setup=sizes_and_rng(), families=st.integers(1, 4))
    def test_random_pure_families(self, setup, families):
        """Each family member's worst violation is its box's, bit for bit:
        the reference's over the leave-one-out groups, within the bound of
        the reference's over every subgroup."""
        inputs, dims, rng, kick = setup
        structure = PartyStructure(tuple(zip("ABCD", dims)))
        amps = (1 - kick) * local_vectors(rng, inputs, dims, families)
        amps += kick * random_unit_vectors(rng, (families,) + inputs + (structure.total_dim,))
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
        worst = family_worst_violation(amps, structure)
        assert worst.shape == (families,)
        k = len(inputs)
        for f in range(families):
            box = CQBox(inputs, structure, amplitudes=amps[f])
            assert worst[f] == cq_no_signalling(box).worst_violation
            sweep = reference_cq_sweep(box, TOLERANCE)
            assert worst[f] == reference_report(sweep, TOLERANCE, _leave_one_out(k)).worst_violation
            assert_leave_one_out_bound(worst[f], max(w for w, _ in sweep.values()), k)

    def test_family_stack_is_validated_as_boxes_are(self):
        abc = PartyStructure.qubits("ABC")
        with pytest.raises(ValueError, match="needs a family axis"):
            family_worst_violation(np.ones((2, 2, 2, 8)), abc)
        amps = np.zeros((2, 2, 2, 2, 8), dtype=complex)
        amps[..., 0] = 1.0
        amps[1, 0, 1, 0, 0] = 2.0
        with pytest.raises(ValueError, match="output at input 1,0,1,0 is invalid: state vector norm"):
            family_worst_violation(amps, abc)
        with pytest.raises(ValueError, match="output stack shape"):
            family_worst_violation(amps[..., :4], abc)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple),
        families=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # 1x1 states of one traced party of dim 4: sums in pairwise order
    @example(dims=(1, 4, 1), families=2, seed=1)
    @example(dims=(1, 1, 1, 4), families=3, seed=2)
    def test_reduced_states_equal_traced_outer_products(self, dims, families, seed):
        """``_reduced_without`` of a pure stack, for every left-out party j,
        equals ``partial_trace_array`` of its outer products bit for bit,
        and the sweep builds each j's states once, from j = k - 1 down (the
        groups in combinations order), and frees them before it builds the
        next.  Dim-1 parties reach the ``d == 1`` branch."""
        rng = np.random.default_rng(seed)
        k = len(dims)
        inputs = tuple(int(n) for n in rng.integers(1, 3, size=k))
        amps = random_unit_vectors(rng, (families,) + inputs + (math.prod(dims),))
        outer = amps[..., :, None] * amps[..., None, :].conj()
        for j in range(k):
            keep = [i for i in range(k) if i != j]
            states = boxes._reduced_without(amps, dims, j)
            assert np.array_equal(states, partial_trace_array(outer, dims, keep)), j

        built, alive = [], []

        def view(j):
            assert all(ref() is None for ref in alive), j
            built.append(j)
            states = boxes._reduced_without(amps, dims, j)
            alive.append(weakref.ref(states))
            return states

        groups = [group for group, *_ in boxes._subgroup_sweep(inputs, view, boxes._trace_distances)]
        assert groups == _leave_one_out(k)
        assert built == list(range(k - 1, -1, -1))

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple),
        batch=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(1, 2, 3), batch=(2,), seed=3)
    @example(dims=(1, 1, 8), batch=(2, 2), seed=4)
    @example(dims=(2, 1), batch=(3,), seed=5)
    def test_views_equal_full_stack_traces(self, dims, batch, seed):
        """The views the sweep reads, from a pure box's vectors and from a
        mixed box's matrices, equal ``partial_trace_array`` of the full
        D x D stack, the per-subgroup path they replace.  Every smaller
        subgroup's view is a partial trace of a leave-one-out view, the one
        without the subgroup's last outside party, bit for bit: the fact
        that lets the sweep skip it."""
        rng = np.random.default_rng(seed)
        k = len(dims)
        structure = PartyStructure(tuple(zip("ABCD", dims)))
        amps = random_unit_vectors(rng, (2,) + batch + (math.prod(dims),))
        pure, other = amps[..., :, None] * amps[..., None, :].conj()
        mixed = 0.25 * pure + 0.75 * other
        inputs = batch + (1,) * (k - len(batch))  # one input axis per party
        stacks = {"pure": pure.reshape(inputs + pure.shape[-2:]),
                  "mixed": mixed.reshape(inputs + mixed.shape[-2:])}
        cases = [
            (CQBox(inputs, structure, amplitudes=amps[0].reshape(inputs + amps.shape[-1:])), "pure"),
            (CQBox(inputs, structure, stacks["pure"]), "pure"),
            (CQBox(inputs, structure, stacks["mixed"]), "mixed"),
        ]
        for box, name in cases:
            full = stacks[name][None]
            for j in range(k):
                keep = [i for i in range(k) if i != j]
                view = boxes._reduced(box, j)
                assert np.array_equal(view, partial_trace_array(full, dims, keep)), (name, j)
                rest = dims[:j] + dims[j + 1 :]
                for group in _reference_subgroups(k):
                    if j not in group and set(range(j + 1, k)) <= set(group):
                        traced = partial_trace_array(view, rest, [i - (i > j) for i in group])
                        assert np.array_equal(traced, partial_trace_array(full, dims, group)), group


def test_pure_document_sweep_peak_memory(tmp_path):
    """Loading and sweeping a 16-input pure document at D = 1024 builds no
    D x D stack.  Measured with tracemalloc on a 2-core x86-64 host (Python
    3.11, numpy 2.4): 3.6 MiB, against 259.5 MiB when the box stored every
    output's outer product and each subgroup was traced from that stack."""
    rng = np.random.default_rng(0)
    amps = random_unit_vectors(rng, (4, 4, 1024))
    save_box(CQBox((4, 4), PartyStructure.pair(32), amplitudes=amps), tmp_path / "big.json")
    cq_no_signalling(load_box(FIXTURES / "phase_quarter_turn.json"))  # warm-up: caches, imports
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        box = load_box(tmp_path / "big.json")
        report = cq_no_signalling(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert not report.passed and "matrices" not in vars(box)


def reference_pure_fault(vectors: np.ndarray):
    """The check of a pure stack before it skipped the eigensolve:
    ``invalid_vector``, then ``invalid_density`` of the outer products."""
    return invalid_vector(vectors) or invalid_density(
        vectors[..., :, None] * vectors[..., None, :].conj()
    )


@st.composite
def faulty_pure_stacks(draw) -> tuple[PartyStructure, np.ndarray]:
    """Unit vectors over 2-3 parties, one per input setting, with up to
    three replaced by a vector scaled near both the norm and the trace
    boundary, a zero vector, or one with a NaN or infinite entry."""
    k = draw(st.integers(2, 3))
    inputs = tuple(draw(st.integers(1, 3)) for _ in range(k))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = inputs + (math.prod(dims),)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vectors = z / np.linalg.norm(z, axis=-1, keepdims=True)
    keys = st.tuples(*(st.integers(0, n - 1) for n in inputs))
    for key in draw(st.lists(keys, max_size=3)):
        fault = draw(st.sampled_from(["scale", "zero", "nan", "inf", "-inf"]))
        if fault == "scale":  # |norm - 1| = tol and |norm^2 - 1| = tol sit at 1 and 0.5
            with np.errstate(invalid="ignore"):  # a vector may hold an infinite entry
                vectors[key] *= 1 + draw(st.floats(-1.5, 1.5)) * TOLERANCE
        elif fault == "zero":
            vectors[key] = 0
        else:
            vectors[key + (draw(st.integers(0, shape[-1] - 1)),)] = float(fault)
    return PartyStructure(tuple(zip("ABC", dims))), vectors


class TestPureValidationMatchesDensityCheck:
    """Pure stacks are checked on their vectors; every verdict, input index
    and message equals the eigensolve check of their outer products."""

    def assert_same_verdict(self, structure: PartyStructure, vectors: np.ndarray) -> None:
        fault = reference_pure_fault(vectors)
        assert invalid_pure(vectors) == fault
        family = vectors[None]
        if fault is None:
            box = CQBox(vectors.shape[:-1], structure, amplitudes=vectors)
            assert np.array_equal(box.matrices, vectors[..., :, None] * vectors[..., None, :].conj())
            assert not box.matrices.flags.writeable
            family_worst_violation(family, structure)
            return
        key, reason = fault
        message = f"output at input {','.join(map(str, key))} is invalid: {reason}"
        with pytest.raises(ValueError) as raised:
            CQBox(vectors.shape[:-1], structure, amplitudes=vectors)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            family_worst_violation(family, structure)
        assert str(raised.value) == message.replace("input ", "input 0,", 1)

    @settings(max_examples=300, deadline=None)
    @given(stack=faulty_pure_stacks())
    def test_random_stacks(self, stack):
        self.assert_same_verdict(*stack)

    @pytest.mark.parametrize(
        "scale, reason",
        [
            # the edge band: the norm is within tolerance of 1, its square is not
            (1 + 0.75 * TOLERANCE, "density matrix trace"),
            (1 - 0.75 * TOLERANCE, "density matrix trace"),
            (1 + 0.25 * TOLERANCE, None),
            (1 + 1.25 * TOLERANCE, "state vector norm"),
            (0.0, "state vector norm 0.0 deviates"),
        ],
    )
    def test_edge_band_and_zero_vector(self, scale, reason):
        abc = PartyStructure.qubits("ABC")
        vectors = np.tile(w_state().amplitudes, (2, 2, 2, 1))
        vectors[1, 0, 1] *= scale
        fault = invalid_pure(vectors)
        assert (fault is None) == (reason is None)
        if reason:
            assert fault[0] == (1, 0, 1) and fault[1].startswith(reason)
        self.assert_same_verdict(abc, vectors)


def test_outside_pairs_are_cached_read_only():
    for n in range(1, 9):
        first, second = boxes._outside_pairs(n)
        assert boxes._outside_pairs(n)[0] is first
        expected = np.triu_indices(n, 1)
        assert np.array_equal(first, expected[0]) and np.array_equal(second, expected[1])
        assert not first.flags.writeable and not second.flags.writeable


# Reference C-Q box code from before the array storage: one validated
# DensityMatrix per input key, and Python loops over the keys for the
# distance, the mixture, the induced table and the W-phase family.  The
# stack-backed CQBox and its kernels must reproduce them exactly.


def reference_outputs(outputs: dict, structure: PartyStructure) -> dict:
    """Input key -> DensityMatrix, as the dict-backed box stored it."""
    return {
        key: out.density() if isinstance(out, StateVector) else DensityMatrix(out, structure)
        for key, out in outputs.items()
    }


def reference_document_outputs(doc: dict) -> dict:
    structure = PartyStructure(tuple((p["label"], p["dim"]) for p in doc["parties"]))
    outputs = {}
    for name, entry in doc["outputs"].items():
        key = tuple(int(v) for v in name.split(","))
        if "amplitudes" in entry:
            arr = np.asarray(entry["amplitudes"], dtype=float)
            outputs[key] = StateVector(arr[..., 0] + 1j * arr[..., 1], structure)
        else:
            arr = np.asarray(entry["matrix"], dtype=float)
            outputs[key] = arr[..., 0] + 1j * arr[..., 1]
    return reference_outputs(outputs, structure)


def reference_distance(a: dict, b: dict) -> float:
    return max(trace_distance(a[key], b[key]) for key in a)


def reference_mix(weighted: list, structure: PartyStructure) -> dict:
    first = weighted[0][1]
    mixed = {}
    for key in first:
        mat = np.zeros((structure.total_dim,) * 2, dtype=complex)
        for w, outputs in weighted:
            mat += w * outputs[key].matrix
        mixed[key] = DensityMatrix(mat, structure)
    return mixed


def reference_induced(outputs: dict, sizes: tuple, dims: tuple, measurements: list) -> np.ndarray:
    table = np.zeros(sizes + dims)
    for key, rho in outputs.items():
        frame = kron_all(
            [np.asarray(measurements[j][key[j]], dtype=complex) for j in range(len(dims))]
        )
        rotated = frame.conj().T @ rho.matrix @ frame
        table[key] = np.clip(np.real(np.diagonal(rotated)), 0.0, None).reshape(dims)
    return table


def reference_w_phase_outputs(assignment: PhaseAssignment) -> dict:
    structure = PartyStructure.qubits("ABC")
    states = {}
    for key in itertools.product(range(2), repeat=3):
        amp = np.zeros(8, dtype=complex)
        amp[4] = np.exp(1j * assignment.alpha[key])
        amp[2] = np.exp(1j * assignment.beta[key])
        amp[1] = np.exp(1j * assignment.gamma[key])
        states[key] = StateVector(amp / math.sqrt(3), structure)
    return states


def assert_stack_matches(box: CQBox, outputs: dict) -> None:
    assert sorted(outputs) == box.inputs
    for key, rho in outputs.items():
        assert np.array_equal(box.matrices[key], rho.matrix), key


# |pure - dense| distance of two amplitude-stored boxes: at most 1.0e-15
# over 3,000 random pairs of 2-3 parties of dimension 1-3, where the dense
# trace norm carries the rounding of an eigensolve
PURE_DISTANCE_SLACK = 4e-15


def assert_kernels_match(box: CQBox, other: CQBox, outputs: dict, other_outputs: dict, rng) -> None:
    """Distance, mixture and induced table of the stack-backed boxes equal
    the per-key reference on the same outputs, bit for bit; the distance of
    two amplitude-stored boxes, formed from their vectors, is within
    ``PURE_DISTANCE_SLACK`` of the reference's dense trace distance."""
    distance = cq_box_distance(box, other)
    if box.amplitudes is not None and other.amplitudes is not None:
        assert abs(distance - reference_distance(outputs, other_outputs)) <= PURE_DISTANCE_SLACK
    else:
        assert distance == reference_distance(outputs, other_outputs)
    # three components, so that the summation order shows in the rounding
    mixed = reference_mix_boxes([(0.2, box), (0.5, other), (0.3, box)])
    expected = reference_mix([(0.2, outputs), (0.5, other_outputs), (0.3, outputs)], box.structure)
    assert_stack_matches(mixed, expected)
    measurements = [
        [haar_unitary(d, rng).matrix for _ in range(n)]
        for n, d in zip(box.input_sizes, box.structure.dims)
    ]
    expected = reference_induced(outputs, box.input_sizes, box.structure.dims, measurements)
    assert np.array_equal(induced_ccbox(box, measurements).table, expected)


def _dephased(box: CQBox) -> tuple[CQBox, dict]:
    """A second box on the same inputs: each output mixed with the
    maximally mixed state, weight 1/4."""
    d = box.structure.total_dim
    outputs = {key: 0.75 * box.matrices[key] + 0.25 * np.eye(d) / d for key in box.inputs}
    return CQBox.from_outputs(box.input_sizes, box.structure, outputs), reference_outputs(
        outputs, box.structure
    )


CQ_FIXTURES = [name for name in BOX_FIXTURES if '"cq"' in (FIXTURES / name).read_text()]


@pytest.mark.parametrize("seed", [5, 9])
def test_pure_distance_keeps_a_tiny_distance_at_d256(seed):
    """phi = e^{0.7i} psi plus noise of norm 1e-15 at D = 256: the distance
    of the two amplitude-stored boxes, ||phi - <psi|phi> psi||, stays within
    1e-15 of the dense trace distance (1.5e-15 here).  The root of
    1 - |<psi|phi>|^2 gave 1.5e-8 and 2.1e-8 on these two seeds with
    OpenBLAS's SkylakeX kernels, above the 1e-9 that ``synth`` allows, and 0 on
    most other seeds: it keeps only the last bits of |<psi|phi>|^2."""
    rng = np.random.default_rng(seed)
    z, noise = (rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(2))
    psi = z / np.linalg.norm(z)
    phi = np.exp(0.7j) * psi + 1e-15 * noise / np.linalg.norm(noise)
    structure = PartyStructure.pair(16)
    a, b = (CQBox((1, 1), structure, amplitudes=v[None, None]) for v in (psi, phi))
    dense = 0.5 * trace_norm(np.outer(psi, psi.conj()) - np.outer(phi, phi.conj()))
    assert abs(cq_box_distance(a, b) - dense) <= 1e-15


class TestStackMatchesReference:
    @pytest.mark.parametrize("name", BOX_FIXTURES)
    def test_fixtures(self, name):
        doc = json.loads((FIXTURES / name).read_text())
        box = load_box(FIXTURES / name)
        if doc["kind"] == "cc":
            assert not isinstance(box, CQBox)
            return
        outputs = reference_document_outputs(doc)
        assert_stack_matches(box, outputs)
        other, other_outputs = _dephased(box)
        assert_kernels_match(box, other, outputs, other_outputs, np.random.default_rng(7))

    def test_every_cq_fixture_is_covered(self):
        assert len(CQ_FIXTURES) >= 10

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_boxes(self, data):
        k = data.draw(st.integers(2, 3))
        sizes = tuple(data.draw(st.integers(1, 3)) for _ in range(k))
        dims = tuple(data.draw(st.integers(1, 3)) for _ in range(k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        structure = PartyStructure(tuple(zip("ABC", dims)))
        d = structure.total_dim

        def draw_outputs(pure: bool) -> dict:
            outputs = {}
            for key in np.ndindex(*sizes):
                if pure:
                    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    outputs[key] = StateVector(z / np.linalg.norm(z), structure)
                else:
                    outputs[key] = _random_density(rng, d)
            return outputs

        raw = draw_outputs(data.draw(st.booleans()))
        other_raw = draw_outputs(data.draw(st.booleans()))
        box = CQBox.from_outputs(sizes, structure, raw)
        other = CQBox.from_outputs(sizes, structure, other_raw)
        outputs = reference_outputs(raw, structure)
        other_outputs = reference_outputs(other_raw, structure)
        assert_stack_matches(box, outputs)
        assert_stack_matches(other, other_outputs)
        pure = all(isinstance(v, StateVector) for v in raw.values())
        assert (box.amplitudes is not None) == pure
        if pure:
            for key, state in raw.items():
                assert np.array_equal(box.amplitudes[key], state.amplitudes)
        assert_kernels_match(box, other, outputs, other_outputs, rng)

    @settings(max_examples=100, deadline=None)
    @given(phases=st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=24, max_size=24
    ))
    def test_w_phase_box(self, phases):
        grids = np.reshape(phases, (3, 2, 2, 2))
        assignment = PhaseAssignment(*grids)
        box = w_phase_box(assignment)
        states = reference_w_phase_outputs(assignment)
        assert_stack_matches(box, {key: state.density() for key, state in states.items()})
        for key, state in states.items():
            assert np.array_equal(box.amplitudes[key], state.amplitudes)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -2.5, math.pi])
    def test_ghz_phase_box(self, theta):
        structure = PartyStructure.qubits("ABC")
        box = ghz_phase_box(theta)
        for key in box.inputs:
            amp = np.zeros(8, dtype=complex)
            amp[0] = 1.0
            amp[7] = np.exp(1j * theta * key[0] * key[1] * key[2])
            state = StateVector(amp / math.sqrt(2), structure)
            assert np.array_equal(box.amplitudes[key], state.amplitudes)
            assert np.array_equal(box.matrices[key], state.density().matrix)
