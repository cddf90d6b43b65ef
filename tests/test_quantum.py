"""Tests for the state/operator core.

Expected values are produced by independent oracles inside the tests
(raw kron/matmul linear algebra, direct inner products, analytic
closed forms) rather than by the functions under test.
"""
from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from cqboxes.quantum import (
    DensityMatrix,
    PartyStructure,
    SchmidtForm,
    StateVector,
    UnitaryOperator,
    apply_local,
    basis_state,
    bell_state,
    check_uu_star_invariance,
    fidelity,
    haar_unitary,
    invalid_density,
    invalid_distribution,
    invalid_tolerance,
    invalid_unitary,
    invalid_vector,
    partial_trace,
    partial_trace_array,
    pauli_x,
    pauli_z_power,
    phase_diag,
    phi_plus,
    real_array,
    schmidt,
    su2,
    tensor,
    trace_distance,
    two_level_state,
    w_state,
)

AB = PartyStructure.qubits("AB")


def ket(*amps):
    a = np.array(amps, dtype=complex)
    return a / np.linalg.norm(a)


class TestPartyStructure:
    def test_labels_dims_total(self):
        s = PartyStructure((("A", 2), ("B", 3)))
        assert s.labels == ("A", "B")
        assert s.dims == (2, 3)
        assert s.total_dim == 6
        assert s.index_of("B") == 1
        assert s.dim_of("B") == 3

    @pytest.mark.parametrize(
        "parties, message",
        [
            ((("A", 2), ("A", 2)), "party structure has duplicate party labels: ['A', 'A']"),
            ((("A", 2.5), ("B", 2)), "party structure gives party 'A' dim 2.5, not a positive integer"),
            ((("A", True), ("B", 2)), "party structure gives party 'A' dim True, not a positive integer"),
            ((("A", 0),), "party structure gives party 'A' dim 0, not a positive integer"),
            (((1, 2), ("B", 2)), "party structure gives label 1, not a string"),
        ],
    )
    def test_invalid_parties_rejected(self, parties, message):
        with pytest.raises(ValueError) as raised:
            PartyStructure(parties)
        assert str(raised.value) == message

    def test_numpy_integer_dims_accepted(self):
        assert PartyStructure((("A", np.int64(3)),)).total_dim == 3

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            AB.index_of("C")


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0, 0, 0]), AB)

    def test_state_vector_trace_is_checked_as_a_pure_box_checks_it(self):
        """The norm passes the tolerance but its square, the trace of the
        density matrix, does not: the vector used to be accepted, and then
        ``density()`` refused it."""
        message = "density matrix trace (1.0000000016000001+0j) deviates from 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StateVector([1 + 0.8e-9, 0, 0, 0], AB)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.5, 0.5, -0.5]), AB)
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.1, 0.1, 0.2]), AB)

    @pytest.mark.parametrize("entry", [(3, 3), (0, 3)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_named_before_the_spectrum(self, bad, entry):
        vectors = np.tile(np.array([1.0, 0, 0, 0], dtype=complex), (2, 3, 1))
        vectors[1, 2, 3] = bad
        assert invalid_vector(vectors) == ((1, 2), f"state vector norm {abs(bad)} is not finite")
        matrices = np.zeros((2, 3, 4, 4), dtype=complex)
        matrices[..., 0, 0] = 1.0
        matrices[(1, 2) + entry] = bad
        assert invalid_density(matrices) == ((1, 2), "density matrix has a non-finite entry")
        with pytest.raises(ValueError, match="non-finite entry"):
            DensityMatrix(matrices[1, 2], AB)

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            UnitaryOperator(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_unitary_stack_names_its_first_fault(self, bad):
        stack = np.tile(np.eye(2, dtype=complex), (3, 2, 1, 1))
        assert invalid_unitary(stack) is None
        stack[2, 0] = [[1, 1], [0, 1]]
        stack[1, 1, 0, 1] = bad
        assert invalid_unitary(stack) == ((1, 1), "matrix has a non-finite entry")
        stack[1, 1, 0, 1] = 0.0
        assert invalid_unitary(stack) == ((2, 0), "matrix is not unitary within tolerance")
        scaled = stack[1, 0] * (1 + 1e-6)
        assert invalid_unitary(scaled) == ((), "matrix is not unitary within tolerance")
        assert invalid_unitary(scaled, tol=1e-5) is None

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ([[0.5, 0.5], [0.25, 0.75]], None),
            ([[0.5, 0.5], [math.nan, 1.0]], ((1,), "probabilities sum to nan, not a finite number")),
            ([[math.inf, 0.5], [0.5, 0.5]], ((0,), "probabilities sum to inf, not a finite number")),
            ([[0.5, 0.5], [math.inf, -math.inf]], ((1,), "probabilities sum to nan, not a finite number")),
            ([[1.2, -0.2], [0.5, 0.5]], ((0,), "probability -0.2 is negative beyond tolerance")),
            ([[0.5, 0.5], [0.5, 0.4]], ((1,), "probabilities sum to 0.9, not 1 within tolerance")),
        ],
    )
    def test_distribution_stack_names_its_first_fault(self, rows, fault):
        assert invalid_distribution(np.array(rows)) == fault

    def test_one_distribution_has_the_empty_index(self):
        assert invalid_distribution([math.nan, 1.0]) == ((), "probabilities sum to nan, not a finite number")
        assert invalid_distribution((0.25, 0.75)) is None

    @pytest.mark.parametrize(
        "tol, reason",
        [
            (0, None),
            (1e-9, None),
            (np.float64(0.5), None),
            (math.nan, "must be a finite number, got nan"),
            (-math.inf, "must be a finite number, got -inf"),
            ("1e-9", "must be a finite number, got '1e-9'"),
            (None, "must be a finite number, got None"),
            (-1e-12, "must be non-negative, got -1e-12"),
        ],
    )
    def test_tolerance_is_finite_and_non_negative(self, tol, reason):
        assert invalid_tolerance(tol) == reason

    @pytest.mark.parametrize(
        "data, reason",
        [
            ([[1, 2.5], [0, -3]], None),
            (np.arange(4).reshape(2, 2), None),
            ([np.float64(0.5), np.int64(2)], None),
            (np.array([0.5, "0.5"], dtype=object), 'holds "0.5", not a JSON number'),
            (["x"], "must hold numbers: could not convert string to float: 'x'"),
            (np.array([True, False]), "holds true, not a JSON number"),
            ([1.0, None], "holds null, not a JSON number"),
            ([[1.0], [2.0, 3.0]], "must hold numbers: setting an array element with a sequence"),
        ],
    )
    def test_real_array_takes_numbers_only(self, data, reason):
        if reason is None:
            assert np.array_equal(real_array(data), np.asarray(data, dtype=float))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
                real_array(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "data, shown",
        [
            (1j * np.ones((2, 2)), "1j"),
            (np.array([1.0 + 0j]), "(1+0j)"),
            (np.complex64(1j), "np.complex64(1j)"),
            ([np.complex64(1j)], "np.complex64(1j)"),
            ([1.0, np.complex128(2 + 0j)], "np.complex128(2+0j)"),
        ],
    )
    def test_complex_numpy_data_is_refused_before_a_cast(self, data, shown):
        """numpy's cast of complex data to float warns; that warning used
        to escape, under -W error, in place of the refusal.  The filter that
        silences it is taken out again."""
        filters = list(warnings.filters)
        message = f'holds "{shown}", not a JSON number'
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            real_array(data)
        assert warnings.filters == filters

    def test_distribution_tolerance_is_the_callers(self):
        assert invalid_distribution([0.5, 0.5 + 1e-8]) is not None
        assert invalid_distribution([0.5, 0.5 + 1e-8], tol=1e-6) is None
        assert invalid_distribution([]) == ((), "probabilities sum to 0.0, not 1 within tolerance")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: UnitaryOperator(np.array([[math.nan, 0], [0, 1]])), "matrix has a non-finite entry"),
            (lambda: phase_diag([0.0, math.nan]), "matrix has a non-finite entry"),
            (lambda: su2([0, 0, 1], math.nan), "matrix has a non-finite entry"),
            (lambda: su2([math.nan, 0, 1], 0.5), "axis must be a unit 3-vector"),
            (lambda: su2([0, 0], 0.5), "axis must be a unit 3-vector"),
            (lambda: two_level_state(math.nan, 0.6), "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
            (lambda: two_level_state(0.8, 0.7), "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
            (lambda: UnitaryOperator(np.ones((2, 3))), "unitary must be square, got shape (2, 3)"),
            (lambda: StateVector(np.ones(3) / math.sqrt(3), AB),
             "amplitude length 3 does not match structure dimension 4"),
            (lambda: DensityMatrix(np.eye(2) / 2, AB),
             "matrix shape (2, 2) does not match structure dimension 4"),
            (lambda: tensor([]), "tensor requires at least one state"),
            (lambda: partial_trace(bell_state(0).density(), []), "keep must name at least one party"),
            (lambda: basis_state(AB, (0,)), "one level per party required"),
        ],
    )
    def test_refusals_name_the_fault(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert message in str(raised.value)

    def test_failed_schmidt_reconstruction_is_an_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(SchmidtForm, "reconstruct", lambda self: np.zeros(4))
        with pytest.raises(ArithmeticError, match="Schmidt reconstruction failed"):
            schmidt(bell_state(0))

    def test_arrays_frozen(self):
        v = bell_state(0)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0


class TestNamedStates:
    def test_bell_states(self):
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(bell_state(0).amplitudes, [r, 0, 0, r], atol=1e-15)
        np.testing.assert_allclose(bell_state(1).amplitudes, [0, r, r, 0], atol=1e-15)
        np.testing.assert_allclose(bell_state(2).amplitudes, [r, 0, 0, -r], atol=1e-15)
        np.testing.assert_allclose(bell_state(3).amplitudes, [0, r, -r, 0], atol=1e-15)
        with pytest.raises(ValueError):
            bell_state(4)

    def test_phi_plus_matches_bell_zero(self):
        np.testing.assert_allclose(phi_plus(2).amplitudes, bell_state(0).amplitudes, atol=1e-15)
        amps = phi_plus(3).amplitudes
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(amps, expected, atol=1e-15)
        with pytest.raises(ValueError):
            phi_plus(1)

    def test_w_state(self):
        amps = w_state().amplitudes
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / math.sqrt(3)  # |001>, |010>, |100>
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_basis_state(self):
        v = basis_state(PartyStructure((("A", 2), ("B", 3))), (1, 2))
        assert v.amplitudes[5] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1


class TestTensor:
    def test_vector_tensor(self):
        # |phi0> tensor |0> has amplitude 1/sqrt2 at |000> and |110>
        third = basis_state(PartyStructure.qubits("C"), (0,))
        v = tensor([bell_state(0), third])
        assert v.structure.labels == ("A", "B", "C")
        expected = np.zeros(8)
        expected[[0, 6]] = 1 / math.sqrt(2)
        np.testing.assert_allclose(v.amplitudes, expected, atol=1e-15)

    def test_density_tensor(self):
        half = DensityMatrix(np.eye(2) / 2, PartyStructure.qubits("A"))
        half_b = DensityMatrix(np.eye(2) / 2, PartyStructure.qubits("B"))
        rho = tensor([half, half_b])
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_kind_mismatch(self):
        half = DensityMatrix(np.eye(2) / 2, PartyStructure.qubits("A"))
        with pytest.raises(ValueError):
            tensor([bell_state(0), half])

    def test_dimension_cap(self):
        big = StateVector(
            np.eye(1, 64)[0].astype(complex), PartyStructure((("A", 64),))
        )
        with pytest.raises(ValueError):
            tensor([big, StateVector(np.eye(1, 65)[0].astype(complex), PartyStructure((("B", 65),)))])


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = partial_trace(bell_state(0).density(), ["A"])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w_two_party_reduction(self):
        # Tr_C |W><W| = (1/3)(|10>+|01>)(<10|+<01|) + (1/3)|00><00|
        rho = partial_trace(w_state().density(), ["A", "B"])
        psi = np.zeros(4, dtype=complex)
        psi[[2, 1]] = 1.0  # |10> + |01>
        expected = np.outer(psi, psi.conj()) / 3
        e00 = np.zeros(4)
        e00[0] = 1.0
        expected += np.outer(e00, e00) / 3
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
        assert rho.structure.labels == ("A", "B")

    def test_keep_order_is_canonical(self):
        # keep=["B"] on |01> leaves |1><1| at B
        rho = partial_trace(basis_state(AB, (0, 1)).density(), ["B"])
        np.testing.assert_allclose(rho.matrix, np.diag([0, 1.0]), atol=1e-15)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            partial_trace(bell_state(0).density(), ["C"])

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        s = PartyStructure((("A", 2), ("B", 3), ("C", 2)))
        for _ in range(20):
            z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            v = StateVector(z / np.linalg.norm(z), s)
            for keep in (["A"], ["B"], ["A", "C"], ["B", "C"]):
                red = partial_trace(v.density(), keep)
                assert abs(np.trace(red.matrix) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(red.matrix)) > -1e-12


def reference_partial_trace_array(matrices, dims, keep):
    """``partial_trace_array`` as it was: one ``np.trace`` per traced party."""
    dims = tuple(dims)
    batch = matrices.shape[:-2]
    t = matrices.reshape(batch + dims + dims)
    remaining = len(dims)
    for j in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=len(batch) + j, axis2=len(batch) + j + remaining)
        remaining -= 1
    d = math.prod(dims[i] for i in keep)
    return t.reshape(batch + (d, d))


@pytest.mark.parametrize("parties", [1, 2, 3])
def test_partial_trace_array_matches_np_trace(parties):
    """Bit for bit equal to the np.trace loop for party dims 1-8, every keep
    set (the empty one included) and batch shapes up to a family of
    three-party boxes."""
    rng = np.random.default_rng(parties)
    for dims in itertools.product(range(1, 9), repeat=parties):
        d = math.prod(dims)
        if d > 64:
            continue
        for batch in [(), (3,), (2, 2), (4, 2, 2, 2)] if d <= 16 else [(), (2, 2)]:
            shape = batch + (d, d)
            matrices = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for r in range(parties + 1):
                for keep in itertools.combinations(range(parties), r):
                    expected = reference_partial_trace_array(matrices, dims, keep)
                    assert np.array_equal(partial_trace_array(matrices, dims, keep), expected), (
                        dims, batch, keep,
                    )


class TestApplyLocal:
    def test_phase_on_alice_of_bell(self):
        # Oracle: raw kron matmul of diag(1, i) x 1 applied to phi0
        out = apply_local(bell_state(0), "A", pauli_z_power(0.5))
        oracle = np.kron(np.diag([1, 1j]), np.eye(2)) @ bell_state(0).amplitudes
        np.testing.assert_allclose(out.amplitudes, oracle, atol=1e-15)
        np.testing.assert_allclose(out.amplitudes, ket(1, 0, 0, 1j), atol=1e-15)

    def test_matches_full_kron_on_three_parties(self):
        rng = np.random.default_rng(5)
        s = PartyStructure((("A", 2), ("B", 3), ("C", 2)))
        z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = StateVector(z / np.linalg.norm(z), s)
        u = haar_unitary(3, 7).matrix
        out = apply_local(v, "B", u)
        oracle = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ v.amplitudes
        np.testing.assert_allclose(out.amplitudes, oracle, atol=1e-12)

    def test_density_conjugation(self):
        rho = apply_local(bell_state(0).density(), "B", pauli_x())
        oracle = apply_local(bell_state(0), "B", pauli_x()).density()
        np.testing.assert_allclose(rho.matrix, oracle.matrix, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_local(bell_state(0), "A", haar_unitary(3, 0))


class TestFidelityTraceDistance:
    def test_orthogonal_bell_states(self):
        # sigma_x on B maps phi0 to the |01>+|10> Bell state, orthogonal to phi0
        flipped = apply_local(bell_state(0), "B", pauli_x())
        assert fidelity(bell_state(0), flipped) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(bell_state(0), flipped) == pytest.approx(1.0, abs=1e-9)

    def test_half_phase_overlap(self):
        # <phi0| (sz^1/2 x 1) |phi0> = (1 + i)/2, squared magnitude 1/2
        rotated = apply_local(bell_state(0), "A", pauli_z_power(0.5))
        oracle = abs(np.vdot(bell_state(0).amplitudes, rotated.amplitudes)) ** 2
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert fidelity(bell_state(0), rotated) == pytest.approx(oracle, abs=1e-12)

    def test_mixed_fidelity_against_pure_formula(self):
        # For pure q, Uhlmann fidelity reduces to <q|rho|q>
        rng = np.random.default_rng(3)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = StateVector(z / np.linalg.norm(z), AB)
        rho = DensityMatrix(np.diag([0.5, 0.2, 0.2, 0.1]), AB)
        oracle = float(np.real(np.vdot(q.amplitudes, rho.matrix @ q.amplitudes)))
        assert fidelity(rho, q.density()) == pytest.approx(oracle, abs=1e-10)
        assert fidelity(q, rho) == pytest.approx(oracle, abs=1e-10)

    def test_global_phase_quotient(self):
        v = bell_state(0)
        w = StateVector(np.exp(1j * 0.7) * v.amplitudes, AB)
        assert fidelity(v, w) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(v, w) == pytest.approx(0.0, abs=1e-9)

    def test_fidelity_one_iff_distance_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = StateVector(z / np.linalg.norm(z), AB)
            z2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = StateVector(z2 / np.linalg.norm(z2), AB)
            f, d = fidelity(v, w), trace_distance(v, w)
            assert (f > 1 - 1e-9) == (d < 1e-9 * 10) or abs(f - 1) > 1e-6
            # pure-state identity: d = sqrt(1 - f)
            assert d == pytest.approx(math.sqrt(1 - min(f, 1.0)), abs=1e-7)

    def test_structure_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(bell_state(0), phi_plus(3))


class TestGates:
    def test_pauli_x(self):
        np.testing.assert_allclose(pauli_x().matrix, [[0, 1], [1, 0]], atol=1e-15)

    def test_pauli_z_power(self):
        np.testing.assert_allclose(pauli_z_power(1).matrix, np.diag([1, -1]), atol=1e-15)
        np.testing.assert_allclose(pauli_z_power(0.5).matrix, np.diag([1, 1j]), atol=1e-15)

    def test_phase_diag(self):
        u = phase_diag([0.0, math.pi / 3, math.pi]).matrix
        np.testing.assert_allclose(
            u, np.diag([1, np.exp(1j * math.pi / 3), -1]), atol=1e-15
        )

    def test_su2_z_axis_matches_phase_up_to_global_phase(self):
        # su2(z, phi) = e^{-i phi/2} diag(1, e^{i phi})
        for phi in (0.3, 1.1, 2.9):
            u = su2([0, 0, 1], phi).matrix
            v = phase_diag([0.0, phi]).matrix
            ratio = u[0, 0] / v[0, 0]
            np.testing.assert_allclose(u, ratio * v, atol=1e-12)
            assert abs(abs(ratio) - 1) < 1e-12

    def test_su2_x_axis(self):
        u = su2([1, 0, 0], math.pi).matrix
        np.testing.assert_allclose(u, -1j * pauli_x().matrix, atol=1e-12)

    def test_su2_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            su2([1, 1, 0], 0.5)


class TestHaar:
    def test_deterministic_given_seed(self):
        a = haar_unitary(3, 42).matrix
        b = haar_unitary(3, 42).matrix
        np.testing.assert_array_equal(a, b)
        c = haar_unitary(3, 43).matrix
        assert np.max(np.abs(a - c)) > 1e-3

    def test_unitarity(self):
        for n in (2, 3, 5):
            u = haar_unitary(n, 1).matrix
            np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)

    def test_first_moments(self):
        # E|u_00|^2 = 1/n; E u_00 = 0.  3-sigma bands with 4000 samples.
        rng = np.random.default_rng(2024)
        n, samples = 2, 4000
        entries = np.array([haar_unitary(n, rng).matrix[0, 0] for _ in range(samples)])
        se_abs2 = math.sqrt((2 / (n * (n + 1)) - 1 / n**2) / samples)
        assert abs(np.mean(np.abs(entries) ** 2) - 1 / n) < 3 * se_abs2
        assert abs(np.mean(entries)) < 3 / math.sqrt(samples)

    def test_left_right_invariance_statistics(self):
        # Moments of f(U) match moments of f(A U B) for fixed unitaries A, B.
        rng = np.random.default_rng(77)
        a = haar_unitary(2, 101).matrix
        b = haar_unitary(2, 102).matrix
        samples = 3000
        plain, moved = [], []
        for _ in range(samples):
            u = haar_unitary(2, rng).matrix
            plain.append(abs(u[0, 1]) ** 2)
            moved.append(abs((a @ u @ b)[0, 1]) ** 2)
        se = math.sqrt(2) * np.std(plain) / math.sqrt(samples)
        assert abs(np.mean(plain) - np.mean(moved)) < 3 * se


class TestSchmidt:
    def test_known_coefficients(self):
        v = StateVector(np.array([0.8, 0, 0, 0.6], dtype=complex), AB)
        form = schmidt(v)
        np.testing.assert_allclose(form.coefficients, [0.8, 0.6], atol=1e-12)
        assert form.blocks == ((0,), (1,))

    def test_product_state(self):
        form = schmidt(basis_state(AB, (0, 0)))
        np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)

    def test_degenerate_block(self):
        form = schmidt(bell_state(0))
        np.testing.assert_allclose(form.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert form.blocks == ((0, 1),)

    def test_bases_unitary_and_reconstruction(self):
        rng = np.random.default_rng(8)
        for dims in ((2, 2), (2, 3), (3, 3)):
            s = PartyStructure((("A", dims[0]), ("B", dims[1])))
            for _ in range(34):
                z = rng.standard_normal(dims[0] * dims[1]) + 1j * rng.standard_normal(
                    dims[0] * dims[1]
                )
                v = StateVector(z / np.linalg.norm(z), s)
                form = schmidt(v)
                np.testing.assert_allclose(
                    form.left_basis @ form.left_basis.conj().T,
                    np.eye(dims[0]),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    form.right_basis @ form.right_basis.conj().T,
                    np.eye(dims[1]),
                    atol=1e-12,
                )
                assert np.all(np.diff(form.coefficients) <= 1e-15)
                assert np.linalg.norm(form.reconstruct() - v.amplitudes) < 1e-10

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            schmidt(w_state())


class TestUUStarInvariance:
    def test_zero_for_seeded_haar(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(10):
                u = haar_unitary(n, rng)
                assert check_uu_star_invariance(u, n) < 1e-10

    def test_fixed_counterexample(self):
        # (sigma_x x sigma_z) moves phi+ far away
        residual = np.linalg.norm(
            np.kron(pauli_x().matrix, pauli_z_power(1).matrix) @ phi_plus(2).amplitudes
            - phi_plus(2).amplitudes
        )
        assert residual > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_uu_star_invariance(haar_unitary(2, 0), 3)
