import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqboxes import multipartite
from cqboxes.boxes import (
    CQBox,
    cc_no_signalling,
    cq_box_distance,
    cq_no_signalling,
    family_worst_violation,
    mod_box,
)
from cqboxes.cli import main
from cqboxes.multipartite import (
    _W_STRUCTURE,
    PhaseAssignment,
    _local_fit,
    _monomials_for,
    _w_phase_amplitudes,
    ghz_phase_box,
    ghz_phase_strategy,
    is_local_equivalent,
    w_phase_box,
    w_phase_theorem_check,
)
from cqboxes.quantum import PartyStructure, fidelity, w_state, wrap_angle
from cqboxes.synthesis import simulate

ROOT = Path(__file__).resolve().parent.parent


def assignment_from(alpha_fn, beta_fn=None, gamma_fn=None) -> PhaseAssignment:
    zero = lambda x, y, z: 0.0
    return PhaseAssignment.from_functions(
        alpha_fn or zero, beta_fn or zero, gamma_fn or zero
    )


class TestWPhaseBox:
    def test_zero_assignment_gives_the_uniform_superposition(self):
        box = w_phase_box(assignment_from(None))
        for key in box.inputs:
            assert fidelity(box.pure_output(key), w_state()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_phases_land_on_the_right_kets(self):
        assignment = PhaseAssignment(
            alpha=np.full((2, 2, 2), 0.3),
            beta=np.full((2, 2, 2), 0.7),
            gamma=np.full((2, 2, 2), -0.2),
        )
        amp = w_phase_box(assignment).pure_output((0, 0, 0)).amplitudes
        assert amp[4] == pytest.approx(np.exp(0.3j) / math.sqrt(3), abs=1e-12)
        assert amp[2] == pytest.approx(np.exp(0.7j) / math.sqrt(3), abs=1e-12)
        assert amp[1] == pytest.approx(np.exp(-0.2j) / math.sqrt(3), abs=1e-12)

    def test_local_phase_family_is_non_signalling(self):
        assignment = assignment_from(
            lambda x, y, z: 1.1 * x, lambda x, y, z: -0.4 * y, lambda x, y, z: 0.9 * z
        )
        assert cq_no_signalling(w_phase_box(assignment)).passed

    def test_pair_interaction_phase_signals(self):
        assignment = assignment_from(None, None, lambda x, y, z: math.pi * x * z)
        report = cq_no_signalling(w_phase_box(assignment))
        assert not report.passed
        assert report.worst_violation == pytest.approx(2 / 3, abs=1e-12)


class TestLocalEquivalence:
    def test_recovers_planted_local_phases(self):
        a, b, c = [0.0, 0.8], [0.3, -0.5], [0.0, 2.2]
        assignment = assignment_from(
            lambda x, y, z: a[x] + 0.1,
            lambda x, y, z: b[y] + 0.1,
            lambda x, y, z: c[z] + 0.1,
        )
        decomposition = is_local_equivalent(assignment)
        assert decomposition is not None
        # phases are recovered up to one constant per party pair
        assert (decomposition.a[1] - decomposition.a[0]) == pytest.approx(0.8, abs=1e-12)
        assert (decomposition.b[1] - decomposition.b[0]) == pytest.approx(-0.8, abs=1e-12)
        assert (decomposition.c[1] - decomposition.c[0]) == pytest.approx(2.2, abs=1e-12)

    def test_free_global_phase_is_ignored(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-math.pi, math.pi, size=(2, 2, 2))
        assignment = PhaseAssignment(alpha=g, beta=g + 0.4, gamma=g - 1.0)
        assert is_local_equivalent(assignment) is not None

    def test_interaction_phase_is_rejected(self):
        assignment = assignment_from(lambda x, y, z: math.pi / 2 * x * y)
        assert is_local_equivalent(assignment) is None

    def test_third_party_dependence_is_rejected(self):
        assignment = assignment_from(lambda x, y, z: 1.0 * z)
        assert is_local_equivalent(assignment) is None

    def test_wraparound_phases_decompose(self):
        assignment = assignment_from(
            lambda x, y, z: 5.9 * x, lambda x, y, z: -6.0 * y, lambda x, y, z: 0.0
        )
        assert is_local_equivalent(assignment) is not None


class TestWPhaseTheorem:
    def test_small_grid_equivalence(self):
        report = w_phase_theorem_check(
            grid_values=(0.0, math.pi / 2), random_samples=10, seed=1
        )
        assert report.local_cases == 64
        assert report.perturbed_cases == 108
        assert report.equivalence_holds
        assert report.counterexamples == {}
        assert report.worst_violation_mismatch < 1e-9

    def test_violation_magnitudes_follow_the_sine_law(self):
        for delta in (math.pi / 2, math.pi, 3 * math.pi / 2):
            assignment = assignment_from(lambda x, y, z: delta * y * z)
            report = cq_no_signalling(w_phase_box(assignment))
            assert not report.passed
            assert report.worst_violation == pytest.approx(
                2 * abs(math.sin(delta / 2)) / 3, abs=1e-12
            )

    def test_dressing_does_not_change_the_violation(self):
        delta = math.pi / 2
        plain = assignment_from(lambda x, y, z: delta * x * y)
        dressed = assignment_from(
            lambda x, y, z: delta * x * y + 0.9 * x,
            lambda x, y, z: -1.2 * y,
            lambda x, y, z: 0.4 * z,
        )
        v1 = cq_no_signalling(w_phase_box(plain)).worst_violation
        v2 = cq_no_signalling(w_phase_box(dressed)).worst_violation
        assert v1 == pytest.approx(v2, abs=1e-12)


def flagging_kernel(flagged: dict[int, float], sizes: list[int]):
    """``family_worst_violation`` with the violation of family f, counted
    over the whole run in sweep order, replaced by ``flagged[f]``; the size
    of each stack it is called on is appended to ``sizes``."""

    def kernel(amplitudes, structure):
        worst = family_worst_violation(amplitudes, structure)
        start = sum(sizes)
        for f, value in flagged.items():
            if start <= f < start + len(worst):
                worst[f - start] = value
        sizes.append(len(worst))
        return worst

    return kernel


def assert_same_report(got, want) -> None:
    fields = dataclasses.asdict(got)
    expected = dataclasses.asdict(want)
    assert fields.pop("counterexamples").keys() == expected.pop("counterexamples").keys()
    assert fields == expected
    for clause, assignment in want.counterexamples.items():
        for name in ("alpha", "beta", "gamma"):
            assert np.array_equal(
                getattr(got.counterexamples[clause], name), getattr(assignment, name)
            ), (clause, name)


class TestChunking:
    """The sweep's report does not depend on how many families a chunk holds."""

    # 64 local, then 108 perturbed, then 40 random families: flag the fourth
    # local one (as ``test_failing_theorem_names_its_counterexample`` does),
    # clear the sixth perturbed one and the third random one
    FLAGGED = {3: 1.0, 64 + 5: 0.0, 64 + 108 + 2: 0.0}

    @pytest.mark.parametrize("families", [1, 5, 16, 64])
    @pytest.mark.parametrize("flagged", [{}, FLAGGED], ids=["plain", "flagged"])
    def test_report_is_the_same_for_every_chunk_size(self, monkeypatch, families, flagged):
        monkeypatch.setattr(multipartite, "family_worst_violation", flagging_kernel(flagged, []))
        want = w_phase_theorem_check(grid_values=(1.0, 4.0), seed=7)
        sizes = []
        monkeypatch.setattr(multipartite, "family_worst_violation", flagging_kernel(flagged, sizes))
        # the budget counts the (F, 2, 2, 2, 4, 4) two-party reduced states
        monkeypatch.setattr(multipartite, "_CHUNK_ENTRIES", families * 8 * 4 * 4)
        got = w_phase_theorem_check(grid_values=(1.0, 4.0), seed=7)
        assert max(sizes) == families and sum(sizes) == 64 + 108 + 40
        assert_same_report(got, want)
        assert got.equivalence_holds == (not flagged)
        if flagged:
            assert list(got.counterexamples) == [
                "local_all_non_signalling", "perturbed_all_signalling", "random_equivalence_holds"
            ]


def test_w_phase_sweeps_eigensolve_no_2x2_stack(monkeypatch, capsys):
    """Every single-party reduced-state difference of a W-phase family is
    exactly diagonal, so ``trace_norm`` takes its shortcut on all of them and
    only the two-party 4 x 4 stacks reach ``eigvalsh``: in a family sweep
    and in ``verify`` of a W-phase document.  The sweep's entries still
    equal each box's own check bit for bit."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrices, *args, **kwargs):
        shapes.append(np.shape(matrices))
        return eigvalsh(matrices, *args, **kwargs)

    rng = np.random.default_rng(25)
    phases = rng.uniform(0.0, 2 * math.pi, size=(12, 3, 2, 2, 2))
    local = assignment_from(lambda x, y, z: 1.1 * x, lambda x, y, z: -0.4 * y, lambda x, y, z: 0.9 * z)
    phases[0] = np.stack([local.alpha, local.beta, local.gamma])
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    worst = family_worst_violation(_w_phase_amplitudes(phases), _W_STRUCTURE)
    assert main(["verify", str(ROOT / "fixtures" / "w_phase_local.json")]) == 0
    monkeypatch.undo()
    assert shapes and all(shape[-2:] == (4, 4) for shape in shapes), shapes
    assert '"passed": true' in capsys.readouterr().out
    for f, amps in enumerate(_w_phase_amplitudes(phases)):
        box = CQBox((2, 2, 2), _W_STRUCTURE, amplitudes=amps)
        assert worst[f] == cq_no_signalling(box).worst_violation, f


def test_theorem_sweep_peak_memory():
    """One 2-value grid sweep stays under a fixed tracemalloc peak.  Measured
    on a 2-core x86-64 host (Python 3.11, numpy 2.4): 418 KB in chunks of 32
    families on two-party reduced states; 483 KB in the chunks of 16 that
    built every 8 x 8 output matrix, and 656 KB in chunks of 32 that did.
    The bound lies between the last two."""
    w_phase_theorem_check(grid_values=(1.0, 4.0), seed=7)  # warm-up: caches, imports
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        w_phase_theorem_check(grid_values=(1.0, 4.0), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 560 * 1024, peak


class TestGhz:
    def test_ghz_box_is_non_signalling_for_any_phase(self):
        for theta in (0.0, 1.234, math.pi, 2 * math.pi / 3):
            assert cq_no_signalling(ghz_phase_box(theta)).passed

    def test_classical_driver_is_non_signalling(self):
        assert cc_no_signalling(mod_box(2, parties=3)).passed
        assert cc_no_signalling(mod_box(3, parties=3)).passed

    @settings(max_examples=40, deadline=None)
    @given(fraction=st.integers(2, 12).flatmap(lambda n: st.tuples(st.integers(-3 * n, 3 * n), st.just(n))))
    @example(fraction=(1, 2))
    @example(fraction=(1, 3))
    @example(fraction=(2, 3))
    def test_strategy_realises_the_family_exactly(self, fraction):
        """The phase 2 pi m / n for any m, negative or past a turn, realised
        exactly and without signalling."""
        m, n = fraction
        box = simulate(ghz_phase_strategy(m, n))
        assert cq_box_distance(box, ghz_phase_box(2 * math.pi * m / n)) < 1e-12
        assert cq_no_signalling(box).passed

    def test_only_the_all_ones_input_picks_up_the_phase(self):
        box = simulate(ghz_phase_strategy(1, 2))
        plain = ghz_phase_box(0.0)
        for key in box.inputs:
            expected = plain.pure_output(key).amplitudes.copy()
            if key == (1, 1, 1):
                expected[7] *= -1
            overlap = abs(np.vdot(expected, box.pure_output(key).amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_fraction_reduction_controls_the_alphabet(self):
        assert ghz_phase_strategy(2, 4).ccbox.output_sizes == (2, 2, 2)
        assert ghz_phase_strategy(0, 7).ccbox.output_sizes == (2, 2, 2)

    def test_rejects_tiny_alphabets(self):
        with pytest.raises(ValueError):
            ghz_phase_strategy(1, 1)


class TestValidation:
    def test_assignment_shape_is_checked(self):
        with pytest.raises(ValueError, match="shape"):
            PhaseAssignment(
                alpha=np.zeros((2, 2)), beta=np.zeros((2, 2, 2)), gamma=np.zeros((2, 2, 2))
            )

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, "0.5", True, pytest.param([0.0, 1.0], id="ragged")]
    )
    def test_assignment_phases_must_be_finite(self, field, value):
        """A non-finite phase is refused; is_local_equivalent used to call a
        NaN phase local and return NaN phases for an infinite one.  So is a
        string or boolean phase, which numpy would convert, and a ragged
        field is refused by name."""
        phases = {name: np.zeros((2, 2, 2)).tolist() for name in ("alpha", "beta", "gamma")}
        phases[field][1][1][1] = value
        message = {
            str: f'holds "{value}", not a JSON number',
            bool: "holds true, not a JSON number",
            list: "must hold numbers: setting an array element with a sequence",
        }.get(type(value), "must hold finite phases, got ")
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            PhaseAssignment(**phases)

    @pytest.mark.filterwarnings("error")
    def test_complex_phases_are_refused_without_a_warning(self):
        zeros = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match='^alpha holds "1j", not a JSON number$'):
            PhaseAssignment(1j * np.ones((2, 2, 2)), zeros, zeros)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # used to report random_cases -3 with the equivalence holding
            ({"random_samples": -3}, "random_samples must be a non-negative integer, got -3"),
            ({"random_samples": 2.5}, "random_samples must be a non-negative integer, got 2.5"),
            ({"random_samples": True}, "random_samples must be a non-negative integer, got True"),
            # used to fail as an invalid output at an index counted from the chunk start
            ({"grid_values": (1.0, math.nan)},
             "grid_values must be a flat sequence of finite numbers, got [1.0, nan]"),
            ({"grid_values": (-math.inf, 0.0)},
             "grid_values must be a flat sequence of finite numbers, got [-inf, 0.0]"),
            ({"grid_values": ((0.0, 1.0),)},
             "grid_values must be a flat sequence of finite numbers, got [[0.0, 1.0]]"),
            # used to fail three clauses (two for -1.0) of a theorem that holds
            ({"grid_values": (0.0,), "random_samples": 2, "tol": math.nan},
             "tol must be a finite number, got nan"),
            ({"grid_values": (0.0,), "random_samples": 2, "tol": -1.0},
             "tol must be non-negative, got -1.0"),
            ({"tol": math.inf}, "tol must be a finite number, got inf"),
        ],
    )
    def test_theorem_check_refuses_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            w_phase_theorem_check(**kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "tol, message",
        [
            # a NaN tolerance used to return a decomposition
            (math.nan, "tol must be a finite number, got nan"),
            (-1e-9, "tol must be non-negative, got -1e-09"),
        ],
    )
    def test_local_fit_refuses_a_bad_tolerance(self, tol, message):
        with pytest.raises(ValueError) as raised:
            is_local_equivalent(assignment_from(None), tol)
        assert str(raised.value) == message


@settings(max_examples=60, deadline=None)
@given(
    ket=st.integers(0, 2),
    monomial=st.integers(0, 5),
    delta=st.floats(0.05, 2 * math.pi - 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_w_phase_perturbation_is_caught(ket, monomial, delta, seed):
    """A random local assignment (per-party phases and a free global phase)
    whose ket phase is bumped by delta times a non-local monomial signals
    with worst violation 2 |sin(delta / 2)| / 3."""
    rng = np.random.default_rng(seed)
    local = rng.uniform(-math.pi, math.pi, size=(3, 2))
    g = rng.uniform(-math.pi, math.pi, size=(2, 2, 2))
    coords = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    grids = [local[j][coords[j]] + g for j in range(3)]
    bump = np.ones((2, 2, 2))
    for variable in _monomials_for(ket)[monomial]:
        bump = bump * coords[variable]
    grids[ket] = grids[ket] + delta * bump
    report = cq_no_signalling(w_phase_box(PhaseAssignment(*grids)))
    assert not report.passed
    assert abs(report.worst_violation - 2 * abs(math.sin(delta / 2)) / 3) <= 1e-12


def reference_decomposition(assignment: PhaseAssignment, tol: float):
    """``is_local_equivalent`` as it was on one assignment, before the stacked fit."""
    d_ab = assignment.alpha - assignment.beta
    d_ac = assignment.alpha - assignment.gamma
    a = np.array([0.0, wrap_angle(d_ab[1, 0, 0] - d_ab[0, 0, 0]).item()])
    b = np.array([-d_ab[0, 0, 0], -d_ab[0, 1, 0]])
    c = np.array([-d_ac[0, 0, 0], -d_ac[0, 0, 1]])
    xs, ys, zs = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    residual_ab = wrap_angle(d_ab - (a[xs] - b[ys]))
    residual_ac = wrap_angle(d_ac - (a[xs] - c[zs]))
    worst = max(np.max(np.abs(residual_ab)), np.max(np.abs(residual_ac)))
    return None if worst > tol else (a, b, c)


@st.composite
def phase_stacks(draw) -> np.ndarray:
    """(F, 3, 2, 2, 2) phases, each family random, local (per-party phases
    and a free global phase) or local with one ket bumped by a non-local
    monomial."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    families = []
    kinds = st.sampled_from(("random", "local", "perturbed"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind == "random":
            families.append(rng.uniform(-math.pi, math.pi, size=(3, 2, 2, 2)))
            continue
        local = rng.uniform(-math.pi, math.pi, size=(3, 2))
        g = rng.uniform(-math.pi, math.pi, size=(2, 2, 2))
        grids = [local[j][coords[j]] + g for j in range(3)]
        if kind == "perturbed":
            ket = int(rng.integers(3))
            bump = np.ones((2, 2, 2))
            for variable in _monomials_for(ket)[int(rng.integers(6))]:
                bump = bump * coords[variable]
            grids[ket] = grids[ket] + rng.uniform(0.05, 2 * math.pi - 0.05) * bump
        families.append(np.stack(grids))
    return np.stack(families)


@settings(max_examples=60, deadline=None)
@given(phases=phase_stacks(), tol=st.sampled_from((1e-12, 1e-9, 1e-7, 0.3)))
def test_stacked_checks_match_per_box_checks(phases, tol):
    """The family sweep and the stacked local fit give, for every family,
    exactly the worst violation, pass flag and decomposition of the
    one-box checks."""
    violation = family_worst_violation(_w_phase_amplitudes(phases), PartyStructure.qubits("ABC"))
    a, b, c, residual = _local_fit(phases)
    assert violation.shape == residual.shape == (len(phases),)
    for f, family in enumerate(phases):
        assignment = PhaseAssignment(*family)
        report = cq_no_signalling(w_phase_box(assignment), tol=tol)
        assert violation[f] == report.worst_violation
        assert (violation[f] <= tol) == report.passed
        decomposition = is_local_equivalent(assignment, tol)
        reference = reference_decomposition(assignment, tol)
        assert (residual[f] > tol) == (decomposition is None) == (reference is None)
        if reference is not None:
            for got, want in zip((decomposition.a, decomposition.b, decomposition.c), reference):
                assert np.array_equal(got, want)
            for got, want in zip((a[f], b[f], c[f]), reference):
                assert np.array_equal(got, want)
