import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqboxes import bounds
from cqboxes.bounds import (
    PhaseStrategySpec,
    best_fidelity,
    spec_to_strategy,
    verify_bound,
    _SWEEPS,
)
from cqboxes.boxes import CCBox, cc_no_signalling
from cqboxes.quantum import fidelity, two_level_state
from cqboxes.synthesis import phase_family_box, rational_phase_strategy, simulate

ALPHA, BETA = 0.8, 0.6


def phase_strategy_fidelity(spec, alpha, beta, phase) -> float:
    """Mean fidelity (over the four inputs) between the simulated strategy
    output and the target phase family.  Runs the full simulation rather
    than a closed-form shortcut."""
    box = simulate(spec_to_strategy(spec, alpha, beta))
    target = phase_family_box(phase, alpha, beta)
    return float(
        np.mean([fidelity(box.output(key), target.pure_output(key)) for key in box.inputs])
    )


def fast_mean_fidelity(spec, alpha, beta, phase) -> float:
    """The same mean fidelity from the cosine formula of the phase strategy."""
    cross = 2 * (alpha * beta) ** 2
    flat = alpha**4 + beta**4
    total = 0.0
    for x, y in itertools.product(range(2), range(2)):
        pi = spec.pairings[(x, y)]
        angles = (
            spec.alice_phases[x, pi] + spec.bob_phases[y, np.arange(spec.n_outputs)]
            - phase(x, y)
        )
        total += flat + cross * float(np.dot(spec.marginal, np.cos(angles)))
    return total / 4


def target_phase(n, m=1):
    return lambda x, y: 2 * math.pi * m / n * x * y


def random_spec(seed: int) -> PhaseStrategySpec:
    rng = np.random.default_rng(seed)
    marginal = np.array([0.4, 0.4, 0.2])
    swap = np.array([1, 0, 2])
    identity = np.arange(3)
    return PhaseStrategySpec(
        marginal=marginal,
        alice_phases=rng.uniform(-math.pi, math.pi, size=(2, 3)),
        bob_phases=rng.uniform(-math.pi, math.pi, size=(2, 3)),
        pairings={(0, 0): identity, (0, 1): swap, (1, 0): identity, (1, 1): swap},
    )


class TestFidelityRoutes:
    def test_simulation_and_direct_formula_agree(self):
        for seed in range(4):
            spec = random_spec(seed)
            phase = target_phase(3)
            simulated = phase_strategy_fidelity(spec, ALPHA, BETA, phase)
            direct = fast_mean_fidelity(spec, ALPHA, BETA, phase)
            assert simulated == pytest.approx(direct, abs=1e-10)

    def test_strategy_box_is_non_signalling(self):
        spec = random_spec(9)
        strategy = spec_to_strategy(spec, ALPHA, BETA)
        assert isinstance(strategy.ccbox, CCBox)
        assert cc_no_signalling(strategy.ccbox).passed


class TestClosedForm:
    def test_gap_identity(self):
        # 1 - value must equal 2 (alpha beta)^2 (1 - cos(g_L / 4L)) at the
        # optimal cycle length
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)]:
            result = best_fidelity(n, k)
            length = result.cycle_length
            gap = abs(
                (2 * math.pi * length / n + math.pi) % (2 * math.pi) - math.pi
            )
            expected = 2 * (ALPHA * BETA) ** 2 * (1 - math.cos(gap / (4 * length)))
            assert result.delta == pytest.approx(expected, abs=1e-12)

    def test_frozen_gap_floors(self):
        floors = {
            (2, 1): 0.134,
            (3, 1): 0.0615,
            (3, 2): 0.0156,
            (4, 1): 0.0350,
            (4, 2): 0.0350,
            (4, 3): 0.0038,
        }
        for (n, k), floor in floors.items():
            delta = best_fidelity(n, k).delta
            assert floor < delta < floor + 0.0012

    def test_gap_vanishes_once_outputs_suffice(self):
        for n in [2, 3, 4, 5]:
            result = best_fidelity(n, n)
            assert result.delta == pytest.approx(0.0, abs=1e-12)
            assert result.cycle_length == n

    def test_gap_decreases_with_more_outputs(self):
        deltas = [best_fidelity(4, k).delta for k in range(1, 5)]
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == pytest.approx(0.0, abs=1e-12)

    def test_gap_positive_below_the_denominator(self):
        for n in [2, 3, 4, 5, 6]:
            for k in range(1, n):
                assert best_fidelity(n, k).delta > 1e-4


class TestCertificate:
    def test_certificate_achieves_the_bound_via_simulation(self):
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            result = best_fidelity(n, k)
            achieved = phase_strategy_fidelity(
                result.certificate, ALPHA, BETA, target_phase(n)
            )
            assert achieved == pytest.approx(result.value, abs=1e-9)

    def test_certificate_marginal_is_uniform_on_the_cycle(self):
        result = best_fidelity(4, 3)
        length = result.cycle_length
        marginal = result.certificate.marginal
        assert np.allclose(marginal[:length], 1 / length)
        assert np.allclose(marginal[length:], 0.0)

    def test_exact_strategy_beats_every_restricted_one(self):
        exact = simulate(rational_phase_strategy(1, 3, ALPHA, BETA))
        target = phase_family_box(target_phase(3), ALPHA, BETA)
        exact_mean = np.mean(
            [fidelity(exact.output(key), target.pure_output(key)) for key in exact.inputs]
        )
        assert exact_mean == pytest.approx(1.0, abs=1e-12)
        assert best_fidelity(3, 2).value < 1.0 - 1e-3


class TestOptimizerConfirmation:
    def test_direct_ascent_matches_the_closed_form(self):
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            check = verify_bound(n, k, restarts=12, seed=5)
            assert check.confirmed, (n, k, check.optimum, check.bound.value)

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(0.05, math.pi / 2 - 0.05),
        n=st.integers(2, 4),
        data=st.data(),
    )
    def test_random_targets_confirm_every_row(self, theta, n, data):
        """For a target (cos theta, sin theta) on the unit circle, each row's
        bound is ``best_fidelity``'s, field by field, and no ascent beats it.
        The mean cosine has a local maximum per winding of the cycle, so a
        few restarts can all stall below the bound (4 restarts did on 34 of
        2,000 random targets); the ``bound`` command's default of 16 confirms
        every row."""
        m, k = data.draw(st.integers(1, 3 * n)), data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        alpha, beta = math.cos(theta), math.sin(theta)
        few = verify_bound(n, k, alpha, beta, m, restarts=4, seed=seed)
        check = verify_bound(n, k, alpha, beta, m, restarts=16, seed=seed)
        for j, (short, row) in enumerate(zip(few.prefix + (few,), check.prefix + (check,)), 1):
            assert same_fields(row.bound, best_fidelity(n, j, alpha, beta, m)), j
            assert same_fields(short.bound, row.bound), j
            assert short.optimum <= row.bound.value + bounds._SLACK, (j, short.optimum)
            assert row.confirmed, (j, row.optimum, row.bound.value)

    def test_ascent_is_deterministic_in_the_seed(self):
        first = verify_bound(3, 2, restarts=6, seed=11)
        second = verify_bound(3, 2, restarts=6, seed=11)
        assert first.optimum == second.optimum

    def test_coarse_grid_never_beats_the_bound_for_one_output(self):
        # with one output the strategy space is just four phases; sweep it
        value = best_fidelity(2, 1).value
        theta = math.pi
        grid = np.linspace(-math.pi, math.pi, 41)
        a0, a1, b0, b1 = np.meshgrid(grid, grid, grid, grid, sparse=True)
        mean_cos = (
            np.cos(a0 + b0) + np.cos(a0 + b1) + np.cos(a1 + b0) + np.cos(a1 + b1 - theta)
        ) / 4
        best_grid = ALPHA**4 + BETA**4 + 2 * (ALPHA * BETA) ** 2 * float(mean_cos.max())
        assert best_grid <= value + 1e-9
        assert best_grid > value - 5e-3


def reference_ascend_cycle(
    theta: float, length: int, rng: np.random.Generator, sweeps: int = 300
) -> float:
    """The one-restart coordinate ascent that the batched kernel replaced,
    kept verbatim as the reference it must reproduce bit for bit."""
    a0, a1, b0, b1 = (rng.uniform(-math.pi, math.pi, size=length) for _ in range(4))
    nxt = (np.arange(length) + 1) % length
    prv = (np.arange(length) - 1) % length

    def objective() -> float:
        return float(
            np.sum(np.cos(a0 + b0))
            + np.sum(np.cos(a0 + b1))
            + np.sum(np.cos(a1 + b0))
            + np.sum(np.cos(a1[nxt] + b1 - theta))
        ) / (4 * length)

    previous = objective()
    for _ in range(sweeps):
        for j in range(length):
            a0[j] = -np.angle(np.exp(1j * b0[j]) + np.exp(1j * b1[j]))
            a1[j] = -np.angle(np.exp(1j * b0[j]) + np.exp(1j * (b1[prv[j]] - theta)))
            b0[j] = -np.angle(np.exp(1j * a0[j]) + np.exp(1j * a1[j]))
            b1[j] = -np.angle(np.exp(1j * a0[j]) + np.exp(1j * (a1[nxt[j]] - theta)))
        current = objective()
        if current - previous < 1e-13:
            break
        previous = current
    return current


def reference_optima(n: int, kmax: int, m: int, restarts: int, seed: int) -> list[float]:
    """The old ``verify_bound`` optimum for every k <= kmax.  Row k draws
    lengths 1..k from a fresh generator, so all rows share one prefix.
    Its angle reduces m modulo n first, as ``verify_bound`` does."""
    theta = 2 * math.pi * (m % n) / n
    rng = np.random.default_rng(seed)
    best_cos, optima = -1.0, []
    for length in range(1, kmax + 1):
        for _ in range(restarts):
            best_cos = max(best_cos, reference_ascend_cycle(theta, length, rng))
        optima.append(ALPHA**4 + BETA**4 + 2 * (ALPHA * BETA) ** 2 * best_cos)
    return optima


class TestBatchedAscent:
    @pytest.mark.parametrize(
        "n, m, seed",
        [(n, m, seed) for n in (2, 3, 4) for m in range(1, 2 * n + 1) for seed in (0, 5, 11)],
    )
    def test_optimum_is_bit_identical_to_the_restart_loop(self, n, m, seed):
        expected = reference_optima(n, n, m, restarts=16, seed=seed)
        for k in range(1, n + 1):
            check = verify_bound(n, k, m=m, restarts=16, seed=seed)
            assert check.optimum == expected[k - 1], (n, m, seed, k)

    def test_long_cycles_are_bit_identical(self):
        # rows of more than 8 entries go through numpy's pairwise summation
        check = verify_bound(5, 12, restarts=4, seed=0)
        assert check.optimum == reference_optima(5, 12, 1, restarts=4, seed=0)[-1]
        assert check.sweeps == 300 and check.unconverged > 0

    def test_short_cycles_converge_before_the_cap(self):
        check = verify_bound(4, 4, restarts=16, seed=0)
        assert 1 <= check.sweeps < 300
        assert check.unconverged == 0

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            verify_bound(3, 2, restarts=restarts)


def reference_ascend_cycles(theta: float, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate ascent on the mean cosine over one L-cycle, for a stack
    of ``(R, 4, L)`` starting phases (a0, a1, b0, b1 per restart).

    Each phase variable enters exactly two cosine terms, so its exact
    one-variable optimum is the negated argument of the sum of the two
    partner phasors.  Every restart runs the same Gauss-Seidel order over
    j and stops on the sweep where its own gain first drops below 1e-13.
    Returns per restart the final mean cosine and the sweeps it used, and
    how many restarts were still gaining at the sweep cap.
    """
    restarts, _, length = starts.shape
    a0, a1, b0, b1 = (starts[:, i].copy() for i in range(4))
    nxt = (np.arange(length) + 1) % length
    prv = (np.arange(length) - 1) % length

    def objective() -> np.ndarray:
        return (
            np.sum(np.cos(a0 + b0), axis=-1)
            + np.sum(np.cos(a0 + b1), axis=-1)
            + np.sum(np.cos(a1 + b0), axis=-1)
            + np.sum(np.cos(a1[:, nxt] + b1 - theta), axis=-1)
        ) / (4 * length)

    value = np.empty(restarts)
    used = np.full(restarts, _SWEEPS)
    live = np.arange(restarts)
    previous = objective()
    for sweep in range(1, _SWEEPS + 1):
        for j in range(length):
            phasor = np.exp(1j * b0[:, j])
            a0[:, j] = -np.angle(phasor + np.exp(1j * b1[:, j]))
            # a1[j] partners: b0[j] at input (1,0) and, at (1,1), the b1
            # entry whose pairing lands on j
            a1[:, j] = -np.angle(phasor + np.exp(1j * (b1[:, prv[j]] - theta)))
            phasor = np.exp(1j * a0[:, j])
            b0[:, j] = -np.angle(phasor + np.exp(1j * a1[:, j]))
            b1[:, j] = -np.angle(phasor + np.exp(1j * (a1[:, nxt[j]] - theta)))
        current = objective()
        done = current - previous < 1e-13
        if done.any():
            finished = live[done]
            value[finished], used[finished] = current[done], sweep
            keep = ~done
            live, current = live[keep], current[keep]
            a0, a1, b0, b1 = a0[keep], a1[keep], b0[keep], b1[keep]
        previous = current
        if not live.size:
            break
    value[live] = previous
    return value, used, live.size


LOCKSTEP_CASES = [
    (n, m, seed, n, 16) for n in (2, 3, 4) for m in range(1, 2 * n + 1) for seed in (0, 5, 11)
] + [(k % 3 + 2, k % 5 + 1, k, k, 4) for k in range(12, 17)]


class TestLockstepAscent:
    @pytest.mark.parametrize("n, m, seed, k, restarts", LOCKSTEP_CASES)
    def test_every_length_equals_its_own_ascent(self, n, m, seed, k, restarts):
        """The lockstep kernel against the per-length kernel it replaced;
        lengths of 8 and more sum pairwise, and those of k >= 12 reach the
        sweep cap."""
        theta = 2 * math.pi * m / n
        rng = np.random.default_rng(seed)
        starts = [rng.uniform(-math.pi, math.pi, size=(restarts, 4, L)) for L in range(1, k + 1)]
        stacked = bounds._frontier_starts(seed, k, restarts, 0, restarts)
        assert np.array_equal(stacked, np.concatenate(starts, axis=-1))
        value, used, stalled = bounds._ascend_frontier(theta, stacked)
        assert value.shape == used.shape == (k, restarts) and stalled.shape == (k,)
        for length, start in enumerate(starts, 1):
            expected = reference_ascend_cycles(theta, start)
            assert np.array_equal(value[length - 1], expected[0]), length
            assert np.array_equal(used[length - 1], expected[1]), length
            assert stalled[length - 1] == expected[2], length
        if k >= 12:
            assert used.max() == _SWEEPS and stalled.sum() > 0

    @pytest.mark.parametrize("lo, hi", [(0, 3), (3, 7), (6, 7)])
    def test_chunk_starts_are_rows_of_the_whole_stack(self, lo, hi):
        whole = bounds._frontier_starts(9, 6, 7, 0, 7)
        assert np.array_equal(bounds._frontier_starts(9, 6, 7, lo, hi), whole[lo:hi])

    @pytest.mark.parametrize("entries", [1, 100, 2 * 5 * 6 * 3])
    def test_chunked_restarts_give_the_same_check(self, monkeypatch, entries):
        """A small entry budget splits the restarts into several chunks (one
        restart each when a row alone is over budget); no kernel call holds
        more than the budget, or one row, and nothing moves."""
        whole = verify_bound(3, 5, m=2, restarts=16, seed=4)
        kernel, sizes = bounds._ascend_frontier, []

        def spied(theta, starts):
            sizes.append(starts.shape[0])
            assert starts.size <= max(entries, 4 * 15)
            return kernel(theta, starts)

        monkeypatch.setattr(bounds, "_ENTRIES", entries)
        monkeypatch.setattr(bounds, "_ascend_frontier", spied)
        chunked = verify_bound(3, 5, m=2, restarts=16, seed=4)
        assert len(sizes) > 1 and sum(sizes) == 16
        assert same_fields(chunked, whole)


def reference_pair_step(
    phases: np.ndarray, gather: np.ndarray, shift: np.ndarray, scatter: np.ndarray
) -> None:
    """The pair step that the six-call kernel replaced, kept verbatim as the
    reference it must reproduce bit for bit, on phases held as
    ``(R, 4 k (k + 1) / 2)``: the negated argument of each pair sum of
    partner phasors."""
    phasor = np.exp(1j * (phases[:, gather] - shift)).reshape(len(phases), 3, -1)
    total = phasor[:, 1:] + phasor[:, :1]
    phases[:, scatter] = -np.arctan2(total.imag, total.real).reshape(len(phases), -1)


class OneSweep(Exception):
    """Stops an ascent once every step of its first sweep has run."""


class TestPairStep:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 12, 16])
    @pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (5, 7)])
    def test_every_step_equals_the_replaced_formula(self, monkeypatch, m, n, k):
        """The a-step and the b-step of every j, each on fresh random
        phases, through the kernel and through the formula it replaced."""
        theta, width, restarts = 2 * math.pi * m / n, k * (k + 1) // 2, 5
        rng = np.random.default_rng(1000 * n + 10 * m + k)
        kernel, scattered = bounds._pair_step, []

        def checked(phases, *step):
            phases[...] = rng.uniform(-math.pi, math.pi, size=phases.shape)
            expected = phases.T.copy()
            reference_pair_step(expected, step[0], step[1].ravel(), step[-1])
            kernel(phases, *step)
            assert np.array_equal(phases.T, expected), len(scattered)
            scattered.append(step[-1])
            if len(scattered) == 2 * k:
                raise OneSweep

        monkeypatch.setattr(bounds, "_pair_step", checked)
        starts = rng.uniform(-math.pi, math.pi, size=(restarts, 4, width))
        with pytest.raises(OneSweep):
            bounds._ascend_frontier(theta, starts)
        # one sweep moves every phase exactly once
        moved = np.concatenate(scattered)
        assert np.array_equal(np.sort(moved), np.arange(4 * width))

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-8.0, 8.0),
        s=st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
        y=st.floats(allow_nan=False, allow_infinity=False),
        re=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_conjugate_phasor_and_odd_arctan2(self, x, s, y, re):
        """The two float identities the kernel rests on.  The phasor of a
        zero argument, exp(0 i) = 1, may differ in the sign of its zero
        imaginary part, which compares equal; any other is bit for bit."""
        exponent = np.zeros(1, dtype=complex)
        exponent.imag = s - x  # as the kernel builds it, real part 0
        fused, replaced = np.exp(exponent), np.conj(np.exp(1j * (np.array([x]) - s)))
        assert fused == replaced
        if s != x:
            assert fused.view(np.uint64).tolist() == replaced.view(np.uint64).tolist()
        odd, negated = np.arctan2(-np.array([y]), re), -np.arctan2(np.array([y]), re)
        assert odd.view(np.uint64).tolist() == negated.view(np.uint64).tolist()


def same_fields(a, b) -> bool:
    """Field-for-field equality through dataclasses, containers and arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_fields(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_fields, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_fields(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestOnePassFrontier:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prefix_rows_equal_their_own_calls(self, n):
        check = verify_bound(n, 8, m=1, restarts=8, seed=3)
        assert len(check.prefix) == 7
        for j, row in enumerate(check.prefix):
            assert row.bound.k == j + 1
            assert same_fields(row, verify_bound(n, j + 1, m=1, restarts=8, seed=3)), (n, j)

    def test_rejects_an_empty_alphabet_before_any_ascent(self):
        with pytest.raises(ValueError, match="at least one output"):
            verify_bound(3, 0)


class TestValidation:
    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            (0.9, 0.6, "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
            (math.nan, 0.6, "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
            (0.8, math.inf, "amplitudes must satisfy |alpha|^2 + |beta|^2 = 1"),
            (-0.8, 0.6, "alpha, beta must be positive"),
        ],
    )
    def test_rejects_bad_amplitudes(self, alpha, beta, message):
        for check in (lambda: best_fidelity(4, 2, alpha, beta), lambda: verify_bound(4, 2, alpha, beta)):
            with pytest.raises(ValueError) as raised:
                check()
            assert message in str(raised.value)

    def test_verify_bound_checks_the_amplitudes_once(self, monkeypatch):
        built = []

        def counted(alpha, beta):
            built.append((alpha, beta))
            return two_level_state(alpha, beta)

        monkeypatch.setattr(bounds, "two_level_state", counted)
        check = verify_bound(4, 6, restarts=2)
        assert built == [(0.8, 0.6)]
        rows = (*check.prefix, check)
        assert all(same_fields(row.bound, best_fidelity(4, row.bound.k)) for row in rows)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            PhaseStrategySpec(
                marginal=np.array([0.5, 0.5]),
                alice_phases=np.zeros((2, 3)),
                bob_phases=np.zeros((2, 2)),
                pairings={},
            )
