"""How well a conditional-phase family can be approximated when the
classical resource has fewer outputs than the phase denominator.

The target is the family alpha |00> + beta e^{i 2 pi (m/n) x y} |11>.
With an n-output modular box it is reached exactly; here the resource is
restricted to a k-output coupling (a shared marginal plus one
marginal-preserving output pairing per input) with arbitrary
output-conditioned phases on each side.  ``best_fidelity`` returns the
exact optimum of the mean fidelity over the four inputs, together with a
strategy certificate achieving it, and ``verify_bound`` confirms the
optimum numerically by direct ascent over the strategy parameters.

Reduction behind the closed form (each step is exact):

* Output relabelings per party and per input absorb three of the four
  pairings into the phase tables, leaving the identity except one
  permutation P at input (1, 1).
* The mean fidelity is linear in the shared marginal, so some vertex of
  the P-invariant distributions is optimal; vertices are uniform on a
  single P-orbit, an L-cycle with L <= k.
* On one L-cycle the 4 L cosine arguments are free except for one signed
  sum fixed to L theta modulo 2 pi; concavity makes the equal split
  optimal, giving mean cosine cos(g_L / (4 L)) with g_L the distance of
  L theta from the nearest multiple of 2 pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from cqboxes.boxes import CCBox
from cqboxes.quantum import _frozen, two_level_state, wrap_angle
from cqboxes.synthesis import Strategy

__all__ = [
    "PhaseStrategySpec",
    "BoundResult",
    "BoundCheck",
    "spec_to_strategy",
    "best_fidelity",
    "verify_bound",
]


@dataclass(frozen=True)
class PhaseStrategySpec:
    """A k-output phase strategy: shared marginal, per-input pairings, and
    output-conditioned phases (radians, on the |1> level) for each party."""

    marginal: np.ndarray
    alice_phases: np.ndarray
    bob_phases: np.ndarray
    pairings: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self) -> None:
        for name in ("marginal", "alice_phases", "bob_phases"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float))
        k = self.marginal.shape[0]
        for name in ("alice_phases", "bob_phases"):
            if (shape := getattr(self, name).shape) != (2, k):
                raise ValueError(f"{name} must have shape (2, {k}), got {shape}")

    @property
    def n_outputs(self) -> int:
        return self.marginal.shape[0]


def spec_to_strategy(spec: PhaseStrategySpec, alpha: float, beta: float) -> Strategy:
    """Materialise a phase-strategy specification on the two-level
    shared state alpha |00> + beta |11>."""
    coupling = CCBox.from_coupling((2, 2), spec.marginal, spec.pairings)
    tables = tuple(
        [[np.diag([1.0, np.exp(1j * phase)]) for phase in row] for row in phases]
        for phases in (spec.alice_phases, spec.bob_phases)
    )
    return Strategy(ccbox=coupling, shared=two_level_state(alpha, beta), unitaries=tables)


@dataclass(frozen=True)
class BoundResult:
    """Optimal mean fidelity for the (m/n)-phase family from k outputs."""

    n: int
    k: int
    m: int
    alpha: float
    beta: float
    value: float
    delta: float
    cycle_length: int
    certificate: PhaseStrategySpec


@dataclass(frozen=True)
class BoundCheck:
    """Numerical confirmation of a bound by direct parameter ascent."""

    bound: BoundResult
    optimum: float
    confirmed: bool
    # the most sweeps any one restart used, and how many restarts (over
    # all cycle lengths) were still gaining at the sweep cap
    sweeps: int
    unconverged: int
    # the checks of alphabet sizes 1..k-1, made by the same pass
    prefix: tuple["BoundCheck", ...] = field(repr=False)


def _cycle_gap(theta: float, length: int) -> float:
    """Distance of L theta from the nearest multiple of 2 pi."""
    return abs(wrap_angle(length * theta))


def _certificate(n_outputs: int, length: int, theta: float) -> PhaseStrategySpec:
    """Equal-split phase assignment on one L-cycle, identity elsewhere.

    Walking the cycle advances Alice's x=0 phase by 4 chi + theta per
    step, which closes after L steps exactly when 4 L chi = -L theta
    modulo 2 pi; every one of the 4 L cosine arguments then equals chi up
    to sign.
    """
    chi = -wrap_angle(length * theta) / (4 * length)
    a0 = np.zeros(n_outputs)
    for j in range(1, length):
        a0[j] = a0[j - 1] + 4 * chi + theta
    a1 = a0.copy()
    b0 = np.zeros(n_outputs)
    b1 = np.zeros(n_outputs)
    a1[:length] = a0[:length] - 2 * chi
    b0[:length] = chi - a0[:length]
    b1[:length] = -chi - a0[:length]

    identity = np.arange(n_outputs)
    shifted = identity.copy()
    shifted[:length] = (identity[:length] + 1) % length
    marginal = np.zeros(n_outputs)
    marginal[:length] = 1.0 / length
    return PhaseStrategySpec(
        marginal=marginal,
        alice_phases=np.vstack([a0, a1]),
        bob_phases=np.vstack([b0, b1]),
        pairings={(0, 0): identity, (0, 1): identity, (1, 0): identity, (1, 1): shifted},
    )


def _check_target(n: int, k: int, alpha: float, beta: float) -> None:
    if n < 2 or k < 1:
        raise ValueError("need a phase denominator n >= 2 and at least one output")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha, beta must be positive with alpha^2 + beta^2 = 1")
    two_level_state(alpha, beta)  # refuses alpha^2 + beta^2 != 1, NaN included


def _closed_form(n: int, k: int, alpha: float, beta: float, m: int) -> BoundResult:
    """``best_fidelity`` for a target ``_check_target`` has passed."""
    theta = 2 * math.pi * (m % n) / n  # m reduced exactly, before the float angle
    best_cos, best_length = -1.0, 1
    for length in range(1, k + 1):
        value = math.cos(_cycle_gap(theta, length) / (4 * length))
        if value > best_cos + 1e-15:
            best_cos, best_length = value, length
    value = alpha**4 + beta**4 + 2 * (alpha * beta) ** 2 * best_cos
    return BoundResult(
        n=n,
        k=k,
        m=m,
        alpha=alpha,
        beta=beta,
        value=value,
        delta=1.0 - value,
        cycle_length=best_length,
        certificate=_certificate(k, best_length, theta),
    )


def best_fidelity(
    n: int, k: int, alpha: float = 0.8, beta: float = 0.6, m: int = 1
) -> BoundResult:
    """Exact optimum of the mean fidelity to the (m/n)-phase family over
    all k-output phase strategies, with an achieving certificate."""
    _check_target(n, k, alpha, beta)
    return _closed_form(n, k, alpha, beta, m)


# sweeps per restart, and how far the ascent may beat the closed form
# (_SLACK) or fall short of it (_REACH) for the bound to count as confirmed
_SWEEPS = 300
_SLACK = 1e-9
_REACH = 1e-6


# entries of one lockstep chunk of starts, restarts x 4 x columns: every
# phase and work array of the ascent is at most a few times this size
_ENTRIES = 1 << 18


def _pair_step(phases, gather, lag, partner, argument, exponent, phasor, apart, shared,
               total, imag, real, update, scatter) -> None:
    """Set two phase rows per entry of ``scatter`` to their exact one-variable
    optimum.  ``gather`` lists the shared partner, then each variable's own;
    ``lag`` is theta where the (1, 1) pairing enters."""
    # every index is in range, and "clip" spares the copy "raise" makes of out
    phases.take(gather, axis=0, out=partner, mode="clip")
    np.subtract(lag, partner, out=argument)
    np.exp(exponent, out=phasor)
    np.add(apart, shared, out=total)
    np.arctan2(imag, real, out=update)
    phases[scatter] = update


def _ascend_frontier(
    theta: float, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate ascent on the mean cosine over every L-cycle, L = 1..k, in
    lockstep, for a stack of ``(R, 4, k (k + 1) / 2)`` starting phases: a0,
    a1, b0, b1 per restart, each holding the columns of lengths 1..k side by
    side.

    Each phase variable enters exactly two cosine terms, so its exact
    one-variable optimum is the negated argument of the sum of the two
    partner phasors.  Step j of a sweep updates column j of every length
    above j, so each (length, restart) row runs the Gauss-Seidel order of
    its own cycle and stops on the sweep where its own gain first drops
    below 1e-13 (later sweeps still move it, unread).  Returns per length
    and restart the final mean cosine and the sweeps used, and per length
    how many restarts were still gaining at the sweep cap.

    The phases are held as ``(4 k (k + 1) / 2, R)``, so steps gather and
    scatter whole rows, in buffers sized for step 0 whose prefixes later steps
    use.  The phasors are exp(i (s - x)) on a complex buffer with real part 0,
    bit for bit the conjugates of exp(i (x - s)); as arctan2(-y, x) equals
    -arctan2(y, x), arctan2 of their sums is the negated argument.
    """
    restarts, _, width = starts.shape
    k = math.isqrt(2 * width)
    lengths = np.arange(1, k + 1)
    offsets = lengths * (lengths - 1) // 2
    a0, a1, b0, b1 = (np.arange(width) + i * width for i in range(4))
    phases = np.ascontiguousarray(starts.reshape(restarts, 4 * width).T)
    partners, updates = np.empty((3 * k, restarts)), np.empty((2 * k, restarts))
    exponents = np.zeros((3 * k, restarts), dtype=complex)
    phasors, totals = np.empty_like(exponents), np.empty((2 * k, restarts), dtype=complex)
    steps = []
    for j in range(k):
        size, own, ring = k - j, offsets[j:] + j, lengths[j:]
        prv, nxt = offsets[j:] + (j - 1) % ring, offsets[j:] + (j + 1) % ring
        phasor, total = phasors[:3 * size], totals[:2 * size]
        views = (np.repeat([0.0, 0.0, theta], size)[:, None], partners[:3 * size],
                 exponents[:3 * size].imag, exponents[:3 * size], phasor,
                 phasor[size:].reshape(2, size, -1), phasor[:size], total.reshape(2, size, -1),
                 total.imag, total.real, updates[:2 * size])
        # a0, a1 from b0, b1 and, at (1, 1), the b1 entry whose pairing
        # lands on j; then b0, b1 from the new a0, a1 and a1 at j + 1
        steps.append((np.concatenate([b0[own], b1[own], b1[prv]]), *views,
                      np.concatenate([a0[own], a1[own]])))
        steps.append((np.concatenate([a0[own], a1[own], a1[nxt]]), *views,
                      np.concatenate([b0[own], b1[own]])))
    # the four cosine arguments of each column, per input pair
    ring_next = np.concatenate([off + (np.arange(L) + 1) % L for off, L in zip(offsets, lengths)])
    left = np.concatenate([a0, a0, a1, a1[ring_next]])
    shift = np.repeat([0.0, 0.0, 0.0, theta], width)[:, None]
    angles = np.empty((4 * width, restarts))
    # numpy sums rows below 8 entries sequentially, so those lengths share
    # one block padded with a zero column; longer rows sum pairwise, alone
    # (on the contiguous last axis, as a transposed reduction would not)
    short = min(k, 7)
    padded = np.full((short, short), width)
    for L in range(1, short + 1):
        padded[L - 1, :L] = offsets[L - 1] + np.arange(L)
    terms, sums = np.zeros((restarts, 4, width + 1)), np.empty((restarts, 4, k))
    block, cosines = np.empty((restarts, 4, short, short)), terms[:, :, :width].transpose(1, 2, 0)
    rows = [(block, sums[..., :short])] + [
        (terms[..., o:o + L], sums[..., L - 1]) for o, L in zip(offsets[short:], lengths[short:])]
    pairs, right = angles.reshape(2, 2 * width, -1), phases[2 * width:]
    blocks, quarters = angles.reshape(4, width, -1), sums.swapaxes(0, 1)

    def objective() -> np.ndarray:
        phases.take(left, axis=0, out=angles, mode="clip")
        np.add(pairs, right, out=pairs)
        np.subtract(angles, shift, out=angles)
        np.cos(blocks, out=cosines)
        terms.take(padded, axis=2, out=block, mode="clip")
        for row, out in rows:
            np.add.reduce(row, axis=-1, out=out)
        return (quarters[0] + quarters[1] + quarters[2] + quarters[3]) / (4 * lengths)

    value = np.empty((restarts, k))
    used = np.full((restarts, k), _SWEEPS)
    live = np.ones((restarts, k), dtype=bool)
    previous = objective()
    for sweep in range(1, _SWEEPS + 1):
        for step in steps:
            _pair_step(phases, *step)
        current = objective()
        done = live & (current - previous < 1e-13)
        if done.any():
            value[done], used[done] = current[done], sweep
            live &= ~done
            if not live.any():
                break
        previous = current
    value[live] = previous[live]
    return value.T, used.T, live.sum(axis=0)


def _frontier_starts(seed: int, k: int, restarts: int, lo: int, hi: int) -> np.ndarray:
    """Starting phases of restarts lo..hi-1 for lengths 1..k, laid out for
    ``_ascend_frontier``.  They are the entries that one generator seeded
    with ``seed`` draws as ``(restarts, 4, L)`` uniforms for L = 1..k in
    turn: each uniform double takes one step of the PCG64 stream, so every
    block is drawn after advancing the stream to its offset."""
    rng = np.random.default_rng(seed)
    origin = rng.bit_generator.state
    starts = np.empty((hi - lo, 4, k * (k + 1) // 2))
    for length in range(1, k + 1):
        rng.bit_generator.state = origin
        rng.bit_generator.advance(2 * restarts * length * (length - 1) + 4 * length * lo)
        column = length * (length - 1) // 2
        starts[:, :, column:column + length] = rng.uniform(
            -math.pi, math.pi, size=(hi - lo, 4, length)
        )
    return starts


def verify_bound(
    n: int,
    k: int,
    alpha: float = 0.8,
    beta: float = 0.6,
    m: int = 1,
    restarts: int = 16,
    seed: int = 0,
) -> BoundCheck:
    """Search the strategy parameters directly and compare with the closed
    form for every alphabet size up to k.  One lockstep pass ascends every
    cycle length 1..k once; size j takes the best over lengths <= j, and its
    check, equal to ``verify_bound(n, j, ...)``, is in ``prefix``.  The
    ascent must neither beat the bound (beyond 1e-9) nor fall short of
    it (beyond 1e-6)."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    _check_target(n, k, alpha, beta)  # reject a bad target before any ascent
    theta = 2 * math.pi * (m % n) / n
    # restarts are independent rows, so chunking them moves no bit; one
    # restart holds 4 k (k + 1) / 2 start entries
    chunk = max(1, _ENTRIES // (2 * k * (k + 1)))
    best, most, stalled = np.full(k, -1.0), np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    for lo in range(0, restarts, chunk):
        starts = _frontier_starts(seed, k, restarts, lo, min(lo + chunk, restarts))
        value, used, unfinished = _ascend_frontier(theta, starts)
        best = np.maximum(best, value.max(axis=1))
        most = np.maximum(most, used.max(axis=1))
        stalled += unfinished
    best_cos = -1.0
    most_sweeps = unconverged = 0
    checks: list[BoundCheck] = []
    for length in range(1, k + 1):
        best_cos = max(best_cos, float(best[length - 1]))
        most_sweeps = max(most_sweeps, int(most[length - 1]))
        unconverged += int(stalled[length - 1])
        bound = _closed_form(n, length, alpha, beta, m)
        optimum = alpha**4 + beta**4 + 2 * (alpha * beta) ** 2 * best_cos
        confirmed = bound.value - _REACH <= optimum <= bound.value + _SLACK
        checks.append(
            BoundCheck(bound, optimum, confirmed, most_sweeps, unconverged, tuple(checks))
        )
    return checks[-1]
