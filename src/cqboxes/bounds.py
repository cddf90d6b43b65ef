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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from cqboxes.boxes import CouplingBox
from cqboxes.quantum import TOLERANCE, _frozen, fidelity, two_level_state, wrap_angle
from cqboxes.synthesis import Strategy, phase_family_box, simulate

__all__ = [
    "PhaseStrategySpec",
    "BoundResult",
    "BoundCheck",
    "spec_to_strategy",
    "phase_strategy_fidelity",
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
    coupling = CouplingBox((2, 2), spec.marginal, dict(spec.pairings))

    def alice(x: int, a: int) -> np.ndarray:
        return np.diag([1.0, np.exp(1j * spec.alice_phases[x, a])])

    def bob(y: int, b: int) -> np.ndarray:
        return np.diag([1.0, np.exp(1j * spec.bob_phases[y, b])])

    return Strategy(ccbox=coupling, shared=two_level_state(alpha, beta), party_maps=(alice, bob))


def phase_strategy_fidelity(
    spec: PhaseStrategySpec,
    alpha: float,
    beta: float,
    phase: Callable[[int, int], float],
) -> float:
    """Mean fidelity (over the four inputs) between the simulated strategy
    output and the target phase family.  Runs the full simulation rather
    than a closed-form shortcut."""
    box = simulate(spec_to_strategy(spec, alpha, beta))
    target = phase_family_box(phase, alpha, beta)
    return float(
        np.mean([fidelity(box.output(key), target.pure_output(key)) for key in box.inputs])
    )


def _fast_mean_fidelity(
    spec: PhaseStrategySpec, alpha: float, beta: float, phase: Callable[[int, int], float]
) -> float:
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


def best_fidelity(
    n: int, k: int, alpha: float = 0.8, beta: float = 0.6, m: int = 1
) -> BoundResult:
    """Exact optimum of the mean fidelity to the (m/n)-phase family over
    all k-output phase strategies, with an achieving certificate."""
    if n < 2 or k < 1:
        raise ValueError("need a phase denominator n >= 2 and at least one output")
    if alpha <= 0 or beta <= 0 or abs(alpha**2 + beta**2 - 1.0) > TOLERANCE:
        raise ValueError("alpha, beta must be positive with alpha^2 + beta^2 = 1")
    theta = 2 * math.pi * m / n
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


# sweeps per restart, and how far the ascent may beat the closed form
# (_SLACK) or fall short of it (_REACH) for the bound to count as confirmed
_SWEEPS = 300
_SLACK = 1e-9
_REACH = 1e-6


def _ascend_cycles(theta: float, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
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
    form for every alphabet size up to k.  One pass ascends each cycle
    length 1..k once; size j takes the best over lengths <= j, and its
    check, equal to ``verify_bound(n, j, ...)``, is in ``prefix``.  The
    ascent must neither beat the bound (beyond 1e-9) nor fall short of
    it (beyond 1e-6)."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    best_fidelity(n, k, alpha, beta, m)  # reject a bad target before any ascent
    theta = 2 * math.pi * m / n
    rng = np.random.default_rng(seed)
    best_cos = -1.0
    most_sweeps = unconverged = 0
    checks: list[BoundCheck] = []
    for length in range(1, k + 1):
        # in C order, the same stream as R times four draws of size L
        starts = rng.uniform(-math.pi, math.pi, size=(restarts, 4, length))
        value, used, stalled = _ascend_cycles(theta, starts)
        best_cos = max(best_cos, float(value.max()))
        most_sweeps = max(most_sweeps, int(used.max()))
        unconverged += stalled
        bound = best_fidelity(n, length, alpha, beta, m)
        optimum = alpha**4 + beta**4 + 2 * (alpha * beta) ** 2 * best_cos
        confirmed = bound.value - _REACH <= optimum <= bound.value + _SLACK
        checks.append(
            BoundCheck(bound, optimum, confirmed, most_sweeps, unconverged, tuple(checks))
        )
    return checks[-1]
