"""Three-party phase families over the one-excitation and GHZ states.

A W-phase family attaches an input-dependent phase to each term of
(|100> + |010> + |001>)/sqrt3, one phase per excited party.  Pairwise
reduced states see only phase differences, which ties no-signalling to a
strong structural fact: such a family is non-signalling exactly when the
phases split into per-party input-local parts (plus a free global
phase), so classical correlations of any kind add nothing here.
``w_phase_theorem_check`` probes both directions of that equivalence
numerically.

GHZ phase families (|000> + e^{i theta x y z} |111>)/sqrt2 behave in the
opposite way: they are non-signalling for every theta, and realising the
three-input product phase requires a genuinely correlated classical box,
the three-party modular box.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from cqboxes.boxes import CQBox, cq_no_signalling
from cqboxes.quantum import PartyStructure, StateVector, wrap_angle
from cqboxes.synthesis import Strategy, modular_phase_strategy

__all__ = [
    "PhaseAssignment",
    "WPhaseDecomposition",
    "WPhaseTheoremReport",
    "w_phase_box",
    "is_local_equivalent",
    "w_phase_theorem_check",
    "ghz_phase_box",
    "ghz_phase_strategy",
]


@dataclass(frozen=True)
class PhaseAssignment:
    """Input-dependent phases for the three one-excitation kets.

    ``alpha[x, y, z]`` is the phase (radians) on |100>, ``beta`` on
    |010>, ``gamma`` on |001>.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.shape != (2, 2, 2):
                raise ValueError(f"{name} must have shape (2, 2, 2), got {arr.shape}")

    @classmethod
    def from_functions(
        cls,
        alpha: Callable[[int, int, int], float],
        beta: Callable[[int, int, int], float],
        gamma: Callable[[int, int, int], float],
    ) -> "PhaseAssignment":
        grids = []
        for fn in (alpha, beta, gamma):
            grid = np.zeros((2, 2, 2))
            for x, y, z in itertools.product(range(2), repeat=3):
                grid[x, y, z] = fn(x, y, z)
            grids.append(grid)
        return cls(*grids)


def w_phase_box(assignment: PhaseAssignment) -> CQBox:
    """The family (e^{i alpha}|100> + e^{i beta}|010> + e^{i gamma}|001>)/sqrt3."""
    structure = PartyStructure.qubits("ABC")
    states = {}
    for key in itertools.product(range(2), repeat=3):
        amp = np.zeros(8, dtype=complex)
        amp[4] = np.exp(1j * assignment.alpha[key])
        amp[2] = np.exp(1j * assignment.beta[key])
        amp[1] = np.exp(1j * assignment.gamma[key])
        states[key] = StateVector(amp / math.sqrt(3), structure)
    return CQBox.from_pure((2, 2, 2), states)


@dataclass(frozen=True)
class WPhaseDecomposition:
    """Per-party local phases with alpha = a(x) + g, beta = b(y) + g,
    gamma = c(z) + g for some free global phase g(x, y, z)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def is_local_equivalent(
    assignment: PhaseAssignment, tol: float = 1e-9
) -> WPhaseDecomposition | None:
    """Extract input-local phases reproducing the family, if they exist.

    Only the differences alpha - beta and alpha - gamma are physical (a
    global phase per input is free).  The family is reproducible by
    per-party phases exactly when those differences are independent of
    the third party's input and carry no two-input interaction; then
    a(x), b(y), c(z) are read off from single-variable slices.  Returns
    None when the residuals exceed ``tol``.
    """
    d_ab = assignment.alpha - assignment.beta
    d_ac = assignment.alpha - assignment.gamma

    a = np.array([0.0, wrap_angle(d_ab[1, 0, 0] - d_ab[0, 0, 0]).item()])
    b = np.array([-d_ab[0, 0, 0], -d_ab[0, 1, 0]])
    c = np.array([-d_ac[0, 0, 0], -d_ac[0, 0, 1]])

    xs, ys, zs = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    residual_ab = wrap_angle(d_ab - (a[xs] - b[ys]))
    residual_ac = wrap_angle(d_ac - (a[xs] - c[zs]))
    worst = max(np.max(np.abs(residual_ab)), np.max(np.abs(residual_ac)))
    if worst > tol:
        return None
    return WPhaseDecomposition(a=a, b=b, c=c)


def _local_assignment(
    a: Sequence[float], b: Sequence[float], c: Sequence[float], g: np.ndarray | None = None
) -> PhaseAssignment:
    xs, ys, zs = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    base = np.zeros((2, 2, 2)) if g is None else np.asarray(g, dtype=float)
    return PhaseAssignment(
        alpha=np.asarray(a)[xs] + base,
        beta=np.asarray(b)[ys] + base,
        gamma=np.asarray(c)[zs] + base,
    )


def _monomials_for(ket_variable: int) -> list[tuple[int, ...]]:
    """Variable subsets whose product perturbs the given ket's phase
    non-locally: every nonempty subset not contained in the ket's own
    input variable."""
    subsets = []
    for r in range(1, 4):
        for combo in itertools.combinations(range(3), r):
            if combo != (ket_variable,):
                subsets.append(combo)
    return subsets


@dataclass(frozen=True)
class WPhaseTheoremReport:
    """Numerical two-sided probe of the equivalence between no-signalling
    and input-local phases for W-phase families."""

    local_cases: int
    local_all_non_signalling: bool
    local_all_decomposable: bool
    perturbed_cases: int
    perturbed_all_signalling: bool
    perturbed_none_decomposable: bool
    worst_violation_mismatch: float
    random_cases: int
    random_equivalence_holds: bool

    @property
    def equivalence_holds(self) -> bool:
        return (
            self.local_all_non_signalling
            and self.local_all_decomposable
            and self.perturbed_all_signalling
            and self.perturbed_none_decomposable
            and self.random_equivalence_holds
        )


def w_phase_theorem_check(
    grid_values: Sequence[float] = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
    deltas: Sequence[float] = (math.pi / 2, math.pi, 3 * math.pi / 2),
    random_samples: int = 40,
    seed: int = 0,
    tol: float = 1e-9,
) -> WPhaseTheoremReport:
    """Sweep families on both sides of the theorem.

    Local side: every grid assignment built from per-party phases (with a
    shared random global phase) must pass the no-signalling check and
    decompose.  Non-local side: perturbing one ket's phase by
    delta * (product of inputs outside its own) must break no-signalling
    with worst violation exactly 2 |sin(delta / 2)| / 3, with or without
    an extra input-local dressing, and must not decompose.  Random
    assignments are checked for agreement between the two predicates.
    """
    rng = np.random.default_rng(seed)

    local_cases = 0
    local_ns = True
    local_dec = True
    for values in itertools.product(grid_values, repeat=6):
        a, b, c = values[0:2], values[2:4], values[4:6]
        g = rng.uniform(-math.pi, math.pi, size=(2, 2, 2))
        assignment = _local_assignment(a, b, c, g)
        local_cases += 1
        if is_local_equivalent(assignment, tol) is None:
            local_dec = False
        if not cq_no_signalling(w_phase_box(assignment), tol=tol).passed:
            local_ns = False

    perturbed_cases = 0
    perturbed_sig = True
    perturbed_dec = True
    worst_mismatch = 0.0
    dressing = (
        np.array([0.0, 1.234]),
        np.array([0.0, 0.777]),
        np.array([0.0, -0.5]),
    )
    for ket, monomial, delta, dressed in itertools.product(
        range(3), range(6), deltas, (False, True)
    ):
        subset = _monomials_for(ket)[monomial]
        local = _local_assignment(*(dressing if dressed else np.zeros((3, 2))))
        grids = [local.alpha, local.beta, local.gamma]
        bump = np.ones((2, 2, 2))
        coords = np.meshgrid(range(2), range(2), range(2), indexing="ij")
        for variable in subset:
            bump = bump * coords[variable]
        grids[ket] = grids[ket] + delta * bump
        assignment = PhaseAssignment(*grids)
        perturbed_cases += 1
        if is_local_equivalent(assignment, tol) is not None:
            perturbed_dec = False
        report = cq_no_signalling(w_phase_box(assignment), tol=tol)
        if report.passed:
            perturbed_sig = False
        predicted = 2 * abs(math.sin(delta / 2)) / 3
        worst_mismatch = max(worst_mismatch, abs(report.worst_violation - predicted))

    random_ok = True
    for _ in range(random_samples):
        assignment = PhaseAssignment(
            *(rng.uniform(-math.pi, math.pi, size=(2, 2, 2)) for _ in range(3))
        )
        decomposable = is_local_equivalent(assignment, tol) is not None
        passed = cq_no_signalling(w_phase_box(assignment), tol=1e-7).passed
        if decomposable != passed:
            random_ok = False

    return WPhaseTheoremReport(
        local_cases=local_cases,
        local_all_non_signalling=local_ns,
        local_all_decomposable=local_dec,
        perturbed_cases=perturbed_cases,
        perturbed_all_signalling=perturbed_sig,
        perturbed_none_decomposable=perturbed_dec,
        worst_violation_mismatch=worst_mismatch,
        random_cases=random_samples,
        random_equivalence_holds=random_ok,
    )


def ghz_phase_box(theta: float) -> CQBox:
    """The family (|000> + e^{i theta x y z} |111>)/sqrt2, non-signalling
    for every theta since all proper reductions are input-independent."""
    structure = PartyStructure.qubits("ABC")
    states = {}
    for key in itertools.product(range(2), repeat=3):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        amp[7] = np.exp(1j * theta * key[0] * key[1] * key[2])
        states[key] = StateVector(amp / math.sqrt(2), structure)
    return CQBox.from_pure((2, 2, 2), states)


def ghz_phase_strategy(m: int, n: int) -> Strategy:
    """Realise the GHZ family with phase 2 pi (m/n) x y z exactly.

    The three-party modular box guarantees a - b - c = x y z mod n;
    Alice advances her |1> level by a steps of 2 pi m / n while Bob and
    Charlie retard theirs, so the product state phase telescopes to the
    target on |111> and cancels elsewhere.
    """
    shared = StateVector(
        np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / math.sqrt(2),
        PartyStructure.qubits("ABC"),
    )
    return modular_phase_strategy(m, n, shared)
