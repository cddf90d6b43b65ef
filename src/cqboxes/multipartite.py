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
        return cls(*(
            [[[fn(x, y, z) for z in range(2)] for y in range(2)] for x in range(2)]
            for fn in (alpha, beta, gamma)
        ))


def w_phase_box(assignment: PhaseAssignment) -> CQBox:
    """The family (e^{i alpha}|100> + e^{i beta}|010> + e^{i gamma}|001>)/sqrt3."""
    amps = np.zeros((2, 2, 2, 8), dtype=complex)
    amps[..., 4] = np.exp(1j * assignment.alpha)
    amps[..., 2] = np.exp(1j * assignment.beta)
    amps[..., 1] = np.exp(1j * assignment.gamma)
    return CQBox((2, 2, 2), PartyStructure.qubits("ABC"), amplitudes=amps / math.sqrt(3))


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
    return [
        combo
        for r in range(1, 4)
        for combo in itertools.combinations(range(3), r)
        if combo != (ket_variable,)
    ]


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
    local = [
        _local_assignment(v[0:2], v[2:4], v[4:6], rng.uniform(-math.pi, math.pi, size=(2, 2, 2)))
        for v in itertools.product(grid_values, repeat=6)
    ]

    dressing = (np.array([0.0, 1.234]), np.array([0.0, 0.777]), np.array([0.0, -0.5]))
    coords = np.meshgrid(range(2), range(2), range(2), indexing="ij")
    perturbed, predicted = [], []
    for ket, monomial, delta, dressed in itertools.product(
        range(3), range(6), deltas, (False, True)
    ):
        base = _local_assignment(*(dressing if dressed else np.zeros((3, 2))))
        grids = [base.alpha, base.beta, base.gamma]
        bump = np.ones((2, 2, 2))
        for variable in _monomials_for(ket)[monomial]:
            bump = bump * coords[variable]
        grids[ket] = grids[ket] + delta * bump
        perturbed.append(PhaseAssignment(*grids))
        predicted.append(2 * abs(math.sin(delta / 2)) / 3)
    reports = [cq_no_signalling(w_phase_box(a), tol=tol) for a in perturbed]

    randoms = [
        PhaseAssignment(*(rng.uniform(-math.pi, math.pi, size=(2, 2, 2)) for _ in range(3)))
        for _ in range(random_samples)
    ]

    def decomposable(assignment: PhaseAssignment) -> bool:
        return is_local_equivalent(assignment, tol) is not None

    def non_signalling(assignment: PhaseAssignment, check_tol: float = tol) -> bool:
        return cq_no_signalling(w_phase_box(assignment), tol=check_tol).passed

    mismatches = (abs(r.worst_violation - p) for r, p in zip(reports, predicted))
    return WPhaseTheoremReport(
        local_cases=len(local),
        local_all_non_signalling=all(map(non_signalling, local)),
        local_all_decomposable=all(map(decomposable, local)),
        perturbed_cases=len(perturbed),
        perturbed_all_signalling=not any(r.passed for r in reports),
        perturbed_none_decomposable=not any(map(decomposable, perturbed)),
        worst_violation_mismatch=max(mismatches, default=0.0),
        random_cases=random_samples,
        random_equivalence_holds=all(decomposable(a) == non_signalling(a, 1e-7) for a in randoms),
    )


def ghz_phase_box(theta: float) -> CQBox:
    """The family (|000> + e^{i theta x y z} |111>)/sqrt2, non-signalling
    for every theta since all proper reductions are input-independent."""
    amps = np.zeros((2, 2, 2, 8), dtype=complex)
    amps[..., 0] = 1.0
    for key in np.ndindex(2, 2, 2):
        amps[key + (7,)] = np.exp(1j * theta * key[0] * key[1] * key[2])
    return CQBox((2, 2, 2), PartyStructure.qubits("ABC"), amplitudes=amps / math.sqrt(2))


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
