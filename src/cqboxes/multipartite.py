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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from cqboxes.boxes import CQBox, _check_tolerance, family_worst_violation
from cqboxes.quantum import (
    PartyStructure, StateVector, _frozen, real_array, wrap_angle
)
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
            try:
                object.__setattr__(self, name, arr := _frozen(real_array(getattr(self, name)), float))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
            if arr.shape != (2, 2, 2):
                raise ValueError(f"{name} must have shape (2, 2, 2), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must hold finite phases, got {arr.tolist()}")

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


_W_STRUCTURE = PartyStructure.qubits("ABC")
_XS, _YS, _ZS = np.meshgrid(range(2), range(2), range(2), indexing="ij")
# complex entries of one chunk's (F, 2, 2, 2, 4, 4) stack of two-party
# reduced states, the largest array of the theorem sweep (no 8 x 8 matrix is
# built): 32 families.  In the benchmark's 2-value grid sweeps on 2 cores,
# chunks of 32 ran about 20% faster than chunks of 16 at no more peak RSS;
# chunks of 64 ran about 14% faster again but raised the peak RSS by 1 MB.
_CHUNK_ENTRIES = 2**12


def _as_family(assignment: PhaseAssignment) -> np.ndarray:
    """The assignment as a family of one, shape (1, 3, 2, 2, 2)."""
    return np.stack([assignment.alpha, assignment.beta, assignment.gamma])[None]


def _w_phase_amplitudes(phases: np.ndarray) -> np.ndarray:
    """Output vectors (F, 2, 2, 2, 8) of the W-phase families with phases
    (F, 3, 2, 2, 2): alpha on |100>, beta on |010>, gamma on |001>."""
    amps = np.zeros(phases.shape[:1] + (2, 2, 2, 8), dtype=complex)
    amps[..., 4] = np.exp(1j * phases[:, 0])
    amps[..., 2] = np.exp(1j * phases[:, 1])
    amps[..., 1] = np.exp(1j * phases[:, 2])
    return amps / math.sqrt(3)


def w_phase_box(assignment: PhaseAssignment) -> CQBox:
    """The family (e^{i alpha}|100> + e^{i beta}|010> + e^{i gamma}|001>)/sqrt3."""
    amps = _w_phase_amplitudes(_as_family(assignment))[0]
    return CQBox((2, 2, 2), _W_STRUCTURE, amplitudes=amps)


@dataclass(frozen=True)
class WPhaseDecomposition:
    """Per-party local phases with alpha = a(x) + g, beta = b(y) + g,
    gamma = c(z) + g for some free global phase g(x, y, z)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def _local_fit(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-party phases a, b, c (each (F, 2)) read off the phase differences
    of each family in (F, 3, 2, 2, 2), and each family's largest residual."""
    d_ab = phases[:, 0] - phases[:, 1]
    d_ac = phases[:, 0] - phases[:, 2]
    zero = np.zeros(len(phases))
    a = np.stack([zero, wrap_angle(d_ab[:, 1, 0, 0] - d_ab[:, 0, 0, 0])], axis=-1)
    b = np.stack([-d_ab[:, 0, 0, 0], -d_ab[:, 0, 1, 0]], axis=-1)
    c = np.stack([-d_ac[:, 0, 0, 0], -d_ac[:, 0, 0, 1]], axis=-1)
    residual_ab = wrap_angle(d_ab - (a[:, _XS] - b[:, _YS]))
    residual_ac = wrap_angle(d_ac - (a[:, _XS] - c[:, _ZS]))
    worst = np.maximum(
        np.max(np.abs(residual_ab), axis=(1, 2, 3)), np.max(np.abs(residual_ac), axis=(1, 2, 3))
    )
    return a, b, c, worst


def is_local_equivalent(
    assignment: PhaseAssignment, tol: float = 1e-9
) -> WPhaseDecomposition | None:
    """Extract input-local phases reproducing the family, if they exist.

    Only the differences alpha - beta and alpha - gamma are physical (a
    global phase per input is free).  The family is reproducible by
    per-party phases exactly when those differences are independent of
    the third party's input and carry no two-input interaction; then
    a(x), b(y), c(z) are read off from single-variable slices.  Returns
    None when the residuals exceed ``tol``; a ``tol`` that is not a finite
    non-negative number is refused with a ValueError naming it.
    """
    _check_tolerance(tol)
    a, b, c, worst = _local_fit(_as_family(assignment))
    if worst[0] > tol:
        return None
    return WPhaseDecomposition(a=a[0], b=b[0], c=c[0])


def _local_phases(parts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Phases (F, 3, 2, 2, 2) with alpha = a(x) + g, beta = b(y) + g and
    gamma = c(z) + g, from per-party phases ``parts`` (F, 3, 2) and global
    phases ``g`` (F, 2, 2, 2)."""
    return np.stack(
        [parts[:, 0][:, _XS] + g, parts[:, 1][:, _YS] + g, parts[:, 2][:, _ZS] + g], axis=1
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
    and input-local phases for W-phase families.

    ``counterexamples`` maps each failing clause (a boolean field name) to
    the first phase assignment that breaks it; it is empty when the
    equivalence holds.
    """

    local_cases: int
    local_all_non_signalling: bool
    local_all_decomposable: bool
    perturbed_cases: int
    perturbed_all_signalling: bool
    perturbed_none_decomposable: bool
    worst_violation_mismatch: float
    random_cases: int
    random_equivalence_holds: bool
    counterexamples: Mapping[str, PhaseAssignment] = field(default_factory=dict)

    @property
    def equivalence_holds(self) -> bool:
        return (
            self.local_all_non_signalling
            and self.local_all_decomposable
            and self.perturbed_all_signalling
            and self.perturbed_none_decomposable
            and self.random_equivalence_holds
        )


def _spans(total: int) -> Iterator[slice]:
    """Consecutive chunks covering range(total), each of as many families
    as ``_CHUNK_ENTRIES`` allows (at least one)."""
    size = max(1, _CHUNK_ENTRIES // (8 * 4 * 4))
    return (slice(i, min(i + size, total)) for i in range(0, total, size))


def _perturbed() -> tuple[np.ndarray, list[float]]:
    """Local assignments, bare or with a fixed input-local dressing, with one
    ket's phase bumped by delta in pi/2, pi, 3 pi/2 times a monomial in the
    inputs outside its own, for every ket, monomial, delta and dressing in
    product order; and the worst violation 2 |sin(delta / 2)| / 3 predicted
    for each."""
    deltas = (math.pi / 2, math.pi, 3 * math.pi / 2)
    ket, monomial, delta, dressed = (
        axis.ravel()
        for axis in np.meshgrid(range(3), range(6), deltas, (False, True), indexing="ij")
    )
    dressing = np.array([[0.0, 1.234], [0.0, 0.777], [0.0, -0.5]])
    parts = np.where(dressed[:, None, None], dressing, 0.0)
    phases = _local_phases(parts, np.zeros((len(ket), 2, 2, 2)))
    coords = np.array([_XS, _YS, _ZS])
    bumps = np.array([
        [np.prod(coords[list(variables)], axis=0) for variables in _monomials_for(k)]
        for k in range(3)
    ])
    phases[np.arange(len(ket)), ket] += delta[:, None, None, None] * bumps[ket, monomial]
    return phases, [2 * abs(math.sin(d / 2)) / 3 for d in delta.tolist()]


def _checks(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst no-signalling violation and local-fit residual of each family."""
    violation = family_worst_violation(_w_phase_amplitudes(phases), _W_STRUCTURE)
    return violation, _local_fit(phases)[3]


def _note_first(
    found: dict[str, PhaseAssignment], clause: str, failed: np.ndarray, phases: np.ndarray
) -> None:
    """Record the first family in ``phases`` that fails ``clause``, unless
    an earlier one was recorded."""
    if clause not in found and failed.any():
        found[clause] = PhaseAssignment(*phases[np.argmax(failed)])


def w_phase_theorem_check(
    grid_values: Sequence[float] = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
    random_samples: int = 40,
    seed: int = 0,
    tol: float = 1e-9,
) -> WPhaseTheoremReport:
    """Sweep families on both sides of the theorem.

    Local side: every grid assignment built from per-party phases (with a
    shared random global phase) must pass the no-signalling check and
    decompose.  Non-local side: perturbing one ket's phase by delta (pi/2,
    pi or 3 pi/2) times a product of inputs outside its own must break
    no-signalling with worst violation exactly 2 |sin(delta / 2)| / 3, with
    or without an extra input-local dressing, and must not decompose.  Random
    assignments are checked for agreement between the two predicates.
    Families are built and checked in stacks of as many families as
    ``_CHUNK_ENTRIES`` allows.  A grid value that is not finite, a
    ``random_samples`` that is not a non-negative integer, or a ``tol`` that
    is not a finite non-negative number is refused with a ValueError naming
    the argument before any family is built.
    """
    grid = np.asarray(grid_values, dtype=float)
    if grid.ndim != 1 or not np.isfinite(grid).all():
        raise ValueError(
            f"grid_values must be a flat sequence of finite numbers, got {grid.tolist()}"
        )
    whole = isinstance(random_samples, (int, np.integer)) and not isinstance(random_samples, bool)
    if not whole or random_samples < 0:
        raise ValueError(f"random_samples must be a non-negative integer, got {random_samples!r}")
    _check_tolerance(tol)
    rng = np.random.default_rng(seed)
    found: dict[str, PhaseAssignment] = {}
    # a family is decomposable unless its residual exceeds tol, and passes
    # the no-signalling check when its worst violation is within tol
    for span in _spans(len(grid) ** 6):
        # grid assignments in itertools.product(grid, repeat=6) order, each
        # with a random global phase drawn in that order
        digits = np.unravel_index(np.arange(span.start, span.stop), (len(grid),) * 6)
        parts = grid[np.stack(digits, axis=-1)].reshape(-1, 3, 2)
        phases = _local_phases(parts, rng.uniform(-math.pi, math.pi, size=(len(parts), 2, 2, 2)))
        violation, residual = _checks(phases)
        _note_first(found, "local_all_non_signalling", ~(violation <= tol), phases)
        _note_first(found, "local_all_decomposable", residual > tol, phases)

    perturbed, predicted = _perturbed()
    mismatch = 0.0
    for span in _spans(len(perturbed)):
        phases = perturbed[span]
        violation, residual = _checks(phases)
        _note_first(found, "perturbed_all_signalling", violation <= tol, phases)
        _note_first(found, "perturbed_none_decomposable", ~(residual > tol), phases)
        mismatch = max(mismatch, float(np.max(np.abs(violation - predicted[span]))))

    for span in _spans(random_samples):
        phases = rng.uniform(-math.pi, math.pi, size=(span.stop - span.start, 3, 2, 2, 2))
        violation, residual = _checks(phases)
        disagree = ~(residual > tol) != (violation <= 1e-7)
        _note_first(found, "random_equivalence_holds", disagree, phases)

    return WPhaseTheoremReport(
        local_cases=len(grid) ** 6,
        local_all_non_signalling="local_all_non_signalling" not in found,
        local_all_decomposable="local_all_decomposable" not in found,
        perturbed_cases=len(perturbed),
        perturbed_all_signalling="perturbed_all_signalling" not in found,
        perturbed_none_decomposable="perturbed_none_decomposable" not in found,
        worst_violation_mismatch=mismatch,
        random_cases=random_samples,
        random_equivalence_holds="random_equivalence_holds" not in found,
        counterexamples=found,
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
