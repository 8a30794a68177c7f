"""Numerical theorem checks: grid minimization of the functional's real
part, seeded generation of members and violators, and the radial witness
search for the necessity direction.

Reports say "no counterexample found on this grid", never more: sampling
is evidence, not proof.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .harmonic import AnyForm, EvalPoint, NegativeCoefficientForm, _functional_at, _weighted_series
from .membership import (
    ClassParams,
    _weights,
    analytic_weight,
    coefficient_deficiency,
)

__all__ = [
    "DiskGrid",
    "STANDARD_GRID",
    "VerificationReport",
    "min_real_functional",
    "radial_deficiency",
    "find_necessity_witness",
    "random_member",
    "random_violator",
    "verify_sufficiency",
    "verify_necessity",
]

# Looser than membership.DEGENERATE_WEIGHT (1e-14, numerical zero for certification) on
# purpose: the sampler would otherwise divide a budget by a tiny weight into a huge magnitude.
_PSI_SKIP = 1e-9  # b-indices whose weight is this small are skipped by the sampler


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling lattice: each radius crossed with A equispaced angles."""

    radii: tuple[float, ...]
    angles: int
    tag: str = "custom"

    def __post_init__(self):
        r = self.radii
        if not r or any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be nonempty and strictly increasing")
        if not all(0 < x < 1 for x in r):
            raise ValueError(f"radii must be finite and lie in (0, 1), got {r}")
        if not isinstance(self.angles, int) or isinstance(self.angles, bool) or self.angles < 8:
            raise ValueError(f"need an integer number of angles >= 8, got {self.angles!r}")

    @cached_property
    def _points(self) -> tuple[EvalPoint, ...]:  # built on first use, once per grid
        r, a = self.radii, self.angles
        return tuple(EvalPoint.from_polar(x, 2 * math.pi * j / a) for x in r for j in range(a))

    def points(self):
        return iter(self._points)


STANDARD_GRID = DiskGrid(
    radii=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.995),
    angles=128,
    tag="standard-v1",
)


def min_real_functional(
    f: AnyForm, p: ClassParams, grid: DiskGrid = STANDARD_GRID
) -> tuple[float, EvalPoint]:
    """Grid minimum of Re of the class functional and its argmin (first
    grid point on ties; deterministic in grid order)."""
    series = _weighted_series(f, p)
    best = None
    best_pt = None
    for pt in grid.points():
        v = _functional_at(series, pt).real
        if best is None or v < best:
            best, best_pt = v, pt
    return best, best_pt


def radial_deficiency(f: NegativeCoefficientForm, p: ClassParams, r: float) -> float:
    """Q(r) = 1 - beta - sum phi|a_n| r^{n-1} - sum |psi||b_n| r^{n-1}.

    The radial expression whose r -> 1 limit is the coefficient bound;
    negative values witness non-membership of a fixed-sign function.
    """
    return _radial_at(p, _radial_terms(f, p), r)


def _radial_terms(f: NegativeCoefficientForm, p: ClassParams) -> list[tuple[int, float]]:
    """Q(r)'s weighted magnitudes (n-1, w*m), a_abs then b_abs, for reuse across radii."""
    phi, psi, _ = _weights(p, f.a_abs, f.b_abs)
    a = [(n - 1, w * m) for (n, m), w in zip(f.a_abs.items(), phi)]
    return a + [(n - 1, abs(w) * m) for (n, m), w in zip(f.b_abs.items(), psi)]


def _radial_at(p: ClassParams, terms: list[tuple[int, float]], r: float) -> float:
    q = 1 - p.beta
    for e, wm in terms:
        q -= wm * r**e
    return q


def find_necessity_witness(
    f: NegativeCoefficientForm, p: ClassParams, max_exponent: int = 8
) -> float | None:
    """First radius r0 on the geometric ladder {1 - 10^-j} with a negative
    radial deficiency.  For a violator of the coefficient bound such an r0
    must exist as r -> 1; None flags a resolution failure, not a theorem
    failure."""
    if coefficient_deficiency(f, p) >= 0:
        raise ValueError("witness search expects a violator (negative deficiency)")
    terms = _radial_terms(f, p)
    for j in range(1, max_exponent + 1):
        r = 1 - 10.0**-j
        if _radial_at(p, terms, r) < 0:
            return r
    return None


def random_member(
    p: ClassParams,
    seed: int,
    max_index: int = 6,
    part_mix: float = 0.5,
    cap_magnitudes: float | None = None,
) -> NegativeCoefficientForm:
    """Seeded fixed-sign class member: a random subset of indices gets a
    random budget u*(1-beta), u in (0, 1), split across terms, so the
    deficiency is positive by construction.

    b-indices with near-zero weight are skipped (their coefficients would
    be unconstrained).  |b_1| stays below 1; ``cap_magnitudes`` optionally
    bounds every magnitude (shrinking a magnitude only grows the
    deficiency, so membership is preserved).
    """
    if max_index < 2:
        raise ValueError(f"max_index must be >= 2, got {max_index}")
    if not 0 <= part_mix <= 1:
        raise ValueError(f"part_mix must lie in [0, 1], got {part_mix}")
    rng = random.Random(seed)
    u = rng.uniform(0.05, 0.95)
    budget = u * (1 - p.beta)

    phi, psi, _ = _weights(p, range(2, max_index + 1), range(1, max_index + 1))
    a_pool = list(range(2, max_index + 1))
    b_pool = [n for n, w in enumerate(psi, start=1) if abs(w) > _PSI_SKIP]
    a_idx = rng.sample(a_pool, rng.randint(0, len(a_pool)))
    b_idx = rng.sample(b_pool, rng.randint(0, len(b_pool)))
    if not a_idx and not b_idx:
        a_idx = [2]

    shares: list[tuple[str, int, float]] = []
    for n in a_idx:
        shares.append(("a", n, rng.uniform(0.1, 1.0) * (1 - part_mix + 1e-9)))
    for n in b_idx:
        shares.append(("b", n, rng.uniform(0.1, 1.0) * (part_mix + 1e-9)))
    total = sum(s for _, _, s in shares)

    a_abs: dict[int, float] = {}
    b_abs: dict[int, float] = {}
    for part, n, s in shares:
        amount = budget * s / total
        if part == "a":
            mag = amount / phi[n - 2]
        else:
            mag = amount / abs(psi[n - 1])
            if n == 1:
                mag = min(mag, 0.95)
        if cap_magnitudes is not None:
            mag = min(mag, cap_magnitudes)
        if mag > 0:
            (a_abs if part == "a" else b_abs)[n] = mag
    return NegativeCoefficientForm(a_abs=a_abs, b_abs=b_abs)


def random_violator(
    p: ClassParams, seed: int, max_index: int = 6, margin: float = 0.01
) -> NegativeCoefficientForm:
    """Seeded violator: a random member with one analytic term inflated until
    the deficiency drops below -margin.  |b_1| < 1 is untouched."""
    f = random_member(p, seed, max_index=max_index)
    rng = random.Random(seed ^ 0x5EED)
    n = max(f.a_abs, key=f.a_abs.get) if f.a_abs else rng.randint(2, max_index)
    excess = coefficient_deficiency(f, p) + margin + rng.uniform(0.01, 0.5)
    a_abs = dict(f.a_abs)
    a_abs[n] = a_abs.get(n, 0.0) + excess / analytic_weight(n, p)
    return NegativeCoefficientForm(a_abs=a_abs, b_abs=f.b_abs)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases_run: int
    cases_passed: int
    worst_margin: float
    seed: int
    grid_tag: str
    witness: dict | None = field(default=None)

    @property
    def all_passed(self) -> bool:
        return self.cases_passed == self.cases_run

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "grid": self.grid_tag,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_sufficiency(
    p: ClassParams,
    cases: int,
    seed: int = 0,
    grid: DiskGrid = STANDARD_GRID,
) -> VerificationReport:
    """Sample positive-deficiency functions and check that the grid minimum
    of Re of the functional strictly exceeds beta in every case."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    passed = 0
    worst = None
    witness = None
    for i in range(cases):
        f = random_member(p, seed + i)
        low, pt = min_real_functional(f, p, grid)
        margin = low - p.beta
        if worst is None or margin < worst:
            worst = margin
        if margin > 0:
            passed += 1
        elif witness is None:
            witness = {"case": i, "z": [pt.z.real, pt.z.imag], "re_value": low}
    return VerificationReport(
        suite="sufficiency",
        cases_run=cases,
        cases_passed=passed,
        worst_margin=worst,
        seed=seed,
        grid_tag=grid.tag,
        witness=witness,
    )


def verify_necessity(
    p: ClassParams, cases: int, seed: int = 0, margin: float = 0.01
) -> VerificationReport:
    """Sample violators and check that a radial witness is found for each."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    passed = 0
    worst = None
    witness = None
    for i in range(cases):
        f = random_violator(p, seed + i, margin=margin)
        r0 = find_necessity_witness(f, p)
        if r0 is not None:
            passed += 1
            q = radial_deficiency(f, p, r0)
            if worst is None or q > worst:
                worst = q
        elif witness is None:
            witness = {"case": i, "reason": "no radial witness up to 1 - 1e-8"}
    return VerificationReport(
        suite="necessity",
        cases_run=cases,
        cases_passed=passed,
        worst_margin=worst if worst is not None else 0.0,
        seed=seed,
        grid_tag="radial-ladder",
        witness=witness,
    )
