"""Numerical theorem checks: grid minimization of the functional's real
part, seeded generation of members and violators, and the radial witness
search for the necessity direction.

Reports say "no counterexample found on this grid", never more: sampling
is evidence, not proof.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .gammafn import _weights
from .harmonic import AnyForm, EvalPoint, NegativeCoefficientForm, _functional_on, _weighted_series
from .membership import ClassParams, _membership, analytic_weight, coefficient_deficiency

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

# Looser than gammafn.DEGENERATE_WEIGHT (1e-14, numerical zero for certification) on
# purpose: the sampler would otherwise divide a budget by a tiny weight into a huge magnitude.
_PSI_SKIP = 1e-9  # b-indices whose weight is this small are skipped by the sampler
_MAX_INDEX = 6  # the generators draw indices up to this degree
_LADDER = 8  # the witness search climbs r = 1 - 10^-j for j = 1, ..., _LADDER
_RUNGS = tuple(1 - 10.0**-j for j in range(1, _LADDER + 1))


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling lattice: each radius crossed with A equispaced angles."""

    radii: tuple[float, ...]
    angles: int

    def __post_init__(self):
        r = self.radii
        if not r or any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be nonempty and strictly increasing")
        if not all(0 < x < 1 for x in r):
            raise ValueError(f"radii must be finite and lie in (0, 1), got {r}")
        if not isinstance(self.angles, int) or isinstance(self.angles, bool) or self.angles < 8:
            raise ValueError(f"need an integer number of angles >= 8, got {self.angles!r}")

    @cached_property
    def _z(self) -> list[complex]:  # built on first use, once per grid
        a = self.angles
        thetas = [(2 * math.pi * j / a) % (2 * math.pi) for j in range(a)]
        return [cmath.rect(x, t) for x in self.radii for t in thetas]

    def _point(self, i: int) -> EvalPoint:
        """The i-th point in grid order; its z is ``_z[i]``, by the same arithmetic."""
        x, j = divmod(i, self.angles)
        return EvalPoint.from_polar(self.radii[x], 2 * math.pi * j / self.angles)

    def points(self):
        return map(self._point, range(len(self.radii) * self.angles))


STANDARD_GRID = DiskGrid(
    radii=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.995),
    angles=128,
)


def min_real_functional(
    f: AnyForm, p: ClassParams, grid: DiskGrid = STANDARD_GRID
) -> tuple[float, EvalPoint]:
    """Grid minimum of Re of the class functional and its argmin (first
    grid point on ties; deterministic in grid order)."""
    re = [v.real for v in _functional_on(_weighted_series(f, p), grid._z)]
    i = min(range(len(re)), key=re.__getitem__)
    return re[i], grid._point(i)


def radial_deficiency(f: NegativeCoefficientForm, p: ClassParams, r: float) -> float:
    """Q(r) = 1 - beta - sum phi|a_n| r^{n-1} - sum |psi||b_n| r^{n-1}.

    The radial expression over the certificate's terms, whose r -> 1 limit is
    the deficiency; negative values witness non-membership of a fixed-sign function.
    """
    return _radial_at(p, _membership(f, p)[0], r)


def _radial_at(p: ClassParams, terms, r: float) -> float:
    q = 1 - p.beta
    for n, _, value in terms:
        q -= value * r ** (n - 1)
    return q


def find_necessity_witness(f: NegativeCoefficientForm, p: ClassParams) -> float | None:
    """First radius r0 on the geometric ladder {1 - 10^-j}, j <= _LADDER, with
    a negative radial deficiency.  For a violator of the coefficient bound
    such an r0 must exist as r -> 1; None flags a resolution failure, not a
    theorem failure."""
    hit = _ladder(f, p)
    return None if hit is None else hit[0]


def _ladder(f: NegativeCoefficientForm, p: ClassParams) -> tuple[float, float] | None:
    """(r0, Q(r0)) at the witness search's first negative rung, from one weighing of f."""
    terms, _, deficiency, _ = _membership(f, p)
    if deficiency >= 0:
        raise ValueError("witness search expects a violator (negative deficiency)")
    for r in _RUNGS:
        q = _radial_at(p, terms, r)
        if q < 0:
            return r, q
    return None


def random_member(
    p: ClassParams, seed: int, cap_magnitudes: float | None = None
) -> NegativeCoefficientForm:
    """Seeded fixed-sign class member: a random subset of indices gets a
    random budget u*(1-beta), u in (0, 1), split across terms, so the
    deficiency is positive by construction.

    b-indices with near-zero weight are skipped (their coefficients would
    be unconstrained).  |b_1| stays below 1; ``cap_magnitudes`` optionally
    bounds every magnitude (shrinking a magnitude only grows the
    deficiency, so membership is preserved).
    """
    rng = random.Random(seed)
    u = rng.uniform(0.05, 0.95)
    budget = u * (1 - p.beta)

    phi, psi, _ = _weights(p, range(2, _MAX_INDEX + 1), range(1, _MAX_INDEX + 1))
    a_pool = list(range(2, _MAX_INDEX + 1))
    b_pool = [n for n, w in enumerate(psi, start=1) if abs(w) > _PSI_SKIP]
    a_idx = rng.sample(a_pool, rng.randint(0, len(a_pool)))
    b_idx = rng.sample(b_pool, rng.randint(0, len(b_pool)))
    if not a_idx and not b_idx:
        a_idx = [2]

    # The factor 0.5 + 1e-9 sets the rounding of the amounts, which the seeded members keep.
    shares = [("a", n, rng.uniform(0.1, 1.0) * (0.5 + 1e-9)) for n in a_idx]
    shares += [("b", n, rng.uniform(0.1, 1.0) * (0.5 + 1e-9)) for n in b_idx]
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


def random_violator(p: ClassParams, seed: int, margin: float = 0.01) -> NegativeCoefficientForm:
    """Seeded violator: a random member with one analytic term inflated until
    the deficiency drops below -margin.  |b_1| < 1 is untouched."""
    f = random_member(p, seed)
    rng = random.Random(seed ^ 0x5EED)
    n = max(f.a_abs, key=f.a_abs.get) if f.a_abs else rng.randint(2, _MAX_INDEX)
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
    params: ClassParams
    grid: dict  # the radii and angles of a DiskGrid, or the witness search's ladder
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
            "params": self.params.to_dict(),
            "grid": self.grid,
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
        params=p,
        grid={"radii": list(grid.radii), "angles": grid.angles},
        witness=witness,
    )


def verify_necessity(p: ClassParams, cases: int, seed: int = 0) -> VerificationReport:
    """Sample violators and check that a radial witness is found for each."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    passed = 0
    worst = None
    witness = None
    for i in range(cases):
        f = random_violator(p, seed + i)
        hit = _ladder(f, p)
        if hit is not None:
            passed += 1
            q = hit[1]
            if worst is None or q > worst:
                worst = q
        elif witness is None:
            witness = {"case": i, "reason": f"no radial witness up to 1 - 1e-{_LADDER}"}
    return VerificationReport(
        suite="necessity",
        cases_run=cases,
        cases_passed=passed,
        worst_margin=worst if worst is not None else 0.0,
        seed=seed,
        params=p,
        grid={"ladder": list(_RUNGS)},
        witness=witness,
    )
