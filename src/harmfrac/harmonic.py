"""Sparse truncated harmonic series f = h + conj(g) on the unit disk.

A function is represented by two finite coefficient maps: ``a[n]`` is the
coefficient of z^n in the analytic part (n >= 2; the z coefficient is
implicitly 1), and ``b[n]`` is the coefficient of conj(z)^n in the
co-analytic part (n >= 1).  Finite support makes every coefficient sum
exact, which is what the membership bounds are about.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

from .gammafn import _weights, operator_weight

__all__ = [
    "EvalPoint",
    "HarmonicFunction",
    "NegativeCoefficientForm",
    "evaluate",
    "derivatives",
    "jacobian",
    "dilatation",
    "apply_operator",
    "class_functional",
    "class_functional_fd",
    "parse_coefficient_json",
    "coefficient_json",
]

_H_PRIME_FLOOR = 1e-14


class SingularEvaluationError(ArithmeticError):
    """Raised when an evaluation hits a vanishing denominator."""


@dataclass(frozen=True)
class EvalPoint:
    """A point of the open unit disk with its polar shadow."""

    z: complex
    r: float
    theta: float

    @classmethod
    def from_cartesian(cls, z: complex) -> "EvalPoint":
        z = complex(z)
        r = abs(z)
        if not r < 1:  # also rejects NaN
            raise ValueError(f"point must satisfy |z| < 1, got |z| = {r}")
        theta = cmath.phase(z) % (2 * math.pi) if r > 0 else 0.0
        return cls(z, r, theta)

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "EvalPoint":
        if not 0 <= r < 1:
            raise ValueError(f"radius must lie in [0, 1), got {r}")
        if not math.isfinite(theta):
            raise ValueError(f"angle must be finite, got {theta}")
        theta = theta % (2 * math.pi)
        return cls(cmath.rect(r, theta), r, theta)


def _clean(coeffs: dict[int, complex], min_index: int, label: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for n, c in coeffs.items():
        if type(n) is not int or n < min_index:  # bool is not an index
            raise ValueError(f"{label} index must be an integer >= {min_index}, got {n}")
        c = complex(c)
        if not cmath.isfinite(c):
            raise ValueError(f"{label}[{n}] must be finite, got {c}")
        if c != 0:
            out[n] = c
    return dict(sorted(out.items()))


def _clean_magnitudes(mags: dict[int, float], min_index: int, label: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for n, m in mags.items():
        if type(n) is not int or n < min_index:  # bool is not an index
            raise ValueError(f"{label} index must be an integer >= {min_index}, got {n}")
        if not 0 <= m < math.inf:
            raise ValueError(f"{label}[{n}] must be finite and nonnegative, got {m}")
        if m != 0:
            out[n] = float(m)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class HarmonicFunction:
    """f(z) = z + sum a_n z^n + sum b_n conj(z)^n, finitely supported."""

    a: dict[int, complex] = field(default_factory=dict)
    b: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "a", _clean(self.a, 2, "a"))
        object.__setattr__(self, "b", _clean(self.b, 1, "b"))

    @property
    def b1(self) -> complex:
        return self.b.get(1, 0j)

    @property
    def univalence_candidate(self) -> bool:
        """|b_1| < 1, the side condition of the normalized representation."""
        return abs(self.b1) < 1

    def to_harmonic(self) -> HarmonicFunction:
        return self

    def magnitudes(self) -> tuple[dict[int, float], dict[int, float]]:
        """(|a_n|, |b_n|) by index: what the coefficient bound weighs."""
        return {n: abs(c) for n, c in self.a.items()}, {n: abs(c) for n, c in self.b.items()}


@dataclass(frozen=True)
class NegativeCoefficientForm:
    """Fixed-sign subclass: a_n = -|a_n| (n >= 2), b_n = +|b_n| (n >= 1).

    Stores the magnitudes only.  Construction tolerates |b_1| >= 1 (see
    ``univalence_violated``); membership checks reject it.
    """

    a_abs: dict[int, float] = field(default_factory=dict)
    b_abs: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "a_abs", _clean_magnitudes(self.a_abs, 2, "a_abs"))
        object.__setattr__(self, "b_abs", _clean_magnitudes(self.b_abs, 1, "b_abs"))

    @property
    def univalence_violated(self) -> bool:
        return self.b_abs.get(1, 0.0) >= 1

    def to_harmonic(self) -> HarmonicFunction:
        return HarmonicFunction(
            a={n: complex(-m) for n, m in self.a_abs.items()},
            b={n: complex(m) for n, m in self.b_abs.items()},
        )

    def magnitudes(self) -> tuple[dict[int, float], dict[int, float]]:
        return self.a_abs, self.b_abs


AnyForm = HarmonicFunction | NegativeCoefficientForm


def evaluate(f: AnyForm, z: EvalPoint) -> complex:
    f = f.to_harmonic()
    zc = z.z
    value = zc
    for n, c in f.a.items():
        value += c * zc**n
    zbar = zc.conjugate()
    for n, c in f.b.items():
        value += c * zbar**n
    return value


def derivatives(f: AnyForm, z: EvalPoint) -> tuple[complex, complex]:
    """(h'(z), g'(z)) where f = h + conj(g); g carries the conjugated
    coefficients of the conj(z)^n terms."""
    f = f.to_harmonic()
    zc = z.z
    hp = 1 + 0j
    for n, c in f.a.items():
        hp += n * c * zc ** (n - 1)
    gp = 0j
    for n, c in f.b.items():
        gp += n * c.conjugate() * zc ** (n - 1)
    return hp, gp


def jacobian(f: AnyForm, z: EvalPoint) -> float:
    hp, gp = derivatives(f, z)
    return abs(hp) ** 2 - abs(gp) ** 2


def dilatation(f: AnyForm, z: EvalPoint) -> complex:
    hp, gp = derivatives(f, z)
    if abs(hp) < _H_PRIME_FLOOR:
        raise SingularEvaluationError(f"h'({z.z}) vanishes; dilatation undefined")
    return gp / hp


def apply_operator(f: AnyForm, nu: float) -> HarmonicFunction:
    """Scale each degree-n coefficient by the fractional-operator weight;
    the leading z term is fixed (weight 1 at n = 1)."""
    if not 0 <= nu < 1:
        raise ValueError(f"operator order must satisfy 0 <= nu < 1, got {nu}")
    f = f.to_harmonic()
    if nu == 0:
        return f
    return HarmonicFunction(
        a={n: operator_weight(n, nu) * c for n, c in f.a.items()},
        b={n: operator_weight(n, nu) * c for n, c in f.b.items()},
    )


def class_functional(f: AnyForm, params, z: EvalPoint) -> complex:
    """Closed series form of the class-defining functional:

        1 + sum_{n>=2} phi(n) a_n z^{n-1} + sum_{n>=1} psi(n) b_n conj(z)^n / z

    with the signed co-analytic weight psi.  At z = 0 the value is 1 by
    continuity provided b_1 = 0; otherwise the conj(z)/z term has no limit.
    """
    series = _weighted_series(f, params)
    if z.z == 0:
        if series[0] != 0:
            raise SingularEvaluationError("functional undefined at the origin when b_1 != 0")
        return 1 + 0j
    return _functional_on(series, [z.z])[0]


def _weighted_series(f: AnyForm, params):
    """(b_1, [(n-1, phi(n) a_n)], [(n, psi(n) b_n)]): the functional's
    series with its weights applied, so each point only sums powers."""
    f = f.to_harmonic()
    phi, psi, _ = _weights(params, f.a, f.b)
    a = [(n - 1, w * c) for (n, c), w in zip(f.a.items(), phi)]
    return f.b1, a, [(n, w * c) for (n, c), w in zip(f.b.items(), psi)]


def _functional_on(series, zs: list[complex]) -> list[complex]:
    """The functional at every nonzero point of ``zs``, summed one term at a
    time over all the points."""
    _, a_terms, b_terms = series
    values = [1 + 0j] * len(zs)
    for e, wc in a_terms:
        values = [v + wc * z**e for v, z in zip(values, zs)]
    qs = [z.conjugate() for z in zs]
    for n, wc in b_terms:
        values = [v + wc * q**n / z for v, q, z in zip(values, qs, zs)]
    return values


def class_functional_fd(f: AnyForm, params, z: EvalPoint, step: float = 1e-4) -> complex:
    """Finite-difference cross-check of ``class_functional``.

    Forms the operator image F of f, then combines F/z with its first and
    second angular derivatives (5-point central stencils at fixed radius)
    against the exact angular derivatives z' = iz, z'' = -z.  Agrees with
    the closed form to O(step^4) truncation; used only as an oracle.
    """
    if not 0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    if z.r == 0:
        raise ValueError("finite-difference functional requires |z| > 0")
    g = apply_operator(f, params.nu)
    r, theta = z.r, z.theta

    def F(t: float) -> complex:
        return evaluate(g, EvalPoint.from_polar(r, t))

    h = step
    f_2, f_1, f0, f1, f2 = (F(theta + j * h) for j in (-2, -1, 0, 1, 2))
    d1 = (f_2 - 8 * f_1 + 8 * f1 - f2) / (12 * h)
    d2 = (-f_2 + 16 * f_1 - 30 * f0 + 16 * f1 - f2) / (12 * h * h)
    zc = z.z
    lam, k = params.lam, params.k
    return (1 - lam) * f0 / zc + lam * (1 - k) * d1 / (1j * zc) + lam * k * d2 / (-zc)


def parse_coefficient_json(text: str) -> AnyForm:
    """Parse the coefficient-file document.

    Two layouts: {"kind": "general", "a": [[n, re, im], ...], "b": ...}
    and {"kind": "negative_form", "a_abs": [[n, mag], ...], "b_abs": ...}.
    Indices are JSON integers, strictly increasing within each list; values
    are finite JSON numbers.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"coefficient file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("coefficient file must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "general":
        return HarmonicFunction(
            a=_parse_entries(doc.get("a", []), "a", 2, complex, width=3),
            b=_parse_entries(doc.get("b", []), "b", 1, complex, width=3),
        )
    if kind == "negative_form":
        return NegativeCoefficientForm(
            a_abs=_parse_entries(doc.get("a_abs", []), "a_abs", 2, float, width=2),
            b_abs=_parse_entries(doc.get("b_abs", []), "b_abs", 1, float, width=2),
        )
    raise ValueError(f"unknown coefficient-file kind {kind!r}")


def _parse_entries(entries, label: str, min_index: int, value, width: int) -> dict:
    """{n: value(*rest)} from a list of [n, *rest] entries, in one pass.

    Starting the strictly-increasing check at min_index - 1 also enforces
    the minimum index and rules out duplicates.  Booleans are not indices
    and strings are not values, although Python's int and float accept them.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{label} must be a list of entries, got {entries!r}")
    out = {}
    prev = min_index - 1
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != width:
            raise ValueError(f"{label} entries must be {width}-element lists, got {entry!r}")
        n = entry[0]
        if type(n) is not int or n <= prev:
            if type(n) is not int or n < min_index:
                raise ValueError(f"{label} index must be an integer >= {min_index}, got {n}")
            if n in out:
                raise ValueError(f"duplicate {label} index {n}")
            raise ValueError(f"{label} indices must be strictly increasing at {n}")
        vals = entry[1:]
        for v in vals:
            if (type(v) is not float and type(v) is not int) or not math.isfinite(v):
                raise ValueError(f"{label}[{n}] values must be finite numbers, got {v!r}")
        out[n] = value(*vals)
        prev = n
    return out


def coefficient_json(f: AnyForm) -> str:
    """Serialize a function back into the coefficient-file document."""
    if isinstance(f, NegativeCoefficientForm):
        doc = {
            "kind": "negative_form",
            "a_abs": [[n, m] for n, m in f.a_abs.items()],
            "b_abs": [[n, m] for n, m in f.b_abs.items()],
        }
    else:
        doc = {
            "kind": "general",
            "a": [[n, c.real, c.imag] for n, c in f.a.items()],
            "b": [[n, c.real, c.imag] for n, c in f.b.items()],
        }
    return json.dumps(doc, indent=2)
