"""Extreme points, convex decomposition, and Hadamard convolution of the
fixed-sign class.

The closed class (coefficient sum <= 1 - beta, non-strict) is the convex
hull of the identity z together with the one-term extremal functions; a
member's convex weights are recovered termwise and reassembled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gammafn import _weights
from .harmonic import NegativeCoefficientForm
from .membership import ClassParams, _membership, coefficient_deficiency

__all__ = [
    "WeightDecomposition",
    "DegenerateWeightError",
    "MembershipViolation",
    "extreme_point_analytic",
    "extreme_point_coanalytic",
    "decompose",
    "reconstruct",
    "convolve",
    "ConvolutionClosureReport",
    "check_convolution_closure",
    "convex_combine",
]

WEIGHT_SUM_TOL = 1e-12


class DegenerateWeightError(ZeroDivisionError):
    """A co-analytic weight of magnitude ~0 leaves no extremal coefficient."""


class MembershipViolation(ValueError):
    """Input lies outside the closed class it was asserted to belong to."""


@dataclass(frozen=True)
class WeightDecomposition:
    """Convex weights over {z} + analytic extremals + co-analytic extremals."""

    t1: float
    t: dict[int, float] = field(default_factory=dict)
    s: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for label, weights, lo in (("t", self.t, 2), ("s", self.s, 1)):
            for n, w in weights.items():
                if type(n) is not int or n < lo:  # bool is not an index
                    raise ValueError(f"{label} index must be an integer >= {lo}, got {n}")
                if not -1e-15 <= w < math.inf:
                    raise ValueError(f"{label}[{n}] must be finite and >= 0, got {w}")
        if not -1e-15 <= self.t1 < math.inf:
            raise ValueError(f"t1 must be finite and >= 0, got {self.t1}")
        total = self.t1 + sum(self.t.values()) + sum(self.s.values())
        if abs(total - 1) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total}")


def extreme_point_analytic(n: int, p: ClassParams) -> NegativeCoefficientForm:
    """z - (1-beta)/phi(n) z^n, the degree-n analytic extreme point."""
    if n < 2:
        raise ValueError(f"analytic extreme point needs n >= 2, got {n}")
    return reconstruct(WeightDecomposition(t1=0.0, t={n: 1.0}), p)


def extreme_point_coanalytic(n: int, p: ClassParams) -> NegativeCoefficientForm:
    """z + (1-beta)/|psi(n)| conj(z)^n, the degree-n co-analytic extreme point.

    For n = 1 the coefficient can reach or exceed 1, clashing with the
    |b_1| < 1 side condition; the function is still emitted and the caller
    can inspect ``univalence_violated``.
    """
    if n < 1:
        raise ValueError(f"co-analytic extreme point needs n >= 1, got {n}")
    return reconstruct(WeightDecomposition(t1=0.0, s={n: 1.0}), p)


def decompose(f: NegativeCoefficientForm, p: ClassParams) -> WeightDecomposition:
    """Convex weights t_n = phi(n)|a_n|/(1-beta), s_n = |psi(n)||b_n|/(1-beta),
    t1 the remainder.  Requires closed-class membership (sum <= 1 - beta)."""
    terms, unconstrained, deficiency, _ = _membership(f, p)
    if deficiency < -WEIGHT_SUM_TOL:
        raise MembershipViolation(
            f"coefficient sum exceeds 1 - beta by {-deficiency}; not in the closed class"
        )
    if unconstrained:
        raise DegenerateWeightError(
            f"b_{unconstrained[0]} != 0 but its weight vanishes; no convex representation"
        )
    one_m_beta = 1 - p.beta
    t = {n: wm / one_m_beta for n, part, wm in terms if part == "a"}
    s = {n: wm / one_m_beta for n, part, wm in terms if part == "b"}
    t1 = max(0.0, 1 - sum(t.values()) - sum(s.values()))
    return WeightDecomposition(t1=t1, t=t, s=s)


def reconstruct(w: WeightDecomposition, p: ClassParams) -> NegativeCoefficientForm:
    """Expand t1*z + sum t_n f_n + sum s_n g_n to coefficient form; the
    inverse of ``decompose``."""
    one_m_beta = 1 - p.beta
    phi, psi, degenerate = _weights(p, w.t, w.s)
    if degenerate:
        raise DegenerateWeightError(
            f"s_{degenerate[0]} > 0 but its weight vanishes; no extremal coefficient"
        )
    return NegativeCoefficientForm(
        a_abs={n: tn * one_m_beta / wn for (n, tn), wn in zip(w.t.items(), phi)},
        b_abs={n: sn * one_m_beta / abs(wn) for (n, sn), wn in zip(w.s.items(), psi)},
    )


def convolve(
    f1: NegativeCoefficientForm, f2: NegativeCoefficientForm
) -> NegativeCoefficientForm:
    """Hadamard product: termwise magnitude products at matching indices."""
    a = {n: m * f2.a_abs[n] for n, m in f1.a_abs.items() if n in f2.a_abs}
    b = {n: m * f2.b_abs[n] for n, m in f1.b_abs.items() if n in f2.b_abs}
    return NegativeCoefficientForm(a_abs=a, b_abs=b)


@dataclass(frozen=True)
class ConvolutionClosureReport:
    factor1_deficiency: float
    factor2_deficiency: float
    convolution: NegativeCoefficientForm
    deficiency_alpha: float
    deficiency_beta: float
    alpha: float
    beta: float

    @property
    def closure_holds(self) -> bool:
        return self.deficiency_alpha > 0 and self.deficiency_beta > 0


def check_convolution_closure(
    f1: NegativeCoefficientForm,
    f2: NegativeCoefficientForm,
    alpha: float,
    beta: float,
    p: ClassParams,
    strict: bool = False,
) -> ConvolutionClosureReport:
    """Verify that the convolution of two class members at level alpha stays
    in the class at alpha, hence also at every lower level beta.

    Hypotheses enforced as stated: 0 <= beta < alpha < 1, both factors in
    the class at alpha, and all magnitudes of the second factor < 1 (of
    both factors when ``strict``).
    """
    if not 0 <= beta < alpha < 1:
        raise ValueError(f"need 0 <= beta < alpha < 1, got beta={beta}, alpha={alpha}")
    operands = (f1, f2) if strict else (f2,)
    for which, g in zip(("f1", "f2")[-len(operands):], operands):
        if any(m >= 1 for m in g.a_abs.values()) or any(m >= 1 for m in g.b_abs.values()):
            raise ValueError(f"all coefficient magnitudes of {which} must be < 1")
    p_alpha = p.with_beta(alpha)
    d1 = coefficient_deficiency(f1, p_alpha)
    d2 = coefficient_deficiency(f2, p_alpha)
    if d1 <= 0 or d2 <= 0:
        raise MembershipViolation(
            f"both factors must be class members at alpha={alpha} "
            f"(deficiencies {d1}, {d2})"
        )
    conv = convolve(f1, f2)
    return ConvolutionClosureReport(
        factor1_deficiency=d1,
        factor2_deficiency=d2,
        convolution=conv,
        deficiency_alpha=coefficient_deficiency(conv, p_alpha),
        deficiency_beta=coefficient_deficiency(conv, p.with_beta(beta)),
        alpha=alpha,
        beta=beta,
    )


def convex_combine(
    fs: list[NegativeCoefficientForm], ts: list[float]
) -> NegativeCoefficientForm:
    """Termwise convex combination; the fixed sign pattern makes magnitudes
    add linearly."""
    if len(fs) != len(ts) or not fs:
        raise ValueError("need equally many functions and weights, at least one")
    if not all(0 <= t < math.inf for t in ts):
        raise ValueError(f"combination weights must be finite and nonnegative, got {ts}")
    if abs(sum(ts) - 1) > WEIGHT_SUM_TOL:
        raise ValueError(f"combination weights must sum to 1, got {sum(ts)}")
    a: dict[int, float] = {}
    b: dict[int, float] = {}
    for f, t in zip(fs, ts):
        for n, m in f.a_abs.items():
            a[n] = a.get(n, 0.0) + t * m
        for n, m in f.b_abs.items():
            b[n] = b.get(n, 0.0) + t * m
    return NegativeCoefficientForm(a_abs=a, b_abs=b)
