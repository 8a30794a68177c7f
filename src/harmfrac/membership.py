"""Class parameters, coefficient weights, and membership certification.

The class is cut out by a lower bound beta on the real part of a
functional mixing the operator image of f with its first and second
angular derivatives.  Everything here reduces to one weighted coefficient
sum: a function belongs (sufficiently, in the general case; exactly, in
the fixed-sign case) when

    sum phi(n)|a_n| + sum |psi(n)||b_n|  <  1 - beta.

``deficiency`` is (1 - beta) minus that sum; positive means the bound
holds strictly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gammafn import beta as beta_fn
from .harmonic import AnyForm, HarmonicFunction, NegativeCoefficientForm

__all__ = [
    "ClassParams",
    "WeightPair",
    "MembershipReport",
    "VERDICT_TOLERANCE",
    "analytic_weight",
    "coanalytic_weight",
    "coefficient_deficiency",
    "membership_terms",
    "certify_general",
    "certify_negative_form",
    "specialized_weights",
    "boundary_function",
]

VERDICT_TOLERANCE = 1e-12

# Below this magnitude a co-analytic weight is treated as degenerate: the
# corresponding b_n is unconstrained by the coefficient bound.  This is
# numerical zero for certification; verify._PSI_SKIP (1e-9) is looser only
# to keep the member sampler away from huge magnitudes.
DEGENERATE_WEIGHT = 1e-14


@dataclass(frozen=True)
class ClassParams:
    """(beta, lambda, k, nu) parameterizing the function class.

    beta in [0, 1) is the real-part lower bound (1 - beta must be
    positive for the coefficient bound to make sense), lam >= 0 the
    derivative mixing weight, k in [0, 1] the second-derivative share,
    nu in [0, 1) the fractional order.
    """

    beta: float = 0.0
    lam: float = 0.0
    k: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if not 0 <= self.beta < 1:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 <= self.k <= 1:
            raise ValueError(f"k must lie in [0, 1], got {self.k}")
        if not 0 <= self.nu < 1:
            raise ValueError(f"nu must lie in [0, 1), got {self.nu}")

    def with_beta(self, beta: float) -> "ClassParams":
        return ClassParams(beta=beta, lam=self.lam, k=self.k, nu=self.nu)


@dataclass(frozen=True)
class WeightPair:
    n: int
    phi: float | None  # None below n = 2, where no analytic weight exists
    psi_signed: float


def _weights(p: ClassParams, a_ns, b_ns) -> tuple[list[float], list[float], list[int]]:
    """The one weight kernel: phi(n) for each n in a_ns, signed psi(n) for each
    n in b_ns, in order, and the n in b_ns with |psi(n)| < DEGENERATE_WEIGHT,
    whose b_n the coefficient bound leaves unconstrained.

    Callers pass valid indices (n >= 2 in a_ns, n >= 1 in b_ns).  Each weight
    is its bracket times the operator weight Gamma(2-nu)Gamma(n+1)/Gamma(n+1-nu),
    summed in the log domain in the same order as ``gammafn.operator_weight``,
    so the results are bit-identical to it.
    """
    lam, k, nu = p.lam, p.k, p.nu
    lgamma, exp = math.lgamma, math.exp
    c = lgamma(2 - nu)
    phi = []
    for n in a_ns:
        ow = exp((c + lgamma(n + 1)) - lgamma(n + 1 - nu))
        phi.append((1 + lam * (n - 1) * (1 + n * k)) * ow)
    psi = []
    degenerate = []
    for n in b_ns:
        ow = exp((c + lgamma(n + 1)) - lgamma(n + 1 - nu))
        w = (1 - lam * (n + 1) * (1 - n * k)) * ow
        psi.append(w)
        if abs(w) < DEGENERATE_WEIGHT:
            degenerate.append(n)
    return phi, psi, degenerate


def analytic_weight(n: int, p: ClassParams) -> float:
    """phi(n): [1 + lam*(n-1)*(1 + n*k)] times the operator weight, n >= 2."""
    if n < 2:
        raise ValueError(f"analytic weight needs n >= 2, got {n}")
    return _weights(p, (n,), ())[0][0]


def coanalytic_weight(n: int, p: ClassParams) -> float:
    """psi(n), signed: [1 - lam*(n+1)*(1 - n*k)] times the operator weight,
    n >= 1.  Membership sums use |psi|; the sign matters in the functional."""
    if n < 1:
        raise ValueError(f"co-analytic weight needs n >= 1, got {n}")
    return _weights(p, (), (n,))[1][0]


def _magnitudes(f: AnyForm) -> tuple[dict[int, float], dict[int, float]]:
    if isinstance(f, NegativeCoefficientForm):
        return f.a_abs, f.b_abs
    return {n: abs(c) for n, c in f.a.items()}, {n: abs(c) for n, c in f.b.items()}


def membership_terms(f: AnyForm, p: ClassParams):
    """Per-index contributions (n, part, value) to the weighted sum,
    plus the list of b-indices whose weight degenerates to zero."""
    a_abs, b_abs = _magnitudes(f)
    phi, psi, unconstrained = _weights(p, a_abs, b_abs)
    terms = [(n, "a", w * m) for (n, m), w in zip(a_abs.items(), phi)]
    terms += [
        (n, "b", abs(w) * m)
        for (n, m), w in zip(b_abs.items(), psi)
        if n not in unconstrained
    ]
    return terms, unconstrained


def coefficient_deficiency(f: AnyForm, p: ClassParams) -> float:
    """(1 - beta) minus the phi/psi-weighted coefficient sum."""
    terms, _ = membership_terms(f, p)
    return (1 - p.beta) - sum(t[2] for t in terms)


@dataclass(frozen=True)
class MembershipReport:
    verdict: str  # member_sufficient | member_iff | non_member | boundary | inconclusive
    deficiency: float
    per_term: list[tuple[int, str, float]]
    params: ClassParams
    unconstrained: list[int] = field(default_factory=list)
    tolerance: float = VERDICT_TOLERANCE

    @property
    def certified_member(self) -> bool:
        return self.verdict in ("member_sufficient", "member_iff")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "deficiency": self.deficiency,
            "per_term": [list(t) for t in self.per_term],
            "unconstrained": self.unconstrained,
            "tolerance": self.tolerance,
            "params": {
                "beta": self.params.beta,
                "lambda": self.params.lam,
                "k": self.params.k,
                "nu": self.params.nu,
            },
        }


def _require_b1(f: AnyForm) -> None:
    if isinstance(f, NegativeCoefficientForm):
        b1 = f.b_abs.get(1, 0.0)
    else:
        b1 = abs(f.b1)
    if b1 >= 1:
        raise ValueError(f"|b_1| must be < 1 for a univalence candidate, got {b1}")


def certify_general(f: HarmonicFunction, p: ClassParams) -> MembershipReport:
    """One-sided certificate for arbitrary complex coefficients: a positive
    deficiency proves membership, anything else is inconclusive."""
    _require_b1(f)
    terms, unconstrained = membership_terms(f, p)
    deficiency = (1 - p.beta) - sum(t[2] for t in terms)
    verdict = "member_sufficient" if deficiency > VERDICT_TOLERANCE else "inconclusive"
    return MembershipReport(verdict, deficiency, terms, p, unconstrained)


def certify_negative_form(f: NegativeCoefficientForm, p: ClassParams) -> MembershipReport:
    """Exact characterization on the fixed-sign subclass: the coefficient
    bound is necessary and sufficient, so the verdict is two-sided."""
    _require_b1(f)
    terms, unconstrained = membership_terms(f, p)
    deficiency = (1 - p.beta) - sum(t[2] for t in terms)
    if deficiency > VERDICT_TOLERANCE:
        verdict = "member_iff"
    elif deficiency < -VERDICT_TOLERANCE:
        verdict = "non_member"
    else:
        verdict = "boundary"
    return MembershipReport(verdict, deficiency, terms, p, unconstrained)


_VARIANTS = {"lambda0": ("lam", 0.0), "lambda1": ("lam", 1.0), "k1": ("k", 1.0), "k0": ("k", 0.0)}


def specialized_weights(variant: str, n: int, p: ClassParams) -> WeightPair:
    """Specialized weight formulas with one parameter pinned, written through the
    n(n-1)B(n-1, 2-nu) Beta identity (valid for n >= 2; at n = 1 the
    operator weight is 1 and the bracket is used directly).

    Must agree with ``analytic_weight``/``coanalytic_weight`` at the pinned
    parameters; used as a cross-check of the bracket algebra.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    attr, pinned = _VARIANTS[variant]
    if getattr(p, attr) != pinned:
        raise ValueError(f"variant {variant} requires {attr} = {pinned}, got {getattr(p, attr)}")
    lam, k, nu = p.lam, p.k, p.nu

    if variant == "lambda0":
        a_bracket = b_bracket = 1.0
    elif variant == "lambda1":
        a_bracket = n * (1 - k + n * k)
        b_bracket = n * (n * k + k - 1)
    elif variant == "k1":
        a_bracket = b_bracket = 1 + lam * (n * n - 1)
    else:  # k0
        a_bracket = 1 + lam * (n - 1)
        b_bracket = 1 - lam * (n + 1)

    base = n * (n - 1) * beta_fn(n - 1, 2 - nu) if n >= 2 else 1.0
    phi = a_bracket * base if n >= 2 else None
    psi = b_bracket * base
    return WeightPair(n=n, phi=phi, psi_signed=psi)


def boundary_function(
    p: ClassParams,
    gamma: dict[int, complex],
    delta: dict[int, complex],
) -> HarmonicFunction:
    """Sharp function attaining equality in the coefficient bound:
    a_n = gamma_n / phi(n), b_n = delta_n / |psi(n)| for any weight maps
    with sum |gamma_n| + sum |delta_n| = 1 - beta."""
    total = sum(abs(c) for c in gamma.values()) + sum(abs(c) for c in delta.values())
    if abs(total - (1 - p.beta)) > 1e-12:
        raise ValueError(
            f"weight magnitudes must sum to 1 - beta = {1 - p.beta}, got {total}"
        )
    g = HarmonicFunction(a=gamma, b=delta)  # validated indices, nonzero complex values
    phi, psi, degenerate = _weights(p, g.a, g.b)
    if degenerate:
        raise ZeroDivisionError(
            f"co-analytic weight degenerates at n = {degenerate[0]}; no sharp coefficient"
        )
    return HarmonicFunction(
        a={n: c / w for (n, c), w in zip(g.a.items(), phi)},
        b={n: c / abs(w) for (n, c), w in zip(g.b.items(), psi)},
    )
