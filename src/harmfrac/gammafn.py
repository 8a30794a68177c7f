"""Overflow-safe Gamma/Beta kernel.

All ratios of Gamma values are evaluated in the log domain so that the
operator weights stay finite for arbitrarily large series indices
(Gamma(n+1) alone overflows doubles near n = 170).
"""

import math

__all__ = ["log_gamma", "operator_weight", "beta"]

# Below this magnitude a co-analytic weight is treated as degenerate: the
# corresponding b_n is unconstrained by the coefficient bound.  This is
# numerical zero for certification; verify._PSI_SKIP (1e-9) is looser only
# to keep the member sampler away from huge magnitudes.
DEGENERATE_WEIGHT = 1e-14


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Delegates to math.lgamma, whose accuracy on (0, 200] comfortably
    meets a 1e-13 relative-error budget.
    """
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def operator_weight(n: int, nu: float) -> float:
    """Weight multiplying the degree-n coefficient under the fractional
    derivative operator: Gamma(2-nu)*Gamma(n+1)/Gamma(n+1-nu).

    Equals 1 at nu = 0 (identity operator) and at n = 1 for every nu,
    and is strictly increasing in n for nu in (0, 1).
    """
    if n < 1:
        raise ValueError(f"operator_weight requires n >= 1, got {n}")
    if not 0 <= nu < 1:
        raise ValueError(f"operator_weight requires 0 <= nu < 1, got {nu}")
    return math.exp(log_gamma(2 - nu) + log_gamma(n + 1) - log_gamma(n + 1 - nu))


def _weights(p, a_ns, b_ns) -> tuple[list[float], list[float], list[int]]:
    """The one weight kernel: phi(n) for each n in a_ns, signed psi(n) for each
    n in b_ns, in order, and the n in b_ns with |psi(n)| < DEGENERATE_WEIGHT,
    whose b_n the coefficient bound leaves unconstrained.

    Callers pass valid indices (n >= 2 in a_ns, n >= 1 in b_ns) and the class
    parameters p, of which only p.lam, p.k and p.nu are read.  Each weight
    is its bracket times the operator weight Gamma(2-nu)Gamma(n+1)/Gamma(n+1-nu),
    summed in the log domain in the same order as ``operator_weight``,
    so the results are bit-identical to it.  A weight that overflows to inf,
    or to nan through inf * 0 in a bracket, raises OverflowError.
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
    if not (all(map(math.isfinite, phi)) and all(map(math.isfinite, psi))):
        raise OverflowError(f"a weight is not finite at lambda = {lam}, k = {k}, nu = {nu}")
    return phi, psi, degenerate


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
