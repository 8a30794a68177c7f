"""Reference values the benchmark checks harmfrac's outputs against.

Written from the formulas, not from harmfrac's code: the weights are
Gamma ratios taken through ``math.lgamma``, and the functional is summed
with the weights computed once per function.  Agreement is asked within a
stated tolerance, never bit for bit, because a faster kernel may round
differently in the last digits.
"""

from __future__ import annotations

import cmath
import math

# Grid minima and radial deficiencies of functions with indices <= 6:
# every weight is exact to ~1e-15, so 1e-9 absolute leaves wide room for a
# different summation order and still catches any wrong term.
GRID_TOL = 1e-9
# Deficiencies of 10^4-term files with indices up to ~10^6: lgamma values
# there are ~1e7, so each weight carries up to ~5e-9 relative error from the
# cancellation in lgamma(n + 1) - lgamma(n + 1 - nu).  Like every check here,
# it is relative to 1 + |reference value| (see ``close``).
FILE_REL_TOL = 1e-7
# Decomposition weights, reconstructed and combined magnitudes.
ALGEBRA_REL_TOL = 1e-9
# The coefficient bound leaves b_n unconstrained where |psi(n)| is below this.
DEGENERATE_WEIGHT = 1e-14


def operator_weight(n: int, nu: float) -> float:
    """Gamma(2 - nu) Gamma(n + 1) / Gamma(n + 1 - nu)."""
    return math.exp(math.lgamma(2 - nu) + math.lgamma(n + 1) - math.lgamma(n + 1 - nu))


def phi(n: int, lam: float, k: float, nu: float) -> float:
    return (1 + lam * (n - 1) * (1 + n * k)) * operator_weight(n, nu)


def psi(n: int, lam: float, k: float, nu: float) -> float:
    """Signed co-analytic weight."""
    return (1 - lam * (n + 1) * (1 - n * k)) * operator_weight(n, nu)


def weighted_sum(a_abs: dict, b_abs: dict, lam: float, k: float, nu: float) -> float:
    """sum phi(n)|a_n| + sum |psi(n)||b_n|, degenerate b-weights skipped."""
    terms = [phi(n, lam, k, nu) * m for n, m in a_abs.items()]
    for n, m in b_abs.items():
        w = abs(psi(n, lam, k, nu))
        if w >= DEGENERATE_WEIGHT:
            terms.append(w * m)
    return math.fsum(terms)


def deficiency(a_abs: dict, b_abs: dict, beta: float, lam: float, k: float, nu: float) -> float:
    return (1 - beta) - weighted_sum(a_abs, b_abs, lam, k, nu)


def grid_min(a_abs: dict, b_abs: dict, params, radii, angles: int) -> float:
    """Minimum over the polar grid of Re of the class functional of the
    fixed-sign function z - sum |a_n| z^n + sum |b_n| conj(z)^n."""
    beta, lam, k, nu = params
    a = [(n - 1, -phi(n, lam, k, nu) * m) for n, m in a_abs.items()]
    b = [(n, psi(n, lam, k, nu) * m) for n, m in b_abs.items()]
    best = math.inf
    for r in radii:
        for j in range(angles):
            z = cmath.rect(r, (2 * math.pi * j / angles) % (2 * math.pi))
            zbar = z.conjugate()
            value = 1 + sum(w * z**e for e, w in a) + sum(w * zbar**n for n, w in b) / z
            best = min(best, value.real)
    return best


def radial_deficiency(a_abs: dict, b_abs: dict, params, r: float) -> float:
    beta, lam, k, nu = params
    q = 1 - beta
    q -= sum(phi(n, lam, k, nu) * m * r ** (n - 1) for n, m in a_abs.items())
    q -= sum(abs(psi(n, lam, k, nu)) * m * r ** (n - 1) for n, m in b_abs.items())
    return q


def necessity_witness(a_abs: dict, b_abs: dict, params, max_exponent: int = 8):
    """(r0, Q(r0)) for the first rung r0 = 1 - 10^-j with Q(r0) < 0, or None."""
    for j in range(1, max_exponent + 1):
        r = 1 - 10.0**-j
        q = radial_deficiency(a_abs, b_abs, params, r)
        if q < 0:
            return r, q
    return None


def close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * (1 + abs(ref))
