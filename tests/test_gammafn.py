import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from harmfrac import ClassParams, beta, log_gamma, operator_weight
from harmfrac.gammafn import _weights

mpmath.mp.dps = 40


class TestLogGamma:
    @pytest.mark.parametrize("x,expected", [(1.0, 0.0), (2.0, 0.0)])
    def test_exact_zeros(self, x, expected):
        assert log_gamma(x) == expected

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    @pytest.mark.parametrize(
        "x",
        [0.001, 0.01, 0.1, 0.5, 0.9, 1.1, 1.9, 2.05, 2.5, 3.7, 10, 42.5, 100, 170, 200],
    )
    def test_relative_accuracy(self, x):
        ref = mpmath.loggamma(mpmath.mpf(x))
        assert abs((log_gamma(x) - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestOperatorWeight:
    def test_identity_order(self):
        assert operator_weight(5, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_half_order_closed_forms(self):
        # Gamma(1.5)Gamma(3)/Gamma(2.5) and Gamma(1.5)Gamma(4)/Gamma(3.5)
        assert operator_weight(2, 0.5) == pytest.approx(4 / 3, rel=1e-12)
        assert operator_weight(3, 0.5) == pytest.approx(1.6, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
    def test_unit_at_index_one(self, nu):
        assert abs(operator_weight(1, nu) - 1.0) <= 1e-13

    @pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
    def test_strictly_increasing_in_index(self, nu):
        values = [operator_weight(n, nu) for n in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_no_overflow_large_index(self):
        assert math.isfinite(operator_weight(500, 0.9))

    @pytest.mark.parametrize("n,nu", [(0, 0.5), (-3, 0.0), (2, 1.0), (2, -0.1)])
    def test_domain(self, n, nu):
        with pytest.raises(ValueError):
            operator_weight(n, nu)


class TestBeta:
    @pytest.mark.parametrize(
        "a,b,expected", [(1, 1, 1.0), (1, 1.5, 2 / 3), (2, 1, 0.5)]
    )
    def test_closed_forms(self, a, b, expected):
        assert beta(a, b) == pytest.approx(expected, rel=1e-13)

    @given(
        st.floats(min_value=0.05, max_value=50),
        st.floats(min_value=0.05, max_value=50),
    )
    def test_symmetry(self, a, b):
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 2)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            beta(a, b)


class TestBetaIdentity:
    """The operator weight equals n(n-1)B(n-1, 2-nu) for n >= 2."""

    @pytest.mark.parametrize("nu", [i / 10 for i in range(10)])
    def test_identity_grid(self, nu):
        for n in range(2, 41):
            w = operator_weight(n, nu)
            alt = n * (n - 1) * beta(n - 1, 2 - nu)
            assert abs(w - alt) / w <= 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 0.99])
    def test_index_one_uses_ratio_not_beta_form(self, nu):
        # the n(n-1)B(n-1, 2-nu) expression is 0*inf at n = 1; the ratio is 1
        assert abs(operator_weight(1, nu) - 1.0) <= 1e-13


class TestWeightKernelOverflow:
    """Finite parameters can overflow a weight; the kernel raises instead of
    returning inf, or nan from inf * 0 in a bracket."""

    @pytest.mark.parametrize(
        "p,a_ns,b_ns",
        [
            (ClassParams(lam=1e308, k=1), (), (1,)),  # lam*(n+1) = inf times (1 - n*k) = 0
            (ClassParams(lam=1e308, k=1), (2,), ()),  # phi(2) = inf
            (ClassParams(lam=1e308), (), (2,)),  # psi(2) = -inf
            (ClassParams(lam=1e300, k=1), (2, 10**6), ()),  # the last phi overflows
        ],
    )
    def test_non_finite_weight_raises(self, p, a_ns, b_ns):
        with pytest.raises(OverflowError):
            _weights(p, a_ns, b_ns)

    def test_large_finite_weights_pass(self):
        # at nu = 0 every operator weight is 1, so each weight is its bracket
        phi, psi, degenerate = _weights(ClassParams(lam=1e300, k=1), (2,), (1, 2))
        assert phi == [1 + 1e300 * (2 - 1) * (1 + 2 * 1)]
        assert psi == [1.0, 1 - 1e300 * (2 + 1) * (1 - 2 * 1)]
        assert degenerate == []
