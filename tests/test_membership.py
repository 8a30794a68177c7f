import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from harmfrac import (
    ClassParams,
    DegenerateWeightError,
    EvalPoint,
    HarmonicFunction,
    NegativeCoefficientForm,
    WeightDecomposition,
    analytic_weight,
    boundary_function,
    certify_general,
    certify_negative_form,
    class_functional,
    coanalytic_weight,
    coefficient_deficiency,
    decompose,
    extreme_point_analytic,
    extreme_point_coanalytic,
    operator_weight,
    radial_deficiency,
    reconstruct,
    specialized_weights,
)
from harmfrac.harmonic import _weighted_series
from harmfrac.membership import _weights, membership_terms

P0 = ClassParams(beta=0.5)


class TestClassParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 1.0},
            {"beta": -0.1},
            {"lam": -0.5},
            {"lam": math.nan},
            {"lam": math.inf},
            {"k": 1.5},
            {"k": -0.1},
            {"nu": 1.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ClassParams(**kwargs)

    def test_defaults(self):
        p = ClassParams()
        assert (p.beta, p.lam, p.k, p.nu) == (0, 0, 0, 0)


class TestWeights:
    def test_analytic_base_case(self):
        assert analytic_weight(2, ClassParams(k=0.7)) == pytest.approx(1.0)

    def test_analytic_hand_value(self):
        assert analytic_weight(2, ClassParams(lam=1, k=1)) == pytest.approx(4.0)

    def test_analytic_half_order(self):
        assert analytic_weight(2, ClassParams(lam=0.5, nu=0.5)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_coanalytic_base_case(self):
        assert coanalytic_weight(1, ClassParams(k=0.3, nu=0.6)) == pytest.approx(1.0)

    def test_coanalytic_hand_value(self):
        assert coanalytic_weight(2, ClassParams(lam=1)) == pytest.approx(-2.0)

    def test_coanalytic_degenerate(self):
        assert coanalytic_weight(1, ClassParams(lam=0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            analytic_weight(1, P0)
        with pytest.raises(ValueError):
            coanalytic_weight(0, P0)

    @given(
        st.integers(min_value=2, max_value=20),
        st.floats(min_value=0, max_value=3),
        st.floats(min_value=0, max_value=3),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=0.99),
    )
    def test_analytic_nondecreasing_in_lambda(self, n, lam1, lam2, k, nu):
        lo, hi = sorted((lam1, lam2))
        p_lo = ClassParams(lam=lo, k=k, nu=nu)
        p_hi = ClassParams(lam=hi, k=k, nu=nu)
        assert analytic_weight(n, p_hi) >= analytic_weight(n, p_lo) - 1e-12


def _seed_phi(n, p):
    return (1 + p.lam * (n - 1) * (1 + n * p.k)) * operator_weight(n, p.nu)


def _seed_psi(n, p):
    return (1 - p.lam * (n + 1) * (1 - n * p.k)) * operator_weight(n, p.nu)


def _bits(xs):
    return [x.hex() for x in xs]


KERNEL_PARAMS = [
    ClassParams(beta=0.2, lam=1.3, k=0.4, nu=0.5),
    ClassParams(beta=0.0, lam=0.7, k=0.9, nu=0.25),
    ClassParams(beta=0.1, lam=1.5, k=0.0, nu=0.9),
    ClassParams(beta=0.5, lam=1.0, k=1.0, nu=0.0),
]
SPARSE_NS = sorted(random.Random(6).sample(range(1, 10**6), 2000)) + [10**6]
# psi(1) = (1 - 0.5 * 2 * 1) * 1 is exactly 0
DEGENERATE = ClassParams(beta=0.5, lam=0.5, k=0.0, nu=0.3)


class TestWeightKernel:
    """The batched kernel against the seed's formula: the bracket times
    gammafn.operator_weight, one index at a time."""

    @pytest.mark.parametrize("p", KERNEL_PARAMS)
    @pytest.mark.parametrize("ns", [range(1, 5002), SPARSE_NS], ids=["dense", "sparse"])
    def test_bit_identical_to_seed_formula(self, p, ns):
        a_ns = [n for n in ns if n >= 2]
        phi, psi, unconstrained = _weights(p, a_ns, ns)
        assert _bits(phi) == _bits(_seed_phi(n, p) for n in a_ns)
        assert _bits(psi) == _bits(_seed_psi(n, p) for n in ns)
        assert unconstrained == []

    @pytest.mark.parametrize("p", KERNEL_PARAMS)
    def test_wrappers_bit_identical(self, p):
        for n in [2, 3, 170, 171, 5001, *SPARSE_NS[::100]]:
            assert analytic_weight(n, p).hex() == _seed_phi(n, p).hex()
            assert coanalytic_weight(n, p).hex() == _seed_psi(n, p).hex()
        assert coanalytic_weight(1, p).hex() == _seed_psi(1, p).hex()

    def test_order_zero_is_the_bracket(self):
        lam, k = 1.3, 0.4
        p = ClassParams(lam=lam, k=k, nu=0.0)
        ns = [1, 2, 7, 5001, 10**6]
        phi, psi, _ = _weights(p, ns[1:], ns)
        assert phi == [1 + lam * (n - 1) * (1 + n * k) for n in ns[1:]]
        assert psi == [1 - lam * (n + 1) * (1 - n * k) for n in ns]

    @pytest.mark.parametrize("nu", [0.25, 0.37, 0.5, 0.9])
    def test_mpmath_large_index(self, nu):
        # lgamma(n + 1) and lgamma(n + 1 - nu) are each rounded to a few ulps of
        # ~n ln n before they cancel, so the relative error grows like
        # eps * lgamma(n + 1): 1e-12 holds up to n ~ 10^3; beyond that the bound
        # is the float64 limit of the log-domain formula the seed also used.
        p = ClassParams(lam=1.3, k=0.4, nu=nu)
        ns = [171, 300, 500, 1000, 10**4, 10**5, 10**6]
        phi, psi, _ = _weights(p, ns, ns)
        with mpmath.workdps(40):
            lam, k, mnu = mpmath.mpf(p.lam), mpmath.mpf(p.k), mpmath.mpf(nu)
            for n, a, b in zip(ns, phi, psi):
                ow = mpmath.gamma(2 - mnu) * mpmath.exp(
                    mpmath.loggamma(n + 1) - mpmath.loggamma(n + 1 - mnu)
                )
                tol = 1e-12 if n <= 1000 else 4 * 2.0**-52 * math.lgamma(n + 1)
                assert abs(a / ((1 + lam * (n - 1) * (1 + n * k)) * ow) - 1) < tol
                assert abs(b / ((1 - lam * (n + 1) * (1 - n * k)) * ow) - 1) < tol

    def test_exactly_degenerate_psi_in_every_caller(self):
        p = DEGENERATE
        assert coanalytic_weight(1, p) == 0.0
        assert _weights(p, [2], [1, 2])[2] == [1]
        f = NegativeCoefficientForm(a_abs={2: 0.1}, b_abs={1: 0.3, 2: 0.01})
        terms, unconstrained = membership_terms(f, p)
        assert unconstrained == [1] and [t[:2] for t in terms] == [(2, "a"), (2, "b")]
        assert certify_negative_form(f, p).unconstrained == [1]
        assert certify_general(f.to_harmonic(), p).unconstrained == [1]
        with pytest.raises(ZeroDivisionError):
            boundary_function(p, gamma={}, delta={1: 0.5})
        with pytest.raises(DegenerateWeightError):
            extreme_point_coanalytic(1, p)
        with pytest.raises(DegenerateWeightError):
            decompose(f, p)
        with pytest.raises(DegenerateWeightError):
            reconstruct(WeightDecomposition(t1=0.5, s={1: 0.5}), p)
        # The functional keeps the zero weight; the radial deficiency reads the
        # certificate's terms, so b_1 drops out of it.
        assert _weighted_series(f, p)[2][0] == (1, 0j)
        assert radial_deficiency(f, p, 0.5) == 0.5 - terms[0][2] * 0.5 - terms[1][2] * 0.5

    @pytest.mark.parametrize("p", KERNEL_PARAMS)
    def test_extreme_points_bit_identical(self, p):
        # Built through reconstruct: 1.0 * (1 - beta) / w is exactly (1 - beta) / w.
        for n in [1, 2, 3, 170, 171, 5001, *SPARSE_NS[::100]]:
            if n >= 2:
                phi = analytic_weight(n, p)
                assert extreme_point_analytic(n, p).a_abs == {n: (1 - p.beta) / phi}
            psi = abs(coanalytic_weight(n, p))
            assert extreme_point_coanalytic(n, p).b_abs == {n: (1 - p.beta) / psi}

    def test_rounding_residue_is_degenerate(self):
        # 1 - (1/3) * 5 * (1 - 4 * 0.1) leaves a residue of ~1e-16, not 0
        p = ClassParams(lam=1 / 3, k=0.1)
        _, psi, unconstrained = _weights(p, (), (3, 4))
        assert psi[1] != 0 and abs(psi[1]) < 1e-15 and unconstrained == [4]
        f = NegativeCoefficientForm(b_abs={3: 0.1, 4: 0.5})
        terms, unconstrained = membership_terms(f, p)
        assert [t[:2] for t in terms] == [(3, "b")] and unconstrained == [4]


class TestBracketAlgebra:
    """The functional's termwise mixing coefficients collapse to the two
    published brackets; exact over the rationals."""

    @pytest.mark.parametrize("n", range(1, 30))
    def test_brackets(self, n):
        rng = random.Random(n)
        lam = Fraction(rng.randint(0, 50), 17)
        k = Fraction(rng.randint(0, 13), 13)
        assert (1 - lam) + lam * (1 - k) * n + lam * k * n * n == 1 + lam * (n - 1) * (
            1 + n * k
        )
        assert (1 - lam) - lam * (1 - k) * n + lam * k * n * n == 1 - lam * (n + 1) * (
            1 - n * k
        )


class TestExpansionConsistency:
    def test_functional_matches_weighted_sum(self):
        rng = random.Random(99)
        for _ in range(200):
            f = HarmonicFunction(
                a={n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in (2, 3, 5)},
                b={n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in (1, 4)},
            )
            p = ClassParams(
                beta=rng.uniform(0, 0.9),
                lam=rng.uniform(0, 2),
                k=rng.uniform(0, 1),
                nu=rng.uniform(0, 0.9),
            )
            z = EvalPoint.from_polar(rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi))
            direct = 1 + 0j
            for n, c in f.a.items():
                direct += analytic_weight(n, p) * c * z.z ** (n - 1)
            for n, c in f.b.items():
                direct += coanalytic_weight(n, p) * c * z.z.conjugate() ** n / z.z
            assert abs(class_functional(f, p, z) - direct) <= 1e-12


class TestDeficiency:
    def test_identity(self):
        assert coefficient_deficiency(HarmonicFunction(), P0) == pytest.approx(0.5)

    def test_mixed(self):
        f = HarmonicFunction(a={2: -0.2}, b={1: 0.2})
        assert coefficient_deficiency(f, P0) == pytest.approx(0.1)

    def test_negative(self):
        f = HarmonicFunction(a={2: -0.8})
        assert coefficient_deficiency(f, P0) == pytest.approx(-0.3)

    def test_negative_form_input(self):
        f = NegativeCoefficientForm(a_abs={2: 0.2}, b_abs={1: 0.2})
        assert coefficient_deficiency(f, P0) == pytest.approx(0.1)


    @pytest.mark.parametrize(
        "f,p",
        [
            # finite terms whose sum overflows
            (NegativeCoefficientForm(a_abs={2: 1e308, 3: 1e308}), P0),
            # one term overflows: phi(2) * 1e308 at an acceptance parameter set
            (NegativeCoefficientForm(a_abs={2: 1e308}), KERNEL_PARAMS[0]),
            (HarmonicFunction(b={2: 1e308j}), ClassParams(lam=1.0)),
        ],
    )
    def test_overflow_raises(self, f, p):
        calls = [coefficient_deficiency, membership_terms]
        if isinstance(f, NegativeCoefficientForm):
            calls += [certify_negative_form, decompose]
        else:
            calls += [certify_general]
        for call in calls:
            with pytest.raises(OverflowError):
                call(f, p)


class TestCertifyGeneral:
    def test_member(self):
        f = HarmonicFunction(a={2: -0.2}, b={1: 0.2})
        report = certify_general(f, P0)
        assert report.verdict == "member_sufficient"
        assert report.certified_member
        assert report.deficiency == pytest.approx(0.1)

    def test_identity_member_for_every_parameter(self):
        for p in (P0, ClassParams(beta=0.9, lam=2, k=1, nu=0.5), ClassParams()):
            assert certify_general(HarmonicFunction(), p).verdict == "member_sufficient"

    def test_overweight_is_inconclusive_not_non_member(self):
        report = certify_general(HarmonicFunction(a={2: -0.8}), P0)
        assert report.verdict == "inconclusive"
        assert not report.certified_member

    def test_rejects_big_b1(self):
        with pytest.raises(ValueError):
            certify_general(HarmonicFunction(b={1: 1.0}), P0)

    def test_contributions_reconcile(self):
        f = HarmonicFunction(a={2: 0.1j, 3: -0.05}, b={1: 0.2, 2: 0.1})
        report = certify_general(f, ClassParams(beta=0.3, lam=0.7, k=0.4, nu=0.2))
        total = sum(c for _, _, c in report.per_term)
        assert total == pytest.approx((1 - 0.3) - report.deficiency, abs=1e-12)


class TestCertifyNegativeForm:
    def test_member_iff(self):
        f = NegativeCoefficientForm(a_abs={2: 0.2}, b_abs={1: 0.2})
        assert certify_negative_form(f, P0).verdict == "member_iff"

    def test_non_member(self):
        f = NegativeCoefficientForm(a_abs={2: 0.8})
        assert certify_negative_form(f, P0).verdict == "non_member"

    def test_boundary(self):
        f = NegativeCoefficientForm(a_abs={2: 0.5})
        assert certify_negative_form(f, P0).verdict == "boundary"

    @pytest.mark.parametrize("b1", [1.0, 1.5])
    def test_rejects_big_b1(self, b1):
        with pytest.raises(ValueError, match=r"\|b_1\| must be < 1"):
            certify_negative_form(NegativeCoefficientForm(b_abs={1: b1}), P0)

    def test_unconstrained_indices_flagged(self):
        # weight of b_1 vanishes at lam = 0.5, k = 0
        p = ClassParams(beta=0.5, lam=0.5)
        f = NegativeCoefficientForm(b_abs={1: 0.9})
        report = certify_negative_form(f, p)
        assert report.unconstrained == [1]
        assert report.deficiency == pytest.approx(0.5)


class TestSpecializedWeights:
    NUS = (0.0, 0.25, 0.5, 0.75)

    def test_lambda0_base(self):
        w = specialized_weights("lambda0", 2, ClassParams(lam=0))
        assert w.phi == pytest.approx(1.0, rel=1e-12)
        assert w.psi_signed == pytest.approx(1.0, rel=1e-12)

    def test_k1_hand_value(self):
        w = specialized_weights("k1", 2, ClassParams(lam=1, k=1))
        assert w.phi == pytest.approx(4.0, rel=1e-12)

    def test_k0_index_one(self):
        w = specialized_weights("k0", 1, ClassParams(lam=1, k=0))
        assert abs(w.psi_signed) == pytest.approx(1.0, rel=1e-12)
        assert w.phi is None

    @pytest.mark.parametrize(
        "variant,params",
        [
            ("lambda0", dict(lam=0, k=0.3)),
            ("lambda0", dict(lam=0, k=1)),
            ("lambda1", dict(lam=1, k=0.2)),
            ("lambda1", dict(lam=1, k=0.8)),
            ("k1", dict(lam=0.6, k=1)),
            ("k1", dict(lam=2, k=1)),
            ("k0", dict(lam=0.4, k=0)),
            ("k0", dict(lam=1.7, k=0)),
        ],
    )
    def test_matches_general_weights(self, variant, params):
        for nu in self.NUS:
            p = ClassParams(nu=nu, **params)
            for n in range(1, 21):
                w = specialized_weights(variant, n, p)
                psi = coanalytic_weight(n, p)
                assert w.psi_signed == pytest.approx(psi, rel=1e-12, abs=1e-12)
                if n >= 2:
                    assert w.phi == pytest.approx(analytic_weight(n, p), rel=1e-12)

    def test_pin_mismatch(self):
        with pytest.raises(ValueError):
            specialized_weights("lambda0", 2, ClassParams(lam=0.5))
        with pytest.raises(ValueError):
            specialized_weights("nonsense", 2, P0)


class TestBoundaryFunction:
    def test_analytic_weight_only(self):
        f = boundary_function(P0, gamma={2: 0.5}, delta={})
        assert f.a == {2: 0.5 + 0j} and f.b == {}

    def test_coanalytic_weight_only(self):
        f = boundary_function(P0, gamma={}, delta={1: 0.5})
        assert f.b == {1: 0.5 + 0j} and f.a == {}

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            boundary_function(P0, gamma={2: 0.4}, delta={})

    def test_degenerate_weight_rejected(self):
        p = ClassParams(beta=0.5, lam=0.5)
        with pytest.raises(ZeroDivisionError):
            boundary_function(p, gamma={}, delta={1: 0.5})

    def test_attains_boundary(self):
        rng = random.Random(4)
        for _ in range(20):
            p = ClassParams(
                beta=rng.uniform(0, 0.9), lam=rng.uniform(0, 1.5), k=rng.uniform(0, 1)
            )
            raw = {n: rng.random() for n in (2, 3)}
            raw_d = {n: rng.random() for n in (2, 4)}
            total = sum(raw.values()) + sum(raw_d.values())
            scale = (1 - p.beta) / total
            f = boundary_function(
                p,
                gamma={n: v * scale for n, v in raw.items()},
                delta={n: v * scale for n, v in raw_d.items()},
            )
            assert coefficient_deficiency(f, p) == pytest.approx(0.0, abs=1e-12)

    def test_complex_weights(self):
        f = boundary_function(P0, gamma={2: 0.3j}, delta={1: -0.2})
        assert coefficient_deficiency(f, P0) == pytest.approx(0.0, abs=1e-12)
