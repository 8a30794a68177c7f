import random

import pytest

from harmfrac import (
    ClassParams,
    DegenerateWeightError,
    MembershipViolation,
    NegativeCoefficientForm,
    WeightDecomposition,
    check_convolution_closure,
    coefficient_deficiency,
    convex_combine,
    convolve,
    decompose,
    extreme_point_analytic,
    extreme_point_coanalytic,
    random_member,
    reconstruct,
)

P0 = ClassParams(beta=0.5)


def nf(a=None, b=None):
    return NegativeCoefficientForm(a_abs=a or {}, b_abs=b or {})


class TestExtremePoints:
    def test_analytic_base(self):
        assert extreme_point_analytic(2, P0).a_abs == {2: 0.5}
        assert extreme_point_analytic(3, P0).a_abs == {3: 0.5}

    def test_analytic_weighted(self):
        f = extreme_point_analytic(2, ClassParams(beta=0.5, lam=1, k=1))
        assert f.a_abs[2] == pytest.approx(0.125)

    def test_coanalytic_base(self):
        assert extreme_point_coanalytic(1, P0).b_abs == {1: 0.5}

    def test_coanalytic_weighted(self):
        f = extreme_point_coanalytic(2, ClassParams(beta=0.5, lam=1))
        assert f.b_abs[2] == pytest.approx(0.25)

    def test_coanalytic_degenerate(self):
        with pytest.raises(DegenerateWeightError):
            extreme_point_coanalytic(1, ClassParams(beta=0.5, lam=0.5))

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            extreme_point_analytic(1, P0)
        with pytest.raises(ValueError):
            extreme_point_coanalytic(0, P0)

    def test_sits_on_boundary(self):
        for p in (P0, ClassParams(beta=0.2, lam=1.5, k=0.6, nu=0.5)):
            for n in (2, 3, 7):
                assert coefficient_deficiency(extreme_point_analytic(n, p), p) == pytest.approx(
                    0.0, abs=1e-12
                )
                assert coefficient_deficiency(
                    extreme_point_coanalytic(n, p), p
                ) == pytest.approx(0.0, abs=1e-12)

    def test_unit_b1_warning_flag(self):
        f = extreme_point_coanalytic(1, ClassParams(beta=0.0))
        assert f.b_abs[1] == pytest.approx(1.0)
        assert f.univalence_violated


class TestDecompose:
    def test_example(self):
        w = decompose(nf(a={2: 0.2}), P0)
        assert w.t1 == pytest.approx(0.6)
        assert w.t == {2: pytest.approx(0.4)}
        assert w.s == {}

    def test_identity(self):
        w = decompose(nf(), P0)
        assert w.t1 == 1

    def test_boundary_function(self):
        w = decompose(nf(a={2: 0.5}), P0)
        assert w.t1 == pytest.approx(0.0, abs=1e-15)
        assert w.t == {2: pytest.approx(1.0)}

    def test_rejects_outside_closed_class(self):
        with pytest.raises(MembershipViolation):
            decompose(nf(a={2: 0.8}), P0)

    def test_degenerate_weight(self):
        with pytest.raises(DegenerateWeightError):
            decompose(nf(b={1: 0.1}), ClassParams(beta=0.5, lam=0.5))


class TestReconstruct:
    def test_round_trip_example(self):
        f = reconstruct(WeightDecomposition(t1=0.6, t={2: 0.4}), P0)
        assert f.a_abs[2] == pytest.approx(0.2)

    def test_pure_identity(self):
        assert reconstruct(WeightDecomposition(t1=1.0), P0) == nf()

    def test_pure_extreme_point(self):
        f = reconstruct(WeightDecomposition(t1=0.0, t={2: 1.0}), P0)
        assert f.a_abs[2] == pytest.approx(0.5)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightDecomposition(t1=0.5, t={2: 0.2})
        with pytest.raises(ValueError):
            WeightDecomposition(t1=1.2, t={2: -0.2})
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                WeightDecomposition(t1=0.6, t={2: bad})
            with pytest.raises(ValueError, match="finite"):
                WeightDecomposition(t1=bad)
        with pytest.raises(ValueError, match="index"):
            WeightDecomposition(t1=0.6, t={1: 0.4})
        with pytest.raises(ValueError, match="index"):
            WeightDecomposition(t1=0.6, s={0: 0.4})

    def test_round_trip_random(self):
        rng = random.Random(31)
        for i in range(200):
            p = ClassParams(
                beta=rng.uniform(0, 0.9),
                lam=rng.uniform(0, 2),
                k=rng.uniform(0, 1),
                nu=rng.uniform(0, 0.9),
            )
            f = random_member(p, seed=1000 + i)
            w = decompose(f, p)
            total = w.t1 + sum(w.t.values()) + sum(w.s.values())
            assert total == pytest.approx(1.0, abs=1e-12)
            g = reconstruct(w, p)
            assert set(g.a_abs) == set(f.a_abs) and set(g.b_abs) == set(f.b_abs)
            for n in f.a_abs:
                assert g.a_abs[n] == pytest.approx(f.a_abs[n], abs=1e-12)
            for n in f.b_abs:
                assert g.b_abs[n] == pytest.approx(f.b_abs[n], abs=1e-12)


class TestConvolve:
    def test_termwise(self):
        f = convolve(nf(a={2: 0.2}), nf(a={2: 0.5}))
        assert f.a_abs == {2: pytest.approx(0.1)}

    def test_identity_annihilates(self):
        assert convolve(nf(a={2: 0.2}, b={1: 0.3}), nf()) == nf()

    def test_coanalytic_termwise(self):
        f = convolve(nf(b={1: 0.3}), nf(b={1: 0.5}))
        assert f.b_abs == {1: pytest.approx(0.15)}

    def test_commutative_associative(self):
        rng = random.Random(8)
        for _ in range(30):
            fs = [
                nf(
                    a={n: rng.random() for n in rng.sample(range(2, 6), 2)},
                    b={n: rng.random() for n in rng.sample(range(1, 6), 2)},
                )
                for _ in range(3)
            ]
            f1, f2, f3 = fs
            assert convolve(f1, f2) == convolve(f2, f1)
            left = convolve(convolve(f1, f2), f3)
            right = convolve(f1, convolve(f2, f3))
            assert set(left.a_abs) == set(right.a_abs)
            assert set(left.b_abs) == set(right.b_abs)
            for n in left.a_abs:
                assert left.a_abs[n] == pytest.approx(right.a_abs[n], rel=1e-15)
            for n in left.b_abs:
                assert left.b_abs[n] == pytest.approx(right.b_abs[n], rel=1e-15)


class TestConvolutionClosure:
    def test_example(self):
        f = nf(a={2: 0.2})
        report = check_convolution_closure(f, f, alpha=0.7, beta=0.0, p=ClassParams())
        assert report.factor1_deficiency == pytest.approx(0.1)
        assert report.deficiency_alpha == pytest.approx(0.3 - 0.04)
        assert report.closure_holds

    def test_identity_factor(self):
        report = check_convolution_closure(
            nf(), nf(a={2: 0.2}), alpha=0.7, beta=0.1, p=ClassParams()
        )
        assert report.convolution == nf()
        assert report.closure_holds

    def test_out_of_class_factor_rejected(self):
        with pytest.raises(MembershipViolation):
            check_convolution_closure(
                nf(a={2: 0.25}), nf(a={2: 0.9}), alpha=0.8, beta=0.0, p=ClassParams()
            )

    def test_magnitude_hypothesis(self):
        with pytest.raises(ValueError):
            check_convolution_closure(
                nf(), nf(b={2: 1.0}), alpha=0.5, beta=0.0, p=ClassParams()
            )

    def test_strict_mode_checks_both(self):
        big_first = nf(a={2: 1.5})
        ok_second = nf(a={2: 0.1})
        with pytest.raises(ValueError):
            check_convolution_closure(
                big_first, ok_second, alpha=0.5, beta=0.0, p=ClassParams(), strict=True
            )

    def test_level_ordering(self):
        with pytest.raises(ValueError):
            check_convolution_closure(nf(), nf(), alpha=0.2, beta=0.5, p=ClassParams())


class TestConvexCombine:
    def test_two_members(self):
        f = convex_combine([nf(a={2: 0.2}), nf(a={2: 0.5})], [0.5, 0.5])
        assert f.a_abs[2] == pytest.approx(0.35)

    def test_single(self):
        f = nf(a={2: 0.3}, b={1: 0.1})
        assert convex_combine([f], [1.0]) == f

    def test_mixed_parts(self):
        f = convex_combine([nf(a={2: 0.4}), nf(b={1: 0.2})], [0.25, 0.75])
        assert f.a_abs[2] == pytest.approx(0.1)
        assert f.b_abs[1] == pytest.approx(0.15)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            convex_combine([nf(), nf()], [0.5, 0.4])
        with pytest.raises(ValueError):
            convex_combine([nf()], [-1.0])
        with pytest.raises(ValueError, match="combination weights"):
            convex_combine([nf(a={2: 0.1}), nf()], [float("nan"), 0.5])
        with pytest.raises(ValueError):
            convex_combine([], [])
