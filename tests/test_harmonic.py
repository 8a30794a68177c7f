import cmath
import math
import random

import pytest

from harmfrac import (
    ClassParams,
    EvalPoint,
    HarmonicFunction,
    NegativeCoefficientForm,
    SingularEvaluationError,
    apply_operator,
    class_functional,
    class_functional_fd,
    coefficient_json,
    derivatives,
    dilatation,
    evaluate,
    jacobian,
    parse_coefficient_json,
)

IDENTITY = HarmonicFunction()
SHRUNK = HarmonicFunction(a={2: -0.2})  # z - 0.2 z^2
TWISTED = HarmonicFunction(b={1: 0.3})  # z + 0.3 conj(z)

P0 = ClassParams(beta=0.5)


def pt(z):
    return EvalPoint.from_cartesian(z)


class TestEvalPoint:
    def test_polar_cartesian_agree(self):
        p = EvalPoint.from_polar(0.5, math.pi / 4)
        assert p.z == pytest.approx(cmath.rect(0.5, math.pi / 4))

    @pytest.mark.parametrize("z", [1.0, 1 + 0j, 2j, -1.5])
    def test_rejects_outside_disk(self, z):
        with pytest.raises(ValueError):
            EvalPoint.from_cartesian(z)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            EvalPoint.from_polar(1.0, 0.0)

    @pytest.mark.parametrize(
        "z", [complex("nan"), complex(0.1, math.nan), complex(math.inf, math.nan)]
    )
    def test_rejects_non_finite_cartesian(self, z):
        with pytest.raises(ValueError):
            EvalPoint.from_cartesian(z)

    @pytest.mark.parametrize(
        "r,theta", [(math.nan, 0.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)]
    )
    def test_rejects_non_finite_polar(self, r, theta):
        with pytest.raises(ValueError):
            EvalPoint.from_polar(r, theta)


class TestRepresentation:
    def test_zero_coefficients_dropped(self):
        f = HarmonicFunction(a={2: 0j, 3: 1j}, b={1: 0})
        assert f.a == {3: 1j} and f.b == {}

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            HarmonicFunction(a={1: 0.5})
        with pytest.raises(ValueError):
            HarmonicFunction(b={0: 0.5})

    def test_univalence_candidate(self):
        assert TWISTED.univalence_candidate
        assert not HarmonicFunction(b={1: 1.0}).univalence_candidate

    def test_negative_form_conversion(self):
        f = NegativeCoefficientForm(a_abs={2: 0.2}, b_abs={1: 0.3})
        h = f.to_harmonic()
        assert h.a == {2: -0.2 + 0j} and h.b == {1: 0.3 + 0j}

    def test_negative_form_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            NegativeCoefficientForm(a_abs={2: -0.1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HarmonicFunction(a={2: bad})
        with pytest.raises(ValueError, match="finite"):
            HarmonicFunction(b={1: complex(0.1, bad)})
        with pytest.raises(ValueError, match="finite"):
            NegativeCoefficientForm(a_abs={2: bad})
        with pytest.raises(ValueError, match="finite"):
            NegativeCoefficientForm(b_abs={1: bad})

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: HarmonicFunction(b={n: 0.5}),
            lambda n: NegativeCoefficientForm(b_abs={n: 0.5}),
        ],
    )
    def test_rejects_bool_index(self, make):
        assert make(1)
        with pytest.raises(ValueError, match="index"):
            make(True)

    @pytest.mark.parametrize("n", [1, True])
    def test_accepted_forms_round_trip(self, n):
        # Whatever a constructor accepts, its own coefficient file parses back.
        for make in (
            lambda: HarmonicFunction(b={n: 0.5 - 0.25j}),
            lambda: NegativeCoefficientForm(b_abs={n: 0.5}),
        ):
            try:
                f = make()
            except ValueError:
                continue
            assert parse_coefficient_json(coefficient_json(f)) == f

    def test_both_forms_answer_for_themselves(self):
        g = NegativeCoefficientForm(a_abs={2: 0.2, 5: 0.1}, b_abs={1: 0.3})
        h = g.to_harmonic()
        assert h.to_harmonic() is h
        assert g.magnitudes() == ({2: 0.2, 5: 0.1}, {1: 0.3})
        assert h.magnitudes() == g.magnitudes()
        assert HarmonicFunction(a={2: 0.3 + 0.4j}, b={3: -2j}).magnitudes() == ({2: 0.5}, {3: 2.0})


class TestEvaluate:
    def test_identity(self):
        assert evaluate(IDENTITY, pt(0.5)) == 0.5

    def test_coanalytic_term(self):
        assert evaluate(TWISTED, pt(0.5j)) == pytest.approx(0.35j)

    def test_analytic_term(self):
        assert evaluate(SHRUNK, pt(0.5)) == pytest.approx(0.45)

    def test_negative_form_real_on_real_axis(self):
        f = NegativeCoefficientForm(a_abs={2: 0.1, 5: 0.05}, b_abs={1: 0.2, 3: 0.1})
        for r in (0.1, 0.5, 0.9):
            assert evaluate(f, pt(r)).imag == pytest.approx(0.0, abs=1e-15)


class TestDerivatives:
    def test_identity(self):
        assert derivatives(IDENTITY, pt(0.2j)) == (1, 0)

    def test_analytic(self):
        hp, gp = derivatives(SHRUNK, pt(0.5))
        assert hp == pytest.approx(0.8) and gp == 0

    def test_coanalytic_constant(self):
        for z in (0.1, 0.5j, -0.3 + 0.2j):
            assert derivatives(TWISTED, pt(z)) == (1, 0.3)

    def test_jacobian(self):
        assert jacobian(IDENTITY, pt(0.1)) == 1
        assert jacobian(TWISTED, pt(0.4j)) == pytest.approx(0.91)
        assert jacobian(SHRUNK, pt(0.5)) == pytest.approx(0.64)

    def test_jacobian_matches_direct_formula(self):
        rng = random.Random(11)
        for _ in range(20):
            f = HarmonicFunction(
                a={2: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))},
                b={1: 0.4, 3: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))},
            )
            z = pt(cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi)))
            hp, gp = derivatives(f, z)
            assert jacobian(f, z) == pytest.approx(abs(hp) ** 2 - abs(gp) ** 2, abs=1e-13)

    def test_dilatation(self):
        assert dilatation(IDENTITY, pt(0.3)) == 0
        assert dilatation(TWISTED, pt(0.2 + 0.1j)) == pytest.approx(0.3)
        assert dilatation(SHRUNK, pt(0.5)) == 0

    def test_dilatation_singularity(self):
        # h'(z) = 1 - z at z -> vanishing for f = z - z^2/2
        f = HarmonicFunction(a={2: -0.5})
        with pytest.raises(SingularEvaluationError):
            dilatation(f, pt(0.9999999999999999 * (1 - 1e-16)))


class TestOperator:
    def test_order_zero_is_identity(self):
        f = HarmonicFunction(a={2: 0.5 + 0.1j, 7: -0.3}, b={1: 0.3, 4: 0.2j})
        g = apply_operator(f, 0.0)
        assert g.a == f.a and g.b == f.b

    def test_half_order_scales(self):
        g = apply_operator(HarmonicFunction(a={2: 0.5}), 0.5)
        assert g.a[2] == pytest.approx(2 / 3, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 0.9])
    def test_index_one_fixed(self, nu):
        g = apply_operator(TWISTED, nu)
        assert g.b[1] == pytest.approx(0.3, rel=1e-13)

    def test_linearity(self):
        rng = random.Random(5)
        for _ in range(10):
            f1 = HarmonicFunction(a={2: rng.uniform(-1, 1)}, b={3: rng.uniform(-1, 1)})
            f2 = HarmonicFunction(a={2: rng.uniform(-1, 1) * 1j}, b={1: 0.4})
            s = HarmonicFunction(
                a={n: f1.a.get(n, 0) + f2.a.get(n, 0) for n in set(f1.a) | set(f2.a)},
                b={n: f1.b.get(n, 0) + f2.b.get(n, 0) for n in set(f1.b) | set(f2.b)},
            )
            g1, g2, gs = (apply_operator(g, 0.4) for g in (f1, f2, s))
            for n in set(gs.a):
                assert gs.a[n] == pytest.approx(g1.a.get(n, 0) + g2.a.get(n, 0), abs=1e-13)
            for n in set(gs.b):
                assert gs.b[n] == pytest.approx(g1.b.get(n, 0) + g2.b.get(n, 0), abs=1e-13)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            apply_operator(IDENTITY, 1.0)


class TestClassFunctional:
    def test_identity_is_one(self):
        for z in (0.5, 0.3j, -0.2 + 0.6j):
            assert class_functional(IDENTITY, P0, pt(z)) == 1

    def test_analytic_example(self):
        assert class_functional(SHRUNK, P0, pt(0.5)) == pytest.approx(0.9)

    def test_coanalytic_on_real_axis(self):
        assert class_functional(TWISTED, P0, pt(0.5)) == pytest.approx(1.3)

    def test_origin_without_b1(self):
        assert class_functional(SHRUNK, P0, pt(0)) == 1

    def test_origin_with_b1_undefined(self):
        with pytest.raises(SingularEvaluationError):
            class_functional(TWISTED, P0, pt(0))


class TestFiniteDifferenceOracle:
    def test_identity_no_derivative_mixing(self):
        p = ClassParams(beta=0.2, lam=0.0, nu=0.4)
        v = class_functional_fd(IDENTITY, p, pt(0.5), step=1e-4)
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_identity_generic_params(self):
        # the second-derivative stencil has an eps/step^2 rounding floor
        # (~5e-10 at the largest allowed step), so 1e-8 is the honest bound
        p = ClassParams(beta=0.2, lam=1.3, k=0.7, nu=0.4)
        v = class_functional_fd(IDENTITY, p, pt(0.5), step=1e-3)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_analytic_example(self):
        v = class_functional_fd(SHRUNK, P0, pt(0.5), step=1e-4)
        assert v == pytest.approx(0.9, abs=1e-7)

    def test_mixed_point(self):
        p = ClassParams(beta=0.5, lam=1.0)
        z = EvalPoint.from_polar(0.4, math.pi / 3)
        a = class_functional(TWISTED, p, z)
        b = class_functional_fd(TWISTED, p, z, step=1e-4)
        assert abs(a - b) <= 1e-6

    def test_cross_oracle_random(self):
        rng = random.Random(20240817)
        for _ in range(100):
            f = HarmonicFunction(
                a={
                    n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for n in rng.sample(range(2, 7), rng.randint(0, 3))
                },
                b={
                    n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for n in rng.sample(range(1, 7), rng.randint(0, 3))
                },
            )
            p = ClassParams(
                beta=rng.uniform(0, 0.9),
                lam=rng.uniform(0, 2),
                k=rng.uniform(0, 1),
                nu=rng.uniform(0, 0.95),
            )
            z = EvalPoint.from_polar(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi))
            a = class_functional(f, p, z)
            b = class_functional_fd(f, p, z, step=1e-4)
            assert abs(a - b) / max(1.0, abs(a)) <= 1e-6

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            class_functional_fd(SHRUNK, P0, pt(0.5), step=0.01)


class TestCoefficientFiles:
    def test_general_round_trip(self):
        f = HarmonicFunction(a={2: 0.5 + 0.25j, 4: -0.1}, b={1: 0.3, 3: -0.2j})
        g = parse_coefficient_json(coefficient_json(f))
        assert g == f

    def test_negative_round_trip(self):
        f = NegativeCoefficientForm(a_abs={2: 0.2, 3: 0.1}, b_abs={1: 0.4})
        g = parse_coefficient_json(coefficient_json(f))
        assert g == f

    def test_parse_general(self):
        f = parse_coefficient_json(
            '{"kind":"general","a":[[2,-0.2,0.0]],"b":[[1,0.3,0.0]]}'
        )
        assert isinstance(f, HarmonicFunction)
        assert f.a == {2: -0.2 + 0j} and f.b == {1: 0.3 + 0j}

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2,3]",
            '{"a":[]}',
            '{"kind":"mystery"}',
            '{"kind":"general","a":[[1,0.5,0.0]],"b":[]}',
            '{"kind":"general","a":[[2,0.1,0.0],[2,0.2,0.0]],"b":[]}',
            '{"kind":"general","a":[[3,0.1,0.0],[2,0.2,0.0]],"b":[]}',
            '{"kind":"negative_form","a_abs":[[2,0.1,0.3]],"b_abs":[]}',
            '{"kind":"negative_form","a_abs":[],"b_abs":[[0,0.1]]}',
            '{"kind":"general","a":[[3,0.1,0.0],[5,0.1,0.0],[3,0.2,0.0]],"b":[]}',
            '{"kind":"general","a":5,"b":[]}',
            '{"kind":"general","a":[],"b":[[true,0.1,0.0]]}',
            '{"kind":"negative_form","a_abs":[],"b_abs":[[false,0.1]]}',
            '{"kind":"negative_form","a_abs":[[2.0,0.1]],"b_abs":[]}',
            '{"kind":"general","a":[[2,"0.1",0.0]],"b":[]}',
            '{"kind":"negative_form","a_abs":[[2,"0.1"]],"b_abs":[]}',
            '{"kind":"negative_form","a_abs":[[2,true]],"b_abs":[]}',
            '{"kind":"general","a":[[2,NaN,0.0]],"b":[]}',
            '{"kind":"general","a":[],"b":[[1,0.1,Infinity]]}',
            '{"kind":"general","a":[[2,1e999,0.0]],"b":[]}',
            '{"kind":"negative_form","a_abs":[[2,NaN]],"b_abs":[]}',
            '{"kind":"negative_form","a_abs":[],"b_abs":[[1,-Infinity]]}',
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_coefficient_json(text)

    @pytest.mark.parametrize(
        "entries,message",
        [
            ("[[1,0.5,0.0]]", "a index must be an integer >= 2, got 1"),
            ("[[2,0.1,0.0],[2,0.2,0.0]]", "duplicate a index 2"),
            ("[[3,0.1,0.0],[5,0.1,0.0],[3,0.2,0.0]]", "duplicate a index 3"),
            ("[[3,0.1,0.0],[2,0.2,0.0]]", "a indices must be strictly increasing at 2"),
            ("[[2,0.1]]", "a entries must be 3-element lists, got [2, 0.1]"),
        ],
    )
    def test_parse_error_messages(self, entries, message):
        with pytest.raises(ValueError) as exc:
            parse_coefficient_json(f'{{"kind":"general","a":{entries},"b":[]}}')
        assert str(exc.value) == message

    def test_parse_integer_values(self):
        f = parse_coefficient_json('{"kind":"general","a":[[2,0,1]],"b":[[1,-0.0,0]]}')
        assert f.a == {2: 1j} and f.b == {}
