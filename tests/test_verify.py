import math
import random
import tracemalloc

import pytest

from harmfrac import (
    STANDARD_GRID,
    ClassParams,
    DiskGrid,
    EvalPoint,
    HarmonicFunction,
    NegativeCoefficientForm,
    analytic_weight,
    certify_negative_form,
    class_functional,
    coanalytic_weight,
    coefficient_deficiency,
    jacobian,
    extreme_point_analytic,
    extreme_point_coanalytic,
    find_necessity_witness,
    min_real_functional,
    radial_deficiency,
    random_member,
    random_violator,
    verify_necessity,
    verify_sufficiency,
)
from harmfrac.cli import grid_csv

P0 = ClassParams(beta=0.5)

# The acceptance suite's parameter sets.
PARAM_SETS = [
    ClassParams(beta=0.5),
    ClassParams(beta=0.5, lam=1, k=1),
    ClassParams(beta=0.2, lam=1.3, k=0.4, nu=0.5),
    ClassParams(beta=0.0, lam=0.7, k=0.9, nu=0.25),
]


class TestDiskGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 0.3), angles=16)
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 1.0), angles=16)
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5,), angles=4)

    @pytest.mark.parametrize("radii", [(0.1, math.nan, 0.5), (math.nan,), (0.5, math.inf)])
    def test_rejects_non_finite_radii(self, radii):
        with pytest.raises(ValueError):
            DiskGrid(radii=radii, angles=8)

    @pytest.mark.parametrize("angles", [16.0, True, "16", None])
    def test_rejects_non_integer_angles(self, angles):
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5,), angles=angles)

    def test_standard(self):
        assert STANDARD_GRID.angles == 128
        assert max(STANDARD_GRID.radii) == 0.995
        assert len(list(STANDARD_GRID.points())) == len(STANDARD_GRID.radii) * 128

    def test_points_in_grid_order(self):
        radii = (0.2, 0.7, 0.9)
        grid = DiskGrid(radii=radii, angles=12)
        want = [EvalPoint.from_polar(r, 2 * math.pi * j / 12) for r in radii for j in range(12)]
        assert list(grid.points()) == want
        assert list(grid.points()) == want  # a second call on the same grid agrees


def _brute_force_min(f: HarmonicFunction, p: ClassParams, grid: DiskGrid):
    """Grid minimum of Re of the functional with every weight recomputed at
    every point; first grid point on ties."""
    best = best_pt = None
    for pt in grid.points():
        z = pt.z
        v = 1 + 0j
        for n, c in f.a.items():
            v += analytic_weight(n, p) * c * z ** (n - 1)
        for n, c in f.b.items():
            v += coanalytic_weight(n, p) * c * z.conjugate() ** n / z
        if best is None or v.real < best:
            best, best_pt = v.real, pt
    return best, best_pt


class TestMinRealFunctionalOracle:
    @pytest.mark.parametrize("j", range(len(PARAM_SETS)))
    def test_seeded_members_bit_identical(self, j):
        p = PARAM_SETS[j]
        for i in range(5):
            f = random_member(p, seed=1000 * j + i)
            low, pt = min_real_functional(f, p)
            assert (low, pt) == _brute_force_min(f.to_harmonic(), p, STANDARD_GRID)

    @pytest.mark.parametrize("j", range(len(PARAM_SETS)))
    def test_general_functions_bit_identical(self, j):
        p = PARAM_SETS[j]
        rng = random.Random(j)
        grid = DiskGrid(radii=(0.3, 0.6, 0.9, 0.99), angles=64)
        for _ in range(5):
            f = HarmonicFunction(
                a={n: complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for n in (2, 3, 7)},
                b={n: complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for n in (1, 4)},
            )
            assert min_real_functional(f, p, grid) == _brute_force_min(f, p, grid)

    def test_ties_keep_first_point(self):
        # Re = 1 - 0.2 r^2 cos(2 theta) is smallest at theta = 0 and theta = pi
        f = HarmonicFunction(a={3: -0.2})
        grid = DiskGrid(radii=(0.5, 0.9), angles=8)
        low, pt = min_real_functional(f, P0, grid)
        tied = [q for q in grid.points() if class_functional(f, P0, q).real == low]
        assert len(tied) == 2
        assert pt == tied[0] and pt.r == 0.9 and pt.theta == 0.0
        assert (low, pt) == _brute_force_min(f, P0, grid)


def _general(rng: random.Random, a_ns, b_ns) -> HarmonicFunction:
    def coeff(n):
        return complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) / n

    return HarmonicFunction(a={n: coeff(n) for n in a_ns}, b={n: coeff(n) for n in b_ns})


class TestGridSumAcrossPowerAlgorithms:
    """CPython's complex ** int multiplies repeatedly up to exponent 100 and
    switches algorithm above it; the grid sum must agree bit for bit with the
    per-point sum on both sides."""

    GRID = DiskGrid(radii=(0.3, 0.8, 0.99), angles=24)

    @pytest.mark.parametrize("j", range(len(PARAM_SETS)))
    def test_min_real_functional_bit_identical(self, j):
        rng = random.Random(100 + j)
        for f in (_general(rng, (3, 99, 101, 150), (1, 100, 101, 150)), _general(rng, (150,), (2,))):
            assert min_real_functional(f, PARAM_SETS[j], self.GRID) == _brute_force_min(
                f, PARAM_SETS[j], self.GRID
            )

    @pytest.mark.parametrize("j", range(len(PARAM_SETS)))
    def test_grid_csv_rows_match_pointwise(self, j):
        p, grid = PARAM_SETS[j], self.GRID
        f = _general(random.Random(200 + j), (3, 99, 101, 150), (1, 2, 99, 101, 150))
        want = ["r,theta,re_E,im_E,jacobian"]
        for r in grid.radii:
            for k in range(grid.angles):
                pt = EvalPoint.from_polar(r, 2 * math.pi * k / grid.angles)
                e, jac = class_functional(f, p, pt), jacobian(f, pt)
                want.append(f"{pt.r:.17g},{pt.theta:.17g},{e.real:.17g},{e.imag:.17g},{jac:.17g}")
        assert grid_csv(f, p, grid) == "\n".join(want) + "\n"

    @pytest.mark.parametrize("order", [1, -1])
    def test_one_grid_serves_every_degree(self, order):
        p = PARAM_SETS[2]
        grid = DiskGrid(radii=(0.5, 0.95), angles=32)
        fs = [random_member(p, seed=7), _general(random.Random(7), (2, 150), (1, 150))][::order]
        for f in fs:
            assert min_real_functional(f, p, grid) == _brute_force_min(f.to_harmonic(), p, grid)

    def test_grid_keeps_no_per_function_state(self):
        # 300 terms on 128 points: a cache of powers per degree would keep
        # 300 * 128 complex numbers (over 1 MB); the grid's own points take ~6 kB.
        f = _general(random.Random(0), range(2, 302), ())
        grid = DiskGrid(radii=(0.5, 0.9), angles=64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            min_real_functional(f, P0, grid)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 100_000


class TestMinRealFunctional:
    def test_identity_constant(self):
        low, pt = min_real_functional(HarmonicFunction(), P0)
        assert low == 1
        first = next(STANDARD_GRID.points())
        assert pt.r == first.r and pt.theta == first.theta

    def test_analytic_closed_form(self):
        # Re = 1 - 0.2 r cos(theta), minimized at theta = 0, largest radius
        low, pt = min_real_functional(HarmonicFunction(a={2: -0.2}), P0)
        assert low == pytest.approx(1 - 0.2 * 0.995)
        assert pt.theta == pytest.approx(0.0)
        assert pt.r == pytest.approx(0.995)

    def test_coanalytic_closed_form(self):
        # Re = 1 + 0.3 cos(2 theta), minimized where conj(z)/z = -1
        low, pt = min_real_functional(HarmonicFunction(b={1: 0.3}), P0)
        assert low == pytest.approx(0.7)
        assert pt.theta == pytest.approx(math.pi / 2)

    def test_monotone_under_refinement(self):
        f = HarmonicFunction(a={2: -0.3, 4: 0.1j}, b={1: 0.2})
        p = ClassParams(beta=0.2, lam=1.1, k=0.4, nu=0.3)
        coarse = DiskGrid(radii=(0.3, 0.6, 0.9), angles=16)
        fine = DiskGrid(radii=(0.2, 0.3, 0.6, 0.8, 0.9, 0.95), angles=64)
        low_c, _ = min_real_functional(f, p, coarse)
        low_f, _ = min_real_functional(f, p, fine)
        assert low_f <= low_c


class TestRandomMember:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_deterministic(self, seed):
        assert random_member(P0, seed) == random_member(P0, seed)

    @pytest.mark.parametrize("seed", range(50))
    def test_positive_deficiency(self, seed):
        p = ClassParams(beta=0.5, lam=1, k=1)
        f = random_member(p, seed)
        assert coefficient_deficiency(f, p) > 0
        assert not f.univalence_violated

    def test_magnitude_cap(self):
        p = ClassParams(beta=0.0, lam=0.9, k=0.1)
        for seed in range(30):
            f = random_member(p, seed, cap_magnitudes=0.95)
            assert all(m < 1 for m in f.a_abs.values())
            assert all(m < 1 for m in f.b_abs.values())

    def test_skips_degenerate_weights(self):
        # weight of b_1 is zero at lam = 0.5, k = 0
        p = ClassParams(beta=0.5, lam=0.5)
        for seed in range(30):
            f = random_member(p, seed)
            assert 1 not in f.b_abs


class TestRandomViolator:
    @pytest.mark.parametrize("seed", range(30))
    def test_deficiency_below_margin(self, seed):
        f = random_violator(P0, seed, margin=0.01)
        assert coefficient_deficiency(f, P0) < -0.01
        assert f.b_abs.get(1, 0.0) < 1


def _brute_force_q(f: NegativeCoefficientForm, p: ClassParams, r: float) -> float:
    q = 1 - p.beta
    for n, m in f.a_abs.items():
        q -= analytic_weight(n, p) * m * r ** (n - 1)
    for n, m in f.b_abs.items():
        q -= abs(coanalytic_weight(n, p)) * m * r ** (n - 1)
    return q


class TestNecessityWitness:
    @pytest.mark.parametrize("j", range(len(PARAM_SETS)))
    def test_seeded_violators_bit_identical(self, j):
        # weights recomputed at every rung give the same rung and the same Q(r0)
        p = PARAM_SETS[j]
        for i in range(20):
            f = random_violator(p, seed=5000 * j + i, margin=0.01)
            rungs = [1 - 10.0**-e for e in range(1, 9)]
            want = next(r for r in rungs if _brute_force_q(f, p, r) < 0)
            assert find_necessity_witness(f, p) == want
            assert radial_deficiency(f, p, want) == _brute_force_q(f, p, want)

    def test_closed_form_root(self):
        # Q(r) = 0.5 - 0.8 r crosses zero at r = 0.625
        f = NegativeCoefficientForm(a_abs={2: 0.8})
        r0 = find_necessity_witness(f, P0)
        assert r0 is not None and r0 > 0.625

    def test_boundary_has_no_witness(self):
        f = NegativeCoefficientForm(a_abs={2: 0.5})
        with pytest.raises(ValueError):
            find_necessity_witness(f, P0)
        # Q stays positive all the way up the ladder
        assert radial_deficiency(f, P0, 1 - 1e-8) > 0

    def test_radius_independent_term(self):
        # Q(r) = 0.5 - 0.9 independent of r: first ladder radius witnesses
        f = NegativeCoefficientForm(b_abs={1: 0.9})
        assert find_necessity_witness(f, P0) == pytest.approx(0.9)

    def test_requires_violator(self):
        with pytest.raises(ValueError):
            find_necessity_witness(NegativeCoefficientForm(a_abs={2: 0.1}), P0)

    def test_unconstrained_index_left_out(self):
        # psi(4) is 1.1e-16 here, the rounding residue of an exact 0: the
        # certificate leaves b_4 unconstrained, and so does Q(r).
        p = ClassParams(lam=1 / 3, k=0.1)
        f = NegativeCoefficientForm(b_abs={4: 1e16})
        assert certify_negative_form(f, p).verdict == "member_iff"
        for r in (0.5, 0.99, 1 - 1e-8):
            assert radial_deficiency(f, p, r) == coefficient_deficiency(f, p) == 1.0

    def test_overflow_raises(self):
        f = NegativeCoefficientForm(a_abs={2: 1e308, 3: 1e308})
        with pytest.raises(OverflowError):
            radial_deficiency(f, PARAM_SETS[2], 0.5)
        with pytest.raises(OverflowError):
            find_necessity_witness(f, PARAM_SETS[2])


class TestBoundaryRadialBehavior:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_analytic_extreme_points(self, n):
        for p in (P0, ClassParams(beta=0.1, lam=1.2, k=0.5, nu=0.4)):
            q = radial_deficiency(extreme_point_analytic(n, p), p, 1 - 1e-8)
            assert 0 < q < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_coanalytic_extreme_points(self, n):
        for p in (P0, ClassParams(beta=0.1, lam=1.2, k=0.5, nu=0.4)):
            q = radial_deficiency(extreme_point_coanalytic(n, p), p, 1 - 1e-8)
            assert 0 < q < 1e-6

    def test_degree_one_is_radius_free(self):
        # conj(z)/z has modulus 1 at every radius: the radial expression is
        # identically the deficiency, here exactly 0
        f = extreme_point_coanalytic(1, P0)
        for r in (0.5, 0.9, 1 - 1e-8):
            assert radial_deficiency(f, P0, r) == pytest.approx(0.0, abs=1e-15)


class TestSuites:
    def test_sufficiency_small_run(self):
        rep = verify_sufficiency(P0, cases=20, seed=3)
        assert rep.all_passed
        assert rep.worst_margin > 0
        assert rep.witness is None

    def test_sufficiency_deterministic(self):
        a = verify_sufficiency(P0, cases=10, seed=42)
        b = verify_sufficiency(P0, cases=10, seed=42)
        assert a == b

    def test_necessity_small_run(self):
        rep = verify_necessity(P0, cases=20, seed=3)
        assert rep.all_passed
        assert rep.witness is None

    def test_report_json_round_trips(self):
        import json

        rep = verify_sufficiency(P0, cases=2, seed=0)
        doc = json.loads(rep.to_json())
        assert doc["suite"] == "sufficiency"
        assert doc["cases_run"] == 2
        assert doc["cases_passed"] == 2
        assert doc["seed"] == 0

    def test_cases_precondition(self):
        with pytest.raises(ValueError):
            verify_sufficiency(P0, cases=0)
        with pytest.raises(ValueError):
            verify_necessity(P0, cases=0)
