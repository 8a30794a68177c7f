"""The three benchmark workloads.

Each workload makes its inputs from the seed, runs one request at a time
(``request``, timed) and checks the result against ``reference``
(``check``, untimed).  A request is one thing a user of harmfrac runs:

- ``grid-verify``: one ``harmfrac verify --suite all`` on a block of
  consecutive seeds, cycling through the acceptance suite's parameter sets;
  its time is the grid minimisation of the class functional.
- ``big-check``: one ``harmfrac check`` of a 10^4-term coefficient file
  under freshly drawn parameters; its time is JSON reading and writing, one
  weight per term and one printed line per term, never the functional.
- ``fixed-sign-algebra``: one library round trip on a seeded fixed-sign
  function; many small form constructions, and the same weights over and
  over, since requests reuse four parameter sets.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import reference as ref

# The acceptance suite's parameter sets, as (beta, lambda, k, nu).
PARAM_SETS = [
    (0.5, 0.0, 0.0, 0.0),
    (0.5, 1.0, 1.0, 0.0),
    (0.2, 1.3, 0.4, 0.5),
    (0.0, 0.7, 0.9, 0.25),
]
# harmfrac's standard grid, passed explicitly so that a change of the
# library's default does not silently change the workload.
GRID_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.995)
GRID_ANGLES = 128


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    output: Path


def call_cli(cli, argv: list[str], output: Path) -> CliResult:
    output.unlink(missing_ok=True)  # so that a check never reads an earlier report
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue(), output)


def param_args(beta: float, lam: float, k: float, nu: float) -> list[str]:
    # repr round-trips, so the CLI parses back exactly these floats.
    return ["--beta", repr(beta), "--lambda", repr(lam), "--k", repr(k), "--nu", repr(nu)]


class GridVerify:
    name = "grid-verify"
    cases = 3  # consecutive seeds per request
    traced_requests = 16

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * 1_000_000
        self.output = workdir / "verify.json"

    def write_inputs(self) -> None:
        """The inputs are argument lists, made per request."""

    def bind(self, hf) -> None:
        self.hf = hf

    def _case(self, i: int):
        return PARAM_SETS[i % len(PARAM_SETS)], self.base + i * self.cases

    def argv(self, i: int) -> list[str]:
        params, seed = self._case(i)
        return [
            "verify", "--suite", "all", "--cases", str(self.cases), "--seed", str(seed),
            "--grid-radii", ",".join(repr(r) for r in GRID_RADII),
            "--grid-angles", str(GRID_ANGLES),
            "--output", str(self.output), *param_args(*params),
        ]

    def request(self, i: int, rep: int) -> CliResult:
        return call_cli(self.hf.cli, self.argv(i), self.output)

    def check(self, i: int, rep: int, res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}, expected 0: {res.stderr.strip()}"
        if "[FAIL]" in res.stdout or res.stdout.count("[pass]") != 2:
            return f"unexpected summary {res.stdout!r}"
        suff, nec = json.loads(res.output.read_text())
        params, seed = self._case(i)
        p = self.hf.ClassParams(*params)
        minima = []
        witnesses = []
        for s in range(seed, seed + self.cases):
            f = self.hf.random_member(p, s)
            minima.append(ref.grid_min(f.a_abs, f.b_abs, params, GRID_RADII, GRID_ANGLES))
            v = self.hf.random_violator(p, s, margin=0.01)
            witnesses.append(ref.necessity_witness(v.a_abs, v.b_abs, params))
        worst = min(minima) - params[0]
        if worst <= 0 or suff["cases_passed"] != self.cases:
            return f"sufficiency: reference worst margin {worst}, report {suff}"
        if abs(suff["worst_margin"] - worst) > ref.GRID_TOL:
            return f"sufficiency worst margin {suff['worst_margin']!r}, reference {worst!r}"
        if None in witnesses or nec["cases_passed"] != self.cases:
            return f"necessity: reference witnesses {witnesses}, report {nec}"
        worst_q = max(q for _, q in witnesses)
        if abs(nec["worst_margin"] - worst_q) > ref.GRID_TOL:
            return f"necessity worst margin {nec['worst_margin']!r}, reference {worst_q!r}"
        return None


# big-check parameter draws.  Files are built against the largest weight any
# draw can give, so a member file stays a member, and a non-member stays one,
# whatever the draw.
LAM_MAX, NU_MAX = 1.5, 0.9
MEMBER_SUM = 0.4  # weighted sum bound of member files; their beta stays below 0.5
NONMEMBER_A_SUM = 1.5  # sum |a_n|; phi >= 1 makes the weighted sum exceed 1
SPARSE_MAX = 10**6
TERMS = 10_000


def phi_max(n: int) -> float:
    return (1 + LAM_MAX * (n - 1) * (1 + n)) * ref.operator_weight(n, NU_MAX)


def psi_max(n: int) -> float:
    """|1 - lam(n+1)(1 - nk)| <= 1 + lam(n+1)max(1, n-1) for k in [0, 1]."""
    return (1 + LAM_MAX * (n + 1) * max(1, n - 1)) * ref.operator_weight(n, NU_MAX)


class CoefficientFile(NamedTuple):
    path: Path
    kind: str  # general | negative_form
    member: bool
    a_abs: dict
    b_abs: dict

    @property
    def expected(self) -> tuple[str, int]:
        if self.kind == "general":
            return ("member_sufficient", 0) if self.member else ("inconclusive", 1)
        return ("member_iff", 0) if self.member else ("non_member", 1)


def make_file(rng: random.Random, path: Path, kind: str, sparse: bool, member: bool):
    n_a = n_b = TERMS // 2
    if sparse:
        a_idx = sorted(rng.sample(range(2, SPARSE_MAX + 1), n_a))
        b_idx = sorted(rng.sample(range(1, SPARSE_MAX + 1), n_b))
    else:
        a_idx = list(range(2, n_a + 2))
        b_idx = list(range(1, n_b + 1))
    a_share = [rng.uniform(0.1, 1.0) for _ in a_idx]
    b_share = [rng.uniform(0.1, 1.0) for _ in b_idx]
    if member:
        scale = MEMBER_SUM / (sum(a_share) + sum(b_share))
        a_mag = [s * scale / phi_max(n) for n, s in zip(a_idx, a_share)]
    else:
        scale = 0.5 / sum(b_share)
        a_scale = NONMEMBER_A_SUM / sum(a_share)
        a_mag = [s * a_scale for s in a_share]
    b_mag = [s * scale / psi_max(n) for n, s in zip(b_idx, b_share)]
    if kind == "general":
        a = [_polar(rng, n, m) for n, m in zip(a_idx, a_mag)]
        b = [_polar(rng, n, m) for n, m in zip(b_idx, b_mag)]
        doc = {"kind": kind, "a": a, "b": b}
        a_abs = {n: abs(complex(re, im)) for n, re, im in a}
        b_abs = {n: abs(complex(re, im)) for n, re, im in b}
    else:
        doc = {
            "kind": kind,
            "a_abs": [[n, m] for n, m in zip(a_idx, a_mag)],
            "b_abs": [[n, m] for n, m in zip(b_idx, b_mag)],
        }
        a_abs, b_abs = dict(zip(a_idx, a_mag)), dict(zip(b_idx, b_mag))
    path.write_text(json.dumps(doc))
    return CoefficientFile(path, kind, member, a_abs, b_abs)


def _polar(rng: random.Random, n: int, m: float) -> list:
    c = m * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
    return [n, c.real, c.imag]


class BigCheck:
    name = "big-check"
    traced_requests = 16
    # Every kind x layout x verdict once; both exit codes 0 and 1 occur.
    LAYOUTS = [
        (kind, sparse, member)
        for kind in ("negative_form", "general")
        for sparse in (False, True)
        for member in (True, False)
    ]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.output = workdir / "report.json"
        self.files: list[CoefficientFile] = []

    def write_inputs(self) -> None:
        rng = random.Random(f"big-check:{self.seed}")
        self.files = [
            make_file(rng, self.workdir / f"coefficients-{j}.json", kind, sparse, member)
            for j, (kind, sparse, member) in enumerate(self.LAYOUTS)
        ]

    def bind(self, hf) -> None:
        self.cli = hf.cli

    def _case(self, i: int, rep: int):
        """File and fresh (beta, lambda, k, nu) of request i in pass rep."""
        f = self.files[i % len(self.files)]
        rng = random.Random(f"big-check:{self.seed}:{rep}:{i}")
        lam, k, nu = rng.uniform(0, LAM_MAX), rng.uniform(0, 1), rng.uniform(0, NU_MAX)
        beta = rng.uniform(0, 1 - MEMBER_SUM - 0.1 if f.member else 0.9)
        return f, (beta, lam, k, nu)

    def request(self, i: int, rep: int) -> CliResult:
        f, params = self._case(i, rep)
        argv = ["check", "--input", str(f.path), "--output", str(self.output), *param_args(*params)]
        return call_cli(self.cli, argv, self.output)

    def check(self, i: int, rep: int, res: CliResult) -> str | None:
        f, params = self._case(i, rep)
        verdict, code = f.expected
        if res.code != code:
            return f"exit code {res.code}, expected {code}: {res.stderr.strip()}"
        terms = len(f.a_abs) + len(f.b_abs)
        if not res.stdout.startswith(f"verdict: {verdict} ") or res.stdout.count("\n") != 1 + terms:
            return f"unexpected stdout starting {res.stdout[:80]!r}"
        doc = json.loads(res.output.read_text())
        if doc["verdict"] != verdict or len(doc["per_term"]) + len(doc["unconstrained"]) != terms:
            return f"report verdict {doc['verdict']}, expected {verdict}"
        expect = ref.deficiency(f.a_abs, f.b_abs, *params)
        if not ref.close(doc["deficiency"], expect, ref.FILE_REL_TOL):
            return f"deficiency {doc['deficiency']!r}, reference {expect!r}"
        return None


# fixed-sign-algebra: beta > 0 in every set, so that convolution closure can
# be checked at alpha = beta against the lower level beta / 2.
ALGEBRA_PARAMS = [
    (0.5, 0.0, 0.0, 0.0),
    (0.5, 1.0, 1.0, 0.0),
    (0.2, 1.3, 0.4, 0.5),
    (0.3, 0.7, 0.9, 0.25),
]
MAGNITUDE_CAP = 0.9  # closure needs the second factor's magnitudes below 1
COMBINE_TS = (0.5, 0.25, 0.25)


class AlgebraResult(NamedTuple):
    f: object
    prev: object
    report: object
    weights: object
    rebuilt: object
    closure: object
    combined: object
    violator: object
    witness: float | None


class FixedSignAlgebra:
    name = "fixed-sign-algebra"
    traced_requests = 400

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * 1_000_000

    def write_inputs(self) -> None:
        """The inputs are seeds and the fixed parameter sets."""

    def bind(self, hf) -> None:
        self.hf = hf
        self.params = [hf.ClassParams(*p) for p in ALGEBRA_PARAMS]
        # The member each parameter set's first request convolves with.
        self.prev = [
            hf.random_member(p, self.base - 1 - j, cap_magnitudes=MAGNITUDE_CAP)
            for j, p in enumerate(self.params)
        ]

    def request(self, i: int, rep: int) -> AlgebraResult:
        hf = self.hf
        j = i % len(self.params)
        p, prev, seed = self.params[j], self.prev[j], self.base + i
        f = hf.random_member(p, seed, cap_magnitudes=MAGNITUDE_CAP)
        report = hf.certify_negative_form(f, p)
        weights = hf.decompose(f, p)
        rebuilt = hf.reconstruct(weights, p)
        closure = hf.check_convolution_closure(f, prev, p.beta, p.beta / 2, p)
        combined = hf.convex_combine([f, prev, closure.convolution], list(COMBINE_TS))
        violator = hf.random_violator(p, seed)
        witness = hf.find_necessity_witness(violator, p)
        self.prev[j] = f
        return AlgebraResult(f, prev, report, weights, rebuilt, closure, combined, violator, witness)

    def check(self, i: int, rep: int, res: AlgebraResult) -> str | None:
        params = ALGEBRA_PARAMS[i % len(ALGEBRA_PARAMS)]
        beta, lam, k, nu = params
        tol = ref.ALGEBRA_REL_TOL
        f, prev = res.f, res.prev
        expect = ref.deficiency(f.a_abs, f.b_abs, *params)
        if expect <= 0 or res.report.verdict != "member_iff":
            return f"verdict {res.report.verdict}, reference deficiency {expect!r}"
        if not ref.close(res.report.deficiency, expect, tol):
            return f"deficiency {res.report.deficiency!r}, reference {expect!r}"
        w = res.weights
        t = {n: ref.phi(n, lam, k, nu) * m / (1 - beta) for n, m in f.a_abs.items()}
        s = {n: abs(ref.psi(n, lam, k, nu)) * m / (1 - beta) for n, m in f.b_abs.items()}
        if not (_close_maps(w.t, t, tol) and _close_maps(w.s, s, tol)):
            return f"decomposition weights {w}, reference t={t} s={s}"
        if not ref.close(w.t1, 1 - math.fsum([*t.values(), *s.values()]), tol):
            return f"decomposition t1 {w.t1!r}"
        g = res.rebuilt
        if not (_close_maps(g.a_abs, f.a_abs, tol) and _close_maps(g.b_abs, f.b_abs, tol)):
            return f"reconstruction {g} differs from {f}"
        conv = res.closure.convolution
        conv_a = {n: m * prev.a_abs[n] for n, m in f.a_abs.items() if n in prev.a_abs}
        conv_b = {n: m * prev.b_abs[n] for n, m in f.b_abs.items() if n in prev.b_abs}
        if not (_close_maps(conv.a_abs, conv_a, tol) and _close_maps(conv.b_abs, conv_b, tol)):
            return f"convolution {conv}, reference a={conv_a} b={conv_b}"
        conv_def = ref.deficiency(conv_a, conv_b, beta, lam, k, nu)
        if not (res.closure.closure_holds and ref.close(res.closure.deficiency_alpha, conv_def, tol)):
            return f"closure {res.closure}, reference deficiency {conv_def!r}"
        combo_a, combo_b = _combine([f, prev, conv], COMBINE_TS)
        if not (_close_maps(res.combined.a_abs, combo_a, tol)
                and _close_maps(res.combined.b_abs, combo_b, tol)):
            return f"convex combination {res.combined}"
        v = res.violator
        found = ref.necessity_witness(v.a_abs, v.b_abs, params)
        if found is None or res.witness != found[0]:
            return f"necessity witness {res.witness!r}, reference {found!r}"
        return None


def _close_maps(got: dict, want: dict, tol: float) -> bool:
    return got.keys() == want.keys() and all(ref.close(got[n], x, tol) for n, x in want.items())


def _combine(fs, ts):
    a: dict = {}
    b: dict = {}
    for f, t in zip(fs, ts):
        for n, m in f.a_abs.items():
            a[n] = a.get(n, 0.0) + t * m
        for n, m in f.b_abs.items():
            b[n] = b.get(n, 0.0) + t * m
    return a, b


WORKLOADS = {wl.name: wl for wl in (GridVerify, BigCheck, FixedSignAlgebra)}
