"""Batch command-line front end.

Subcommands: check, weights, extremal, decompose, convolve, combine, eval,
verify.  A command writes no file and nothing to stdout: it returns its
exit code, its stdout text and a function that builds its --output
document (JSON, or CSV for eval).  `run` alone writes --output, before
anything is printed, then stdout, so a run that exits 2 prints nothing on
stdout; warnings and errors go to stderr.  Exit codes: 0 success, 1 a
`check` that did not certify membership or a `verify` suite that failed,
2 usage/parse/domain errors, overflow, an --output that cannot be
written, or a stdout that its reader closed early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .family import (
    WeightDecomposition,
    check_convolution_closure,
    convex_combine,
    convolve,
    decompose,
    extreme_point_analytic,
    extreme_point_coanalytic,
    reconstruct,
)
from .harmonic import (
    NegativeCoefficientForm,
    _functional_on,
    _parse_entries,
    _weighted_series,
    coefficient_json,
    jacobian,
    parse_coefficient_json,
)
from .membership import (
    ClassParams,
    analytic_weight,
    certify_general,
    certify_negative_form,
    coanalytic_weight,
)
from .verify import (
    STANDARD_GRID,
    DiskGrid,
    verify_necessity,
    verify_sufficiency,
)

__all__ = ["main", "run", "grid_csv"]


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, default=0.0)
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0)
    parser.add_argument("--k", type=float, default=0.0)
    parser.add_argument("--nu", type=float, default=0.0)


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-radii", type=str, default=None, help="comma list in (0,1)")
    parser.add_argument("--grid-angles", type=int, default=None)


def _params(args) -> ClassParams:
    return ClassParams(beta=args.beta, lam=args.lam, k=args.k, nu=args.nu)


def _grid(args) -> DiskGrid:
    if args.grid_radii is None and args.grid_angles is None:
        return STANDARD_GRID
    radii = (
        tuple(float(r) for r in args.grid_radii.split(","))
        if args.grid_radii is not None
        else STANDARD_GRID.radii
    )
    angles = args.grid_angles if args.grid_angles is not None else STANDARD_GRID.angles
    return DiskGrid(radii=radii, angles=angles)


def _read(path: str) -> str:
    """The CLI's one file reader: an unreadable file is a ValueError (exit 2)."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_negative_form(path: str, command: str) -> NegativeCoefficientForm:
    """The reader of the commands that take only fixed-sign files."""
    f = parse_coefficient_json(_read(path))
    if not isinstance(f, NegativeCoefficientForm):
        raise ValueError(f"{command} requires negative_form coefficient files, got {path}")
    return f


def _read_weights(path: str) -> WeightDecomposition:
    """The convex weights that `decompose` writes: t1, and [n, weight] lists t and s."""
    try:
        doc = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"weights file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "t1" not in doc:
        raise ValueError(f"weights file {path} must be an object with a 't1' field")
    t1 = doc["t1"]
    if type(t1) is not float and type(t1) is not int:
        raise ValueError(f"weights file {path}: t1 must be a number, got {t1!r}")
    return WeightDecomposition(
        t1=float(t1),
        t=_parse_entries(doc.get("t", []), "t", 2, float, width=2),
        s=_parse_entries(doc.get("s", []), "s", 1, float, width=2),
    )


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _document(text: str):
    """The reply of a command whose stdout is the document that --output holds."""
    return 0, text + "\n", lambda: text


def grid_csv(f, p: ClassParams, grid: DiskGrid) -> str:
    """CSV of the functional over the grid: r,theta,re_E,im_E,jacobian,
    one row per grid point in grid order, 17 significant digits.  A value
    that overflows raises OverflowError."""
    f = f.to_harmonic()  # else jacobian() converts a fixed-sign form at every point
    values = _functional_on(_weighted_series(f, p), grid._z)
    lines = ["r,theta,re_E,im_E,jacobian"]
    for pt, e in zip(grid.points(), values):
        try:
            j = jacobian(f, pt)
        except OverflowError:  # float ** 2 raises where a product would give inf
            j = math.inf
        if not (math.isfinite(e.real) and math.isfinite(e.imag) and math.isfinite(j)):
            raise OverflowError(
                f"the functional or the Jacobian is not finite at r = {pt.r:.17g}, "
                f"theta = {pt.theta:.17g}"
            )
        lines.append(
            f"{pt.r:.17g},{pt.theta:.17g},{e.real:.17g},{e.imag:.17g},{j:.17g}"
        )
    return "\n".join(lines) + "\n"


def _cmd_check(args):
    p = _params(args)
    f = parse_coefficient_json(_read(args.input))
    if isinstance(f, NegativeCoefficientForm):
        report = certify_negative_form(f, p)
    else:
        report = certify_general(f, p)
    lines = [f"verdict: {report.verdict}  deficiency: {report.deficiency:.17g}"]
    lines += [f"  {part}[{n}] contributes {c:.17g}" for n, part, c in report.per_term]
    lines += [f"  b[{n}] is unconstrained (weight ~ 0)" for n in report.unconstrained]
    code = 0 if report.certified_member else 1
    return code, "\n".join(lines) + "\n", lambda: json.dumps(report.to_dict())


def _cmd_weights(args):
    p = _params(args)
    n = args.n
    phi = analytic_weight(n, p) if n >= 2 else None
    psi = coanalytic_weight(n, p)
    text = f"phi({n}) = {phi:.17g}\n" if phi is not None else ""
    text += f"psi({n}) = {psi:.17g}\n"
    return 0, text, lambda: json.dumps({"n": n, "phi": phi, "psi": psi}, indent=2)


def _cmd_extremal(args):
    p = _params(args)
    if args.fn is not None:
        f = extreme_point_analytic(args.fn, p)
    else:
        f = extreme_point_coanalytic(args.gn, p)
        if f.univalence_violated:
            print("warning: |b_1| >= 1; univalence side condition violated", file=sys.stderr)
    return _document(coefficient_json(f))


def _cmd_decompose(args):
    p = _params(args)
    w = decompose(_read_negative_form(args.input, "decompose"), p)
    doc = {
        "t1": w.t1,
        "t": [[n, x] for n, x in w.t.items()],
        "s": [[n, x] for n, x in w.s.items()],
        "params": p.to_dict(),
    }
    return _document(json.dumps(doc, indent=2))


def _cmd_combine(args):
    p = _params(args)
    if args.weights:
        f = reconstruct(_read_weights(args.weights), p)
    else:
        if not args.inputs:
            raise ValueError("combine needs --weights FILE or --inputs FILES --ts LIST")
        fs = [_read_negative_form(path, "combine") for path in args.inputs]
        ts = [float(t) for t in args.ts.split(",")] if args.ts else [1 / len(fs)] * len(fs)
        f = convex_combine(fs, ts)
    return _document(coefficient_json(f))


def _cmd_convolve(args):
    f1 = _read_negative_form(args.input, "convolve")
    f2 = _read_negative_form(args.input2, "convolve")
    if args.alpha is None:
        return _document(coefficient_json(convolve(f1, f2)))
    report = check_convolution_closure(f1, f2, args.alpha, args.beta, _params(args))
    text = coefficient_json(report.convolution)
    closure = (
        f"closure at alpha={args.alpha}: deficiency {report.deficiency_alpha:.17g}; "
        f"at beta={args.beta}: {report.deficiency_beta:.17g}\n"
    )
    return 0, closure + text + "\n", lambda: text


def _cmd_eval(args):
    p = _params(args)
    f = parse_coefficient_json(_read(args.input))
    grid = _grid(args)
    text = f"wrote {len(grid.radii) * grid.angles} samples to {args.output}\n"
    return 0, text, lambda: grid_csv(f, p, grid)


def _cmd_verify(args):
    p = _params(args)
    reports = []
    if args.suite in ("sufficiency", "all"):
        reports.append(verify_sufficiency(p, args.cases, seed=args.seed, grid=_grid(args)))
    if args.suite in ("necessity", "all"):
        reports.append(verify_necessity(p, args.cases, seed=args.seed))
    text = "".join(
        f"{rep.suite}: {rep.cases_passed}/{rep.cases_run} cases, "
        f"worst margin {rep.worst_margin:.6g} [{'pass' if rep.all_passed else 'FAIL'}]\n"
        for rep in reports
    )
    code = 0 if all(rep.all_passed for rep in reports) else 1
    return code, text, lambda: json.dumps([r.to_dict() for r in reports], indent=2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmfrac",
        description="Certify and verify harmonic-function class membership.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a coefficient file")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--output")
    _add_params(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_weights = sub.add_parser("weights", help="print the index-n weights")
    p_weights.add_argument("--n", type=int, required=True)
    p_weights.add_argument("--output")
    _add_params(p_weights)
    p_weights.set_defaults(func=_cmd_weights)

    p_ext = sub.add_parser("extremal", help="emit an extreme-point function")
    degree = p_ext.add_mutually_exclusive_group(required=True)
    degree.add_argument("--fn", type=int, help="analytic extreme point of degree N")
    degree.add_argument("--gn", type=int, help="co-analytic extreme point of degree N")
    p_ext.add_argument("--output")
    _add_params(p_ext)
    p_ext.set_defaults(func=_cmd_extremal)

    p_dec = sub.add_parser("decompose", help="convex weights of a class member")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--output")
    _add_params(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_comb = sub.add_parser("combine", help="reconstruct from weights or convex-combine files")
    p_comb.add_argument("--weights", help="decomposition JSON from `decompose`")
    p_comb.add_argument("--inputs", nargs="*", help="negative_form files to combine")
    p_comb.add_argument("--ts", help="comma list of convex weights")
    p_comb.add_argument("--output")
    _add_params(p_comb)
    p_comb.set_defaults(func=_cmd_combine)

    p_conv = sub.add_parser("convolve", help="Hadamard product of two files")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--input2", required=True)
    p_conv.add_argument("--alpha", type=float, help="run the closure check at this level")
    p_conv.add_argument("--output")
    _add_params(p_conv)
    p_conv.set_defaults(func=_cmd_convolve)

    p_eval = sub.add_parser("eval", help="sample the functional over a disk grid (CSV)")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--output", required=True)
    _add_params(p_eval)
    _add_grid(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_ver = sub.add_parser("verify", help="run the theorem verification suites")
    p_ver.add_argument("--suite", choices=["sufficiency", "necessity", "all"], default="all")
    p_ver.add_argument("--cases", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--output")
    _add_params(p_ver)
    _add_grid(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code, text, document = args.func(args)
        if args.output:
            _write(args.output, document())
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`, `| grep -q`).  Point it at devnull
        # so the flush at interpreter shutdown cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
