"""Command-line interface: validate, solve, evaluate statistics, simulate.

Subcommands
    check    <spec> [--json]                     hypothesis verdicts
    solve    <spec> [--order N] [--out PATH]     coefficient dump CSV
    stats    <spec> --grid A:B:STEP [...]        exact mean/variance CSV
    mc       <spec> --method series|rk4 [...]    Monte Carlo CSV with CIs
    compare  <a.csv> <b.csv>                     deviation report
    majorant <spec> --s S [--order K] [...]      majorant sequence CSV

Exit status: 0 success, 1 validation failure, 2 usage error.  CSV output
uses 6 significant digits by default (--full-precision for shortest
round-trip floats) and is byte-identical across repeat runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from .errors import RandfrobError, SpecError
from .frobenius import ProblemSpec, build_problem, compute_coeffs, validate_hypotheses
from .mcengine import McConfig, compare_curves, mc_rk4, mc_series
from .poly import format_poly, to_fraction
from .specfile import load_document, resolve_problem
from .uqstats import StatCurve, majorant_sequence, moment_matrix, stat_curves

# Largest grid parse_grid builds; every point costs an exact evaluation.
MAX_GRID_POINTS = 100_000
# argparse takes a separate "-0.5:..." for an option, so a negative start needs "=".
GRID_HELP = "start:end:step, inclusive; join a negative start with '=', as --grid=-0.5:0.5:0.5"


def _fmt(x: float, full: bool) -> str:
    return repr(float(x)) if full else f"{float(x):.6g}"


def parse_grid(text: str) -> list[Fraction]:
    """Parse "start:end:step" into exact rationals, inclusive of both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid must be start:end:step, got {text!r}")
    try:
        start, end, step = (to_fraction(p) for p in parts)
    except SpecError:
        raise SpecError(f"grid bounds must be rationals, got {text!r}") from None
    if step <= 0:
        raise SpecError(f"grid step must be positive, got {step}")
    if end < start:
        raise SpecError(f"grid end {end} precedes start {start}")
    count = (end - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise SpecError(
            f"grid {text!r} has {count} points, more than the {MAX_GRID_POINTS} allowed"
        )
    return [start + k * step for k in range(count)]


def _load_spec(arg: str) -> ProblemSpec:
    return build_problem(load_document(resolve_problem(arg)))


def _write_csv(path: str, header: list[str], rows) -> None:
    # No field needs CSV quoting: symbol names match [A-Za-z_][A-Za-z0-9_]*, and
    # polynomial text, ints and `_fmt` floats hold no ',', '"', '\r' or '\n'.
    try:
        with open(path, "w", newline="", encoding="utf-8") as fp:
            fp.writelines(",".join(map(str, row)) + "\n" for row in (header, *rows))
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_curve(path: str, curve: StatCurve, full: bool) -> None:
    header = ["t", "mean", "variance"]
    if curve.ci_halfwidth is not None:
        header.append("ci_halfwidth")
    rows = []
    for i, t in enumerate(curve.grid):
        row = [_fmt(t, full), _fmt(curve.mean[i], full), _fmt(curve.variance[i], full)]
        if curve.ci_halfwidth is not None:
            row.append(_fmt(curve.ci_halfwidth[i], full))
        rows.append(row)
    _write_csv(path, header, rows)


def read_curve(path: str) -> StatCurve:
    """Read a UTF-8 stats/mc CSV back into a curve of at least one row of finite values."""
    try:
        with open(path, newline="", encoding="utf-8") as fp:
            reader = csv.DictReader(fp)
            fields = reader.fieldnames or []
            if not {"t", "mean", "variance"}.issubset(fields):
                raise SpecError(f"{path}: expected columns t, mean, variance")
            columns = {c: [] for c in ("t", "mean", "variance", "ci_halfwidth") if c in fields}
            for row in reader:
                if None in row:  # DictReader's key for cells past the header
                    raise SpecError(f"{path}: more cells than columns on line {reader.line_num}")
                for name, values in columns.items():
                    cell = row[name]  # None when the row is short
                    if cell is None:
                        raise SpecError(f"{path}: no {name} value on line {reader.line_num}")
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise SpecError(
                            f"{path}: cannot read {name} {cell!r} on line {reader.line_num}"
                        ) from None
                    if not math.isfinite(values[-1]):
                        raise SpecError(f"{path}: non-finite {name} on line {reader.line_num}")
    except OSError as exc:
        raise SpecError(f"cannot read curve file {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:  # a field past the csv limit; not UTF-8
        raise SpecError(f"{path}: {exc}") from exc
    if not columns["t"]:
        raise SpecError(f"{path}: no data rows")
    try:
        return StatCurve(
            grid=columns["t"], mean=columns["mean"], variance=columns["variance"],
            ci_halfwidth=columns.get("ci_halfwidth"), label=Path(path).name,
        )
    except ValueError as exc:  # a negative variance
        raise SpecError(f"{path}: {exc}") from None


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    report = validate_hypotheses(spec)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"status: {report.status}")
        print(f"radius estimate: {report.radius_estimate:.6g}"
              f" (declared {report.declared_radius:.6g})")
        for c in report.coefficients:
            tag = "ok" if c.bounded else "UNBOUNDED"
            print(f"  {c.series}_{c.n}: sup bound {c.sup_bound:.6g} [{tag}]")
        for c in report.l2:
            tag = "ok" if c.finite else "INFINITE"
            print(f"  {c.label}: mean-square norm {c.norm:.6g} [{tag}]")
        for msg in report.messages:
            print(f"note: {msg}")
    if report.status != "fail":
        return 0
    failed = ([f"{c.series}_{c.n}" for c in report.coefficients if not c.bounded]
              + [c.label for c in report.l2 if not c.finite])
    print(f"error: hypotheses fail for {', '.join(failed)}", file=sys.stderr)
    return 1


def _cmd_solve(args) -> int:
    spec = _load_spec(args.spec)
    order = spec.default_order if args.order is None else args.order
    sol = compute_coeffs(spec, order)
    rows = [[n, format_poly(p, spec.table)] for n, p in enumerate(sol.X)]
    _write_csv(args.out, ["n", "polynomial"], rows)
    print(f"wrote {len(rows)} coefficients to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    spec = _load_spec(args.spec)
    order = spec.default_order if args.order is None else args.order
    grid = parse_grid(args.grid)
    sol = compute_coeffs(spec, order)
    mm = moment_matrix(sol, spec.model)
    curve = stat_curves(mm, grid, spec.t0, radius=spec.radius, label=f"series[N={order}]")
    _write_curve(args.out, curve, args.full_precision)
    print(f"wrote {len(curve.grid)} rows to {args.out}")
    return 0


def _cmd_mc(args) -> int:
    # Each of these flags is read by one method only; the other would ignore it.
    for flag, method in (("--order", "series"), ("--step", "rk4"), ("--input-truncation", "rk4")):
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.method != method:
            print(f"error: {flag} applies only to --method {method}", file=sys.stderr)
            return 2
    spec = _load_spec(args.spec)
    order = spec.default_order if args.order is None else args.order
    grid = parse_grid(args.grid)
    cfg = McConfig(
        samples=args.samples,
        seed=args.seed,
        rk4_step=McConfig.rk4_step if args.step is None else args.step,
        input_truncation=args.input_truncation,
    )
    if args.method == "series":
        sol = compute_coeffs(spec, order)
        curve = mc_series(sol, grid, cfg)
    else:
        curve = mc_rk4(spec, grid, cfg)
    _write_curve(args.out, curve, args.full_precision)
    print(f"wrote {len(curve.grid)} rows to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    report = compare_curves(read_curve(args.a), read_curve(args.b))
    print(report.summary())
    return 0


def _cmd_majorant(args) -> int:
    spec = _load_spec(args.spec)
    order = 2 * spec.default_order if args.order is None else args.order
    maj = majorant_sequence(spec, args.s, order)
    rows = [
        [n, _fmt(h, args.full_precision), _fmt(h * maj.s**n, args.full_precision)]
        for n, h in enumerate(maj.h)
    ]
    _write_csv(args.out, ["n", "H_n", "H_n_s_n"], rows)
    print(
        f"wrote {len(rows)} majorant terms to {args.out}"
        f" (s={maj.s:g}, D_s={maj.d_s:.6g}, inputs seen up to index {maj.input_max_index})"
    )
    return 0


@functools.cache  # built once per process: parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randfrob",
        description="Series solutions and statistics for random second-order linear ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("spec", help="problem file path or bundled problem name")

    p = sub.add_parser("check", help="validate solvability hypotheses")
    add_spec(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="compute series coefficients")
    add_spec(p)
    p.add_argument("--order", type=int, default=None, help="truncation order N")
    p.add_argument("--out", default="coeffs.csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="exact mean/variance on a grid")
    add_spec(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--grid", required=True, help=GRID_HELP)
    p.add_argument("--out", default="stats.csv")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("mc", help="Monte Carlo statistics on a grid")
    add_spec(p)
    p.add_argument("--method", choices=("series", "rk4"), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=None, help="RK4 step size (default 1e-3)")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--input-truncation", type=int, default=None)
    p.add_argument("--grid", required=True, help=GRID_HELP)
    p.add_argument("--out", default="mc.csv")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("compare", help="deviation report between two curve CSVs")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("majorant", help="dominating sequence for truncation error")
    add_spec(p)
    p.add_argument("--s", type=float, required=True, help="scale 0 < s < radius")
    p.add_argument("--order", type=int, default=None, help="highest majorant index K")
    p.add_argument("--out", default="majorant.csv")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=_cmd_majorant)
    return parser


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RandfrobError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # an exact value converted to float
        print(f"error: a value is out of float range ({exc})", file=sys.stderr)
        return 1


def main() -> None:
    # A warning reads as one line, not as the library source line that raised it.
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    sys.exit(run_command())


if __name__ == "__main__":
    main()
