"""The benchmark's workloads: CLI ops per round, sizes, and output checks.

Each op is one `randfrob` subcommand, given as its argument list without
`--out` (the runner adds it) and, for Monte Carlo ops, without `--seed`.
Exact ops are checked against byte digests in `reference.json`; Monte Carlo
ops against the exact mean of the same truncated series.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

# Published mean/variance table of hermite_forced at N=20 on t = 0, 0.25, ..., 1.5.
FLAGSHIP_ARGV = ("stats", "hermite_forced", "--order", "20", "--grid", "0:1.5:0.25",
                 "--full-precision")
FLAGSHIP_MEAN = [1.0, 1.14231, 1.28890, 1.49183, 1.85892, 2.62574, 4.34784]
FLAGSHIP_VAR = [0.5, 0.520298, 0.597008, 0.790556, 1.27425, 2.60694, 6.94100]
FLAGSHIP_TOL = 5e-5

# A Monte Carlo grid mean fails when it lies more than this many standard
# errors from the exact mean of the same truncated series.
MC_SIGMAS = 5.0
CI_MULTIPLIER = 1.96  # the CLI's ci_halfwidth is 1.96 standard errors


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    mc_order: int | None = None  # series order of the exact mean an MC op is checked against

    @property
    def is_mc(self) -> bool:
        return self.argv[0] == "mc"

    @property
    def writes_file(self) -> bool:
        """Every subcommand but `check` writes its result to --out."""
        return self.argv[0] != "check"

    @property
    def samples(self) -> int:
        return int(self.argv[self.argv.index("--samples") + 1])

    @property
    def grid(self) -> str:
        return self.argv[self.argv.index("--grid") + 1]

    @property
    def problem(self) -> str:
        return self.argv[1]

    def key(self) -> str:
        """Reference-digest key: the op's arguments."""
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[str, ...]  # problems loaded by the set-up measurement
    threads: int  # RANDFROB_THREADS
    ops: tuple[Op, ...]
    smoke_ops: tuple[Op, ...]
    flagship_check: bool = False
    # workload figure -> ("op_s", label) | ("round_s", None) | ("draws_per_s", label)
    named: dict = field(default_factory=dict)


def _stats(problem, order, grid):
    return ("stats", problem, "--order", str(order), "--grid", grid, "--full-precision")


def _mc_series(samples, order):
    return ("mc", "beta_series", "--method", "series", "--order", str(order),
            "--samples", str(samples), "--grid", "0:0.9:0.1")


def _mc_rk4(samples, step):
    return ("mc", "hermite_forced", "--method", "rk4", "--samples", str(samples),
            "--step", step, "--grid", "0:1.5:0.25")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stats-exact",
            specs=("hermite_forced", "beta_series"),
            threads=1,
            ops=(
                Op("stats_hermite_forced", _stats("hermite_forced", 40, "0:1.5:0.25")),
                Op("stats_beta_series", _stats("beta_series", 14, "0:0.9:0.1")),
            ),
            smoke_ops=(
                Op("stats_hermite_forced", _stats("hermite_forced", 8, "0:1.5:0.25")),
                Op("stats_beta_series", _stats("beta_series", 4, "0:0.9:0.1")),
            ),
            flagship_check=True,
            named={
                "stats_hermite_forced_s": ("op_s", "stats_hermite_forced"),
                "stats_beta_series_s": ("op_s", "stats_beta_series"),
            },
        ),
        Workload(
            name="solve-recursion",
            specs=("beta_series",),
            threads=1,
            ops=(
                Op("check", ("check", "beta_series")),
                Op("solve", ("solve", "beta_series", "--order", "26")),
                Op("majorant", ("majorant", "beta_series", "--s", "0.9")),
            ),
            smoke_ops=(
                Op("check", ("check", "beta_series")),
                Op("solve", ("solve", "beta_series", "--order", "8")),
                Op("majorant", ("majorant", "beta_series", "--s", "0.9", "--order", "12")),
            ),
            named={"solve_s": ("round_s", None)},
        ),
        Workload(
            name="mc-series",
            specs=("beta_series",),
            threads=2,
            ops=(Op("mc_series", _mc_series(32768, 20), mc_order=20),),
            # two chunks of mcengine.CHUNK = 8192 draws, so the thread pool runs
            smoke_ops=(Op("mc_series", _mc_series(8192 + 512, 6), mc_order=6),),
            named={"mc_series_draws_per_s": ("draws_per_s", "mc_series")},
        ),
        Workload(
            name="mc-rk4",
            specs=("hermite_forced",),
            threads=1,
            ops=(Op("mc_rk4", _mc_rk4(65536, "1e-3"), mc_order=20),),
            smoke_ops=(Op("mc_rk4", _mc_rk4(256, "1e-2"), mc_order=20),),
            named={"mc_rk4_draws_per_s": ("draws_per_s", "mc_rk4")},
        ),
    )
}


def read_rows(path) -> list[dict[str, float]]:
    with open(path, newline="") as fp:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fp)]


def check_flagship(rows) -> str | None:
    """Return None when the N=20 table matches within tolerance, else why not."""
    if len(rows) != len(FLAGSHIP_MEAN):
        return f"flagship table has {len(rows)} rows, expected {len(FLAGSHIP_MEAN)}"
    worst = max(
        max(abs(r["mean"] - m), abs(r["variance"] - v))
        for r, m, v in zip(rows, FLAGSHIP_MEAN, FLAGSHIP_VAR)
    )
    if worst > FLAGSHIP_TOL:
        return f"flagship table deviates by {worst:.3g} > {FLAGSHIP_TOL:g}"
    return None


def exact_means(op: Op) -> list[float]:
    """Exact mean of the order-`op.mc_order` series on the op's grid.

    E[X^N(t)] = sum_n E[X_n] (t - t0)^n, one expect_poly per coefficient.
    """
    from randfrob.cli import parse_grid
    from randfrob.frobenius import build_problem, compute_coeffs
    from randfrob.specfile import load_document, resolve_problem

    spec = build_problem(load_document(resolve_problem(op.problem)))
    sol = compute_coeffs(spec, op.mc_order)
    moments = [spec.model.expect_poly(x) for x in sol.X]
    means = []
    for t in parse_grid(op.grid):
        tau = t - spec.t0
        acc = 0
        for c in reversed(moments):
            acc = acc * tau + c
        means.append(float(acc))
    return means


def check_mc(rows, exact: list[float]) -> str | None:
    """Return None when every grid mean is finite and near the exact mean."""
    if len(rows) != len(exact):
        return f"MC curve has {len(rows)} rows, expected {len(exact)}"
    for row, want in zip(rows, exact):
        if not all(math.isfinite(v) for v in row.values()):
            return f"non-finite value at t={row['t']:g}"
        se = row["ci_halfwidth"] / CI_MULTIPLIER
        # 1e-5 relative slack covers the 6-significant-digit CSV rounding.
        slack = MC_SIGMAS * se + 1e-5 * max(1.0, abs(want))
        if abs(row["mean"] - want) > slack:
            return (f"mean {row['mean']:.6g} at t={row['t']:g} is more than"
                    f" {MC_SIGMAS:g} standard errors from exact {want:.6g}")
    return None
