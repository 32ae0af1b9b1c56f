"""Monte Carlo validation of the exact statistics.

Two independent routes per sampled realization of the random symbols:

  series  evaluate the truncated solution series at the sampled values;
  rk4     freeze the sampled values into scalar coefficient functions and
          integrate the equation with classical fixed-step RK4.

Sampling is counter-seeded: samples are processed in chunks of a fixed
size CHUNK, and chunk k draws all its realizations from one Philox stream
keyed by (seed, k), so results are bit-identical across runs and worker
counts.  The chunks' partial sums are combined with compensated summation
in chunk order; the reduction tree never depends on scheduling.

Both routes evaluate only the stored input polynomials (A_n, B_n, C_n, Y0,
Y1) at the draws, through one `_EvalPlan` built once per call; the series
route feeds those rows to `coeff_recursion`, the recursion `solve` runs on
`Poly`s, and warns outside the declared radius as `stats` does.  The series
route at order N reads the inputs of index <= N - 2, and the RK4 route
those of index <= its input truncation, so each draws only the leading
dependence blocks up to the last one owning a symbol its plan reads
(`_PlanDraws`).  Blocks draw in declaration order from the chunk's stream,
so the blocks drawn get the same values as in a full draw; the columns of
the blocks left out are NaN.

The RK4 route uses that the equation is linear: draws that repeat their A/B
values integrate one basis of paths and combine it per draw (see `mc_rk4`).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError
from .frobenius import ProblemSpec, SeriesSolution, coeff_recursion
from .poly import Poly, key_factors
from .randmodel import RandomModel
from .uqstats import StatCurve, _horner, _warn_outside_radius

CHUNK = 8192
# Every RK4 step costs four stage evaluations per draw; the benchmark takes
# 1 500 steps and the tests at most 10 000, so 10^7 only stops runaways.
MAX_RK4_STEPS = 10**7
# A group's RK4 step maps are built this many steps at a time, so their
# memory does not grow with the step count.
STEP_BLOCK = 1024
CI_MULTIPLIER = 1.96  # normal-approximation 95% interval; not configurable

THREADS_ENV = "RANDFROB_THREADS"


@dataclass(frozen=True)
class McConfig:
    """Sampling run configuration."""

    samples: int
    seed: int
    rk4_step: float = 1e-3
    input_truncation: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.input_truncation is not None and self.input_truncation < 0:
            raise ValueError(f"input_truncation must be >= 0, got {self.input_truncation}")
        if not 0 < self.rk4_step < math.inf:
            raise ValueError(f"rk4_step must be positive and finite, got {self.rk4_step}")


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    return n


def _sample_matrix(model: RandomModel | _PlanDraws, seed: int, start: int,
                   count: int) -> np.ndarray:
    """Draw realizations start .. start+count-1 as a (count, n_symbols) array.

    `start` opens chunk start // CHUNK, which draws from its own Philox
    stream keyed by (seed, chunk index).
    """
    key = np.array([seed, start // CHUNK], dtype=np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key))
    return model.draw(stream, count)


class _EvalPlan:
    """Evaluates a list of polynomials on every row of a sample matrix.

    Built once per Monte Carlo call and shared read-only by the chunk
    workers: the distinct monomials of all the polynomials, each decoded once
    into (symbol id, exponent) factors and listed with the (row, float
    coefficient) entries that use it, and per symbol the powers they need.
    """

    def __init__(self, polys: Sequence[Poly]):
        self.rows = len(polys)
        entries: dict[int, list[tuple[int, float]]] = {}
        for row, p in enumerate(polys):
            for key, num in p.terms.items():
                entries.setdefault(key, []).append((row, num / p.den))
        self.monomials = [(key_factors(key), rows) for key, rows in entries.items()]
        self.powers = sorted({factor for mono, _ in self.monomials for factor in mono})

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """A (len(polys), count) array: row r is polynomial r at every draw."""
        count = values.shape[0]
        power = {(sid, e): values[:, sid] ** e if e > 1 else values[:, sid]
                 for sid, e in self.powers}
        out = np.zeros((self.rows, count))
        scratch = np.empty(count)
        for mono, entries in self.monomials:
            if not mono:
                term = 1.0
            elif len(mono) == 1:
                term = power[mono[0]]
            else:
                np.multiply(power[mono[0]], power[mono[1]], out=scratch)
                for factor in mono[2:]:
                    scratch *= power[factor]
                term = scratch
            for row, coeff in entries:
                out[row] += coeff * term
        return out


class _PlanDraws:
    """`model` as `_sample_matrix` sees it for one plan: its `draw` samples
    only the leading blocks up to the last one owning a symbol the plan
    reads, and leaves the other columns NaN."""

    def __init__(self, model: RandomModel, plan: _EvalPlan):
        self.model = model
        self.blocks = model.leading_blocks(sid for sid, _ in plan.powers)

    def draw(self, stream, count: int) -> np.ndarray:
        return self.model.draw(stream, count, self.blocks)


def _run_chunks(
    samples: int,
    worker: Callable[[int, int], np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Apply `worker(start, count)` over fixed-size chunks, in order.

    Each chunk's (grid, count) paths reduce to per-row sums and sums of
    squares.  The chunk layout depends only on the sample count, so any
    worker count produces the same partials in the same order.
    """
    def run_chunk(job):
        with np.errstate(over="ignore", invalid="ignore"):  # `_aggregate` rejects a non-finite total
            paths = worker(*job)
            return paths.sum(axis=1), (paths * paths).sum(axis=1)

    starts = list(range(0, samples, CHUNK))
    jobs = [(s, min(CHUNK, samples - s)) for s in starts]
    n_workers = min(_worker_count(), len(jobs))
    if n_workers <= 1:
        results = [run_chunk(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_chunk, jobs))
    return [total for total, _ in results], [squares for _, squares in results]


def _aggregate(
    grid: Sequence[float],
    samples: int,
    sums: list[np.ndarray],
    sumsqs: list[np.ndarray],
    label: str,
) -> StatCurve:
    means, variances, halfwidths = [], [], []
    if samples == 1:
        warnings.warn("sample variance undefined for a single draw; reporting 0")
    for g in range(len(grid)):
        total = math.fsum(chunk[g] for chunk in sums)
        total_sq = math.fsum(chunk[g] for chunk in sumsqs)
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise OverflowError(f"Monte Carlo sums at t={float(grid[g]):g} are not finite")
        mean = total / samples
        if samples > 1:
            var = (total_sq - samples * mean * mean) / (samples - 1)
        else:
            var = 0.0
        means.append(mean)
        variances.append(var)  # StatCurve clamps float dust to 0
        halfwidths.append(CI_MULTIPLIER * math.sqrt(max(var, 0.0) / samples))
    return StatCurve(
        grid=[float(t) for t in grid],
        mean=means,
        variance=variances,
        ci_halfwidth=halfwidths,
        label=label,
    )


def _input_terms(
    spec: ProblemSpec, cap: float,
) -> tuple[list[tuple[int, int, Poly]], _EvalPlan]:
    """The stored (s, n, A_n | B_n | C_n) with n <= cap, and a plan of their rows.

    s = 0, 1, 2 for A, B, C, in that order and each by index.  The plan's
    rows are the terms' polynomials, then Y0 and Y1.
    """
    terms = [(s, n, p) for s, proc in enumerate((spec.a, spec.b, spec.c))
             for n, p in proc.items() if n <= cap]
    return terms, _EvalPlan([p for _, _, p in terms] + [spec.y0, spec.y1])


def _coeff_rows(
    spec: ProblemSpec, order: int,
) -> tuple[_EvalPlan, Callable[[np.ndarray], list[np.ndarray]]]:
    """The plan of the inputs of index <= order - 2, and a function giving
    X_0 .. X_order at every draw of a sample matrix, one float64 row each.

    Evaluating at a draw commutes with the ring operations, so X_n at a draw
    is `coeff_recursion` fed the draw's inputs of index <= order - 2.
    """
    terms, plan = _input_terms(spec, order - 2)

    def coeffs(values: np.ndarray) -> list[np.ndarray]:
        rows = plan(values)
        series = [[(k, rows[j]) for j, (s, k, _) in enumerate(terms) if s == label]
                  for label in range(3)]
        return coeff_recursion(series[0], series[1], dict(series[2]), rows[-2], rows[-1],
                               order, np.zeros(values.shape[0]))

    return plan, coeffs


def mc_series(
    sol: SeriesSolution,
    model: RandomModel,
    grid: Sequence[float],
    cfg: McConfig,
) -> StatCurve:
    """Sample the random symbols and evaluate the order-N truncated series per draw.

    The paper's random differential transform method: each chunk's X_0 ..
    X_N come from the recursion run on its draws' sampled inputs
    (`_coeff_rows`), so only `sol.spec` and `sol.order` are read, not the
    exact `sol.X`, and output matches evaluating `sol.X` up to rounding.
    Horner's rule in tau = t - t0 forms the partial sums: tau^N alone may
    leave the float range where the sum does not.
    """
    _warn_outside_radius(grid, sol.spec.t0, sol.spec.radius)
    taus = np.array([float(t) - float(sol.spec.t0) for t in grid])[:, None]
    plan, coeffs = _coeff_rows(sol.spec, sol.order)
    draws = _PlanDraws(model, plan)

    def worker(start: int, count: int):
        return _horner(coeffs(_sample_matrix(draws, cfg.seed, start, count)), taus)

    sums, sumsqs = _run_chunks(cfg.samples, worker)
    return _aggregate(grid, cfg.samples, sums, sumsqs, label=f"mc-series[{cfg.samples}]")


def _steps_for(delta: float, h: float) -> int:
    exact = delta / h
    n = max(1, round(exact))
    if abs(exact - n) > 1e-9 * max(1.0, abs(exact)):
        warnings.warn(
            f"step {h:g} does not divide grid spacing {delta:g};"
            f" using {n} steps of {delta / n:g}"
        )
    return n


def _int_power(x: np.ndarray, e: int) -> np.ndarray:
    """x^e elementwise by repeated squaring, so each value's bits depend only on x and e."""
    result = np.ones_like(x)
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


def mc_rk4(
    spec: ProblemSpec,
    model: RandomModel,
    grid: Sequence[float],
    cfg: McConfig,
) -> StatCurve:
    """Integrate the sampled equation with classical RK4 at a fixed step.

    Each realization freezes the sampled symbol values into polynomial
    coefficient functions a(t), b(t), c(t) of the truncated input series and
    integrates x'' = c - b x - a x' from t0 through the grid, recording x at
    grid points (aligned to whole steps; non-dividing spacings are warned
    about and quantized).

    The equation is linear, so draws that share their a and b share one
    basis: x = Y0 phi0 + Y1 phi1 + sum_j c_j psi_j over the stored C terms.
    A chunk's draws are grouped by their A/B plan rows.  A group with more
    draws than the n_basis = (C terms + 2) basis columns integrates those
    columns and combines them per draw; every other draw is its own column
    of one RK4 pass over the chunk's single draws, so a chunk where no group
    forms is integrated bit for bit as per draw.

    Within a group a(tau) and b(tau) are scalars, so an RK4 step is one
    affine map S -> P_i S + Q_i of the group's (2, n_basis) state of x and
    x': P_i (2 x 2) composes the stages' L = [[0, 1], [-b, -a]], and Q_i
    carries each C term's forcing [0, tau^n_j].  The maps are built for
    STEP_BLOCK steps at a time with whole-array operations, then applied in
    order.  A group's basis paths depend only on its A/B values, so they are
    memoized on those values' bytes for this call: chunks that meet the same
    group integrate it once, and the output does not depend on which chunk,
    or thread, gets there first.
    """
    t0 = float(spec.t0)
    ts = [float(t) for t in grid]
    if any(t1 > t2 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("grid must be sorted ascending")
    if ts and ts[0] < t0 - 1e-12:
        raise ValueError(f"grid must start at or after t0={t0:g}")

    def check_steps(steps: float) -> None:
        if steps > MAX_RK4_STEPS:
            raise ValueError(
                f"rk4_step {cfg.rk4_step:g} needs {steps:.3g} steps, over the limit {MAX_RK4_STEPS}"
            )

    # The float span first, before `_steps_for` rounds a quotient that a
    # subnormal step makes infinite; then the rounded count, which gives
    # every nonempty leg at least one step.
    check_steps((ts[-1] - t0) / cfg.rk4_step if ts else 0.0)
    legs = []  # (t_start, n_steps, h_actual)
    t_prev = t0
    for t in ts:
        delta = t - t_prev
        if delta <= 1e-14:
            legs.append((t_prev, 0, cfg.rk4_step))
        else:
            n = _steps_for(delta, cfg.rk4_step)
            legs.append((t_prev, n, delta / n))
        t_prev = t
    ends = list(accumulate(n for _, n, _ in legs))  # steps taken at each grid point
    total = ends[-1] if ends else 0
    check_steps(total)

    # Plan rows: each stored A_n, B_n, C_n with n <= input_truncation, then Y0 and Y1.
    # series[s, j] = 1 marks row j as a term of a, b or c (s = 0, 1, 2), of index exps[j].
    # The a and b rows come first: rows[:n_ab] fix a draw's basis, and the
    # path is linear in the n_basis rows after them.
    terms, plan = _input_terms(spec, math.inf if cfg.input_truncation is None
                               else cfg.input_truncation)
    series = np.array([[s == k for s, _, _ in terms] for k in range(3)], dtype=float)
    exps = np.array([n for _, n, _ in terms])
    n_ab = sum(s < 2 for s, _, _ in terms)
    n_basis = plan.rows - n_ab
    draws = _PlanDraws(model, plan)

    def integrate(rows: np.ndarray) -> np.ndarray:
        """The (grid, columns) paths of a C-contiguous plan-row matrix."""
        coeffs, (x, v) = rows[:-2], rows[-2:]

        def accel(tau: float, x, v):
            a, b, c = (series * tau**exps) @ coeffs
            return c - b * x - a * v

        paths = np.empty((len(ts), rows.shape[1]))
        for g, (t_start, n_steps, h) in enumerate(legs):
            for i in range(n_steps):
                tau_a = t_start + i * h - t0
                tau_m = tau_a + h / 2
                tau_b = tau_a + h
                k1x = v
                k1v = accel(tau_a, x, v)
                x2 = x + (h / 2) * k1x
                v2 = v + (h / 2) * k1v
                k2x = v2
                k2v = accel(tau_m, x2, v2)
                x3 = x + (h / 2) * k2x
                v3 = v + (h / 2) * k2v
                k3x = v3
                k3v = accel(tau_m, x3, v3)
                x4 = x + h * k3x
                v4 = v + h * k3v
                k4x = v4
                k4v = accel(tau_b, x4, v4)
                x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            paths[g, :] = x
        return paths

    # Per leg: its start time and step size, and the steps taken before and after it.
    leg_t = np.array([t_start for t_start, _, _ in legs])
    leg_h = np.array([h for _, _, h in legs])
    leg_end = np.array(ends, dtype=np.int64)
    leg_first = leg_end - [n for _, n, _ in legs]
    # at_power[e]: the plan rows of the A/B/C terms of index e
    at_power: dict[int, list[int]] = {}
    for j, (_, n, _) in enumerate(terms):
        at_power.setdefault(n, []).append(j)

    def field(ab: np.ndarray, tau: np.ndarray):
        """a and b at each tau, as columns, and the (tau, n_basis) forcing of each basis column."""
        a_b = np.zeros((2, len(tau)))
        forcing = np.zeros((len(tau), n_basis))  # the Y0 and Y1 columns are unforced
        for e, term_rows in at_power.items():
            power = _int_power(tau, e)
            for j in term_rows:
                if j < n_ab:
                    a_b[terms[j][0]] += ab[j] * power
                else:
                    forcing[:, j - n_ab] = power
        return a_b[0][:, None], a_b[1][:, None], forcing

    def slope(at, m: np.ndarray) -> np.ndarray:
        """The slopes (v, c - b x - a v) at states (x, v) = K S + F, as maps [K | F] like `m`."""
        a, b, forcing = at
        out = np.empty(m.shape)
        out[:, 0] = m[:, 1]
        out[:, 1] = -b * m[:, 0] - a * m[:, 1]
        out[:, 1, 2:] += forcing
        return out

    identity = np.eye(2, 2 + n_basis)  # the state S itself, as a map [I | 0]

    def step_maps(ab: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """P_i and Q_i of steps lo .. hi - 1 for a group with A/B plan rows `ab`."""
        step = np.arange(lo, hi)
        leg = np.searchsorted(leg_end, step, side="right")
        h = leg_h[leg]
        tau_a = leg_t[leg] + (step - leg_first[leg]) * h - t0
        start, mid, end = (field(ab, tau) for tau in (tau_a, tau_a + h / 2, tau_a + h))
        h = h[:, None, None]
        k1 = slope(start, np.broadcast_to(identity, (len(step),) + identity.shape))
        k2 = slope(mid, identity + (h / 2) * k1)
        k3 = slope(mid, identity + (h / 2) * k2)
        k4 = slope(end, identity + h * k3)
        maps = identity + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.ascontiguousarray(maps[:, :, :2]), np.ascontiguousarray(maps[:, :, 2:])

    def group_paths(ab: np.ndarray) -> np.ndarray:
        """The (grid, n_basis) basis paths of a group with A/B plan rows `ab`."""
        state = np.eye(2, n_basis, n_basis - 2)  # the C columns start at rest; Y0, Y1 at I
        paths = np.empty((len(ts), n_basis))
        g = 0
        for lo in range(0, total, STEP_BLOCK):
            p, q = step_maps(ab, lo, min(lo + STEP_BLOCK, total))
            for step, (p_i, q_i) in enumerate(zip(p, q), lo):
                while ends[g] == step:
                    paths[g] = state[0]
                    g += 1
                state = p_i @ state + q_i
        paths[g:] = state[0]
        return paths

    # A group's basis paths, keyed on its A/B values; two threads that both
    # miss build the same bits, so the race is harmless.
    memo: dict[bytes, np.ndarray] = {}

    def worker(start: int, count: int):
        rows = plan(_sample_matrix(draws, cfg.seed, start, count))
        # Draws with equal A/B bits are one group, in draw order (lexsort is
        # stable); without A/B terms every draw is in one group.
        if n_ab:
            bits = rows[:n_ab].view(np.uint64)
            order = np.lexsort(bits)
            ordered = bits[:, order]
            cuts = np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1
            bounds = np.concatenate(([0], cuts, [count]))
        else:
            order, bounds = np.arange(count), np.array([0, count])
        sizes = np.diff(bounds)
        groups = [order[lo:hi] for lo, hi, size in zip(bounds, bounds[1:], sizes) if size > n_basis]
        single = np.empty(count, dtype=bool)
        single[order] = np.repeat(sizes <= n_basis, sizes)
        singles = np.flatnonzero(single)

        paths = np.empty((len(ts), count))
        if len(singles):
            paths[:, singles] = integrate(np.ascontiguousarray(rows[:, singles]))
        for members in groups:
            ab = rows[:n_ab, members[0]]
            key = ab.tobytes()
            basis = memo.get(key)
            if basis is None:
                basis = memo[key] = group_paths(ab)
            if np.isfinite(basis).all():
                paths[:, members] = basis @ rows[n_ab:, members]
            else:  # inf * 0 would make nan of a draw whose data are zero
                paths[:, members] = integrate(np.ascontiguousarray(rows[:, members]))
        return paths

    sums, sumsqs = _run_chunks(cfg.samples, worker)
    return _aggregate(grid, cfg.samples, sums, sumsqs, label=f"mc-rk4[{cfg.samples}]")


# ---------------------------------------------------------------------------
# curve comparison


@dataclass(frozen=True)
class PointComparison:
    t: float
    mean_delta: float
    mean_sigmas: float | None  # |delta| in combined-CI standard errors
    outside_ci: bool | None


@dataclass
class ComparisonReport:
    points: list[PointComparison]
    max_abs_mean: float
    max_rel_mean: float
    max_abs_var: float
    max_rel_var: float
    has_ci: bool
    labels: tuple[str, str]

    def summary(self) -> str:
        lines = [
            f"compared {self.labels[0] or 'a'} vs {self.labels[1] or 'b'}"
            f" on {len(self.points)} grid points",
            f"mean:     max abs dev {self.max_abs_mean:.6g}, max rel dev {self.max_rel_mean:.6g}",
            f"variance: max abs dev {self.max_abs_var:.6g}, max rel dev {self.max_rel_var:.6g}",
        ]
        if self.has_ci:
            flagged = [p.t for p in self.points if p.outside_ci]
            if flagged:
                lines.append(
                    f"{len(flagged)} point(s) outside the combined 95% CI: "
                    + ", ".join(f"{t:g}" for t in flagged)
                )
            else:
                lines.append("all mean deviations within the combined 95% CI")
        return "\n".join(lines)


def compare_curves(a: StatCurve, b: StatCurve) -> ComparisonReport:
    """Deviation report between two curves on the same grid.

    CI flagging uses the mean's combined standard error from whichever
    curves carry half-widths; exact curves contribute zero width.
    """
    if len(a.grid) != len(b.grid) or any(
        ta != tb for ta, tb in zip(a.grid, b.grid)
    ):
        raise GridMismatchError(
            f"curves have different grids ({len(a.grid)} vs {len(b.grid)} points)"
        )
    has_ci = a.ci_halfwidth is not None or b.ci_halfwidth is not None
    points = []
    max_abs_mean = max_rel_mean = max_abs_var = max_rel_var = 0.0
    for i, t in enumerate(a.grid):
        dmean = a.mean[i] - b.mean[i]
        dvar = a.variance[i] - b.variance[i]
        max_abs_mean = max(max_abs_mean, abs(dmean))
        max_abs_var = max(max_abs_var, abs(dvar))
        denom_m = max(abs(a.mean[i]), abs(b.mean[i]))
        denom_v = max(abs(a.variance[i]), abs(b.variance[i]))
        if denom_m > 0:
            max_rel_mean = max(max_rel_mean, abs(dmean) / denom_m)
        if denom_v > 0:
            max_rel_var = max(max_rel_var, abs(dvar) / denom_v)
        sigmas = None
        outside = None
        if has_ci:
            hw_a = a.ci_halfwidth[i] if a.ci_halfwidth is not None else 0.0
            hw_b = b.ci_halfwidth[i] if b.ci_halfwidth is not None else 0.0
            se = math.hypot(hw_a, hw_b) / CI_MULTIPLIER
            if se > 0:
                sigmas = abs(dmean) / se
                outside = sigmas > CI_MULTIPLIER
            else:
                sigmas = 0.0 if dmean == 0 else math.inf
                outside = dmean != 0
        points.append(PointComparison(t, dmean, sigmas, outside))
    return ComparisonReport(
        points=points,
        max_abs_mean=max_abs_mean,
        max_rel_mean=max_rel_mean,
        max_abs_var=max_abs_var,
        max_rel_var=max_rel_var,
        has_ci=has_ci,
        labels=(a.label, b.label),
    )
