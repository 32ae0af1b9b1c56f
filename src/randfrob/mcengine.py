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
route feeds those rows, and its constant inputs as numbers, to
`coeff_recursion`, the recursion `solve` runs on `Poly`s, and warns outside
the declared radius as `stats` does.  Both read their inputs from
`ProblemSpec.inputs`, which checks a generator's M: the series route at
order N those of index <= N - 2, as `solve` does, and the RK4 route those of
index <= its input truncation.  So each draws only the leading dependence
blocks up to the last one owning a symbol its plan reads
(`RandomModel.leading_blocks`).  Blocks draw in declaration order from the
chunk's stream, so the blocks drawn get the same values as in a full draw;
the columns of the blocks left out are NaN.

The RK4 route uses that the equation is linear: draws that repeat their A/B
values integrate one basis of paths and combine it per draw.  Single draws
and such groups share one input evaluation (a weights product with plan
rows), one slope, one RK4 step (`_rk4`) and one walk over the steps in
pieces, which records x at the grid points.  A group's pieces are windows of
STEP_WINDOW steps; it folds their step maps between grid points into one
affine map (`_compose`), so the window fixes its bits (see `mc_rk4`).  A
chunk's paths hold its groups in turn, then its single draws in draw order.
"""

from __future__ import annotations

import math
import os
import warnings
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import GridMismatchError
from .frobenius import ProblemSpec, SeriesSolution, coeff_recursion
from .poly import Poly, key_factors
from .randmodel import RandomModel
from .record import Record
from .uqstats import StatCurve, _warn_outside_radius

if TYPE_CHECKING:  # numpy and the thread pool are imported by the functions that sample
    import numpy as np

CHUNK = 8192
# Every RK4 step costs four stage evaluations per draw; the benchmark takes
# 1 500 steps and the tests at most 10 000, so 10^7 only stops runaways.
MAX_RK4_STEPS = 10**7
# Sampling lists its chunks before the first draw; 10^9 draws are 122 071
# chunks, about an hour at the benchmark's rate, so this only stops runaways.
MAX_SAMPLES = 10**9
# `_run_chunks`' pool starts as many threads as RANDFROB_THREADS asks, up to one
# per chunk; this stops a stray value from starting thousands.  Output ignores it.
MAX_THREADS = 256
# RK4 walks its steps in pieces, so the step times, input weights and a group's
# step maps (with a, b, c per map draw) take memory that does not grow with the
# step count; 1024 raised `mc-rk4`'s peak RSS by 0.3 MB, 512 did not.
STEP_BLOCK = 512
# A group's pieces: it folds their maps between grid points into one
# (`_compose`), so the window fixes its bits, as CHUNK fixes the sums'.
STEP_WINDOW = 512
CI_MULTIPLIER = 1.96  # normal-approximation 95% interval; not configurable

THREADS_ENV = "RANDFROB_THREADS"


class McConfig(Record, frozen=True):
    """Sampling run configuration."""

    samples: int
    seed: int
    rk4_step: float = 1e-3
    input_truncation: int | None = None

    def __post_init__(self):
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}], got {self.samples}")
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
    if not 1 <= n <= MAX_THREADS:
        raise ValueError(f"{THREADS_ENV} must be an integer in [1, {MAX_THREADS}], got {raw!r}")
    return n


def _sample_matrix(model: RandomModel, seed: int, start: int, count: int,
                   blocks: int | None = None) -> np.ndarray:
    """Draw realizations start .. start+count-1 as a (count, n_symbols) array.

    `start` opens chunk start // CHUNK, which draws from its own Philox
    stream keyed by (seed, chunk index).  Only the first `blocks` dependence
    blocks are drawn (all by default); the other columns are NaN.
    """
    import numpy as np
    key = np.array([seed, start // CHUNK], dtype=np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key))
    return model.draw(stream, count, blocks)


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
        import numpy as np
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


def _run_chunks(
    samples: int,
    worker: Callable[[int, int], np.ndarray],
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Apply `worker(start, count)` over fixed-size chunks, in order.

    Each chunk's (grid, count) paths reduce to its draw count, per-row sums
    and sums of squared deviations about the chunk's own means.  The chunk
    layout depends only on the sample count, so any worker count produces
    the same partials in the same order.
    """
    import numpy as np
    def run_chunk(job):
        with np.errstate(over="ignore", invalid="ignore"):  # `_aggregate` rejects a non-finite total
            paths = worker(*job)
            total = paths.sum(axis=1)
            deviations = paths - (total / job[1])[:, None]
            deviations *= deviations  # in place: one (grid, count) array beside the paths
            return job[1], total, deviations.sum(axis=1)

    jobs = [(s, min(CHUNK, samples - s)) for s in range(0, samples, CHUNK)]
    n_workers = min(_worker_count(), len(jobs))
    if n_workers <= 1:
        return [run_chunk(job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run_chunk, jobs))


def _aggregate(
    grid: Sequence[float],
    chunks: list[tuple[int, np.ndarray, np.ndarray]],
    label: str,
) -> StatCurve:
    """Per grid point, the mean, and the variance pooled from the chunks' squared
    deviations plus n_k (mean_k - mean)^2 each (Chan, Golub & LeVeque, 1983)."""
    samples = sum(n for n, _, _ in chunks)
    means, variances, halfwidths = [], [], []
    if samples == 1:
        warnings.warn("sample variance undefined for a single draw; reporting 0")
    for g in range(len(grid)):
        total = math.fsum(sums[g] for _, sums, _ in chunks)
        mean = total / samples
        shifts = [float(sums[g]) / n - mean for n, sums, _ in chunks]
        total_sq = math.fsum([squares[g] for _, _, squares in chunks]
                             + [n * d * d for (n, _, _), d in zip(chunks, shifts)])
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise OverflowError(f"Monte Carlo sums at t={float(grid[g]):g} are not finite")
        var = total_sq / (samples - 1) if samples > 1 else 0.0
        means.append(mean)
        variances.append(var)
        halfwidths.append(CI_MULTIPLIER * math.sqrt(var / samples))
    return StatCurve(grid=[float(t) for t in grid], mean=means, variance=variances,
                     ci_halfwidth=halfwidths, label=label)


def mc_series(
    sol: SeriesSolution,
    grid: Sequence[float],
    cfg: McConfig,
) -> StatCurve:
    """Sample the random symbols and evaluate the order-N truncated series per draw.

    The paper's random differential transform method: evaluating commutes
    with the ring operations, so each chunk's X_0 .. X_N are `coeff_recursion`
    run on its draws' rows of `spec.inputs(N - 2)`, the inputs (and generator
    check) of `compute_coeffs`.  A constant input enters as a number, which
    gives the bits of a row of it.  Only `sol.spec` and `sol.order` are read,
    not `sol.X`.  Horner's rule in tau = t - t0, in place on one (grid, count)
    array, forms the partial sums: tau^N alone may leave the float range where
    the sum does not.
    """
    import numpy as np
    spec, order = sol.spec, sol.order
    _warn_outside_radius(grid, spec.t0, spec.radius)
    taus = np.array([float(t) - float(spec.t0) for t in grid])[:, None]
    terms = spec.inputs(order - 2, f"order {order}")
    inputs = [p for _, _, p in terms] + [spec.y0, spec.y1]
    consts = [p.terms.get(0, 0) / p.den if p.terms.keys() <= {0} else None for p in inputs]
    plan = _EvalPlan([p for p, c in zip(inputs, consts) if c is None])
    blocks = spec.model.leading_blocks(sid for sid, _ in plan.powers)

    def coeffs(start: int, count: int) -> list:
        rows = iter(plan(_sample_matrix(spec.model, cfg.seed, start, count, blocks)))
        *data, y0, y1 = [next(rows) if c is None else c for c in consts]
        return coeff_recursion([(s, k, f) for (s, k, _), f in zip(terms, data)],
                               y0, y1, order, np.zeros(count))

    def worker(start: int, count: int):
        paths = np.zeros((len(taus), count))
        for c in reversed(coeffs(start, count)):  # Horner, in place
            paths *= taus
            paths += c
        return paths

    return _aggregate(grid, _run_chunks(cfg.samples, worker), label=f"mc-series[{cfg.samples}]")


def _steps_for(delta: float, h: float) -> int:
    exact = delta / h
    n = max(1, round(exact))
    if abs(exact - n) > 1e-9 * max(1.0, abs(exact)):
        warnings.warn(
            f"step {h:g} does not divide grid spacing {delta:g};"
            f" using {n} steps of {delta / n:g}"
        )
    return n


def _repeats(values: np.ndarray) -> bool:
    """Whether a 1-d array holds some value twice: among its first 64 entries, which
    settles most arrays that do, else anywhere, by one sort of the whole array."""
    import numpy as np
    return any((s[1:] == s[:-1]).any() for s in (np.sort(values[:64]), np.sort(values)))


def _rk4(slope, state, h, start, mid, end):
    """One classical RK4 step of size h from `state`.

    `slope(at, state)` is the time derivative of a state, with `at` the
    inputs at the step's start, mid or end; h broadcasts against `state`.
    """
    k1 = slope(start, state)
    k2 = slope(mid, state + (h / 2) * k1)
    k3 = slope(mid, state + (h / 2) * k2)
    k4 = slope(end, state + h * k3)
    return state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _compose(maps: np.ndarray) -> np.ndarray:
    """The [P | Q] of S -> P S + Q that applies in turn each [P_i | Q_i] of a
    (steps, 2, 2 + columns) stack.  Pairs fold level by level, one batched
    matmul per level, as (P2, Q2) o (P1, Q1) = (P2 P1, P2 Q1 + Q2); an odd
    tail is carried up.  The tree, so the bits, depend only on the step count."""
    import numpy as np
    while len(maps) > 1:
        pairs = len(maps) & ~1
        folded = maps[1:pairs:2, :, :2] @ maps[0:pairs:2]
        folded[:, :, 2:] += maps[1:pairs:2, :, 2:]
        maps = np.concatenate([folded, maps[pairs:]]) if pairs < len(maps) else folded
    return maps[0]


def mc_rk4(
    spec: ProblemSpec,
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
    forms is integrated bit for bit as per draw.  Otherwise the chunk's paths
    are in group order, each group's basis times its draws' C/Y0/Y1 rows
    written into its own slice, and the single draws, in draw order, last.

    Both paths go through one `walk` over the steps in pieces counted from
    t0, and evaluate the inputs one way: per piece, the weights series *
    tau^exps at every step's start, midpoint and end, whose product with
    plan rows gives a, b and c there, and one slope (x', c - b x - a x').
    The walk cuts the pieces at the grid points, where it records x.  For
    single draws (pieces of STEP_BLOCK) a step is one `_rk4` step on their
    stacked (x, x') rows, with row i of the weights at step i.  Within a
    group a(tau) and b(tau) are scalars, so an RK4 step is one affine map
    S -> P_i S + Q_i of its (2, n_basis) state of x and x'; [P_i | Q_i] is
    one `_rk4` step of 2 + n_basis map draws with its A/B rows: two start at
    I unforced, each other at rest, forced by one unit C term (the Y0 and Y1
    columns of Q_i stay at rest).  A group builds a piece's maps at once and
    applies each cut's as one (`_compose`), so its pieces (STEP_WINDOW) and
    the grid, not STEP_BLOCK or threads, fix its bits.  Its basis paths
    depend only on its A/B values, so they are memoized on those values'
    bytes for this call: chunks that meet the same group integrate it once,
    and the output does not depend on which chunk, or thread, gets there first.
    """
    import numpy as np
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
    # Per grid point, the leg to it from the point before (t0 for the
    # first): its start time, step count and step size.
    leg_t = [t0] + ts[:-1]
    deltas = [t - t_start for t_start, t in zip(leg_t, ts)]
    leg_n = [_steps_for(d, cfg.rk4_step) if d > 1e-14 else 0 for d in deltas]
    leg_h = np.array([d / n if n else 0.0 for d, n in zip(deltas, leg_n)])
    ends = list(accumulate(leg_n))  # steps taken at each grid point
    total = ends[-1] if ends else 0
    check_steps(total)
    leg_t, leg_end = np.array(leg_t), np.array(ends, dtype=np.int64)
    leg_first = leg_end - leg_n

    def walk(state: np.ndarray, advance, size: int) -> np.ndarray:
        """The (grid, columns) x rows of the (x, x') `state` at t0 carried over the steps.

        Per piece of `size` steps, `advance(h, weights)` takes the step sizes and
        the input weights at each step's start, midpoint and end, (3, steps, terms)
        arrays whose product with plan rows gives a, b and c there; it gives
        `carry(state, i, j)`, which carries a state over steps i..j-1 of the piece."""
        paths, at = np.empty((len(ts), state.shape[1])), 0
        for g, end in enumerate(ends):
            while at < end:  # up to the grid point or the piece's end
                lo = at - at % size
                if at == lo:
                    step = np.arange(lo, min(lo + size, total))
                    leg = np.searchsorted(leg_end, step, side="right")
                    h = leg_h[leg]
                    tau = leg_t[leg] + (step - leg_first[leg]) * h - t0
                    carry = advance(h, [series[:, None, :] * t[:, None] ** exps
                                        for t in (tau, tau + h / 2, tau + h)])
                stop = min(end, lo + size)
                state, at = carry(state, at - lo, stop - lo), stop
            paths[g] = state[0]
        return paths

    # Plan rows: each stored A_n, B_n, C_n with n <= input_truncation, then Y0 and Y1.
    # series[s, j] = 1 marks row j as a term of a, b or c (s = 0, 1, 2), of index exps[j].
    # The a and b rows come first: rows[:n_ab] fix a draw's basis, and the
    # path is linear in the n_basis rows after them.
    terms = spec.inputs(cfg.input_truncation, f"input truncation {cfg.input_truncation}")
    plan = _EvalPlan([p for _, _, p in terms] + [spec.y0, spec.y1])
    series = np.array([[s == k for s, _, _ in terms] for k in range(3)], dtype=float)
    exps = np.array([n for _, n, _ in terms])
    n_ab = sum(s < 2 for s, _, _ in terms)
    n_basis = plan.rows - n_ab
    blocks = spec.model.leading_blocks(sid for sid, _ in plan.powers)

    def slope(at, state: np.ndarray) -> np.ndarray:
        """(x', c - b x - a x') at the states (x, x'), with (a, b, c) = `at`."""
        a, b, c = at
        out = np.empty_like(state)
        out[0] = state[1]
        np.subtract(c, b * state[0], out=out[1])
        out[1] -= a * state[1]
        return out

    def integrate(rows: np.ndarray) -> np.ndarray:
        """The (grid, columns) paths of a C-contiguous plan-row matrix, step by step."""
        coeffs = rows[:-2]

        def advance(h, weights):
            h = h.tolist()
            def carry(state, i, j):
                for k in range(i, j):
                    state = _rk4(slope, state, h[k], *(w[:, k] @ coeffs for w in weights))
                return state
            return carry

        return walk(rows[-2:], advance, STEP_BLOCK)  # (x, x') at t0: Y0 and Y1

    # The C rows of a group's map draws: draw 2 + j is forced by C term j alone.
    unit_c = np.eye(n_basis - 2, 2 + n_basis, 2)

    def group_paths(ab: np.ndarray) -> np.ndarray:
        """The (grid, n_basis) basis paths of a group with A/B plan rows `ab`."""
        coeffs = np.vstack([np.repeat(ab[:, None], 2 + n_basis, axis=1), unit_c])

        def advance(h, weights):
            start = np.broadcast_to(np.eye(2, 2 + n_basis)[:, None], (2, len(h), 2 + n_basis))
            maps = _rk4(slope, start, h[:, None], *(w @ coeffs for w in weights))
            maps = maps.transpose(1, 0, 2)  # per step, [P_i | Q_i]
            def carry(state, i, j):
                segment = _compose(maps[i:j])
                return segment[:, :2] @ state + segment[:, 2:]
            return carry

        return walk(np.eye(2, n_basis, n_basis - 2), advance, STEP_WINDOW)  # C at rest; Y0, Y1 at I

    # A group's basis paths, keyed on its A/B values; two threads that both
    # miss build the same bits, so the race is harmless.
    memo: dict[bytes, np.ndarray] = {}

    def worker(start: int, count: int):
        rows = plan(_sample_matrix(spec.model, cfg.seed, start, count, blocks))
        # Draws with equal A/B bits are one group, in draw order (lexsort is
        # stable); without A/B terms every draw is in one group.  An A/B row
        # that repeats none of its values leaves every draw alone, unsorted.
        bits = rows[:n_ab].view(np.uint64)
        if not all(map(_repeats, bits)):
            return integrate(rows)
        order = np.lexsort(bits) if n_ab else np.arange(count)
        ordered = np.take(bits, order, axis=1)
        cuts = np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [count])))
        big = sizes > n_basis
        if not big.any():
            return integrate(rows)
        grouped = np.repeat(big, sizes)
        members, single = order[grouped], np.sort(order[~grouped])
        data = np.take(rows[n_ab:], members, axis=1)
        paths = np.empty((len(ts), count))
        for lo, hi in pairwise(accumulate(sizes[big], initial=0)):
            ab = rows[:n_ab, members[lo]]
            key = ab.tobytes()
            basis = memo.get(key)
            if basis is None:
                basis = memo[key] = group_paths(ab)
            if np.isfinite(basis).all():
                np.matmul(basis, data[:, lo:hi], out=paths[:, lo:hi])
            else:  # inf * 0 would make nan of a draw whose data are zero
                paths[:, lo:hi] = integrate(np.take(rows, members[lo:hi], axis=1))
        if len(single):
            paths[:, len(members):] = integrate(np.take(rows, single, axis=1))
        return paths

    return _aggregate(grid, _run_chunks(cfg.samples, worker), label=f"mc-rk4[{cfg.samples}]")


# ---------------------------------------------------------------------------
# curve comparison


class PointComparison(Record, frozen=True):
    t: float
    mean_delta: float
    mean_sigmas: float | None  # |delta| in combined-CI standard errors
    outside_ci: bool | None


class ComparisonReport(Record):
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


def _deviations(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """The largest absolute and relative deviation between x and y, 0.0 for none; a
    relative one is skipped where both values are 0."""
    pairs = [(abs(u - v), max(abs(u), abs(v))) for u, v in zip(x, y)]
    return max([0.0, *(d for d, _ in pairs)]), max([0.0, *(d / m for d, m in pairs if m > 0)])


def compare_curves(a: StatCurve, b: StatCurve) -> ComparisonReport:
    """Deviation report between two curves on the same grid.

    CI flagging uses the mean's combined standard error from whichever
    curves carry half-widths; exact curves contribute zero width.
    """
    if len(a.grid) != len(b.grid):
        raise GridMismatchError(
            f"curves have different grids ({len(a.grid)} vs {len(b.grid)} points)"
        )
    for i, (u, v) in enumerate(zip(a.grid, b.grid)):
        if u != v:
            raise GridMismatchError(f"curves have different grids (point {i}: t={u} vs t={v})")
    has_ci = a.ci_halfwidth is not None or b.ci_halfwidth is not None
    points = []
    for i, t in enumerate(a.grid):
        dmean = a.mean[i] - b.mean[i]
        sigmas = None
        outside = None
        if has_ci:
            hw_a = a.ci_halfwidth[i] if a.ci_halfwidth is not None else 0.0
            hw_b = b.ci_halfwidth[i] if b.ci_halfwidth is not None else 0.0
            se = math.hypot(hw_a, hw_b) / CI_MULTIPLIER
            if se > 0:
                sigmas = abs(dmean) / se
            else:
                sigmas = 0.0 if dmean == 0 else math.inf
            outside = sigmas > CI_MULTIPLIER
        points.append(PointComparison(t, dmean, sigmas, outside))
    return ComparisonReport(points, *_deviations(a.mean, b.mean),
                            *_deviations(a.variance, b.variance), has_ci, (a.label, b.label))
