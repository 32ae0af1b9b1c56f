"""Exact mean/variance curves, the dominating majorant sequence, and bounds.

The mean and variance of the truncated solution X^N(t) = sum X_n (t-t0)^n
are exact linear algebra over the first and second moments of the
coefficients:

    E[X^N(t)]  = sum_n E[X_n] tau^n
    E[(X^N)^2] = sum_{n,m} E[X_n X_m] tau^{n+m},      tau = t - t0.

`moment_matrix` computes those moments once per solve (they are exact
rationals): the means by `RandomModel.expect_poly`, the second moments by
`RandomModel.second_moments`, the one exact kernel that `check` and
`majorant` also use for their mean-square norms.  That kernel expands the
X_n in exact polynomial chaos coordinates per dependence block, so each
E[X_n X_m] is a diagonal sum over orthogonal labels, with no moment
computed per product monomial (see `randmodel`).  Each `MomentMatrix`
groups E[X_n X_m] by the power n + m once (`power_sums`), summing each
diagonal n + m = k in integers over its own lcm, and keeps the means and
the power sums each as integer numerators over one denominator.
`exact_stats` evaluates both sums at tau = p/q by the ring-generic
`_horner` in the integers, sum_k C_k q^(K-k) p^k over D q^K, and
normalizes the mean and the variance once each; `stat_curves` is
`exact_stats` at each grid point, emitted as floats.

`_pairwise_expect` multiplies term pairs one by one; it is the reference the
kernel is tested against, selected per pair by `moment_matrix`'s
`pair_threshold`.

`majorant_sequence` builds the deterministic sequence H_n that dominates
the mean-square norms ||X_n||: with D_s a sup/mean-square bound constant
for the input coefficients at scale s, it satisfies

    H_0 = ||Y0||,  H_1 = ||Y1||,  H_2 = (D_s/2) (H_1 + H_0 + 1),
    H_{n+2} = (n/((n+2) s) + D_s/(n+2)) H_{n+1}
              + D_s/((n+2)(n+1)) H_n,            n >= 1,

and sum_{n>N} H_n |tau|^n estimates the truncation error of the order-N
partial sum.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul

from .frobenius import MAX_ORDER, ProblemSpec, Radius, SeriesSolution, bounded_sup_norms
from .poly import Poly, to_fraction
from .randmodel import RandomModel
from .record import Record


class MomentMatrix(Record):
    """First and second moments of the series coefficients, exact rationals."""

    means: list[Fraction]
    second: list[list[Fraction]]  # symmetric (N+1) x (N+1)
    order: int

    @cached_property
    def power_sums(self) -> list[Fraction]:
        """Coefficients of E[X^N(t)^2] in tau: E[X_n X_m] summed over n + m = k."""
        nums, den = self._integer_power_sums
        return [Fraction(c, den) for c in nums]

    @cached_property
    def _integer_means(self) -> tuple[list[int], int]:
        """`means` as integer numerators over their one lcm."""
        den = math.lcm(*(f.denominator for f in self.means))
        return [f.numerator * (den // f.denominator) for f in self.means], den

    @cached_property
    def _integer_power_sums(self) -> tuple[list[int], int]:
        """`power_sums` as integer numerators over one lcm: each diagonal n + m = k is summed
        in integers over its own lcm, each pair n < m once doubled, then the sums are scaled."""
        diagonals = [[] for _ in range(2 * self.order + 1)]
        for n, row in enumerate(self.second):
            for m, entry in enumerate(row[n:], n):
                if entry:
                    diagonals[n + m].append((entry.numerator * (2 if m > n else 1),
                                             entry.denominator))
        dens = [math.lcm(*(q for _, q in diag)) for diag in diagonals]
        sums = [sum(p * (d // q) for p, q in diag) for diag, d in zip(diagonals, dens)]
        den = math.lcm(*dens)
        return [c * (den // d) for c, d in zip(sums, dens)], den


class StatCurve(Record):
    """Mean/variance values on a time grid; MC curves add CI half-widths."""

    grid: list[float]
    mean: list[float]
    variance: list[float]
    ci_halfwidth: list[float] | None = None
    label: str = ""

    def __post_init__(self):
        n = len(self.grid)
        if len(self.mean) != n or len(self.variance) != n:
            raise ValueError("grid, mean and variance must have equal lengths")
        if self.ci_halfwidth is not None and len(self.ci_halfwidth) != n:
            raise ValueError("ci_halfwidth length must match the grid")
        for name in ("grid", "mean", "variance", "ci_halfwidth"):
            if not all(map(math.isfinite, getattr(self, name) or [])):
                raise ValueError(f"{name} holds a non-finite value")
        for t, v in zip(self.grid, self.variance):
            if v < 0:  # no route builds one, but a hand-built curve or a curve file can
                raise ValueError(f"variance {float(v):g} at t={float(t):g} is negative")


class MajorantSeq(Record):
    """Dominating sequence for the coefficient mean-square norms."""

    s: float
    d_s: float
    h: list[float]
    input_max_index: int  # highest input-series index the bound constant saw


def _pairwise_expect(model: RandomModel, p: Poly, q: Poly) -> Fraction:
    """Reference E[P Q], one oracle call and Fraction product per term pair."""
    total = Fraction(0)
    for k1, n1 in p.terms.items():
        for k2, n2 in q.terms.items():
            total += Fraction(n1, p.den) * Fraction(n2, q.den) * model.expect_monomial(k1 + k2)
    return total


def moment_matrix(
    sol: SeriesSolution,
    model: RandomModel,
    pair_threshold: int | None = None,
) -> MomentMatrix:
    """Exact E[X_n] and E[X_n X_m] for all coefficient pairs.

    Every entry comes from the chaos-coordinate kernel
    `RandomModel.second_moments`, except that with a
    `pair_threshold` the pairs (X_n, X_m) of more than that many term pairs
    are recomputed by the pair-by-pair reference `_pairwise_expect`;
    `pair_threshold=0` sends every nonzero pair through the reference.
    """
    coeffs = sol.X
    means = [model.expect_poly(x) for x in coeffs]
    second = model.second_moments(coeffs)
    if pair_threshold is not None:
        for n, p in enumerate(coeffs):
            for m in range(n, len(coeffs)):
                q = coeffs[m]
                if len(p.terms) * len(q.terms) > pair_threshold:
                    second[n][m] = second[m][n] = _pairwise_expect(model, p, q)
    return MomentMatrix(means=means, second=second, order=sol.order)


def stat_curves(
    mm: MomentMatrix,
    grid,
    t0,
    radius: Radius = math.inf,
    label: str = "series",
) -> StatCurve:
    """Mean and variance of the truncated solution on a grid, as doubles.

    Each point is `exact_stats` at the grid value's exact binary/decimal
    value; points with |t - t0| >= radius (compared exactly) warn.
    """
    _warn_outside_radius(grid, t0, radius)
    stats = [exact_stats(mm, t, t0) for t in grid]
    return StatCurve(grid=[float(t) for t in grid], mean=[float(mean) for mean, _ in stats],
                     variance=[float(var) for _, var in stats], label=label)


def _warn_outside_radius(grid, t0, radius) -> None:
    """Warn, at the caller of `stat_curves`/`mc_series`, of each |t - t0| >= radius."""
    t0 = to_fraction(t0)
    for t in grid:
        if abs(to_fraction(t) - t0) >= radius:
            warnings.warn(f"grid point t={float(t):g} lies outside the declared radius",
                          stacklevel=3)


def _horner(coeffs, tau):
    """sum_n coeffs[n] tau^n in the ring of the coefficients and tau."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * tau + c
    return acc


def exact_stats(mm: MomentMatrix, t, t0) -> tuple[Fraction, Fraction]:
    """Mean and variance at a single time, as exact rationals.

    With tau = p/q and coefficients C_k/D, sum_k (C_k/D) tau^k is
    sum_k C_k q^(K-k) p^k / (D q^K): `_horner` in the integers, normalized once.
    """
    tau = to_fraction(t) - to_fraction(t0)
    p, q = tau.numerator, tau.denominator
    (means, m_den), (sums, s_den) = mm._integer_means, mm._integer_power_sums
    n = mm.order
    q_pows = list(accumulate(repeat(q, 2 * n), mul, initial=1))  # q^0 .. q^2N
    mean = _horner(list(map(mul, means, q_pows[n::-1])), p)  # over m_den q^N
    square = _horner(list(map(mul, sums, q_pows[::-1])), p)  # E[X^N(t)^2] over s_den q^2N
    return (Fraction(mean, m_den * q_pows[n]),
            Fraction(square * m_den**2 - mean**2 * s_den, s_den * m_den**2 * q_pows[2 * n]))


def majorant_sequence(spec: ProblemSpec, s, order: int) -> MajorantSeq:
    """Build H_0..H_order dominating the coefficient mean-square norms.

    The bound constant D_s is the max of ||A_n||_sup s^n, ||B_n||_sup s^n and
    ||C_n||_ms s^n over the explicitly available input terms, so the
    domination is exact for the (truncated-input) problem actually solved;
    `input_max_index` records how far the inputs reached.  A D_s or H_n
    that is not a finite float raises OverflowError.  An order over
    2 * MAX_ORDER raises ValueError: `majorant` defaults to twice the order.
    """
    s_f = float(s)
    if not 0 < s_f < float(spec.radius):
        raise ValueError(
            f"scale s must lie in (0, radius): got s={s_f:g}, radius={float(spec.radius):g}"
        )
    if order < 2:
        raise ValueError("majorant order must be >= 2")
    if order > 2 * MAX_ORDER:
        raise ValueError(f"majorant order {order} is over the limit {2 * MAX_ORDER}")

    model = spec.model
    norms = [(n, float(bound)) for _, n, bound in bounded_sup_norms(spec)]
    norms += [(n, model.poly_l2_norm(p)) for n, p in spec.c.items()]
    d_s = 0.0
    for n, norm in norms:
        try:
            d_s = max(d_s, norm * s_f**n)
        except OverflowError:  # s^n is past float range; the check below names s
            d_s = math.inf
    max_index = max((n for n, _ in norms), default=-1)

    h = [model.poly_l2_norm(spec.y0), model.poly_l2_norm(spec.y1)]
    h.append((d_s / 2) * (h[1] + h[0] + 1))
    for n in range(1, order - 1):
        nxt = (n / ((n + 2) * s_f) + d_s / (n + 2)) * h[n + 1] + (
            d_s / ((n + 2) * (n + 1))
        ) * h[n]
        h.append(nxt)
    if not all(map(math.isfinite, [d_s, *h])):
        raise OverflowError(f"the majorant at s={s_f:g} is not finite")
    return MajorantSeq(s=s_f, d_s=d_s, h=h, input_max_index=max_index)


TAIL_RATIO_THRESHOLD = 0.999


def _finite(name: str, value) -> float:
    """float(value), or ValueError naming the argument if that is NaN or +-inf."""
    if not math.isfinite(x := float(value)):
        raise ValueError(f"{name} must be a finite number, got {x}")
    return x


def tail_bound(maj: MajorantSeq, t, t0, trunc_order: int) -> float:
    """Estimate sum_{n > trunc_order} H_n |t-t0|^n.

    Sums the available majorant terms and extrapolates the rest
    geometrically from the last empirical ratio rho = H_K s^K / H_{K-1}
    s^{K-1}, rescaled to the evaluation point: the extrapolated terms form a
    geometric series with ratio q = rho |t-t0| / s.  The consecutive ratios
    decrease toward 1 from above for this recurrence, so the extrapolation
    is an upper estimate once q < 1 -- an estimate, not a certificate.
    When q has not dropped below 0.999 (the ratios have not yet stabilized
    below 1 at this evaluation point; compute more majorant terms or reduce
    s) the bound is reported as not convergent and the result is math.inf.
    A negative trunc_order or a NaN or infinite t or t0 raises ValueError.
    """
    if trunc_order < 0:
        raise ValueError(f"trunc_order must be >= 0, got {trunc_order}")
    tau = abs(_finite("t", t) - _finite("t0", t0))
    if tau >= maj.s:
        raise ValueError(
            f"t must satisfy |t - t0| < s: |{float(t):g} - {float(t0):g}| >= {maj.s:g}"
        )
    k_max = len(maj.h) - 1
    if trunc_order >= k_max:
        raise ValueError(
            f"majorant computed only to order {k_max}; need more terms beyond N={trunc_order}"
        )
    total = sum(maj.h[n] * tau**n for n in range(trunc_order + 1, k_max + 1))

    last, prev = maj.h[k_max], maj.h[k_max - 1]
    if last == 0.0 or tau == 0.0:
        return total
    if prev == 0.0 or (q := (maj.s * last / prev) * tau / maj.s) >= TAIL_RATIO_THRESHOLD:
        warnings.warn(
            f"majorant tail not convergent at s={maj.s:g} for t={float(t):g};"
            " compute more terms or reduce s",
            stacklevel=2,
        )
        return math.inf
    return total + maj.h[k_max] * tau**k_max * q / (1.0 - q)


def lipschitz_k(spec: ProblemSpec, t) -> float:
    """Upper bound on the Lipschitz function of the first-order system map.

    Writing the equation as a 2-dimensional first-order system, the system
    matrix norm is max{1, ||A(t)||_sup + ||B(t)||_sup}; the series norms are
    bounded here by the triangle inequality over the truncated inputs, so
    the returned value is an upper-bound surrogate, not the exact essential
    supremum.
    """
    tau = abs(_finite("t", t) - float(spec.t0))
    if tau >= float(spec.radius):
        raise ValueError(f"t={float(t):g} lies outside the declared radius")
    return max(1.0, sum(float(bound) * tau**n for _, n, bound in bounded_sup_norms(spec)))
