"""Distributions, dependence blocks, and the exact moment oracle.

All probabilistic structure lives here.  A `RandomModel` partitions the
symbols of a `SymbolTable` into mutually independent dependence blocks;
within a block the joint distribution may couple its symbols (the
multinomial vector being the canonical example).  `Distribution.joint_moment`
checks its exponents and computes a block's moment in closed form or by
exhaustive enumeration of a finite support, always as an exact `Fraction`:
distribution parameters are coerced to rationals on construction, so the
expectation of any polynomial in the symbols is an exact rational.
`RandomModel.expect_monomial` caches those block moments and multiplies them.

`RandomModel.second_moments` is the one exact E[P_n P_m] kernel, behind
the moment matrix of `stats` and the mean-square norms (`poly_l2_norm`) of
`check` and `majorant`.  It works over the *distinct* monomials u, v of all
P_n, far fewer than their term pairs, reading each P_n as `Poly` stores it:
integer numerators a_{n,u} over one denominator D_n, keyed by packed
monomial keys k_u (see `poly`):

1. `expect_monomial` runs once per distinct product key k_u + k_v, and
   those moments become integers e over one common denominator D;
2. with w_m[u] = sum_{v in P_m} e[k_u + k_v] a_{m,v}, the entry is
   E[P_n P_m] = (sum_{u in P_n} a_{n,u} w_m[u]) / (D_n D_m D),
   so the inner loops are pure integer arithmetic.  The Gram row
   e[k_u + k_v] over all v is formed once per u and fills w_m[u] for every
   m, so only one row is held at a time.

Sampling draws a whole batch of realizations from a caller-supplied
`numpy.random.Generator`: one vectorized call per block, in declaration
order, so a fixed seed and batch size reproduce the exact draws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import DistributionError, MissingSymbolError
from .poly import Poly, SymbolTable, key_factors, to_fraction

NormValue = Union[Fraction, float]  # math.inf marks an unbounded support


class Distribution:
    """Base class; concrete kinds implement moments, norms and sampling."""

    kind = "abstract"
    arity = 1

    def raw_moment(self, k: int) -> Fraction:
        """Exact E[Z^k] for scalar kinds, checked as `joint_moment((k,))`."""
        return self.joint_moment((k,))

    def joint_moment(self, exponents: Sequence[int]) -> Fraction:
        """Exact E[prod Z_i^{e_i}], one nonnegative exponent per component."""
        if len(exponents) != self.arity:
            raise DistributionError(
                f"expected {self.arity} exponent(s) for {self.kind}, got {len(exponents)}"
            )
        if min(exponents) < 0:
            raise DistributionError("moment order must be nonnegative")
        return self._moment(exponents)

    def _moment(self, exponents: Sequence[int]) -> Fraction:
        """`joint_moment` after its checks; a scalar kind has one exponent."""
        return self._raw_moment(exponents[0])

    def linfty(self) -> NormValue:
        """Essential supremum of |Z| (math.inf when the support is unbounded)."""
        raise NotImplementedError

    def component_linfty(self, index: int) -> NormValue:
        """Essential supremum of |Z_index|; a scalar kind has one component."""
        return self.linfty()

    def sample(self, stream, size: int) -> np.ndarray:
        """`size` independent draws: shape (size,), or (size, arity) for vector kinds."""
        raise NotImplementedError


def _check_probability(p: Fraction, what: str) -> Fraction:
    if p < 0 or p > 1:
        raise DistributionError(f"{what} must lie in [0, 1], got {p}")
    return p


def _check_positive(v: Fraction, what: str) -> Fraction:
    if v <= 0:
        raise DistributionError(f"{what} must be positive, got {v}")
    return v


def _check_count(value, what: str) -> int:
    count = to_fraction(value)
    if count.denominator != 1 or count < 0:
        raise DistributionError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(count)


def _normalize_probs(probs: Sequence, what: str) -> tuple[Fraction, ...]:
    ps = tuple(_check_probability(to_fraction(p), what) for p in probs)
    if not ps:
        raise DistributionError(f"{what}: need at least one probability")
    total = sum(ps)
    if abs(total - 1) > Fraction(1, 10**9):
        raise DistributionError(f"{what} must sum to 1, got {float(total):g}")
    if total != 1:
        ps = tuple(p / total for p in ps)  # exact renormalization of float dust
    return ps


@dataclass(frozen=True)
class PointMass(Distribution):
    value: Fraction

    kind = "pointmass"

    def __post_init__(self):
        object.__setattr__(self, "value", to_fraction(self.value))

    def _raw_moment(self, k: int) -> Fraction:
        return Fraction(1) if k == 0 else self.value**k

    def linfty(self) -> Fraction:
        return abs(self.value)

    def sample(self, stream, size: int) -> np.ndarray:
        return np.full(size, float(self.value))


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p: Fraction

    kind = "bernoulli"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_probability(to_fraction(self.p), "p"))
        object.__setattr__(self, "_p_float", float(self.p))

    def _raw_moment(self, k: int) -> Fraction:
        # 0/1 support: Z^k = Z for k >= 1.
        return Fraction(1) if k == 0 else self.p

    def linfty(self) -> Fraction:
        return Fraction(1) if self.p > 0 else Fraction(0)

    def sample(self, stream, size: int) -> np.ndarray:
        return (stream.random(size) < self._p_float).astype(float)


@dataclass(frozen=True)
class Binomial(Distribution):
    n: int
    p: Fraction

    kind = "binomial"

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "binomial n"))
        object.__setattr__(self, "p", _check_probability(to_fraction(self.p), "p"))

    def _raw_moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        q = 1 - self.p
        total = Fraction(0)
        for i in range(self.n + 1):
            total += math.comb(self.n, i) * self.p**i * q ** (self.n - i) * i**k
        return total

    def linfty(self) -> Fraction:
        return Fraction(self.n) if self.p > 0 else Fraction(0)

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.binomial(self.n, float(self.p), size).astype(float)


@dataclass(frozen=True)
class Beta(Distribution):
    alpha: Fraction
    beta: Fraction

    kind = "beta"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_positive(to_fraction(self.alpha), "alpha"))
        object.__setattr__(self, "beta", _check_positive(to_fraction(self.beta), "beta"))

    def _raw_moment(self, k: int) -> Fraction:
        # E[Z^k] = prod_{j<k} (alpha+j)/(alpha+beta+j)
        total = Fraction(1)
        for j in range(k):
            total *= (self.alpha + j) / (self.alpha + self.beta + j)
        return total

    def linfty(self) -> Fraction:
        return Fraction(1)

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.beta(float(self.alpha), float(self.beta), size)


@dataclass(frozen=True)
class Gamma(Distribution):
    shape: Fraction
    rate: Fraction  # shape-rate parametrization: mean = shape / rate

    kind = "gamma"

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_positive(to_fraction(self.shape), "shape"))
        object.__setattr__(self, "rate", _check_positive(to_fraction(self.rate), "rate"))

    def _raw_moment(self, k: int) -> Fraction:
        # E[Z^k] = prod_{j<k} (shape+j)/rate
        total = Fraction(1)
        for j in range(k):
            total *= (self.shape + j) / self.rate
        return total

    def linfty(self) -> float:
        return math.inf

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.gamma(float(self.shape), float(1 / self.rate), size)


@dataclass(frozen=True)
class Uniform(Distribution):
    a: Fraction
    b: Fraction

    kind = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "a", to_fraction(self.a))
        object.__setattr__(self, "b", to_fraction(self.b))
        if not self.a < self.b:
            raise DistributionError(f"uniform needs a < b, got [{self.a}, {self.b}]")

    def _raw_moment(self, k: int) -> Fraction:
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))

    def linfty(self) -> Fraction:
        return max(abs(self.a), abs(self.b))

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.uniform(float(self.a), float(self.b), size)


@dataclass(frozen=True)
class FiniteDiscrete(Distribution):
    support: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    kind = "finite_discrete"

    def __post_init__(self):
        support = tuple(to_fraction(x) for x in self.support)
        probs = _normalize_probs(self.probs, "finite_discrete probabilities")
        if len(support) != len(probs):
            raise DistributionError("support and probabilities differ in length")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        # cumulative probabilities, summed exactly and rounded once
        object.__setattr__(self, "_cum_floats", np.array([float(c) for c in accumulate(probs)]))
        object.__setattr__(self, "_support_floats", np.array([float(x) for x in support]))

    def _raw_moment(self, k: int) -> Fraction:
        return sum((p * x**k for x, p in zip(self.support, self.probs)), Fraction(0))

    def linfty(self) -> Fraction:
        points = [abs(x) for x, p in zip(self.support, self.probs) if p > 0]
        return max(points, default=Fraction(0))

    def sample(self, stream, size: int) -> np.ndarray:
        # first point whose cumulative probability exceeds u
        idx = np.searchsorted(self._cum_floats, stream.random(size), side="right")
        return self._support_floats[np.minimum(idx, len(self.support) - 1)]


@dataclass(frozen=True)
class MultinomialVector(Distribution):
    trials: int
    probs: tuple[Fraction, ...]

    kind = "multinomial"

    def __post_init__(self):
        object.__setattr__(self, "trials", _check_count(self.trials, "multinomial trials"))
        probs = _normalize_probs(self.probs, "multinomial probabilities")
        object.__setattr__(self, "probs", probs)
        # conditional success probabilities of the sequential decomposition
        cond = []
        mass = Fraction(1)
        for p in probs[:-1]:
            cond.append(min(1.0, float(p / mass)) if mass > 0 else 0.0)
            mass -= p
        object.__setattr__(self, "_cond_floats", tuple(cond))

    @property
    def arity(self) -> int:
        return len(self.probs)

    def support(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """All count vectors summing to `trials`, with exact pmf weights."""
        for counts in _compositions(self.trials, self.arity):
            pmf = Fraction(math.factorial(self.trials))
            for c, p in zip(counts, self.probs):
                pmf = pmf / math.factorial(c) * p**c
            yield counts, pmf

    def _moment(self, exponents: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for counts, pmf in self.support():
            value = Fraction(1)
            for c, e in zip(counts, exponents):
                if e:
                    value *= c**e
            total += pmf * value
        return total

    def linfty(self) -> Fraction:
        return Fraction(self.trials)

    def component_linfty(self, index: int) -> Fraction:
        return Fraction(self.trials) if self.probs[index] > 0 else Fraction(0)

    def sample(self, stream, size: int) -> np.ndarray:
        # Sequential binomial decomposition: condition each category count on
        # the trials not yet assigned to earlier categories.
        counts = np.empty((size, self.arity))
        remaining = np.full(size, self.trials, dtype=np.int64)
        for j, cond in enumerate(self._cond_floats):
            c = stream.binomial(remaining, cond)
            counts[:, j] = c
            remaining -= c
        counts[:, -1] = remaining
        return counts


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head,) + tail


_DISTRIBUTIONS = {
    cls.kind: cls
    for cls in (PointMass, Bernoulli, Binomial, Beta, Gamma, Uniform,
                FiniteDiscrete, MultinomialVector)
}


def distribution_from_spec(kind: str, params: dict) -> Distribution:
    """Build a distribution from its problem-file form (kind name + params).

    The parameter names are the fields of the kind's class, in order.
    """
    key = str(kind).lower()
    cls = _DISTRIBUTIONS.get(key)
    if cls is None:
        known = ", ".join(sorted(_DISTRIBUTIONS))
        raise DistributionError(f"unknown distribution kind {kind!r} (known: {known})")
    wanted = [f.name for f in fields(cls)]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise DistributionError(f"{key}: missing parameter(s) {missing}")
    if extra:
        raise DistributionError(f"{key}: unknown parameter(s) {extra}")
    try:
        return cls(**params)
    except TypeError as exc:  # a bool or non-numeric parameter
        raise DistributionError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class DependenceBlock:
    """An ordered group of symbols with a declared joint distribution."""

    symbols: tuple[int, ...]
    dist: Distribution

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) != self.dist.arity:
            raise DistributionError(
                f"block of {len(self.symbols)} symbol(s) does not match "
                f"{self.dist.kind} arity {self.dist.arity}"
            )


class RandomModel:
    """Partition of all symbols into mutually independent dependence blocks.

    Joint moments are memoized per (block, exponent pattern); the cache is
    filled during read-only queries and never changes results.
    """

    def __init__(self, table: SymbolTable, blocks: Sequence[DependenceBlock]):
        self.table = table
        self.blocks = list(blocks)
        if not self.blocks:
            raise DistributionError("a random model needs at least one block")
        owner: dict[int, tuple[int, int]] = {}
        for bidx, block in enumerate(self.blocks):
            for pos, sid in enumerate(block.symbols):
                if sid in owner:
                    raise DistributionError(
                        f"symbol {table.name_of(sid)!r} owned by two blocks"
                    )
                if not 0 <= sid < len(table):
                    raise MissingSymbolError(f"block references unknown symbol id {sid}")
                owner[sid] = (bidx, pos)
        missing = [table.name_of(s) for s in range(len(table)) if s not in owner]
        if missing:
            raise DistributionError(f"symbols missing from every block: {missing}")
        self._owner = owner
        self._moment_cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._monomial_cache: dict[int, Fraction] = {}  # by monomial key

    @property
    def n_symbols(self) -> int:
        return len(self.table)

    def expect_monomial(self, key: int) -> Fraction:
        """E[prod sym^e] of a monomial key: factorizes across blocks, joint within one."""
        cached = self._monomial_cache.get(key)
        if cached is not None:
            return cached
        per_block: dict[int, list[int]] = {}
        for sid, e in key_factors(key):
            info = self._owner.get(sid)
            if info is None:
                raise MissingSymbolError(
                    f"symbol id {sid} does not belong to this model"
                )
            bidx, pos = info
            exps = per_block.setdefault(bidx, [0] * len(self.blocks[bidx].symbols))
            exps[pos] = e
        total = Fraction(1)
        for bidx, exps in per_block.items():
            block_key = (bidx, tuple(exps))
            moment = self._moment_cache.get(block_key)
            if moment is None:
                moment = self._moment_cache[block_key] = self.blocks[bidx].dist.joint_moment(exps)
            total *= moment
        self._monomial_cache[key] = total
        return total

    def expect_poly(self, p: Poly) -> Fraction:
        """Exact E[P] by linearity over terms."""
        return sum((n * self.expect_monomial(k) for k, n in p.terms.items()), Fraction(0)) / p.den

    def symbol_linfty(self, sid: int) -> NormValue:
        bidx, pos = self._owner[sid]
        return self.blocks[bidx].dist.component_linfty(pos)

    def poly_linfty_bound(self, p: Poly) -> NormValue:
        """Triangle-inequality upper bound on ess sup |P|.

        Exact for constants and single bounded symbols scaled by rationals;
        an upper bound in general.  math.inf when an unbounded symbol
        appears.
        """
        total = Fraction(0)
        for key, num in p.terms.items():
            factor = abs(num)
            for sid, e in key_factors(key):
                norm = self.symbol_linfty(sid)
                if norm == math.inf:
                    return math.inf
                factor *= norm**e
            total += factor
        return total / p.den

    def second_moments(self, polys: Sequence[Poly]) -> list[list[Fraction]]:
        """Exact E[P_n P_m] for all n, m by the packed-key kernel (module docstring)."""
        # Distinct monomial keys in order of first appearance, so those of
        # P_0..P_m are a prefix of `keys`.
        keys = list(dict.fromkeys(key for x in polys for key in x.terms))

        products = dict.fromkeys(ku + kv for i, ku in enumerate(keys) for kv in keys[i:])
        moments = {k: self.expect_monomial(k) for k in products}
        den = math.lcm(*(f.denominator for f in moments.values()))
        scaled = {k: f.numerator * (den // f.denominator) for k, f in moments.items()}

        index = {key: i for i, key in enumerate(keys)}
        cols = [[index[key] for key in x.terms] for x in polys]
        nums = [x.terms.values() for x in polys]

        n_tot = len(polys)
        # the monomials of P_0..P_m are keys[:live[m]]
        live = list(accumulate((max(c, default=-1) + 1 for c in cols), max))
        w = [[] for _ in range(n_tot)]  # w[m] = w_m of the module docstring
        for u, ku in enumerate(keys):
            row = [scaled[ku + kv] for kv in keys]
            for m in range(bisect_right(live, u), n_tot):
                w[m].append(sum(map(mul, map(row.__getitem__, cols[m]), nums[m])))

        second = [[Fraction(0)] * n_tot for _ in range(n_tot)]
        for m in range(n_tot):
            for n in range(m + 1):
                total = sum(map(mul, map(w[m].__getitem__, cols[n]), nums[n]))
                second[n][m] = second[m][n] = Fraction(total, polys[n].den * polys[m].den * den)
        return second

    def poly_l2_norm(self, p: Poly) -> float:
        """sqrt(E[P^2]) through `second_moments`, without forming P^2."""
        return math.sqrt(float(self.second_moments([p])[0][0]))

    def draw(self, stream, count: int) -> np.ndarray:
        """`count` joint draws of every block as a (count, n_symbols) matrix.

        Each block draws all `count` values in one call, blocks in
        declaration order.  The matrix is column-major, so each symbol's
        draws are contiguous.
        """
        values = np.empty((count, self.n_symbols), order="F")
        for block in self.blocks:
            values[:, list(block.symbols)] = block.dist.sample(stream, count).reshape(count, -1)
        return values
