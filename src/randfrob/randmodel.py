"""Distributions, dependence blocks, and the exact moment oracle.

All probabilistic structure lives here.  A `RandomModel` partitions the
symbols of a `SymbolTable` into mutually independent dependence blocks;
within a block the joint distribution may couple its symbols (the
multinomial vector being the canonical example).  `Distribution.joint_moment`
checks its exponents and computes a block's moment in closed form, always
as an exact `Fraction`: each field of a kind declares the reader (`_param`)
that turns its parameter into a rational on construction, so the expectation
of any polynomial in the symbols is an exact rational.  The counting kinds
(Bernoulli, binomial, multinomial) share one rule through their factorial
moments, at a cost set by the exponents and not by the number of trials;
`finite_discrete` sums over its listed points.
`RandomModel` memoizes block moments per distinct distribution (same kind
and parameters, as iid `A_k` are) and exponent pattern, and each monomial
key's split into block patterns, which the means and the chaos kernel both
read.  `expect_monomial` and `expect_poly` work in integer numerators and
denominators over one lcm and normalize each result once.

`RandomModel.second_moments` is the one exact E[P_n P_m] kernel, behind
the moment matrix of `stats` and the mean-square norms (`poly_l2_norm`) of
`check` and `majorant`.  It works in exact polynomial chaos coordinates,
reading each P_n as `Poly` stores it: integer numerators a_{n,u} over one
denominator D_n, keyed by packed monomial keys u (see `poly`).

1. Each distinct key splits into one local exponent pattern per block it
   touches.  Per block, the patterns that occur, constant first and then
   by total degree, give the Gram matrix G[p, q] = E[x^(p+q)] (block
   moments memoized in `_moment_cache` per distribution and pattern), and
   its exact G = L D L^T gives orthogonal polynomials phi_j with
   x^p_i = sum_j L[i, j] phi_j and E[phi_j phi_k] = d_j [j = k].  A zero
   pivot d_j marks a pattern that is a.s. a combination of earlier ones
   (A^2 = A for a Bernoulli A); phi_j is then 0 a.s. and its column of L
   is set to zero.
2. Blocks are independent, so a label alpha, one index j per block packed
   into bit fields, names the product of the phi_j, with norm h_alpha the
   product of their pivots.  A key expands into labels with integer
   coefficients over the product of the blocks' L denominators, and P_n
   sums those into integer coordinates c_n[alpha] over one denominator.
3. E[P_n P_m] = sum_alpha c_n[alpha] c_m[alpha] h_alpha, an integer inner
   loop per pair over one common denominator.  No moment is computed per
   product monomial; `expect_monomial` is left to `expect_poly` and to the
   pair-by-pair reference in `uqstats`.

Sampling draws a whole batch of realizations from a caller-supplied
`numpy.random.Generator`: one vectorized call per block, in declaration
order, so a fixed seed and batch size reproduce the exact draws.  A caller
that reads only some symbols may draw just the leading blocks up to the
last one owning such a symbol (`leading_blocks`): the blocks drawn get the
same values as in a full draw, and the columns of the rest are NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import DistributionError, MissingSymbolError
from .poly import Poly, SymbolTable, key_factors, to_fraction

if TYPE_CHECKING:  # numpy is imported where a draw needs it, so loading a model does not
    import numpy as np

NormValue = Union[Fraction, float]  # math.inf marks an unbounded support


class Distribution:
    """Base class; concrete kinds implement moments, norms and sampling."""

    kind = "abstract"
    arity = 1

    def __post_init__(self):
        """Read each `_param` field of a kind by its reader, then run `_check`."""
        for f in fields(self):
            value = f.metadata["reader"](getattr(self, f.name), f"{self.kind} {f.name}")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """Raise DistributionError where the parameters, each valid alone, do not suit the kind."""

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


# Readers: (value, "<kind> <parameter>") -> the value as stored, or DistributionError.
# Moments, sup bounds and draws read each parameter as a float: all start from `float_rational`.

def float_rational(value, what: str) -> Fraction:
    try:
        value = to_fraction(value)
        float(value)
    except TypeError as exc:  # a bool, or a value that is no number
        raise DistributionError(f"{what}: {exc}") from None
    except OverflowError:
        raise DistributionError(
            f"{what} is out of float range, got a value of {_digits(abs(int(value)))} digits"
        ) from None
    return value


def _digits(n: int) -> int:
    """Decimal digits of n > 0, counted without `str`, which refuses ints past 4300 digits."""
    d = int((n.bit_length() - 1) * math.log10(2)) + 1  # from 2^(b-1) <= n: exact or one short
    return d + (n >= 10**d)


def _probability(value, what: str) -> Fraction:
    p = float_rational(value, what)
    if p < 0 or p > 1:
        raise DistributionError(f"{what} must lie in [0, 1], got {p}")
    return p


def _positive(value, what: str) -> Fraction:
    v = float_rational(value, what)
    if not float(v) > 0:  # numpy rejects a parameter that is 0.0 as a float
        raise DistributionError(f"{what} must be positive as a float, got {value!r}")
    return v


def _count(value, what: str) -> int:
    count = float_rational(value, what)
    if count.denominator != 1 or not 0 <= count < 1 << 63:  # numpy draws counts as int64
        raise DistributionError(f"{what} must be an integer in [0, 2^63), got {value!r}")
    return int(count)


def _points(value, what: str) -> tuple[Fraction, ...]:
    if not isinstance(value, (list, tuple)):
        raise DistributionError(f"{what} must be a list, got {value!r}")
    return tuple(float_rational(x, what) for x in value)


def _probs(value, what: str) -> tuple[Fraction, ...]:
    ps = tuple(_probability(p, what) for p in _points(value, what))
    if not ps:
        raise DistributionError(f"{what}: need at least one probability")
    total = sum(ps)
    if abs(total - 1) > Fraction(1, 10**9):
        raise DistributionError(f"{what} must sum to 1, got {float(total):g}")
    return tuple(p / total for p in ps)  # exact renormalization of float dust


def _param(reader):
    """A distribution field, read by `reader(value, "<kind> <field>")` on construction."""
    return field(metadata={"reader": reader})


@dataclass(frozen=True)
class PointMass(Distribution):
    value: Fraction = _param(float_rational)

    kind = "pointmass"

    def _raw_moment(self, k: int) -> Fraction:
        return self.value**k

    def linfty(self) -> Fraction:
        return abs(self.value)

    def sample(self, stream, size: int) -> np.ndarray:
        import numpy as np
        return np.full(size, float(self.value))


def _stirling2(e: int, j: int) -> int:
    """S(e, j), the number of ways to split e labelled items into j nonempty sets."""
    total = sum((-1) ** (j - i) * math.comb(j, i) * i**e for i in range(j + 1))
    return total // math.factorial(j)


class _Counting(Distribution):
    """Category counts of `trials` independent draws with category probabilities `probs`.

    A kind supplies `trials` and `probs`; the probabilities may sum to less
    than 1, the rest going to an uncounted category.  Moments come from the
    factorial moments E[prod (Z_i)_{j_i}] = (n)_{|j|} prod p_i^{j_i} and
    z^e = sum_j S(e, j) (z)_j, so their cost grows with the exponents, not
    with `trials`.
    """

    def _moment(self, exponents: Sequence[int]) -> Fraction:
        n = self.trials
        # In integers over one denominator: p_i = a_i / b, so the weight of |j| = k is W_k / b^k.
        b = math.lcm(*(p.denominator for p in self.probs))
        weights = {0: 1}  # |j| so far -> W, the sum of prod S(e_i, j_i) a_i^{j_i}
        for e, p in zip(exponents, self.probs):
            a = p.numerator * (b // p.denominator)
            terms = [(j, _stirling2(e, j) * a**j) for j in range(min(e, n) + 1)]
            step: dict[int, int] = {}
            for k, w in weights.items():
                for j, s in terms:
                    if s and k + j <= n:
                        step[k + j] = step.get(k + j, 0) + w * s
            weights = step
        top = max(weights, default=0)
        return Fraction(sum(math.perm(n, k) * w * b ** (top - k) for k, w in weights.items()),
                        b**top)

    def component_linfty(self, index: int) -> Fraction:
        return Fraction(self.trials) if self.probs[index] > 0 else Fraction(0)

    def linfty(self) -> Fraction:
        return max(map(self.component_linfty, range(self.arity)))


@dataclass(frozen=True)
class Bernoulli(_Counting):
    p: Fraction = _param(_probability)

    kind = "bernoulli"
    trials = 1

    @property
    def probs(self) -> tuple[Fraction]:
        return (self.p,)

    def sample(self, stream, size: int) -> np.ndarray:
        return (stream.random(size) < float(self.p)).astype(float)


@dataclass(frozen=True)
class Binomial(_Counting):
    n: int = _param(_count)
    p: Fraction = _param(_probability)

    kind = "binomial"

    @property
    def trials(self) -> int:
        return self.n

    @property
    def probs(self) -> tuple[Fraction]:
        return (self.p,)

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.binomial(self.n, float(self.p), size).astype(float)


def _rising(x: Fraction, k: int) -> Fraction:
    """The rising factorial x (x + 1) ... (x + k - 1) = prod (a + j b) / b^k for x = a/b."""
    a, b = x.numerator, x.denominator
    return Fraction(math.prod(a + j * b for j in range(k)), b**k)


@dataclass(frozen=True)
class Beta(Distribution):
    alpha: Fraction = _param(_positive)
    beta: Fraction = _param(_positive)

    kind = "beta"

    def _raw_moment(self, k: int) -> Fraction:
        return _rising(self.alpha, k) / _rising(self.alpha + self.beta, k)

    def linfty(self) -> Fraction:
        return Fraction(1)

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.beta(float(self.alpha), float(self.beta), size)


@dataclass(frozen=True)
class Gamma(Distribution):
    shape: Fraction = _param(_positive)
    rate: Fraction = _param(_positive)  # shape-rate parametrization: mean = shape / rate

    kind = "gamma"

    def _check(self) -> None:
        float_rational(1 / self.rate, "gamma rate's reciprocal")  # the scale of a draw

    def _raw_moment(self, k: int) -> Fraction:
        return _rising(self.shape, k) / self.rate**k

    def linfty(self) -> float:
        return math.inf

    def sample(self, stream, size: int) -> np.ndarray:
        return stream.gamma(float(self.shape), float(1 / self.rate), size)


@dataclass(frozen=True)
class Uniform(Distribution):
    a: Fraction = _param(float_rational)
    b: Fraction = _param(float_rational)

    kind = "uniform"

    def _check(self) -> None:
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
    support: tuple[Fraction, ...] = _param(_points)
    probs: tuple[Fraction, ...] = _param(_probs)

    kind = "finite_discrete"

    def _check(self) -> None:
        if len(self.support) != len(self.probs):
            raise DistributionError("finite_discrete support and probs differ in length")

    def _raw_moment(self, k: int) -> Fraction:
        return sum((p * x**k for x, p in zip(self.support, self.probs)), Fraction(0))

    def linfty(self) -> Fraction:
        points = [abs(x) for x, p in zip(self.support, self.probs) if p > 0]
        return max(points, default=Fraction(0))

    def sample(self, stream, size: int) -> np.ndarray:
        import numpy as np
        # cumulative probabilities, summed exactly and rounded once
        cum = np.array([float(c) for c in accumulate(self.probs)])
        points = np.array([float(x) for x in self.support])
        # first point whose cumulative probability exceeds u
        idx = np.searchsorted(cum, stream.random(size), side="right")
        return points[np.minimum(idx, len(points) - 1)]


@dataclass(frozen=True)
class MultinomialVector(_Counting):
    trials: int = _param(_count)
    probs: tuple[Fraction, ...] = _param(_probs)

    kind = "multinomial"

    @property
    def arity(self) -> int:
        return len(self.probs)

    def sample(self, stream, size: int) -> np.ndarray:
        import numpy as np
        # Sequential binomial decomposition: condition each category count on
        # the trials not yet assigned to earlier categories.
        counts = np.empty((size, self.arity))
        remaining = np.full(size, self.trials, dtype=np.int64)
        mass = Fraction(1)  # of the categories not yet drawn
        for j, p in enumerate(self.probs[:-1]):
            cond = min(1.0, float(p / mass)) if mass > 0 else 0.0
            c = stream.binomial(remaining, cond)
            counts[:, j] = c
            remaining -= c
            mass -= p
        counts[:, -1] = remaining
        return counts


def _ldl(gram: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact G = L D L^T from the lower rows of a Gram matrix; L is unit lower triangular.

    Row i of L^-1 holds the coefficients of phi_i, the i-th orthogonal
    polynomial, kept as integers over one denominator, so each of
    L[i][j] d_j = E[x^p_i phi_j] and d_i = E[x^p_i phi_i] is one integer dot
    product with row i of G.  A zero pivot marks a pattern that is a.s. a
    combination of the earlier ones; its column of L, 0/0 in exact terms,
    is set to zero.
    """
    lower: list[list[Fraction]] = []
    pivots: list[Fraction] = []
    phis: list[tuple[list[int], int]] = []  # (numerators over x^p_0..x^p_j, denominator)
    cols: list[list[int]] = []  # cols[k][j - k]: numerator of x^p_k in phi_j
    for g in gram:
        g_den = math.lcm(*(f.denominator for f in g))
        g_num = [f.numerator * (g_den // f.denominator) for f in g]
        row = [Fraction(sum(map(mul, num, g_num)), den * g_den) / d if d else Fraction(0)
               for (num, den), d in zip(phis, pivots)]
        # phi_i = x^p_i - sum_j L[i][j] phi_j
        scale = [f / den for f, (_, den) in zip(row, phis)]
        den = math.lcm(*(f.denominator for f in scale))
        weights = [f.numerator * (den // f.denominator) for f in scale]
        num = [-sum(map(mul, weights[k:], col)) for k, col in enumerate(cols)] + [den]
        common = math.gcd(*num)
        num = [c // common for c in num]
        phis.append((num, den // common))
        cols.append([])
        for col, c in zip(cols, num):
            col.append(c)
        pivots.append(Fraction(sum(map(mul, num, g_num)), phis[-1][1] * g_den))
        lower.append(row + [Fraction(1)])
    return lower, pivots


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
    return cls(**params)


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

    Blocks whose distributions compare equal (same kind, same parameters)
    share one id, and joint moments are memoized per (that id, exponent
    pattern), so iid blocks compute each moment once.  A monomial key's split
    into block patterns and its moment are memoized per key.  The caches are
    filled during read-only queries and never change results.
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
        first: dict[Distribution, int] = {}
        # block index -> index of the first block with an equal distribution
        self._dist_ids = [first.setdefault(block.dist, bidx)
                          for bidx, block in enumerate(self.blocks)]
        self._moment_cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}  # by dist id
        self._split_cache: dict[int, dict[int, tuple[int, ...]]] = {}  # by monomial key
        self._monomial_cache: dict[int, Fraction] = {}  # by monomial key

    @property
    def n_symbols(self) -> int:
        return len(self.table)

    def expect_monomial(self, key: int) -> Fraction:
        """E[prod sym^e] of a monomial key: factorizes across blocks, joint within one."""
        cached = self._monomial_cache.get(key)
        if cached is not None:
            return cached
        num = den = 1
        for bidx, exps in self._block_exponents(key).items():
            moment = self._block_moment(bidx, exps)
            num *= moment.numerator
            den *= moment.denominator
        total = self._monomial_cache[key] = Fraction(num, den)
        return total

    def _block_exponents(self, key: int) -> dict[int, tuple[int, ...]]:
        """A monomial key's exponent pattern in each block it touches, by block index.

        Memoized per key: callers must not change the dict returned."""
        split = self._split_cache.get(key)
        if split is not None:
            return split
        per_block: dict[int, list[int]] = {}
        for sid, e in key_factors(key):
            info = self._owner.get(sid)
            if info is None:
                raise MissingSymbolError(
                    f"symbol id {sid} does not belong to this model"
                )
            bidx, pos = info
            per_block.setdefault(bidx, [0] * len(self.blocks[bidx].symbols))[pos] = e
        split = self._split_cache[key] = {bidx: tuple(exps) for bidx, exps in per_block.items()}
        return split

    def _block_moment(self, bidx: int, exps: tuple[int, ...]) -> Fraction:
        """E[prod x^e] within one block, memoized per (distribution id, exponent pattern)."""
        cache_key = (self._dist_ids[bidx], exps)
        moment = self._moment_cache.get(cache_key)
        if moment is None:
            moment = self._moment_cache[cache_key] = self.blocks[bidx].dist.joint_moment(exps)
        return moment

    def expect_poly(self, p: Poly) -> Fraction:
        """Exact E[P] by linearity over terms, summed as integers over one lcm."""
        moments = [(n, self.expect_monomial(k)) for k, n in p.terms.items()]
        lcm = math.lcm(*(m.denominator for _, m in moments))
        total = sum(n * m.numerator * (lcm // m.denominator) for n, m in moments)
        return Fraction(total, lcm * p.den)

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
        """Exact E[P_n P_m] for all n, m, as Fractions, from chaos coordinates.

        The steps are those of the module docstring.  The result equals the
        pair-by-pair sum of a_{n,u} a_{m,v} E[u v] exactly.  A symbol id the
        model does not own raises MissingSymbolError.
        """
        keys = dict.fromkeys(key for x in polys for key in x.terms)
        split = {key: self._block_exponents(key) for key in keys}
        found: dict[int, set[tuple[int, ...]]] = {}  # non-constant patterns per block
        for parts in split.values():
            for bidx, exps in parts.items():
                found.setdefault(bidx, set()).add(exps)

        # A label packs one orthogonal index j per block into a field of `width` bits.
        width = max((len(pats).bit_length() for pats in found.values()), default=1)
        l_dens = {}  # bidx -> lcm of the denominators of the block's L
        rows = {}  # bidx -> {pattern: [(label field j << shift, numerator of L[i][j])]}
        pivots = []  # per field: (lcm of the block's pivot denominators, pivot numerators)
        for rank, (bidx, pats) in enumerate(found.items()):
            zero = (0,) * len(self.blocks[bidx].symbols)
            pats = [zero, *sorted(pats, key=lambda p: (sum(p), p))]
            lower, d = _ldl([[self._block_moment(bidx, tuple(map(add, p, q)))
                              for q in pats[:i + 1]] for i, p in enumerate(pats)])
            den = l_dens[bidx] = math.lcm(*(f.denominator for row in lower for f in row))
            rows[bidx] = {
                p: [(j << rank * width, f.numerator * (den // f.denominator))
                    for j, f in enumerate(row) if f]
                for p, row in zip(pats[1:], lower[1:])
            }
            den = math.lcm(*(f.denominator for f in d))
            pivots.append((den, [f.numerator * (den // f.denominator) for f in d]))
        l_den = math.prod(l_dens.values())
        h_den = math.prod(den for den, _ in pivots)

        expansion = {}  # key -> [(label, coefficient over l_den)]
        for key, parts in split.items():
            scale = l_den
            for bidx in parts:
                scale //= l_dens[bidx]
            terms = [(0, scale)]
            for bidx, exps in parts.items():
                terms = [(label + field, c * n)
                         for label, c in terms for field, n in rows[bidx][exps]]
            expansion[key] = terms

        index: dict[int, int] = {}  # label -> position in `norms`
        cols, nums, dens = [], [], []  # c_n[label] = nums[n][k] / dens[n]
        for x in polys:
            coords: dict[int, int] = {}
            for key, a in x.terms.items():
                for label, c in expansion[key]:
                    coords[label] = coords.get(label, 0) + a * c
            cols.append([index.setdefault(label, len(index)) for label in coords])
            g = math.gcd(x.den * l_den, *coords.values())
            nums.append([c // g for c in coords.values()])
            dens.append(x.den * l_den // g)

        mask = (1 << width) - 1
        norms = []  # h_label over h_den
        for label in index:
            h = h_den
            for den, block_pivots in pivots:
                if not label:
                    break
                if label & mask:
                    h = h // den * block_pivots[label & mask]
                label >>= width
            norms.append(h)
        g = math.gcd(h_den, *norms)
        norms = [h // g for h in norms]
        h_den //= g

        n_tot = len(polys)
        second = [[Fraction(0)] * n_tot for _ in range(n_tot)]
        for m in range(n_tot):
            w = [0] * len(norms)  # c_m[label] h_label
            for i, c in zip(cols[m], nums[m]):
                w[i] = c * norms[i]
            for n in range(m + 1):
                total = sum(map(mul, map(w.__getitem__, cols[n]), nums[n]))
                if total:  # many pairs share no label, e.g. by parity
                    second[n][m] = second[m][n] = Fraction(total, dens[n] * dens[m] * h_den)
        return second

    def poly_l2_norm(self, p: Poly) -> float:
        """sqrt(E[P^2]) through `second_moments`, without forming P^2."""
        return math.sqrt(float(self.second_moments([p])[0][0]))

    def leading_blocks(self, sids: Iterable[int]) -> int:
        """How many leading blocks cover the symbols `sids`: one past the last owner."""
        return max((self._owner[sid][0] for sid in sids), default=-1) + 1

    def draw(self, stream, count: int, blocks: int | None = None) -> np.ndarray:
        """`count` joint draws of the first `blocks` blocks as a (count, n_symbols) matrix.

        Each block draws all `count` values in one call, blocks in
        declaration order, so the blocks drawn get the same values whatever
        `blocks` is; the default draws every block.  Columns of the blocks
        not drawn are NaN.  The matrix is column-major, so each symbol's
        draws are contiguous.
        """
        import numpy as np
        if blocks is None:
            blocks = len(self.blocks)
        values = np.empty((count, self.n_symbols), order="F")
        for bidx, block in enumerate(self.blocks):
            values[:, list(block.symbols)] = (
                block.dist.sample(stream, count).reshape(count, -1) if bidx < blocks else np.nan
            )
        return values
