"""Moment oracle, norms and sampling, checked against independent oracles."""

import math
import re
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import randfrob as rf
from randfrob import (
    Bernoulli,
    Beta,
    Binomial,
    DependenceBlock,
    DistributionError,
    FiniteDiscrete,
    Gamma,
    MultinomialVector,
    PointMass,
    Poly,
    RandomModel,
    SymbolTable,
    Uniform,
)
from conftest import term_by_term_mean
from randfrob.poly import EXP_LIMIT
from randfrob.uqstats import _pairwise_expect


def quad_moment(pdf, k, lo, hi):
    value, err = integrate.quad(lambda z: z**k * pdf(z), lo, hi)
    assert err < 1e-7
    return value


class TestRawMoments:
    def test_bernoulli_power_collapse(self):
        assert Bernoulli(Fraction(7, 20)).joint_moment((3,)) == Fraction(7, 20)
        assert Bernoulli(Fraction(7, 20)).joint_moment((0,)) == 1

    def test_gamma_second_moment(self):
        got = Gamma(2, 2).joint_moment((2,))
        assert got == Fraction(3, 2)
        pdf = lambda z: 4 * z * math.exp(-2 * z)  # shape 2, rate 2
        assert float(got) == pytest.approx(quad_moment(pdf, 2, 0, 40), abs=1e-9)

    def test_beta_first_moment(self):
        got = Beta(11, 15).joint_moment((1,))
        assert got == Fraction(11, 26)
        norm = special.beta(11, 15)
        pdf = lambda z: z**10 * (1 - z) ** 14 / norm
        assert float(got) == pytest.approx(quad_moment(pdf, 1, 0, 1), abs=1e-9)

    def test_uniform_antiderivative(self):
        # integral of z^2 on [0,1] is z^3/3
        assert Uniform(0, 1).joint_moment((2,)) == Fraction(1, 3)
        assert Uniform(-2, 3).joint_moment((1,)) == Fraction(1, 2)

    def test_pointmass(self):
        assert PointMass(Fraction(-3, 2)).joint_moment((3,)) == Fraction(-27, 8)
        assert PointMass(0).joint_moment((0,)) == 1

    def test_binomial_enumeration(self):
        # oracle: direct support enumeration with binomial pmf
        n, p = 3, Fraction(1, 5)
        expected = sum(
            math.comb(n, i) * p**i * (1 - p) ** (n - i) * Fraction(i**2)
            for i in range(n + 1)
        )
        assert Binomial(n, p).joint_moment((2,)) == expected
        assert Binomial(n, p).joint_moment((1,)) == Fraction(3, 5)

    def test_finite_discrete(self):
        d = FiniteDiscrete((Fraction(-1), Fraction(2)), (Fraction(1, 4), Fraction(3, 4)))
        assert d.joint_moment((2,)) == Fraction(1, 4) + Fraction(3) == Fraction(13, 4)

    def test_vector_kind_rejected(self):
        with pytest.raises(DistributionError):
            MultinomialVector(3, (Fraction(1, 5), Fraction(4, 5))).joint_moment((2,))

    @pytest.mark.parametrize("dist", [
        PointMass(2), Bernoulli(Fraction(1, 2)), Binomial(2, Fraction(1, 3)), Beta(11, 15),
        Gamma(2, 2), Uniform(0, 1), FiniteDiscrete((1, 2), (Fraction(1, 3), Fraction(2, 3))),
    ], ids=lambda dist: dist.kind)
    def test_negative_order_rejected(self, dist):
        with pytest.raises(DistributionError, match="nonnegative"):
            dist.joint_moment((-1,))


MULTI = MultinomialVector(3, (Fraction(1, 5), Fraction(4, 5)))


def multinomial_block():
    t = SymbolTable()
    t.add("Y1")
    t.add("C")
    return DependenceBlock((0, 1), MULTI)


def enumeration_moment(exps):
    # independent oracle: support {(y, 3-y)} with binomial(3, 1/5) weights
    total = Fraction(0)
    p = Fraction(1, 5)
    for y in range(4):
        w = math.comb(3, y) * p**y * (1 - p) ** (3 - y)
        total += w * Fraction(y**exps[0] * (3 - y) ** exps[1])
    return total


class TestJointMoments:
    def test_empty_product(self):
        assert multinomial_block().dist.joint_moment((0, 0)) == 1

    def test_first_component(self):
        got = multinomial_block().dist.joint_moment((1, 0))
        assert got == enumeration_moment((1, 0)) == Fraction(3, 5)

    def test_cross_moment(self):
        got = multinomial_block().dist.joint_moment((1, 1))
        assert got == enumeration_moment((1, 1)) == Fraction(24, 25)
        # identity E[Y1*C] = E[Y1(3-Y1)] = 3E[Y1] - E[Y1^2]
        ey = multinomial_block().dist.joint_moment((1, 0))
        eyy = multinomial_block().dist.joint_moment((2, 0))
        assert got == 3 * ey - eyy

    def test_arity_mismatch(self):
        with pytest.raises(DistributionError, match="expected 2 exponent"):
            multinomial_block().dist.joint_moment((1, 0, 0))
        with pytest.raises(DistributionError, match="expected 1 exponent"):
            Bernoulli(Fraction(1, 2)).joint_moment((1, 0))

    def test_scalar_block_delegates(self):
        t = SymbolTable()
        t.add("A")
        block = DependenceBlock((0,), Bernoulli(Fraction(7, 20)))
        assert block.dist.joint_moment((5,)) == Fraction(7, 20)

    def test_multinomial_vs_mc(self):
        # sampling oracle: enumeration within 5 standard errors
        rng = np.random.default_rng(123)
        n = 100_000
        draws = MULTI.sample(rng, n)
        prod = draws[:, 0] * draws[:, 1]
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - float(enumeration_moment((1, 1)))) < 5 * se

    @pytest.mark.parametrize("probs", [
        ("1/3", "2/3"), ("0", "1"), ("1", "0"),
        ("1/5", "3/10", "1/2"), ("0", "1/4", "3/4"), ("1/2", "1/2", "0"), ("0", "1", "0"),
    ])
    @pytest.mark.parametrize("trials", [0, 1, 3])
    def test_multinomial_draw_bits(self, trials, probs):
        # reference: every category, the first too, drawn from an int64
        # array of the trials not yet assigned
        dist = MultinomialVector(trials, tuple(Fraction(p) for p in probs))
        size = 1000

        def reference(stream):
            counts = np.empty((size, dist.arity))
            remaining = np.full(size, trials, dtype=np.int64)
            mass = Fraction(1)
            for j, p in enumerate(dist.probs[:-1]):
                cond = min(1.0, float(p / mass)) if mass > 0 else 0.0
                c = stream.binomial(remaining, cond)
                counts[:, j] = c
                remaining -= c
                mass -= p
            counts[:, -1] = remaining
            return counts

        got = dist.sample(np.random.Generator(np.random.Philox(key=[5, 2])), size)
        want = reference(np.random.Generator(np.random.Philox(key=[5, 2])))
        assert got.tobytes() == want.tobytes()
        assert (got.sum(axis=1) == trials).all()


def counting_support(trials, probs):
    """(counts, pmf) of every outcome of `trials` draws over the categories of `probs`.

    The reference for the counting kinds: the counts of the categories of
    `probs`, plus an uncounted rest category of probability 1 - sum(probs),
    enumerated composition by composition with exact multinomial weights.
    """
    cats = [Fraction(p) for p in probs] + [1 - sum(Fraction(p) for p in probs)]

    def compositions(n, parts):
        if parts == 1:
            yield (n,)
            return
        for head in range(n + 1):
            for tail in compositions(n - head, parts - 1):
                yield (head,) + tail

    for counts in compositions(trials, len(cats)):
        pmf = Fraction(math.factorial(trials))
        for c, p in zip(counts, cats):
            pmf = pmf / math.factorial(c) * p**c
        yield counts[:-1], pmf


def enumerated_moment(trials, probs, exps):
    return sum((pmf * math.prod(c**e for c, e in zip(counts, exps))
                for counts, pmf in counting_support(trials, probs)), Fraction(0))


_probability = st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=7)


@st.composite
def counting_kinds(draw):
    """(dist, trials, probs): a Bernoulli, binomial or multinomial of 0-6 trials."""
    arity = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["bernoulli", "binomial", "multinomial"] if arity == 1
                                else ["multinomial"]))
    if kind == "multinomial":
        weights = draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity)
                       .filter(any))
        probs = tuple(Fraction(w, sum(weights)) for w in weights)
        trials = draw(st.integers(0, 6))
        return MultinomialVector(trials, probs), trials, probs
    p = draw(_probability)
    if kind == "bernoulli":
        return Bernoulli(p), 1, (p,)
    trials = draw(st.integers(0, 6))
    return Binomial(trials, p), trials, (p,)


class TestCountingKinds:
    @given(counting_kinds(), st.lists(st.integers(0, 6), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_enumeration(self, case, exps):
        dist, trials, probs = case
        exps = exps[:dist.arity]
        assert dist.joint_moment(exps) == enumerated_moment(trials, probs, exps)
        support = list(counting_support(trials, probs))
        for i in range(dist.arity):
            top = max(counts[i] for counts, pmf in support if pmf > 0)
            assert dist.component_linfty(i) == top

    def test_bernoulli_power_at_exponent_limit(self):
        # Z^e = Z on {0, 1}: one trial bounds the Stirling terms to j <= 1 at any e
        assert Bernoulli(Fraction(7, 20)).joint_moment((EXP_LIMIT - 1,)) == Fraction(7, 20)

    def test_large_binomial_fourth_moment(self):
        # The fourth derivative at t = 0 of the generating function (1 - p + p e^t)^n.
        def fourth(n, p):
            return (n * p + (7 * n**2 - 7 * n) * p**2 + (6 * n**3 - 18 * n**2 + 12 * n) * p**3
                    + (n**4 - 6 * n**3 + 11 * n**2 - 6 * n) * p**4)

        p = Fraction(1, 3)
        for n in range(6):
            assert fourth(n, p) == enumerated_moment(n, (p,), (4,))
        assert Binomial(10**6, p).joint_moment((4,)) == fourth(10**6, p)

    def test_large_multinomial_cross_moment(self):
        # (Y, n - Y) with Y ~ binomial(n, 1/5): integer weights comb(n, y) 4^(n - y) over 5^n
        n = 2000
        total = sum(math.comb(n, y) * 4 ** (n - y) * y**3 * (n - y) ** 3 for y in range(n + 1))
        dist = MultinomialVector(n, (Fraction(1, 5), Fraction(4, 5)))
        assert dist.joint_moment((3, 3)) == Fraction(total, 5**n)


def example_model():
    """Bernoulli A, Gamma Y0, multinomial (Y1, C): the flagship structure."""
    t = SymbolTable()
    for name in ("A", "Y0", "Y1", "C"):
        t.add(name)
    blocks = [
        DependenceBlock((0,), Bernoulli(Fraction(7, 20))),
        DependenceBlock((1,), Gamma(2, 2)),
        DependenceBlock((2, 3), MULTI),
    ]
    return RandomModel(t, blocks)


class TestExpectPoly:
    def test_gamma_mean(self):
        model = example_model()
        assert model.expect_poly(Poly.symbol(1)) == 1

    def test_constant(self):
        model = example_model()
        assert model.expect_poly(Poly.const(Fraction(7, 2))) == Fraction(7, 2)
        assert float(model.expect_poly(Poly.const(Fraction(7, 2)))) == 3.5

    def test_block_factorization(self):
        model = example_model()
        p = Poly.symbol(0) * Poly.symbol(1)  # A * Y0, independent blocks
        assert model.expect_poly(p) == Fraction(7, 20)

    def test_block_factorization_vs_mc(self):
        model = example_model()
        p = Poly.symbol(0) * Poly.symbol(1)
        rng = np.random.default_rng(7)
        draws = model.draw(rng, 100_000)
        vals = draws[:, 0] * draws[:, 1]  # p = A * Y0
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.35) < 5 * se

    def test_linearity_exact(self):
        model = example_model()
        p = Poly.symbol(0) * Poly.symbol(2) + Poly.const(2)
        q = Poly.symbol(1) ** 2 - Poly.symbol(3)
        alpha, beta = Fraction(3, 7), Fraction(-5, 2)
        lhs = model.expect_poly(alpha * p + beta * q)
        rhs = alpha * model.expect_poly(p) + beta * model.expect_poly(q)
        assert lhs == rhs

    def test_unknown_symbol(self):
        model = example_model()
        with pytest.raises(rf.MissingSymbolError):
            model.expect_poly(Poly.symbol(9))

    def test_unknown_symbol_in_second_moments(self):
        # a foreign id fails loudly in the chaos kernel too, not as a KeyError
        model = example_model()
        foreign = Poly.symbol(0) * Poly.symbol(9) + 1
        with pytest.raises(rf.MissingSymbolError, match="symbol id 9"):
            model.second_moments([Poly.symbol(1), foreign])
        with pytest.raises(rf.MissingSymbolError, match="symbol id 9"):
            model.poly_l2_norm(foreign)

    def test_second_moments_of_nothing(self):
        assert example_model().second_moments([]) == []

    def test_memoization_bit_identical(self):
        # a second, cached query vs a fresh model's first
        model = example_model()
        p = (Poly.symbol(0) + Poly.symbol(2)) ** 3 - Poly.symbol(1) * Poly.symbol(3)
        cached_twice = [model.expect_poly(p), model.expect_poly(p)]
        fresh = example_model().expect_poly(p)
        assert cached_twice[0] == cached_twice[1] == fresh


def look_alike_model():
    """Beta(2, 3) twice, Beta(3, 2), Uniform(0, 1), and Beta(1, 1), whose moments are
    Uniform(0, 1)'s but whose kind is not."""
    t = SymbolTable()
    dists = [Beta(2, 3), Beta(3, 2), Uniform(0, 1), Beta(1, 1), Beta(2, 3)]
    return RandomModel(t, [DependenceBlock((t.add(f"X{i}"),), d) for i, d in enumerate(dists)])


class TestSharedMoments:
    def test_equal_distributions_share_an_id(self):
        assert look_alike_model()._dist_ids == [0, 1, 2, 3, 0]

    def test_equality_is_kind_and_parameters(self):
        # the moment cache is shared by equal distributions, so kinds with
        # equal parameters must differ, and equal ones hash alike
        assert len({Beta(2, 3), Gamma(2, 3), Uniform(2, 3)}) == 3
        assert Beta(2, 3) == Beta(alpha="2", beta=3.0)
        assert hash(Beta(2, 3)) == hash(Beta(alpha="2", beta=3.0))
        assert repr(Beta(2, 3)) == "Beta(alpha=Fraction(2, 1), beta=Fraction(3, 1))"
        with pytest.raises(AttributeError):
            Beta(2, 3).alpha = 1

    def test_look_alikes_match_references(self):
        x = [Poly.symbol(i) for i in range(5)]
        polys = [Poly.const(1), x[0] + x[4], x[2] * x[3] - x[1] ** 2,
                 (x[0] - x[4]) ** 2 + Fraction(1, 3) * x[3] ** 3, x[2] ** 2 * x[3] + x[0] * x[1]]
        model, oracle = look_alike_model(), look_alike_model()
        means = [model.expect_poly(p) for p in polys]
        second = model.second_moments(polys)
        assert means == [term_by_term_mean(oracle, p) for p in polys]
        assert second == [[_pairwise_expect(oracle, p, q) for q in polys] for p in polys]
        assert means[1] == Fraction(4, 5)  # E[X0 + X4], two Beta(2, 3) means

    def test_iid_blocks_compute_each_moment_once(self, monkeypatch):
        spec = rf.load_problem("beta_series")  # fresh caches
        calls = []
        joint_moment = rf.Distribution.joint_moment

        def spy(dist, exps):
            calls.append((dist, tuple(exps)))
            return joint_moment(dist, exps)

        monkeypatch.setattr(rf.Distribution, "joint_moment", spy)
        rf.moment_matrix(rf.compute_coeffs(spec, 10), spec.model)
        # Y0 gamma, Y1 uniform, and one Beta(11, 15) for every A_k block
        assert len({dist for dist, _ in calls}) == 3
        assert len(calls) == len(set(calls)) == len(spec.model._moment_cache)
        assert {dist_id for dist_id, _ in spec.model._moment_cache} == {0, 1, 2}


class TestNorms:
    @pytest.mark.parametrize(
        "dist,expected",
        [
            (Bernoulli(Fraction(7, 20)), 1),
            (Bernoulli(0), 0),
            (Uniform(-2, 3), 3),
            (Beta(11, 15), 1),
            (PointMass(Fraction(-5, 2)), Fraction(5, 2)),
            (Binomial(4, Fraction(1, 2)), 4),
            (FiniteDiscrete((Fraction(-3), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))), 3),
        ],
    )
    def test_bounded(self, dist, expected):
        assert dist.component_linfty(0) == expected

    def test_gamma_unbounded(self):
        assert Gamma(2, 2).component_linfty(0) == math.inf

    def test_zero_probability_point_ignored(self):
        d = FiniteDiscrete((Fraction(100), Fraction(1)), (0, 1))
        assert d.component_linfty(0) == 1

    @pytest.mark.parametrize(
        "dist",
        [
            Bernoulli(Fraction(7, 20)),
            Beta(11, 15),
            Uniform(Fraction(-1, 2), Fraction(3, 4)),
            Binomial(3, Fraction(1, 5)),
            PointMass(Fraction(3, 2)),
            FiniteDiscrete((Fraction(-1), Fraction(2)), (Fraction(1, 4), Fraction(3, 4))),
        ],
    )
    def test_moment_growth_bound(self, dist):
        # essential boundedness: E[Z^k] <= ||Z||^k for all k <= 12
        norm = dist.component_linfty(0)
        for k in range(13):
            assert abs(dist.joint_moment((k,))) <= norm**k + Fraction(0)

    def test_poly_linfty_bound(self):
        model = example_model()
        p = 2 * Poly.symbol(0) - Poly.const(Fraction(1, 2))  # 2A - 1/2
        assert model.poly_linfty_bound(p) == Fraction(5, 2)
        assert model.poly_linfty_bound(Poly.symbol(1)) == math.inf  # Gamma
        assert model.poly_linfty_bound(Poly.symbol(2)) == 3  # multinomial component

    def test_poly_l2_norm(self):
        model = example_model()
        assert model.poly_l2_norm(Poly.symbol(1)) == pytest.approx(math.sqrt(1.5))

    def test_poly_l2_norm_at_exponent_limit(self):
        # P * P would pass the packed exponent limit; E[P^2] itself is fine
        model = one_block_model(Uniform(0, 1))
        p = Poly.symbol(0) ** (EXP_LIMIT - 1)
        assert model.poly_l2_norm(p) == math.sqrt(1 / (2 * EXP_LIMIT - 1))


def one_block_model(dist):
    t = SymbolTable()
    for i in range(dist.arity):
        t.add(f"x{i}")
    return RandomModel(t, [DependenceBlock(tuple(range(dist.arity)), dist)])


class TestSampling:
    def test_pointmass_constant(self):
        model = one_block_model(PointMass(2))
        rng = np.random.default_rng(0)
        assert model.draw(rng, 5).tolist() == [[2.0]] * 5

    def test_degenerate_bernoulli(self):
        model = one_block_model(Bernoulli(1))
        rng = np.random.default_rng(0)
        assert (model.draw(rng, 100) == 1.0).all()

    def test_multinomial_counts_sum_to_trials(self):
        model = one_block_model(MULTI)
        rng = np.random.default_rng(5)
        draws = model.draw(rng, 200)
        assert draws.shape == (200, 2)
        assert (draws.sum(axis=1) == 3.0).all()
        assert (draws == np.floor(draws)).all() and (draws >= 0).all()

    def test_multinomial_vector_draws_sum_to_trials(self):
        dist = MultinomialVector(7, (Fraction(1, 6), Fraction(0), Fraction(1, 3), Fraction(1, 2)))
        draws = dist.sample(np.random.default_rng(8), 5000)
        assert draws.shape == (5000, 4)
        assert (draws.sum(axis=1) == 7.0).all()
        assert (draws[:, 1] == 0).all()  # a zero-probability category stays empty

    def test_finite_discrete_mass_on_last_point(self):
        d = FiniteDiscrete((Fraction(-1), Fraction(0), Fraction(5)), (0, 0, 1))
        assert (d.sample(np.random.default_rng(3), 10_000) == 5.0).all()

    def test_finite_discrete_skips_zero_probability_point(self):
        d = FiniteDiscrete((Fraction(-1), Fraction(7), Fraction(2)),
                           (Fraction(1, 2), 0, Fraction(1, 2)))
        draws = d.sample(np.random.default_rng(4), 10_000)
        assert set(draws.tolist()) == {-1.0, 2.0}

    def test_draw_layout(self):
        # columns follow symbol ids; blocks draw in declaration order
        model = example_model()
        draws = model.draw(np.random.default_rng(2), 1000)
        assert draws.shape == (1000, 4)
        assert set(draws[:, 0].tolist()) <= {0.0, 1.0}
        assert (draws[:, 1] > 0).all()
        assert (draws[:, 2] + draws[:, 3] == 3.0).all()

    @pytest.mark.parametrize("blocks", [0, 1, 2, 3])
    def test_leading_blocks_draw(self, blocks):
        # the blocks drawn are bit-equal to a full draw from the same stream;
        # every other column is NaN
        model = example_model()
        full = model.draw(np.random.Generator(np.random.Philox(4)), 500)
        part = model.draw(np.random.Generator(np.random.Philox(4)), 500, blocks)
        drawn = [sid for block in model.blocks[:blocks] for sid in block.symbols]
        assert part.shape == full.shape
        assert part[:, drawn].tobytes() == full[:, drawn].tobytes()
        assert np.isnan(np.delete(part, drawn, axis=1)).all()

    def test_leading_blocks_cover_symbols(self):
        model = example_model()  # blocks (A), (Y0), (Y1, C)
        assert model.leading_blocks([]) == 0
        assert model.leading_blocks([0]) == 1
        assert model.leading_blocks([1, 0]) == 2
        assert model.leading_blocks([3]) == 3

    def test_seed_reproducibility(self):
        model = example_model()
        a = model.draw(np.random.default_rng(99), 3)
        b = model.draw(np.random.default_rng(99), 3)
        assert (a == b).all()

    @pytest.mark.parametrize(
        "dist",
        [
            Bernoulli(Fraction(7, 20)),
            Beta(11, 15),
            Gamma(2, 2),
            Uniform(Fraction(-1, 2), Fraction(3, 4)),
            Binomial(3, Fraction(1, 5)),
            FiniteDiscrete((Fraction(-1), Fraction(2)), (Fraction(1, 4), Fraction(3, 4))),
            PointMass(Fraction(3, 2)),
        ],
    )
    def test_sample_mean_matches_first_moment(self, dist):
        rng = np.random.default_rng(zlib.crc32(dist.kind.encode()))
        n = 100_000
        draws = dist.sample(rng, n)
        se = draws.std(ddof=1) / math.sqrt(n)
        tol = 5 * se if se > 0 else 1e-12
        assert abs(draws.mean() - float(dist.joint_moment((1,)))) < tol


class TestValidationAndFactory:
    def test_unknown_kind(self):
        with pytest.raises(DistributionError, match="unknown distribution kind"):
            rf.distribution_from_spec("cauchy", {})

    def test_param_checks(self):
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("bernoulli", {"p": 2})
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("gamma", {"shape": 0, "rate": 1})
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("uniform", {"a": 1, "b": 1})
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("beta", {"alpha": 1})  # missing beta
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("bernoulli", {"p": Fraction(1, 2), "q": 1})

    @pytest.mark.parametrize("kind,params,message", [
        ("bernoulli", {"p": "3/2"}, "bernoulli p must lie in [0, 1], got 3/2"),
        ("binomial", {"n": "5/2", "p": 0}, "binomial n must be an integer in [0, 2^63)"),
        ("binomial", {"n": -1, "p": 0}, "binomial n must be an integer in [0, 2^63)"),
        ("beta", {"alpha": 1, "beta": 0}, "beta beta must be positive as a float, got 0"),
        ("beta", {"alpha": "1e-400", "beta": 1}, "beta alpha must be positive as a float, got '1e-400'"),
        ("gamma", {"shape": 1, "rate": "1e-310"}, "gamma rate's reciprocal is out of float range"),
        ("pointmass", {"value": "1e309"}, "pointmass value is out of float range"),
        ("finite_discrete", {"support": "12", "probs": [1]}, "finite_discrete support must be a list"),
        ("finite_discrete", {"support": [1, 2], "probs": "1"}, "finite_discrete probs must be a list"),
        ("finite_discrete", {"support": [1, 2], "probs": [1]},
         "finite_discrete support and probs differ in length"),
        ("multinomial", {"trials": 1, "probs": []}, "multinomial probs: need at least one probability"),
        ("multinomial", {"trials": 1, "probs": ["1/2", "-1/2", 1]},
         "multinomial probs must lie in [0, 1], got -1/2"),
        ("uniform", {"a": 1, "b": 1}, "uniform needs a < b, got [1, 1]"),
        ("beta", {"alpha": 1}, "beta takes the parameters ['alpha', 'beta'], got ['alpha']"),
        ("bernoulli", {"p": 0, "q": 1}, "bernoulli takes the parameters ['p'], got ['p', 'q']"),
    ])
    def test_each_rule_names_its_parameter(self, kind, params, message):
        with pytest.raises(DistributionError, match=re.escape(message)):
            rf.distribution_from_spec(kind, params)

    @pytest.mark.parametrize("kind,params", [
        ("gamma", {"shape": "1e-310", "rate": 1}),
        ("beta", {"alpha": "1e-310", "beta": "1e-310"}),
    ], ids=["gamma-shape", "beta-alpha-beta"])
    def test_subnormal_positive_parameter_loads_and_samples(self, kind, params):
        # a positive float, though its reciprocal is not: numpy draws with it
        d = rf.distribution_from_spec(kind, params)
        assert d.joint_moment((1,)) > 0
        draws = d.sample(np.random.default_rng(7), 64)
        assert draws.shape == (64,) and np.isfinite(draws).all()

    def test_counting_kinds_read_trials_and_probs(self):
        d = Binomial(3, "1/2")
        assert (d.n, d.p, d.trials, d.probs) == (3, Fraction(1, 2), 3, (Fraction(1, 2),))
        assert Bernoulli("0.35").probs == (Fraction(7, 20),)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            rf.distribution_from_spec("multinomial", {"trials": 3, "probs": [0.2, 0.2]})
        # float dust within tolerance is renormalized exactly
        d = rf.distribution_from_spec(
            "multinomial", {"trials": 3, "probs": [Fraction(0.2), Fraction(0.8)]}
        )
        assert sum(d.probs) == 1

    def test_from_spec_roundtrip(self):
        d = rf.distribution_from_spec("gamma", {"shape": 2, "rate": 2})
        assert d == Gamma(2, 2)

    def test_partition_enforced(self):
        t = SymbolTable()
        t.add("x")
        t.add("y")
        with pytest.raises(DistributionError, match="missing from every block"):
            RandomModel(t, [DependenceBlock((0,), PointMass(1))])
        with pytest.raises(DistributionError, match="owned by two blocks"):
            RandomModel(
                t,
                [
                    DependenceBlock((0,), PointMass(1)),
                    DependenceBlock((1,), PointMass(1)),
                    DependenceBlock((0,), PointMass(2)),
                ],
            )
        with pytest.raises(DistributionError, match="at least one block"):
            RandomModel(SymbolTable(), [])

    def test_block_arity_checked(self):
        with pytest.raises(DistributionError):
            DependenceBlock((0, 1), Bernoulli(Fraction(1, 2)))
        with pytest.raises(DistributionError):
            DependenceBlock((0,), MULTI)
