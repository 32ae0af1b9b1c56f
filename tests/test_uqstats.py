"""Moment matrix, statistics curves, majorant sequence, and diagnostics."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randfrob as rf
from randfrob import Poly, build_problem, compute_coeffs
from conftest import BUNDLED, OraclePoly, eval_poly_exact, finite_support_docs, term_by_term_mean
from randfrob.uqstats import _horner, _pairwise_expect


class TestMomentMatrix:
    def test_flagship_entries(self, hf_moments):
        mm = hf_moments
        assert mm.means[0] == 1
        assert mm.second[0][0] == Fraction(3, 2)
        assert mm.means[2] == Fraction(-7, 40)
        assert float(mm.means[2]) == -0.175

    def test_zero_solution(self):
        doc = {
            "symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": 0.35}}],
            "series": {"B": [{"n": 0, "value": "A"}]},
            "initial": {"Y0": 0, "Y1": 0},
        }
        spec = build_problem(doc)
        mm = rf.moment_matrix(compute_coeffs(spec, 6), spec.model)
        assert all(e == 0 for e in mm.means)
        assert all(v == 0 for row in mm.second for v in row)

    def test_cauchy_schwarz(self, hf_moments):
        for n in range(hf_moments.order + 1):
            assert hf_moments.second[n][n] >= hf_moments.means[n] ** 2

    def test_symmetry(self, hf_moments):
        mm = hf_moments
        for n in range(mm.order + 1):
            for m in range(mm.order + 1):
                assert mm.second[n][m] == mm.second[m][n]

    def test_pairwise_accumulation_identical(self, hermite_forced):
        sol = compute_coeffs(hermite_forced, 8)
        full = rf.moment_matrix(sol, hermite_forced.model)
        streamed = rf.moment_matrix(sol, hermite_forced.model, pair_threshold=0)
        assert full.means == streamed.means
        assert full.second == streamed.second

    @pytest.mark.parametrize("name,order", [("hermite_forced", 40), ("airy", 60),
                                            ("beta_series", 20)])
    def test_power_sums_match_fold(self, bundled_specs, name, order):
        spec = bundled_specs[name]
        mm = rf.moment_matrix(compute_coeffs(spec, order), spec.model)
        fold = [Fraction(0)] * (2 * order + 1)
        for n, row in enumerate(mm.second):
            for m, entry in enumerate(row):
                fold[n + m] += entry
        assert mm.power_sums == fold
        assert all(type(s) is Fraction for s in mm.power_sums)


def assert_kernel_matches_reference(coeffs, model):
    """The chaos-coordinate kernel equals the pair-by-pair reference exactly."""
    sol = rf.SeriesSolution(X=list(coeffs), order=len(coeffs) - 1, spec=None)
    kernel = rf.moment_matrix(sol, model)
    reference = rf.moment_matrix(sol, model, pair_threshold=0)
    assert kernel.means == reference.means
    assert kernel.second == reference.second


def kernel_model():
    """Dependent multinomial pair (P, Q) beside independent scalar symbols."""
    table = rf.SymbolTable()
    p, q, u, g, b = (table.add(name) for name in ("P", "Q", "U", "G", "B"))
    return rf.RandomModel(table, [
        rf.DependenceBlock((p, q), rf.MultinomialVector(3, ("1/3", "2/3"))),
        rf.DependenceBlock((u,), rf.Uniform(-1, 2)),
        rf.DependenceBlock((g,), rf.Gamma(2, 3)),
        rf.DependenceBlock((b,), rf.Bernoulli("7/20")),
    ])


_monomials = st.lists(st.integers(0, 4), min_size=5, max_size=5).map(
    lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e)
)
_polys = st.dictionaries(
    _monomials, st.fractions(min_value=-10, max_value=10, max_denominator=12), max_size=4
).map(lambda terms: OraclePoly(terms).packed())


_third = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_block_dists = st.one_of(
    _third.map(rf.PointMass),
    st.fractions(min_value=0, max_value=1, max_denominator=4).map(rf.Bernoulli),
    st.tuples(_third, st.integers(1, 3)).map(lambda ab: rf.Uniform(ab[0], ab[0] + ab[1])),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda sr: rf.Gamma(*sr)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda ab: rf.Beta(*ab)),
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=2, max_size=3)
              .filter(any)).map(
        lambda tw: rf.MultinomialVector(tw[0], [Fraction(w, sum(tw[1])) for w in tw[1]])),
    # exponents up to 4 pass a support of at most 3 points
    st.lists(_third, min_size=1, max_size=3, unique=True).map(
        lambda xs: rf.FiniteDiscrete(xs, [Fraction(1, len(xs))] * len(xs))),
)


@st.composite
def block_models_and_coeffs(draw):
    """A model of 1-4 random independent blocks and a few polynomials in its symbols."""
    table, blocks = rf.SymbolTable(), []
    for b, dist in enumerate(draw(st.lists(_block_dists, min_size=1, max_size=4))):
        symbols = tuple(table.add(f"Z{b}_{i}") for i in range(dist.arity))
        blocks.append(rf.DependenceBlock(symbols, dist))
    monomials = st.dictionaries(st.integers(0, len(table) - 1), st.integers(1, 4),
                                max_size=3).map(lambda m: tuple(sorted(m.items())))
    polys = st.dictionaries(
        monomials, st.fractions(min_value=-10, max_value=10, max_denominator=12), max_size=4
    ).map(lambda terms: OraclePoly(terms).packed())
    return rf.RandomModel(table, blocks), draw(st.lists(polys, min_size=1, max_size=4))


def edge_model():
    """W, Y0, Z in that symbol-id order, so a carry out of Y0's field lands in Z's."""
    table = rf.SymbolTable()
    w, y, z = (table.add(name) for name in ("W", "Y0", "Z"))
    model = rf.RandomModel(table, [
        rf.DependenceBlock((w,), rf.Beta(2, 3)),
        rf.DependenceBlock((y,), rf.Uniform(0, 1)),
        rf.DependenceBlock((z,), rf.Gamma(3, 2)),
    ])
    return model, Poly.symbol(w), Poly.symbol(y), Poly.symbol(z)


def edge_coeffs(case):
    _, w, y, z = edge_model()
    half = Fraction(1, 2)
    return {
        "zero": [Poly.zero(), Poly.zero(), Poly.zero()],
        "constants": [Poly.const(1), Poly.zero(), Poly.const(-half), Poly.const(3)],
        "mixed_zero_and_constant": [Poly.zero(), Poly.const(3), z, Poly.zero(), y + half],
        # largest exponents 8: Y0^8 * Y0^8 = Y0^16 and W^8 * W^8 = W^16
        "power_of_two_16": [y**8, z, Poly.const(2), w**8 * y + z**2, half * y**8 * z - w],
        # largest exponents 16: Y0^15 * Y0^16 = Y0^31 and Y0^16 * Y0^16 = Y0^32
        "power_of_two_32": [y**16, y**15 * w, Poly.const(half), z * y**16 + w**16,
                            z + y, w**15 * z**16 - 3],
    }[case]


class TestMomentKernel:
    @pytest.mark.parametrize(
        "name,order",
        [("airy", 14), ("hermite", 14), ("hermite_forced", 14),
         ("polynomial_data", 8), ("beta_series", 8)],
    )
    def test_bundled_match_reference(self, bundled_specs, name, order):
        spec = bundled_specs[name]
        assert_kernel_matches_reference(compute_coeffs(spec, order).X, spec.model)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_inputs_match_reference(self, bundled_specs, name):
        # the single-polynomial kernel behind the norms of `check` and `majorant`
        spec = bundled_specs[name]
        model = spec.model
        inputs = [p for proc in (spec.a, spec.b, spec.c) for _, p in proc.items()]
        for p in inputs + [spec.y0, spec.y1]:
            reference = _pairwise_expect(model, p, p)
            assert model.second_moments([p]) == [[reference]]
            assert model.poly_l2_norm(p) == math.sqrt(float(reference))

    @given(st.lists(_polys, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_random_coefficients_match_reference(self, coeffs):
        assert_kernel_matches_reference(coeffs, kernel_model())

    @pytest.mark.parametrize(
        "case",
        ["zero", "constants", "mixed_zero_and_constant", "power_of_two_16", "power_of_two_32"],
    )
    def test_edge_cases_match_reference(self, case):
        assert_kernel_matches_reference(edge_coeffs(case), edge_model()[0])

    @given(block_models_and_coeffs())
    @settings(max_examples=60, deadline=None)
    def test_random_block_models_match_reference(self, case):
        # zero pivots: point masses, degenerate Bernoullis, powers past a finite support
        model, coeffs = case
        assert_kernel_matches_reference(coeffs, model)

    def test_constants_are_products(self):
        coeffs = edge_coeffs("constants")
        sol = rf.SeriesSolution(X=coeffs, order=len(coeffs) - 1, spec=None)
        mm = rf.moment_matrix(sol, edge_model()[0])
        values = [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(3)]
        assert mm.means == values
        assert mm.second == [[a * b for b in values] for a in values]


class TestIntegerArithmetic:
    """The integer sums over one denominator give the Fractions that term-by-term
    Fraction arithmetic gives."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_default_order(self, name):
        spec = rf.load_problem(name)
        sol = compute_coeffs(spec, spec.default_order)
        mm = rf.moment_matrix(sol, spec.model)
        oracle = rf.load_problem(name).model  # fresh caches
        assert mm.means == [term_by_term_mean(oracle, x) for x in sol.X]  # by `expect_poly`
        for t in (0, 0.1, Fraction(3, 4), Fraction(-1, 3), -1.25):
            tau = Fraction(t) - spec.t0
            mean = _horner(mm.means, tau)
            assert rf.exact_stats(mm, t, spec.t0) == (mean, _horner(mm.power_sums, tau) - mean**2)


class TestStatCurves:
    def test_exact_at_expansion_point(self, hermite_forced, hf_moments):
        curve = rf.stat_curves(hf_moments, [0.0], hermite_forced.t0)
        assert curve.mean[0] == 1.0
        assert curve.variance[0] == 0.5
        mean, var = rf.exact_stats(hf_moments, 0, 0)
        assert (mean, var) == (Fraction(1), Fraction(1, 2))

    def test_matches_exact_stats(self, hermite_forced, hf_moments):
        grid = [0.25, 1.0, 1.5]
        curve = rf.stat_curves(hf_moments, grid, hermite_forced.t0)
        for i, t in enumerate(grid):
            mean, var = rf.exact_stats(hf_moments, t, hermite_forced.t0)
            assert curve.mean[i] == float(mean)
            assert curve.variance[i] == float(var)

    def test_non_finite_t_is_a_spec_error(self, hermite_forced, hf_moments):
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(rf.SpecError, match="as a rational number"):
                rf.exact_stats(hf_moments, t, hermite_forced.t0)
            with pytest.raises(rf.SpecError, match="as a rational number"):
                rf.stat_curves(hf_moments, [0.0, t], hermite_forced.t0)

    def test_radius_warning(self, bundled_specs):
        spec = bundled_specs["beta_series"]
        mm = rf.moment_matrix(compute_coeffs(spec, 4), spec.model)
        with pytest.warns(UserWarning, match="outside the declared radius"):
            rf.stat_curves(mm, [1.5], spec.t0, radius=spec.radius)

    # the rational path has no rounding, so the variance of the truncated
    # solution is nonnegative exactly, and so is its float in a StatCurve;
    # the two many-symbol problems run at reduced order to keep the suite fast
    @pytest.mark.parametrize(
        "name,order,ts",
        [
            ("airy", 20, (0.5, 1.5)),
            ("hermite", 20, (0.5, 1.5)),
            ("hermite_forced", 20, (0.5, 1.5)),
            ("polynomial_data", 12, (0.5, 1.5)),
            ("beta_series", 10, (0.25, 0.75)),
        ],
    )
    def test_exact_variance_nonnegative(self, bundled_specs, name, order, ts):
        spec = bundled_specs[name]
        mm = rf.moment_matrix(compute_coeffs(spec, order), spec.model)
        for t in ts:
            _, var = rf.exact_stats(mm, t, spec.t0)
            assert var >= 0


def finite_discrete_doc(with_multinomial):
    doc = {
        "problem": {"t0": 0, "radius": "inf", "order": 6},
        "symbols": [
            {"name": "A", "dist": "finite_discrete",
             "params": {"support": [0, 1], "probs": ["13/20", "7/20"]}},
            {"name": "Y0", "dist": "finite_discrete",
             "params": {"support": ["1/2", 2], "probs": ["1/4", "3/4"]}},
        ],
        "series": {
            "A": [{"n": 1, "value": -2}],
            "B": [{"n": 0, "value": "A"}],
            "C": [{"n": 2, "value": "C"}],
        },
        "initial": {"Y0": "Y0", "Y1": "Y1"},
    }
    if with_multinomial:
        doc["blocks"] = [{"names": ["Y1", "C"], "dist": "multinomial",
                          "params": {"trials": 2, "probs": ["1/4", "3/4"]}}]
    else:
        doc["symbols"] += [
            {"name": "Y1", "dist": "finite_discrete",
             "params": {"support": [-1, 1], "probs": ["1/2", "1/2"]}},
            {"name": "C", "dist": "finite_discrete",
             "params": {"support": [0, 2], "probs": ["1/3", "2/3"]}},
        ]
    return doc


def block_support(block):
    """Exhaustive (assignment, probability) pairs for one block, from its parameters."""
    dist = block.dist
    if isinstance(dist, rf.MultinomialVector):
        points = []
        for counts in itertools.product(range(dist.trials + 1), repeat=dist.arity):
            if sum(counts) == dist.trials:
                pmf = Fraction(math.factorial(dist.trials))
                for c, p in zip(counts, dist.probs):
                    pmf = pmf * p**c / math.factorial(c)
                points.append((dict(zip(block.symbols, counts)), pmf))
        return points
    if isinstance(dist, rf.PointMass):
        pairs = [(dist.value, Fraction(1))]
    elif isinstance(dist, rf.Bernoulli):
        pairs = [(0, 1 - dist.p), (1, dist.p)]
    elif isinstance(dist, rf.Binomial):
        pairs = [(i, math.comb(dist.n, i) * dist.p**i * (1 - dist.p) ** (dist.n - i))
                 for i in range(dist.n + 1)]
    else:
        assert isinstance(dist, rf.FiniteDiscrete)
        pairs = zip(dist.support, dist.probs)
    return [({block.symbols[0]: x}, p) for x, p in pairs]


def enumerate_stats(spec, order, t):
    """Exhaustive-joint-support oracle for mean and variance at time t."""
    sol = compute_coeffs(spec, order)
    tau = Fraction(t) - spec.t0
    mean = Fraction(0)
    second = Fraction(0)
    supports = [block_support(b) for b in spec.model.blocks]
    for combo in itertools.product(*supports):
        values = {}
        weight = Fraction(1)
        for assignment, prob in combo:
            values.update(assignment)
            weight *= prob
        x = sum(
            (eval_poly_exact(p, values) * tau**n for n, p in enumerate(sol.X)),
            Fraction(0),
        )
        mean += weight * x
        second += weight * x * x
    return mean, second - mean * mean


class TestEnumerationEquivalence:
    # exact_stats evaluates through the same Horner code as stat_curves
    @given(finite_support_docs(), st.integers(2, 5),
           st.fractions(min_value=-1, max_value=1, max_denominator=4))
    @settings(max_examples=60, deadline=None)
    def test_random_finite_support_specs(self, doc, order, t):
        spec = build_problem(doc)
        mm = rf.moment_matrix(compute_coeffs(spec, order), spec.model)
        assert rf.exact_stats(mm, t, spec.t0) == enumerate_stats(spec, order, t)

    @pytest.mark.parametrize("with_multinomial", [False, True])
    @pytest.mark.parametrize("order", [4, 6])
    def test_exact_match(self, with_multinomial, order):
        spec = build_problem(finite_discrete_doc(with_multinomial))
        mm = rf.moment_matrix(compute_coeffs(spec, order), spec.model)
        for t in (0, Fraction(1, 4), Fraction(1, 2), 1):
            mean, var = rf.exact_stats(mm, t, spec.t0)
            oracle_mean, oracle_var = enumerate_stats(spec, order, t)
            assert mean == oracle_mean
            assert var == oracle_var


def unit_majorant_doc():
    """Zero initial data, B == 1: majorant constant is exactly 1 at s = 1."""
    return {
        "symbols": [{"name": "dummy", "dist": "pointmass", "params": {"value": 0}}],
        "series": {"B": [{"n": 0, "value": 1}]},
        "initial": {"Y0": 0, "Y1": 0},
    }


def direct_majorant_oracle(d_s, s, h0, h1, order):
    """Nested-sum form of the majorant definition, used as an oracle.

    H_{n+2} = D/( (n+2)(n+1) s^n ) * ( sum_{m<=n} s^m ((m+1) H_{m+1} + H_m) + 1 )
    """
    h = [h0, h1]
    for n in range(order - 1):
        inner = sum(s**m * ((m + 1) * h[m + 1] + h[m]) for m in range(n + 1)) + 1.0
        h.append(d_s / ((n + 2) * (n + 1) * s**n) * inner)
    return h


class TestMajorant:
    def test_unit_seed_and_next_term(self):
        spec = build_problem(unit_majorant_doc())
        maj = rf.majorant_sequence(spec, 1.0, 6)
        assert maj.d_s == 1.0
        assert maj.h[0] == 0.0 and maj.h[1] == 0.0
        assert maj.h[2] == 0.5
        assert maj.h[3] == pytest.approx(1 / 3, rel=1e-15)

    def test_recurrence_matches_direct_definition(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 12)
        oracle = direct_majorant_oracle(maj.d_s, maj.s, maj.h[0], maj.h[1], 12)
        for got, want in zip(maj.h, oracle):
            assert got == pytest.approx(want, rel=1e-12)

    def test_forcing_keeps_majorant_positive(self):
        doc = {
            "symbols": [{"name": "dummy", "dist": "pointmass", "params": {"value": 0}}],
            "series": {"C": [{"n": 0, "value": 1}]},
            "initial": {"Y0": 0, "Y1": 0},
        }
        spec = build_problem(doc)
        maj = rf.majorant_sequence(spec, 1.0, 8)
        assert maj.h[2] == maj.d_s / 2 > 0
        assert all(h > 0 for h in maj.h[2:])

    def test_flagship_constant(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 4)
        # D_s = max(2 * 1.6, 1, ||C_2|| * 1.6^2) with ||C_2||^2 = E[C^2] = 156/25
        expected = math.sqrt(156 / 25) * 1.6**2
        assert maj.d_s == pytest.approx(expected, rel=1e-15)
        assert maj.input_max_index == 2

    @pytest.mark.parametrize(
        "name,s", [("airy", 1.6), ("hermite", 1.6), ("polynomial_data", 1.6),
                   ("beta_series", 0.8), ("hermite_forced", 1.6)],
    )
    def test_domination_bundled(self, bundled_specs, name, s):
        spec = bundled_specs[name]
        order = 10
        sol = compute_coeffs(spec, order)
        maj = rf.majorant_sequence(spec, s, order)
        for n in range(order + 1):
            norm = spec.model.poly_l2_norm(sol.X[n])
            assert norm <= maj.h[n] * (1 + 1e-12) + 1e-300

    def test_truncation_consistency(self, bundled_specs):
        # successive-order mean gap is bounded by the next majorant term
        for name, s, ts in (("hermite_forced", 1.6, (0.5, 1.0, 1.5)),
                            ("beta_series", 0.8, (0.25, 0.5))):
            spec = bundled_specs[name]
            n = 10
            mm_lo = rf.moment_matrix(compute_coeffs(spec, n), spec.model)
            mm_hi = rf.moment_matrix(compute_coeffs(spec, n + 1), spec.model)
            maj = rf.majorant_sequence(spec, s, n + 1)
            for t in ts:
                lo, _ = rf.exact_stats(mm_lo, t, spec.t0)
                hi, _ = rf.exact_stats(mm_hi, t, spec.t0)
                assert abs(float(lo - hi)) <= maj.h[n + 1] * t ** (n + 1) * (1 + 1e-12)

    def test_scale_validation(self, hermite_forced, bundled_specs):
        with pytest.raises(ValueError, match="radius"):
            rf.majorant_sequence(bundled_specs["beta_series"], 1.2, 10)
        with pytest.raises(ValueError):
            rf.majorant_sequence(hermite_forced, 0.0, 10)

    def test_unbounded_coefficient_rejected(self):
        doc = {
            "symbols": [{"name": "G", "dist": "gamma", "params": {"shape": 2, "rate": 2}}],
            "series": {"B": [{"n": 0, "value": "G"}]},
            "initial": {"Y0": 1, "Y1": 0},
        }
        with pytest.raises(rf.UnboundedCoefficientError):
            rf.majorant_sequence(build_problem(doc), 1.0, 6)


class TestTailBound:
    def test_zero_tail(self):
        maj = rf.MajorantSeq(s=1.0, d_s=0.0, h=[1.0, 1.0, 0.0, 0.0, 0.0], input_max_index=-1)
        assert rf.tail_bound(maj, 0.5, 0.0, 1) == 0.0

    @pytest.mark.parametrize("r,s,t,t0,trunc", [
        (0.8, 1.0, 0.5, 0.0, 3),
        (2.0, 0.45, -0.3, 0.1, 6),  # t below t0
        (1.0, 1.0, 0.9, 0.0, 0),
    ])
    def test_geometric_majorant_tail(self, r, s, t, t0, trunc):
        # h_n = r^n: the tail sum over n > N is (r tau)^(N+1) / (1 - r tau),
        # which the terms past h_K and the extrapolation from the ratio r must add up to
        maj = rf.MajorantSeq(s=s, d_s=0.0, h=[r**n for n in range(12)], input_max_index=-1)
        q = r * abs(t - t0)
        assert rf.tail_bound(maj, t, t0, trunc) == pytest.approx(q ** (trunc + 1) / (1 - q),
                                                                  rel=1e-12)

    def test_zero_at_expansion_point(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 30)
        assert rf.tail_bound(maj, 0.0, 0.0, 20) == 0.0

    def test_flagship_finite_and_monotone(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 170)
        bounds = [rf.tail_bound(maj, 1.5, 0.0, n) for n in (20, 21, 25, 30)]
        assert all(0 < b < math.inf for b in bounds)
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_unstabilized_ratio_reports_infinite(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 40)
        with pytest.warns(UserWarning, match="not convergent"):
            assert rf.tail_bound(maj, 1.5, 0.0, 20) == math.inf

    def test_domain_errors(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 30)
        with pytest.raises(ValueError, match="t must satisfy"):
            rf.tail_bound(maj, 1.7, 0.0, 20)
        with pytest.raises(ValueError, match="more terms"):
            rf.tail_bound(maj, 1.0, 0.0, 30)

    def test_rejects_negative_order_and_non_finite_t(self, hermite_forced):
        maj = rf.majorant_sequence(hermite_forced, 1.6, 40)
        with pytest.raises(ValueError, match=r"^trunc_order must be >= 0, got -1$"):
            rf.tail_bound(maj, 1.0, 0.0, -1)
        for t, t0, name in ((math.nan, 0.0, "t"), (math.inf, 0.0, "t"), (0.5, math.nan, "t0"),
                            (0.5, -math.inf, "t0")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number, got"):
                rf.tail_bound(maj, t, t0, 20)


class TestLipschitz:
    def test_trivial_floor(self):
        doc = {
            "symbols": [{"name": "dummy", "dist": "pointmass", "params": {"value": 0}}],
            "initial": {"Y0": 1, "Y1": 0},
        }
        assert rf.lipschitz_k(build_problem(doc), 2.0) == 1.0

    def test_flagship_at_one(self, hermite_forced):
        # |A'(1)| bound 2, ||B_0|| = 1 -> max(1, 3)
        assert rf.lipschitz_k(hermite_forced, 1.0) == 3.0

    def test_constant_restoring_force(self):
        doc = {
            "symbols": [{"name": "dummy", "dist": "pointmass", "params": {"value": 0}}],
            "series": {"B": [{"n": 0, "value": 1}]},
            "initial": {"Y0": 1, "Y1": 0},
        }
        spec = build_problem(doc)
        for t in (0.0, 1.0, 7.5):
            assert rf.lipschitz_k(spec, t) == 1.0

    def test_errors(self, bundled_specs):
        with pytest.raises(ValueError, match="radius"):
            rf.lipschitz_k(bundled_specs["beta_series"], 1.5)
        doc = {
            "symbols": [{"name": "G", "dist": "gamma", "params": {"shape": 2, "rate": 2}}],
            "series": {"A": [{"n": 0, "value": "G"}]},
            "initial": {"Y0": 1, "Y1": 0},
        }
        with pytest.raises(rf.UnboundedCoefficientError):
            rf.lipschitz_k(build_problem(doc), 0.5)

    def test_rejects_non_finite_t(self, hermite_forced):
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^t must be a finite number, got"):
                rf.lipschitz_k(hermite_forced, t)
