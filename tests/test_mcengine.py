"""Monte Carlo engine: reproducibility, the RK4 oracle, and comparisons."""

import math
import re
from itertools import accumulate
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import BUNDLED, OraclePoly, decode_key, finite_support_docs, per_draw_rk4, rk4_docs

import randfrob as rf
from randfrob import (
    McConfig, Poly, RandomModel, SeriesProcess, build_problem, compute_coeffs, compare_curves,
    mc_rk4, mc_series,
)
from randfrob import mcengine
from randfrob.frobenius import coeff_recursion
from randfrob.mcengine import CHUNK, _EvalPlan, _sample_matrix
from randfrob.uqstats import _horner

GRID7 = [0.25 * k for k in range(7)]


def oscillator_spec(b=1):
    doc = {
        "symbols": [{"name": "b", "dist": "pointmass", "params": {"value": b}}],
        "series": {"B": [{"n": 0, "value": "b"}]},
        "initial": {"Y0": 1, "Y1": 0},
    }
    return build_problem(doc)


def quiet_rk4(spec, grid, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mc_rk4(spec, grid, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0, seed=1)
        with pytest.raises(ValueError, match="input_truncation"):
            McConfig(samples=10, seed=1, input_truncation=-1)
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=f"seed must lie in .*got {seed}"):
                McConfig(samples=10, seed=seed)
        for step in (0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="rk4_step"):
                McConfig(samples=10, seed=1, rk4_step=step)

    def test_record_constructor(self):
        # fields by position or keyword, defaults from the class, and a
        # TypeError for a missing, unknown, doubled or surplus argument
        assert McConfig(8, 1) == McConfig(seed=1, samples=8) == McConfig(8, 1, 1e-3, None)
        assert McConfig(8, 1).rk4_step == McConfig.rk4_step == 1e-3
        for args, kwargs in [((8,), {}), ((8, 1), {"step": 1}), ((8, 1), {"seed": 2}),
                             ((8, 1, 1e-3, None, 0), {})]:
            with pytest.raises(TypeError, match="McConfig takes the fields"):
                McConfig(*args, **kwargs)
        assert hash(McConfig(8, 1)) == hash(McConfig(seed=1, samples=8))
        with pytest.raises(AttributeError):
            McConfig(8, 1).seed = 2
        with pytest.raises(TypeError, match="unhashable"):  # not frozen
            hash(rf.StatCurve([0.0], [1.0], [0.0]))


class TestReproducibility:
    def test_bit_identical_reruns(self, hermite_forced, hf_solution):
        cfg = McConfig(samples=3000, seed=11)
        a = mc_series(hf_solution, GRID7, cfg)
        b = mc_series(hf_solution, GRID7, cfg)
        assert a.mean == b.mean
        assert a.variance == b.variance
        assert a.ci_halfwidth == b.ci_halfwidth

    def test_thread_count_invariance(self, hermite_forced, hf_solution, monkeypatch):
        cfg = McConfig(samples=20000, seed=11)
        monkeypatch.setenv("RANDFROB_THREADS", "1")
        a = mc_series(hf_solution, GRID7, cfg)
        monkeypatch.setenv("RANDFROB_THREADS", "4")
        b = mc_series(hf_solution, GRID7, cfg)
        assert a.mean == b.mean
        assert a.variance == b.variance

    def test_rk4_thread_count_invariance(self, hermite_forced, monkeypatch):
        cfg = McConfig(samples=2 * CHUNK + 37, seed=11, rk4_step=0.05)
        curves = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("RANDFROB_THREADS", threads)
            curves.append(quiet_rk4(hermite_forced, [0.0, 0.5, 1.0], cfg))
        for curve in curves[1:]:
            assert curve.mean == curves[0].mean
            assert curve.variance == curves[0].variance

    @given(finite_support_docs(), st.integers(1, CHUNK - 1), st.integers(0, 2**32))
    @settings(max_examples=8, deadline=None)
    def test_thread_count_invariance_random_specs(self, doc, r, seed):
        spec = build_problem(doc)
        sol = compute_coeffs(spec, 4)
        cfg = McConfig(samples=2 * CHUNK + r, seed=seed, rk4_step=0.25)
        curves = {}
        with pytest.MonkeyPatch.context() as mp:
            for threads in ("1", "3"):
                mp.setenv("RANDFROB_THREADS", threads)
                curves[threads] = [mc_series(sol, [0.0, 0.5], cfg),
                                   quiet_rk4(spec, [0.0, 0.5], cfg)]
        for one, three in zip(curves["1"], curves["3"]):
            assert (one.mean, one.variance) == (three.mean, three.variance)

    def test_rk4_thread_count_invariance_shared_groups(self, monkeypatch):
        # The draws with S = 0 share their A/B values and form one group in
        # every chunk; S*U makes the rest single columns, two in chunk 0,
        # none in chunks 1 and 4 and one in chunks 2 and 3.  The group's
        # basis is memoized for the whole call, so the curves must not
        # depend on the thread count or on which chunk reaches it first.
        doc = {
            "symbols": [
                {"name": "S", "dist": "bernoulli", "params": {"p": "1/10000"}},
                {"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}},
            ],
            "series": {"A": [{"n": n, "value": "1 + S*U"} for n in range(8)],
                       "B": [{"n": n, "value": "1/2 - S*U"} for n in range(8)],
                       "C": [{"n": 0, "value": "U"}]},
            "initial": {"Y0": "U", "Y1": 1},
        }
        spec = build_problem(doc)
        cfg = McConfig(samples=4 * CHUNK + 123, seed=9, rk4_step=0.05)
        s_column = spec.model.table.id_of("S")
        singles = [_sample_matrix(spec.model, cfg.seed, start, min(CHUNK, cfg.samples - start))
                   [:, s_column].sum() for start in range(0, cfg.samples, CHUNK)]
        assert singles == [2, 0, 1, 1, 0]
        curves = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("RANDFROB_THREADS", threads)
            curves.append(quiet_rk4(spec, [0.0, 0.5, 1.0], cfg))
        # and with the chunks run last to first
        run_chunks = mcengine._run_chunks

        def last_chunk_first(samples, worker):
            paths = {s: worker(s, min(CHUNK, samples - s))
                     for s in reversed(range(0, samples, CHUNK))}
            return run_chunks(samples, lambda start, count: paths[start])

        monkeypatch.setattr(mcengine, "_run_chunks", last_chunk_first)
        curves.append(quiet_rk4(spec, [0.0, 0.5, 1.0], cfg))
        for curve in curves[1:]:
            assert curve.mean == curves[0].mean
            assert curve.variance == curves[0].variance

    def test_first_chunk_rows_independent_of_sample_count(self, hermite_forced, hf_solution,
                                                         monkeypatch):
        seen = {}

        def recording(model, seed, start, count, blocks=None):
            values = _sample_matrix(model, seed, start, count, blocks)
            seen[samples, start] = values
            return values

        monkeypatch.setattr(mcengine, "_sample_matrix", recording)
        for samples in (CHUNK, CHUNK + 100):
            mc_series(hf_solution, [1.0], McConfig(samples=samples, seed=6))
        assert sorted(seen) == [(CHUNK, 0), (CHUNK + 100, 0), (CHUNK + 100, CHUNK)]
        assert (seen[CHUNK, 0] == seen[CHUNK + 100, 0]).all()
        assert seen[CHUNK + 100, CHUNK].shape == (100, hermite_forced.model.n_symbols)

    def test_seed_changes_draws(self, hermite_forced, hf_solution):
        a = mc_series(hf_solution, [1.0], McConfig(samples=500, seed=1))
        b = mc_series(hf_solution, [1.0], McConfig(samples=500, seed=2))
        assert a.mean != b.mean


class TestLeadingDraws:
    """Each route draws only the leading blocks up to the last one owning a
    symbol its plan reads, and its curves equal those of full draws."""

    @staticmethod
    def run(monkeypatch, route):
        """The `blocks` each chunk asks `RandomModel.draw` for and the curve
        of `route()`, then the curve of `route()` with every block drawn."""
        draw = RandomModel.draw
        asked = []

        def recording(self, stream, count, blocks=None):
            asked.append(blocks)
            return draw(self, stream, count, blocks)

        monkeypatch.setattr(RandomModel, "draw", recording)
        pruned = route()
        monkeypatch.setattr(RandomModel, "draw",
                            lambda self, stream, count, blocks=None: draw(self, stream, count))
        return asked, pruned, route()

    def test_series_draws_inputs_to_order_minus_2(self, bundled_specs, monkeypatch):
        spec = bundled_specs["beta_series"]  # blocks Y0, Y1, A_0 .. A_40
        assert len(spec.model.blocks) == 43
        sol = compute_coeffs(spec, 6)
        cfg = McConfig(samples=CHUNK + 100, seed=3)
        asked, pruned, full = self.run(
            monkeypatch, lambda: mc_series(sol, [0.0, 0.4, 0.8], cfg))
        assert asked == [7, 7]  # Y0, Y1 and A_0 .. A_4
        assert pruned == full

    def test_rk4_draws_inputs_to_truncation(self, bundled_specs, monkeypatch):
        spec = bundled_specs["beta_series"]
        cfg = McConfig(samples=100, seed=3, rk4_step=1e-2, input_truncation=3)
        asked, pruned, full = self.run(
            monkeypatch, lambda: quiet_rk4(spec, [0.0, 0.3, 0.6], cfg))
        assert asked == [6]  # Y0, Y1 and A_0 .. A_3
        assert pruned == full

    def test_symbol_in_last_block_draws_every_block(self, monkeypatch):
        doc = {
            "symbols": [{"name": name, "dist": "uniform", "params": {"a": 0, "b": 1}}
                        for name in ("U", "V", "W")],
            "series": {"B": [{"n": 0, "value": "W"}]},
            "initial": {"Y0": 1, "Y1": 0},
        }
        spec = build_problem(doc)
        sol = compute_coeffs(spec, 6)
        cfg = McConfig(samples=50, seed=1)
        asked, pruned, full = self.run(
            monkeypatch, lambda: mc_series(sol, [0.0, 0.5], cfg))
        assert asked == [3]
        assert pruned == full


class TestSeriesMethod:
    def test_flagship_t0_within_scatter(self, hermite_forced, hf_solution):
        cfg = McConfig(samples=20000, seed=3)
        curve = mc_series(hf_solution, [0.0], cfg)
        sigma = curve.ci_halfwidth[0] / 1.96
        assert abs(curve.mean[0] - 1.0) < 3 * sigma

    def test_pointmass_model_matches_exact(self):
        doc = {
            "symbols": [
                {"name": "a0", "dist": "pointmass", "params": {"value": "1/2"}},
                {"name": "b0", "dist": "pointmass", "params": {"value": 1}},
            ],
            "series": {"A": [{"n": 0, "value": "a0"}], "B": [{"n": 0, "value": "b0"}]},
            "initial": {"Y0": 1, "Y1": "-1/2"},
        }
        spec = build_problem(doc)
        sol = compute_coeffs(spec, 12)
        exact = rf.stat_curves(rf.moment_matrix(sol, spec.model), GRID7, spec.t0)
        mc = mc_series(sol, GRID7, McConfig(samples=64, seed=5))
        for i in range(len(GRID7)):
            assert mc.mean[i] == pytest.approx(exact.mean[i], abs=1e-12)
            assert mc.variance[i] == pytest.approx(0.0, abs=1e-12)

    def test_order_beyond_generator_inputs(self, bundled_specs):
        # X_43 reads A_41, past beta_series' generator M = 40: mc_series checks
        # that itself, as compute_coeffs does, instead of reading zeros there
        spec = bundled_specs["beta_series"]
        sol = rf.SeriesSolution(X=[Poly.zero()] * 44, order=43, spec=spec)
        with pytest.raises(rf.SpecError, match=re.escape(
                "series A: generator M=40 expands inputs up to index 40, but order 43"
                " needs index 41; raise M to at least 41")):
            mc_series(sol, [0.5], McConfig(samples=10, seed=7))

    def test_single_sample_variance_warned(self, hermite_forced, hf_solution):
        with pytest.warns(UserWarning, match="single draw"):
            curve = mc_series(hf_solution, [1.0], McConfig(samples=1, seed=9))
        assert curve.variance == [0.0]

    def test_radius_warning(self, bundled_specs):
        # as in `stat_curves`, a grid point at or past the radius 1 warns;
        # RK4 integrates truncated polynomial inputs and stays silent
        spec = bundled_specs["beta_series"]
        cfg = McConfig(samples=16, seed=3, rk4_step=0.05, input_truncation=2)
        with pytest.warns(UserWarning, match="outside the declared radius") as record:
            mc_series(compute_coeffs(spec, 4), [0.0, 0.5, 1.0, 2.0], cfg)
        assert [str(w.message) for w in record] == [
            f"grid point t={t} lies outside the declared radius" for t in (1, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc_rk4(spec, [0.0, 2.0], cfg)

    def test_variance_nonnegative(self, hermite_forced, hf_solution):
        curve = mc_series(hf_solution, GRID7, McConfig(samples=777, seed=13))
        assert all(v >= 0 for v in curve.variance)

    def test_pooled_chunks_match_one_pass(self):
        # chunks of unequal counts (one of a single draw) and different means:
        # pooling their squared deviations needs ddof=1 and each chunk's
        # n_k (mean_k - mean)^2, or the variance is off
        draws = [[[1.0, 2.5, 4.0, -0.5], [10.0], [-3.0, 0.25, 7.0]],
                 [[0.5, 0.75, 0.25, 1.0], [-2.0], [3.0, 3.5, 2.5]]]  # per grid point
        chunks = []
        for k in range(3):
            rows = [np.array(point[k]) for point in draws]
            sums = np.array([row.sum() for row in rows])
            squares = np.array([((row - row.mean()) ** 2).sum() for row in rows])
            chunks.append((len(rows[0]), sums, squares))
        curve = mcengine._aggregate([0.0, 1.0], chunks, label="pooled")
        for g, point in enumerate(draws):
            values = [x for chunk in point for x in chunk]
            mean = math.fsum(values) / len(values)
            var = math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1)
            assert curve.mean[g] == pytest.approx(mean, rel=1e-12)
            assert curve.variance[g] == pytest.approx(var, rel=1e-12)
            assert curve.ci_halfwidth[g] == pytest.approx(1.96 * math.sqrt(var / len(values)),
                                                          rel=1e-12)

    @pytest.mark.parametrize("route", ["series", "rk4"])
    def test_variance_survives_large_mean(self, route):
        # x = 1e8 + U: sum x^2 - N mean^2 would cancel every digit of the
        # variance 1/12; deviations about each chunk's mean keep them
        doc = {"symbols": [{"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
               "initial": {"Y0": "100000000 + U", "Y1": 0}}
        spec = build_problem(doc)
        cfg = McConfig(samples=100_000, seed=7, rk4_step=0.5)
        if route == "series":
            curve = mc_series(compute_coeffs(spec, 4), [0.0, 1.0], cfg)
        else:
            curve = quiet_rk4(spec, [0.0, 1.0], cfg)
        for var in curve.variance:
            assert var == pytest.approx(1 / 12, rel=0.05)

    # x = 3/4 + t/2 solves x'' + x'/2 - x/4 = 1/16 - t/8 with x(0) = 3/4 and
    # x'(0) = 1/2: every input is a dyadic constant, so each X_n past X_1 is an
    # exact float 0 and every draw's path is 3/4 + t/2 to the bit.  U is read
    # by no input.
    CONSTANT = {
        "symbols": [{"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
        "series": {"A": [{"n": 0, "value": "1/2"}], "B": [{"n": 0, "value": "-1/4"}],
                   "C": [{"n": 0, "value": "1/16"}, {"n": 1, "value": "-1/8"}]},
        "initial": {"Y0": "3/4", "Y1": "1/2"},
    }

    @staticmethod
    def every_row_series(sol, grid, cfg):
        """`mc_series` with every input a plan row and the ring `_horner`."""
        spec, order = sol.spec, sol.order
        taus = np.array([float(t) - float(spec.t0) for t in grid])[:, None]
        terms = spec.inputs(order - 2)
        plan = _EvalPlan([p for _, _, p in terms] + [spec.y0, spec.y1])

        def worker(start, count):
            rows = plan(_sample_matrix(spec.model, cfg.seed, start, count))
            coeffs = coeff_recursion([(s, k, rows[j]) for j, (s, k, _) in enumerate(terms)],
                                     rows[-2], rows[-1], order, np.zeros(count))
            return _horner(coeffs, taus)

        return mcengine._aggregate(grid, mcengine._run_chunks(cfg.samples, worker),
                                   label=f"mc-series[{cfg.samples}]")

    @pytest.mark.parametrize("name,order,grid", [
        ("beta_series", 20, [0.0, 0.3, 0.6]),
        ("hermite_forced", 20, GRID7),
        (None, 12, [0.0, 0.5, 1.0]),
    ], ids=["beta_series", "hermite_forced", "constant"])
    def test_constant_inputs_keep_the_bits(self, bundled_specs, monkeypatch, name, order, grid):
        # constant inputs enter the recursion as numbers, which multiply
        # and add with the bits of a constant row; beta_series has 18
        # constant B_n, hermite_forced its A_1 = -2
        spec = build_problem(self.CONSTANT) if name is None else bundled_specs[name]
        sol = compute_coeffs(spec, order)
        cfg = McConfig(samples=2 * CHUNK + 5, seed=17)
        want = self.every_row_series(sol, grid, cfg)
        plans, draws = [], []

        class Recording(_EvalPlan):
            def __init__(self, polys):
                super().__init__(polys)
                plans.append(self.rows)

        draw = RandomModel.draw
        monkeypatch.setattr(mcengine, "_EvalPlan", Recording)
        monkeypatch.setattr(RandomModel, "draw", lambda model, stream, count, blocks=None:
                            draws.append(blocks) or draw(model, stream, count, blocks))
        for threads in ("1", "2"):
            monkeypatch.setenv("RANDFROB_THREADS", threads)
            assert mc_series(sol, grid, cfg) == want
        inputs = [p for _, _, p in spec.inputs(order - 2)] + [spec.y0, spec.y1]
        assert plans[0] == sum(bool(p.terms.keys() - {0}) for p in inputs)
        if name is None:
            assert plans == [0, 0] and set(draws) == {0}
            assert want.mean == [0.75 + t / 2 for t in grid]
            assert want.variance == [0.0] * len(grid)


class TestSeriesRecursion:
    """The float recursion on sampled inputs against the exact route: the
    expanded X_n of `compute_coeffs` evaluated at the same draws.

    Each row may differ by 1e-12 of its largest magnitude, taken as X_n with
    every coefficient and draw made nonnegative: that bounds the exact
    route's own rounding, also where the terms of X_n cancel to about zero
    (A_0 = S^2 - 1 at S = 1)."""

    @staticmethod
    def check(spec, order, seed=0, count=64):
        values = _sample_matrix(spec.model, seed, 0, count)
        terms = spec.inputs(order - 2)
        rows = _EvalPlan([p for _, _, p in terms] + [spec.y0, spec.y1])(values)
        got = np.array(coeff_recursion([(s, k, rows[j]) for j, (s, k, _) in enumerate(terms)],
                                       rows[-2], rows[-1], order, np.zeros(count)))
        X = compute_coeffs(spec, order).X
        want = _EvalPlan(X)(values)
        scale = _EvalPlan([Poly({k: abs(c) for k, c in x.terms.items()}, x.den)
                           for x in X])(np.abs(values))
        assert got.shape == want.shape == (order + 1, count)
        for n, (g, w, m) in enumerate(zip(got, want, scale)):
            assert np.abs(g - w).max() <= 1e-12 * m.max(), n

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_order_20(self, bundled_specs, name):
        # beta_series stores A_n and B_n up to its generator M = 40, past
        # the cap N - 2 = 18
        self.check(bundled_specs[name], 20)

    @pytest.mark.parametrize("order", [2, 3])
    def test_hermite_forced_low_orders(self, hermite_forced, order):
        # C_2 is stored but lies past the cap N - 2 at both orders
        terms = hermite_forced.inputs(order - 2)
        assert (2, 2) not in [(s, n) for s, n, _ in terms]
        self.check(hermite_forced, order)

    @given(st.one_of(finite_support_docs(), rk4_docs()), st.integers(2, 7), st.integers(0, 2**32))
    @example({"symbols": [{"name": "S", "dist": "pointmass", "params": {"value": 1}}],
              "series": {"A": [{"n": 0, "value": "S^2 - 1"}]},
              "initial": {"Y0": 0, "Y1": "S + 1/3"}}, 2, 0).via("X_2 cancels to zero")
    @settings(max_examples=40, deadline=None)
    def test_random_specs(self, doc, order, seed):
        self.check(build_problem(doc), order, seed)


class TestRk4Method:
    def test_harmonic_oscillator(self):
        spec = oscillator_spec(b=1)
        cfg = McConfig(samples=1, seed=0, rk4_step=1e-3)
        curve = quiet_rk4(spec, [math.pi / 3], cfg)
        assert abs(curve.mean[0] - 0.5) < 1e-6

    def test_step_quantization_warns(self):
        spec = oscillator_spec(b=1)
        cfg = McConfig(samples=2, seed=0, rk4_step=1e-3)
        with pytest.warns(UserWarning, match="does not divide"):
            mc_rk4(spec, [math.pi / 3], cfg)

    def test_fourth_order_convergence(self):
        spec = oscillator_spec(b=4)  # x(t) = cos(2t)
        grid = [0.25 * k for k in range(13)]
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            cfg = McConfig(samples=1, seed=0, rk4_step=h)
            curve = quiet_rk4(spec, grid, cfg)
            errors.append(max(abs(m - math.cos(2 * t)) for m, t in zip(curve.mean, grid)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12 < coarse / fine < 20

    def test_zero_data_stays_zero(self):
        doc = {
            "symbols": [{"name": "b", "dist": "pointmass", "params": {"value": 1}}],
            "series": {"B": [{"n": 0, "value": "b"}]},
            "initial": {"Y0": 0, "Y1": 0},
        }
        spec = build_problem(doc)
        cfg = McConfig(samples=2, seed=0, rk4_step=1e-2)
        curve = quiet_rk4(spec, [0.0, 0.5, 1.0], cfg)
        assert curve.mean == [0.0, 0.0, 0.0]
        assert curve.variance == [0.0, 0.0, 0.0]

    def test_gapped_forced_inputs_match_series(self):
        # a, b and c each skip indices, and c forces the equation: every plan
        # row must land in its own series at its own power of tau
        doc = {
            "symbols": [
                {"name": "a2", "dist": "pointmass", "params": {"value": "3/4"}},
                {"name": "b0", "dist": "pointmass", "params": {"value": 2}},
                {"name": "b3", "dist": "pointmass", "params": {"value": "-1/3"}},
                {"name": "c1", "dist": "pointmass", "params": {"value": "5/2"}},
            ],
            "series": {
                "A": [{"n": 2, "value": "a2"}],
                "B": [{"n": 0, "value": "b0"}, {"n": 3, "value": "b3"}],
                "C": [{"n": 1, "value": "c1"}],
            },
            "initial": {"Y0": 1, "Y1": "-1/2"},
        }
        spec = build_problem(doc)
        grid = [Fraction(k, 10) for k in range(6)]
        means = [spec.model.expect_poly(x) for x in compute_coeffs(spec, 30).X]
        exact = [float(sum(m * t**n for n, m in enumerate(means))) for t in grid]
        curve = quiet_rk4(spec, [float(t) for t in grid], McConfig(samples=1, seed=0, rk4_step=1e-4))
        assert max(abs(a - b) for a, b in zip(exact, curve.mean)) < 1e-8

    # Groups whose a, b and c read tau^3, tau^5 and tau^7.
    HIGH_INDEX = {
        "symbols": [
            {"name": "F", "dist": "finite_discrete",
             "params": {"support": ["-1", "1/2"], "probs": ["1/4", "3/4"]}},
            {"name": "U", "dist": "uniform", "params": {"a": -1, "b": 1}},
        ],
        "series": {"A": [{"n": 3, "value": "F"}], "B": [{"n": 5, "value": "1 - F"}],
                   "C": [{"n": 7, "value": "U"}]},
        "initial": {"Y0": "U", "Y1": "F"},
    }

    @given(rk4_docs(), st.integers(0, 2), st.integers(1, CHUNK - 1), st.integers(0, 2**32))
    @example({"symbols": [{"name": "F", "dist": "binomial", "params": {"n": 3, "p": "1/3"}}],
              "series": {"A": [{"n": 0, "value": "F"}], "B": [{"n": 1, "value": "1 - F"}],
                         "C": [{"n": 0, "value": "F"}]},
              "initial": {"Y0": 1, "Y1": "F"}}, 1, 500, 3).via("finite-support A/B")
    @example({"symbols": [{"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
              "series": {"C": [{"n": 1, "value": "U"}]},
              "initial": {"Y0": "U", "Y1": 0}}, 0, 700, 4).via("no A/B terms")
    @example({"symbols": [{"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
              "series": {"A": [{"n": 0, "value": 1}], "B": [{"n": 0, "value": "U"}]},
              "initial": {"Y0": 1, "Y1": "U"}}, 1, 300, 5).via("all single draws")
    @example({"symbols": [{"name": "S", "dist": "bernoulli", "params": {"p": "1/2"}},
                          {"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
              "series": {"B": [{"n": 0, "value": "S*U"}], "C": [{"n": 0, "value": "S"}]},
              "initial": {"Y0": "U", "Y1": 1}}, 0, 900, 6).via("groups and single draws")
    @example(HIGH_INDEX, 0, 600, 8).via("inputs of index 3, 5 and 7")
    @settings(max_examples=25, deadline=None)
    def test_matches_per_draw_oracle(self, doc, chunks, rest, seed):
        # superposed groups only reorder rounding; without a group the
        # chunk is integrated as it is and must give the same bits.  The
        # variance comes from sums of squares of size E[x^2] = var + mean^2,
        # so a last-bit change in the paths moves it by that much: both
        # statistics are compared relative to that second moment
        spec = build_problem(doc)
        cfg = McConfig(samples=chunks * CHUNK + rest, seed=seed, rk4_step=0.125)
        grid = [0.0, 0.25, 0.5]
        got = quiet_rk4(spec, grid, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = per_draw_rk4(spec, grid, cfg)
        ab_terms = [t["value"] for label in ("A", "B") for t in doc["series"].get(label, [])]
        if "U" in ab_terms:  # a continuous A/B term: every draw is its own group
            assert (got.mean, got.variance) == (want.mean, want.variance)
        for m1, v1, m2, v2 in zip(got.mean, got.variance, want.mean, want.variance):
            second = max(v1 + m1 * m1, v2 + m2 * m2)
            assert abs(m1 - m2) <= 1e-12 * math.sqrt(second)
            assert abs(v1 - v2) <= 1e-12 * second

    TWO_C_TERMS = {
        "symbols": [
            {"name": "F", "dist": "finite_discrete",
             "params": {"support": ["-1", "1/2"], "probs": ["1/4", "3/4"]}},
            {"name": "U", "dist": "uniform", "params": {"a": -1, "b": 1}},
        ],
        "series": {"A": [{"n": 0, "value": "F"}], "B": [{"n": 1, "value": "1 - F"}],
                   "C": [{"n": 0, "value": "U"}, {"n": 2, "value": "F*U"}]},
        "initial": {"Y0": "U", "Y1": "F"},
    }

    ALL_SINGLE = {
        "symbols": [{"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}}],
        "series": {"A": [{"n": 0, "value": 1}], "B": [{"n": 0, "value": "U"}],
                   "C": [{"n": 1, "value": "U"}]},
        "initial": {"Y0": 1, "Y1": "U"},
    }

    @pytest.mark.parametrize("doc,grid", [
        (None, GRID7),
        (TWO_C_TERMS, [0.0, 0.0, 0.25, 0.25, 0.5]),  # zero-step legs at t0 and at 0.25
        (ALL_SINGLE, [0.0, 0.0, 0.25, 0.5]),
        (HIGH_INDEX, [0.0, 0.25, 0.5, 1.0]),
    ], ids=["hermite_forced", "two-c-terms", "all-single-draws", "high-index"])
    def test_step_blocks_do_not_change_result(self, hermite_forced, monkeypatch, doc, grid):
        # single draws walk the steps STEP_BLOCK at a time and groups
        # STEP_WINDOW at a time; blocks of 7 steps cut the legs anywhere and
        # must give the same bits
        spec = hermite_forced if doc is None else build_problem(doc)
        cfg = McConfig(samples=64, seed=3, rk4_step=1e-3)
        default = quiet_rk4(spec, grid, cfg)
        monkeypatch.setattr(mcengine, "STEP_BLOCK", 7)
        assert quiet_rk4(spec, grid, cfg) == default
        want = per_draw_rk4(spec, grid, cfg)
        if doc is self.ALL_SINGLE:  # no group forms: the per-draw walk, bit for bit
            assert (default.mean, default.variance) == (want.mean, want.variance)
        for m1, v1, m2, v2 in zip(default.mean, default.variance, want.mean, want.variance):
            second = max(v1 + m1 * m1, v2 + m2 * m2)
            assert abs(m1 - m2) <= 1e-12 * math.sqrt(second)
            assert abs(v1 - v2) <= 1e-12 * second

    def test_group_windows_cut_each_leg(self, monkeypatch):
        # a group composes its maps in windows of STEP_WINDOW steps, cut at
        # each leg's end: legs of 1, W - 1, W, W + 1 and 2W + 3 steps and
        # zero-step legs, at the exact step 2^-10, end at, just before and
        # just after window edges, and must still be the step by step walk
        # up to rounding.  The last chunk's 3 draws are single draws, walked
        # STEP_BLOCK steps at a time; the bits must not depend on the thread
        # count or on the blocks
        w = mcengine.STEP_WINDOW
        steps = [0, 1, w - 1, w, 0, w + 1, 2 * w + 3]
        grid = [n / 1024 for n in accumulate(steps)]
        spec = build_problem(self.TWO_C_TERMS)
        cfg = McConfig(samples=CHUNK + 3, seed=11, rk4_step=2.0**-10)
        curves = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANDFROB_THREADS", threads)
            curves.append(quiet_rk4(spec, grid, cfg))
        monkeypatch.setattr(mcengine, "STEP_BLOCK", 7)
        curves.append(quiet_rk4(spec, grid, cfg))
        assert all(curve == curves[0] for curve in curves)
        got, want = curves[0], per_draw_rk4(spec, grid, cfg)
        for m1, v1, m2, v2 in zip(got.mean, got.variance, want.mean, want.variance):
            second = max(v1 + m1 * m1, v2 + m2 * m2)
            assert abs(m1 - m2) <= 1e-12 * math.sqrt(second)
            assert abs(v1 - v2) <= 1e-12 * second

    def test_groups_and_single_draws_share_chunks(self, monkeypatch):
        # B_0 = a + g*u is 0 or 1 where g = 0, two groups in every chunk, and
        # continuous on the draws with g = 1, single draws in the same chunks.
        # A chunk writes its groups' paths in group order and its single
        # draws last: the bits must not depend on the thread count or on
        # STEP_BLOCK, and only the sums' rounding may differ from a per-draw pass
        doc = {
            "symbols": [{"name": "a", "dist": "bernoulli", "params": {"p": "1/2"}},
                        {"name": "g", "dist": "bernoulli", "params": {"p": "1/500"}},
                        {"name": "u", "dist": "uniform", "params": {"a": -1, "b": 1}}],
            "series": {"B": [{"n": 0, "value": "a + g*u"}], "C": [{"n": 0, "value": "a - u"}]},
            "initial": {"Y0": "u", "Y1": 1},
        }
        spec, grid = build_problem(doc), [0.0, 0.25, 0.5, 1.0]
        cfg = McConfig(samples=2 * CHUNK + 1000, seed=5, rk4_step=1e-2)
        g_column = spec.model.table.id_of("g")
        singles = [_sample_matrix(spec.model, cfg.seed, start, min(CHUNK, cfg.samples - start))
                   [:, g_column].sum() for start in range(0, cfg.samples, CHUNK)]
        assert all(0 < n < 100 for n in singles)
        curves = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RANDFROB_THREADS", threads)
            curves.append(quiet_rk4(spec, grid, cfg))
        monkeypatch.setattr(mcengine, "STEP_BLOCK", 7)
        curves.append(quiet_rk4(spec, grid, cfg))
        assert all(curve == curves[0] for curve in curves)
        got, want = curves[0], per_draw_rk4(spec, grid, cfg)
        for m1, v1, m2, v2 in zip(got.mean, got.variance, want.mean, want.variance):
            second = max(v1 + m1 * m1, v2 + m2 * m2)
            assert abs(m1 - m2) <= 1e-12 * math.sqrt(second)
            assert abs(v1 - v2) <= 1e-12 * second

    def test_overflowing_group_keeps_zero_draws(self):
        # b = -1e300 overflows the group's basis paths; draws with zero data
        # still have the zero path, as when each draw is integrated alone
        doc = {
            "symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1/2"}}],
            "series": {"B": [{"n": 0, "value": "-1e300*A"}]},
            "initial": {"Y0": 0, "Y1": 0},
        }
        spec = build_problem(doc)
        curve = quiet_rk4(spec, [0.0, 0.05, 0.1], McConfig(samples=100, seed=0, rk4_step=0.05))
        assert curve.mean == [0.0, 0.0, 0.0]
        assert curve.variance == [0.0, 0.0, 0.0]

    def test_row_without_repeats_skips_the_sort(self, bundled_specs, monkeypatch):
        # beta_series' A_0 row holds distinct beta draws, so no two draws
        # share their A/B values: no lexsort, and the curves of the sorted path
        spec, grid = bundled_specs["beta_series"], [0.0, 0.3]
        cfg = McConfig(samples=300, seed=3, rk4_step=1e-2, input_truncation=6)
        monkeypatch.setattr(np, "lexsort", lambda keys: pytest.fail("sorted the draws"))
        skipped = quiet_rk4(spec, grid, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(mcengine, "_repeats", lambda values: True)
        assert quiet_rk4(spec, grid, cfg) == skipped

    def test_equal_draws_group_whatever_the_kind(self, monkeypatch):
        # numpy draws beta(1e-310, 15) as 0.0 every time, so each chunk's
        # draws form one group, which the sort finds; grouping changes the
        # last bits of the curves, so they must be those of the sorted path
        doc = {
            "symbols": [{"name": "a", "dist": "beta", "params": {"alpha": "1e-310", "beta": 15}},
                        {"name": "U", "dist": "uniform", "params": {"a": -1, "b": 1}}],
            "series": {"A": [{"n": 0, "value": "a"}], "B": [{"n": 0, "value": 1}],
                       "C": [{"n": 1, "value": "U"}]},
            "initial": {"Y0": "U", "Y1": 0},
        }
        spec, grid = build_problem(doc), [0.0, 0.5, 1.0]
        cfg = McConfig(samples=2 * CHUNK + 5, seed=7, rk4_step=1e-2)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))
        curve = quiet_rk4(spec, grid, cfg)
        assert len(sorts) == 3
        assert all((keys == keys[:, :1]).all() for keys in sorts)  # one A/B value per chunk
        monkeypatch.setattr(mcengine, "_repeats", lambda values: False)
        alone = quiet_rk4(spec, grid, cfg)
        assert (alone.mean, alone.variance) != (curve.mean, curve.variance)

    @pytest.mark.parametrize("values,expected", [
        ([1.0, 2.0, 3.0], False),
        ([2.0, 1.0, 2.0], True),
        ([*range(100)], False),
        ([*range(99), 70], True),  # the repeat lies past the first 64
        ([], False),
    ])
    def test_repeats(self, values, expected):
        assert mcengine._repeats(np.array(values)) is expected

    def test_grid_validation(self, hermite_forced):
        cfg = McConfig(samples=2, seed=0)
        with pytest.raises(ValueError, match="ascending"):
            mc_rk4(hermite_forced, [1.0, 0.5], cfg)
        with pytest.raises(ValueError, match="t0"):
            mc_rk4(hermite_forced, [-1.0], cfg)

    def test_step_limit_counts_rounded_legs(self, monkeypatch):
        # 150 legs of 1e-3 at step 1: a float span of 0.15 steps, but every
        # leg takes one whole step
        spec = oscillator_spec(b=1)
        grid = [k * 1e-3 for k in range(1, 151)]
        cfg = McConfig(samples=1, seed=0, rk4_step=1.0)
        monkeypatch.setattr(mcengine, "MAX_RK4_STEPS", 149)
        with pytest.raises(ValueError, match="needs 150 steps, over the limit 149"):
            quiet_rk4(spec, grid, cfg)
        monkeypatch.setattr(mcengine, "MAX_RK4_STEPS", 150)
        assert len(quiet_rk4(spec, grid, cfg).mean) == 150

    def test_input_truncation_cuts_input_series(self, bundled_specs):
        # equal to a run on the same spec with A, B, C cut at index K by hand
        spec = bundled_specs["beta_series"]  # A and B reach index 40
        k, grid = 3, [0.0, 0.3, 0.6]
        cfg = McConfig(samples=64, seed=5, rk4_step=1e-2)
        a, b, c = (SeriesProcess({n: p for n, p in proc.items() if n <= k})
                   for proc in (spec.a, spec.b, spec.c))
        cut = rf.ProblemSpec(a, b, c, spec.y0, spec.y1, spec.t0, spec.radius, spec.model,
                             spec.default_order, spec.name)
        truncated = quiet_rk4(spec, grid, McConfig(samples=64, seed=5, rk4_step=1e-2,
                                                   input_truncation=k))
        assert truncated == quiet_rk4(cut, grid, cfg)
        assert truncated.mean[1:] != quiet_rk4(spec, grid, cfg).mean[1:]

    def test_matches_series_on_identical_draws(self, hermite_forced, hf_solution):
        # same seed and sample count: deviation is series truncation only
        n = 2000
        mcs = mc_series(hf_solution, GRID7, McConfig(samples=n, seed=42))
        mcr = quiet_rk4(hermite_forced, GRID7,
                        McConfig(samples=n, seed=42, rk4_step=1e-3))
        # the gap is the N=20 truncation error, growing steeply with t
        tols = {0.0: 1e-12, 0.25: 1e-12, 0.5: 1e-12, 0.75: 1e-9, 1.0: 1e-7,
                1.25: 1e-5, 1.5: 5e-4}
        for i, t in enumerate(GRID7):
            assert abs(mcs.mean[i] - mcr.mean[i]) < tols[t]


class TestMethodAgreement:
    CASES = [
        ("airy", [0.0, 0.5, 1.0, 1.5]),
        ("hermite", [0.0, 0.5, 1.0, 1.5]),
        ("polynomial_data", [0.0, 0.5, 1.0, 1.5]),
        ("beta_series", [0.0, 0.3, 0.6]),  # stay inside radius 1
        ("hermite_forced", [0.0, 0.5, 1.0, 1.5]),
    ]

    @pytest.mark.parametrize("name,grid", CASES)
    def test_series_vs_rk4_within_3_sigma(self, bundled_specs, name, grid):
        spec = bundled_specs[name]
        sol = compute_coeffs(spec, 20)
        n = 2000
        mcs = mc_series(sol, grid, McConfig(samples=n, seed=31))
        mcr = quiet_rk4(spec, grid, McConfig(samples=n, seed=57, rk4_step=1e-3))
        report = compare_curves(mcs, mcr)
        assert all(p.mean_sigmas < 3 for p in report.points)


class TestEvalPlan:
    @staticmethod
    def check_rows(polys, values):
        got = _EvalPlan(polys)(values)
        assert got.shape == (len(polys), len(values))
        for r, p in enumerate(polys):
            oracle = OraclePoly.of(p)
            for j, row in enumerate(values):
                want = oracle.eval_float(row)
                assert abs(got[r, j] - want) <= 1e-12 * abs(want), (r, j)

    @pytest.mark.parametrize("order", [6, 9, 12])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_poly_eval(self, bundled_specs, name, order):
        spec = bundled_specs[name]
        sol = compute_coeffs(spec, order)
        values = _sample_matrix(spec.model, order, 0, 40)
        self.check_rows(sol.X, values)

    def test_constant_and_zero(self, hermite_forced, hf_solution):
        values = _sample_matrix(hermite_forced.model, 1, 0, 10)
        polys = [Poly.const(Fraction(7, 3)), Poly.zero(), hf_solution.X[3], Poly.zero()]
        got = _EvalPlan(polys)(values)
        assert (got[0] == 7 / 3).all()
        assert (got[1] == 0).all() and (got[3] == 0).all()
        self.check_rows(polys, values)

    def test_shared_monomials_formed_once(self, hf_solution):
        plan = _EvalPlan(hf_solution.X)
        monos = [tuple(m) for m, _ in plan.monomials]
        assert len(monos) == len(set(monos)) == len({k for p in hf_solution.X for k in p.terms})
        assert set(monos) == {decode_key(k) for p in hf_solution.X for k in p.terms}
        assert sum(len(e) for _, e in plan.monomials) == sum(len(p.terms) for p in hf_solution.X)


class TestCompare:
    def test_self_comparison(self, hermite_forced, hf_moments):
        curve = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
        report = compare_curves(curve, curve)
        assert report.max_abs_mean == 0.0
        assert report.max_abs_var == 0.0
        assert not report.has_ci

    def test_grid_mismatch(self, hermite_forced, hf_moments):
        a = rf.stat_curves(hf_moments, [0.0, 0.5], hermite_forced.t0)
        b = rf.stat_curves(hf_moments, [0.0, 1.0], hermite_forced.t0)
        with pytest.raises(rf.GridMismatchError):
            compare_curves(a, b)

    def test_truncation_order_gap(self, hermite_forced, hf_moments):
        # one more series term moves t=1.5 by about 1.2e-4 and earlier
        # points by far less
        mm19 = rf.moment_matrix(compute_coeffs(hermite_forced, 19), hermite_forced.model)
        c19 = rf.stat_curves(mm19, GRID7, hermite_forced.t0)
        c20 = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
        report = compare_curves(c19, c20)
        assert report.max_abs_mean == pytest.approx(1.2e-4, rel=0.2)
        worst = max(report.points, key=lambda p: abs(p.mean_delta))
        assert worst.t == 1.5

    def test_mean_shifted_past_ci(self, hermite_forced, hf_moments):
        # a copy with CI half-widths of 0.01 whose mean moves 0.05 (about 10
        # standard errors) at t = 0.5 and 1.5, and 0.005 (within) at t = 1
        exact = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
        shift = {0.5: 0.05, 1.0: 0.005, 1.5: 0.05}
        shifted = rf.StatCurve(
            exact.grid, [m + shift.get(t, 0.0) for t, m in zip(exact.grid, exact.mean)],
            exact.variance, ci_halfwidth=[0.01] * len(GRID7), label="shifted")
        report = compare_curves(exact, shifted)
        assert [p.t for p in report.points if p.outside_ci] == [0.5, 1.5]
        assert report.points[4].mean_sigmas == pytest.approx(0.005 / (0.01 / 1.96))
        assert report.summary().splitlines()[-1] == (
            "2 point(s) outside the combined 95% CI: 0.5, 1.5")

    def test_zero_width_ci(self, hermite_forced, hf_moments):
        # two exact curves, one carrying zero half-widths: a mean that differs
        # at all lies infinitely many standard errors out
        exact = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
        other = rf.StatCurve(exact.grid, [m + 1 if t == 1.0 else m for t, m in zip(GRID7, exact.mean)],
                             exact.variance, ci_halfwidth=[0.0] * len(GRID7), label=exact.label)
        report = compare_curves(exact, other)
        assert report.has_ci
        assert [(p.mean_sigmas, p.outside_ci) for p in report.points] == (
            [(0.0, False)] * 4 + [(math.inf, True)] + [(0.0, False)] * 2)
        assert report.summary().endswith("1 point(s) outside the combined 95% CI: 1")

    @pytest.mark.parametrize("a,b,maxima,points,tail", [
        # (mean, variance, ci_halfwidth) per curve on the grid [0, 1]; a point
        # where both values are 0 has no relative deviation
        (([0.0, 2.0], [0.0, 1.0], None), ([0.0, 1.0], [0.0, 0.5], None),
         (1.0, 0.5, 0.5, 0.5), [(None, None)] * 2,
         ["mean:     max abs dev 1, max rel dev 0.5",
          "variance: max abs dev 0.5, max rel dev 0.5"]),
        (([1.0, -0.5], [0.25, 0.25], None), ([-1.0, 0.5], [0.25, 1.0], None),
         (2.0, 2.0, 0.75, 0.75), [(None, None)] * 2,
         ["mean:     max abs dev 2, max rel dev 2",
          "variance: max abs dev 0.75, max rel dev 0.75"]),
        # a CI on one side only: se = 1.96 / 1.96 at t = 0, zero width at t = 1
        (([1.0, 2.0], [1.0, 0.0], [1.96, 0.0]), ([3.5, 2.0], [0.5, 0.0], None),
         (2.5, 2.5 / 3.5, 0.5, 0.5), [(2.5, True), (0.0, False)],
         ["mean:     max abs dev 2.5, max rel dev 0.714286",
          "variance: max abs dev 0.5, max rel dev 0.5",
          "1 point(s) outside the combined 95% CI: 0"]),
        (([], [], None), ([], [], []), (0.0, 0.0, 0.0, 0.0), [],
         ["mean:     max abs dev 0, max rel dev 0",
          "variance: max abs dev 0, max rel dev 0",
          "all mean deviations within the combined 95% CI"]),
    ], ids=["both-zero", "sign-change", "one-sided-ci", "empty-grid"])
    def test_deviation_table(self, a, b, maxima, points, tail):
        grid = [0.0, 1.0][:len(a[0])]
        curves = [rf.StatCurve(grid, mean, var, ci) for mean, var, ci in (a, b)]
        report = compare_curves(*curves)
        assert (report.max_abs_mean, report.max_rel_mean,
                report.max_abs_var, report.max_rel_var) == maxima
        assert report.has_ci == (a[2] is not None or b[2] is not None)
        assert [p.t for p in report.points] == grid
        assert repr([(p.mean_sigmas, p.outside_ci) for p in report.points]) == repr(points)
        assert report.summary().splitlines() == [
            f"compared a vs b on {len(grid)} grid points", *tail]

    def test_curve_rejects_non_finite(self):
        # so no NaN deviation reaches compare_curves, where it would flag no point
        lists = {"grid": [0.0, 1.0], "mean": [1.0, 2.0], "variance": [0.5, 0.5],
                 "ci_halfwidth": [0.1, 0.1]}
        rf.StatCurve(**lists)
        for name in lists:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
                    rf.StatCurve(**{**lists, name: [lists[name][0], bad]})

    def test_summary_text(self, hermite_forced, hf_solution, hf_moments):
        exact = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
        mc = mc_series(hf_solution, GRID7, McConfig(samples=4000, seed=3))
        text = compare_curves(exact, mc).summary()
        assert "max abs dev" in text and "CI" in text
