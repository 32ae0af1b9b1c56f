"""Problem building, the coefficient recursion, and hypothesis validation."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randfrob as rf
from randfrob import Poly, SpecError, build_problem, compute_coeffs, residual_coefficients
from randfrob.frobenius import MAX_GENERATOR_M, MAX_ORDER, coeff_recursion
from randfrob.specfile import parse_document
from conftest import (
    BUNDLED, UNBOUNDED_DOC, WARN_DOC, eval_poly_exact, finite_support_docs, reduced_fold_coeffs,
    rk4_docs, scalar_series_coeffs,
)

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_sparse_series = st.dictionaries(st.integers(0, 4), _rationals, max_size=3)


def sym(spec, name):
    return Poly.symbol(spec.table.id_of(name))


class TestBuildProblem:
    def test_flagship_document(self, hermite_forced):
        spec = hermite_forced
        assert spec.name == "hermite_forced"
        assert spec.t0 == 0
        assert spec.radius == math.inf
        assert spec.default_order == 20
        assert spec.table.names == ("A", "Y0", "Y1", "C")
        assert len(spec.model.blocks) == 3
        assert spec.a.coeffs == {1: Poly.const(-2)}
        assert spec.b.coeffs == {0: sym(spec, "A")}
        assert spec.c.coeffs == {2: sym(spec, "C")}
        assert spec.y0 == sym(spec, "Y0")

    def test_symbol_in_two_blocks(self):
        doc = {
            "symbols": [{"name": "X", "dist": "pointmass", "params": {"value": 1}}],
            "blocks": [
                {"names": ["X", "Y"], "dist": "multinomial",
                 "params": {"trials": 2, "probs": [0.5, 0.5]}}
            ],
            "initial": {"Y0": 1, "Y1": 0},
        }
        with pytest.raises(SpecError, match="owned by two blocks"):
            build_problem(doc)

    def test_generator_expansion_count(self):
        doc = {
            "problem": {"radius": 1, "order": 20},
            "symbols": [{"name": "Y0", "dist": "pointmass", "params": {"value": 1}}],
            "generators": {"B": {"family": "inverse_square", "M": 40}},
            "initial": {"Y0": "Y0", "Y1": 0},
        }
        spec = build_problem(doc)
        # 1/n^2 for n = 1..40; index 0 is the zero polynomial (not stored)
        assert sorted(spec.b.coeffs) == list(range(1, 41))
        assert spec.b.coeffs.get(0) is None
        assert spec.b.coeffs[2] == Poly.const(Fraction(1, 4))

    def test_iid_generator_expansion(self, bundled_specs):
        spec = bundled_specs["beta_series"]
        assert sorted(spec.a.coeffs) == list(range(41))  # M=40 -> 41 terms
        assert spec.a.m == 40
        names = spec.table.names
        assert "A_0" in names and "A_40" in names
        # each generated symbol is its own independent block
        assert len(spec.model.blocks) == 2 + 41

    def test_generator_default_m_is_twice_order(self):
        doc = {
            "problem": {"radius": 1, "order": 6},
            "symbols": [{"name": "Y0", "dist": "pointmass", "params": {"value": 1}}],
            "generators": {"A": {"family": "iid", "dist": "beta",
                                 "params": {"alpha": 11, "beta": 15}}},
            "initial": {"Y0": "Y0", "Y1": 0},
        }
        spec = build_problem(doc)
        assert sorted(spec.a.coeffs) == list(range(13))

    @pytest.mark.parametrize("gen", [
        {"family": "iid", "dist": "beta", "params": {"alpha": 11, "beta": 15}, "M": 10**9},
        {"family": "inverse_square", "M": 10**9},
    ], ids=["iid", "inverse_square"])
    def test_generator_m_over_limit(self, gen):
        # rejected before any of the 10^9 + 1 terms or symbols is built
        doc = {"symbols": [{"name": "Y0", "dist": "pointmass", "params": {"value": 1}}],
               "generators": {"A": gen}, "initial": {"Y0": "Y0", "Y1": 0}}
        with pytest.raises(SpecError, match=re.escape(
                f"generator A: M = {10**9} is over the limit {MAX_GENERATOR_M}")):
            build_problem(doc)

    def test_default_generator_m_over_limit(self):
        doc = {"problem": {"order": MAX_ORDER},
               "symbols": [{"name": "Y0", "dist": "pointmass", "params": {"value": 1}}],
               "generators": {"B": {"family": "inverse_square"}},
               "initial": {"Y0": "Y0", "Y1": 0}}
        with pytest.raises(SpecError, match=re.escape(
                f"generator B: M (by default 2 x order {MAX_ORDER}) = {2 * MAX_ORDER}"
                f" is over the limit {MAX_GENERATOR_M}")):
            build_problem(doc)
        doc["generators"]["B"]["M"] = MAX_GENERATOR_M  # an explicit M in the limit is read
        assert sorted(build_problem(doc).b.coeffs) == list(range(1, MAX_GENERATOR_M + 1))

    @pytest.mark.parametrize("doc,message", [
        ('[1]', "top level must be a JSON object"),
        ([1], "problem document must be an object"),
        ({"extra": 1}, "problem document: unknown key(s) ['extra']"),
        ({"problem": [1]}, "'problem' must be an object"),
        ({"problem": {"step": 1}}, "'problem': unknown key(s) ['step'] (known: order, radius, t0)"),
        ({"problem": {"t0": "x"}}, "'t0' must be a rational number"),
        ({"problem": {"radius": -1}}, "radius must be positive"),
        *[({"problem": {"order": order}}, "'order' must be an integer >= 2")
          for order in (True, Fraction(5, 2), "x", 1)],
        ({"symbols": {"name": "A"}}, "'symbols' must be a list"),
        ({"symbols": [1]}, "'symbols' entry must be an object"),
        ({"symbols": [{"dist": "bernoulli"}]}, "symbols entry: missing key 'name'"),
        ({"symbols": [{"name": 3, "dist": "bernoulli"}]}, "symbol name must be a string"),
        ({"symbols": [{"name": "A", "dist": "zeta", "params": {}}]},
         "symbol 'A': unknown distribution kind"),
        ({"symbols": [{"name": "A", "dist": "bernoulli", "params": [1]}]},
         "'params' must be an object"),
        ({"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": 1}, "seed": 1}]},
         "symbol 'A': unknown key(s) ['seed']"),
        ({"symbols": [{"name": "A", "dist": "multinomial",
                       "params": {"trials": 1, "probs": [0.5, 0.5]}}]},
         "vector distribution 'multinomial' needs a block declaration"),
        ({"blocks": [{"names": [], "dist": "pointmass"}]}, "'names' must be a non-empty list"),
        ({"blocks": [{"names": ["X", "Y", "Z"], "dist": "multinomial",
                      "params": {"trials": 1, "probs": [0.5, 0.5]}}]},
         "block of 3 symbol(s) does not match multinomial arity 2"),
        ({"series": [1]}, "'series' must be an object"),
        ({"series": {"D": []}}, "'series': unknown key(s) ['D'] (known: A, B, C)"),
        ({"series": {"B": [{"n": 0, "value": 1, "step": 1}]}}, "series B: unknown key(s)"),
        ({"series": {"B": [{"n": 0, "value": "Q"}]}}, "undeclared symbol"),
        ({"series": {"B": [{"n": 0, "value": "A"}, {"n": 0, "value": 1}]}},
         "duplicate entry for n=0"),
        ({"series": {"B": [{"n": 0, "value": "A $ 1"}]}}, "cannot parse polynomial near"),
        ({"series": {"B": [{"n": 0, "value": "A^"}]}}, "cannot parse polynomial near '^'"),
        ({"series": {"B": [{"n": 0, "value": "^2"}]}}, "near '^2'"),
        ({"series": {"B": [{"n": 0, "value": "A*"}]}}, "near '*'"),
        ({"generators": [1]}, "'generators' must be an object"),
        ({"generators": {"D": {}}}, "'generators': unknown key(s) ['D']"),
        ({"series": {"A": [{"n": 0, "value": 1}]},
          "generators": {"A": {"family": "inverse_square"}}}, "not both"),
        ({"generators": {"A": [1]}}, "generator A must be an object"),
        ({"generators": {"A": {"family": "markov"}}}, "unknown family 'markov'"),
        ({"generators": {"A": {"family": "inverse_square", "dist": "beta"}}},
         "generator A: unknown key(s) ['dist']"),
        ({"generators": {"A": {"family": "iid", "dist": "beta", "shape": 1}}},
         "generator A: unknown key(s) ['shape']"),
        ({"generators": {"A": {"family": "iid", "dist": "multinomial",
                               "params": {"trials": 1, "probs": [0.5, 0.5]}}}},
         "iid family needs a scalar distribution"),
        ({"symbols": [{"name": "A_0", "dist": "bernoulli", "params": {"p": 0.5}}],
          "generators": {"A": {"family": "iid", "dist": "bernoulli", "params": {"p": 0.5}}}},
         "generated symbol 'A_0' clashes"),
        ({"initial": None}, "'initial' must be an object with exactly the keys Y0 and Y1"),
        ({"symbols": []}, "a random model needs at least one block"),
        ({"series": {"B": [{"n": 0, "value": "A**2"}]}}, "cannot parse polynomial near '**2'"),
        ({"series": {"B": [{"n": 0, "value": "3/0*A"}]}}, "cannot read '3/0' as a rational number"),
        ({"series": {"B": [{"n": 0, "value": "A^2/0"}]}}, "cannot read '2/0' as a rational number"),
        ('{"problem": {"t0": 1e10000000}}', "decimal exponent is beyond +-4300"),
        ({"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "1e-10000000"}}]},
         "cannot read '1e-10000000' as a rational number: its decimal exponent is beyond"),
        ({"series": {"B": [{"n": 0, "value": "1e10000000*A"}]}},
         "cannot read '1e10000000' as a rational number: its decimal exponent is beyond"),
        ({"symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": "x"}}]},
         "symbol 'A': cannot read 'x' as a rational number"),
        # a symbol takes no `names` and a block no `name`
        ({"symbols": [{"name": "A", "names": ["B", "C"], "dist": "bernoulli",
                       "params": {"p": 0.5}}]},
         "symbol 'A': unknown key(s) ['names'] (known: dist, name, params)"),
        ({"blocks": [{"names": ["X", "Y"], "name": "Z", "dist": "multinomial",
                      "params": {"trials": 1, "probs": [0.5, 0.5]}}]},
         "block ['X', 'Y']: unknown key(s) ['name'] (known: dist, names, params)"),
        ({"problem": {"order": 10**9}}, f"'order' = {10**9} is over the limit {MAX_ORDER}"),
        ({"problem": {"t0": "-1e400"}}, "'t0' is out of float range, got a value of 401 digits"),
        ({"problem": {"radius": 10**400}}, "radius is out of float range, got a value of 401 digits"),
        ({"series": {"C": [{"n": MAX_GENERATOR_M + 1, "value": 1}]}},
         f"series C: index = {MAX_GENERATOR_M + 1} is over the limit {MAX_GENERATOR_M}"),
        # past 4300 digits, where `str` of the integer would itself raise
        ({"problem": {"t0": "1e4300"}}, "'t0' is out of float range, got a value of 4301 digits"),
        ({"symbols": [{"name": "A", "dist": "uniform", "params": {"a": 0, "b": "1e4300"}}]},
         "symbol 'A': uniform b is out of float range, got a value of 4301 digits"),
    ])
    def test_error_catalogue(self, doc, message):
        base = {
            "symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": 0.35}}],
            "initial": {"Y0": 1, "Y1": 0},
        }
        with pytest.raises(SpecError, match=re.escape(message)):
            if isinstance(doc, str):  # a problem file's text
                doc = parse_document(doc)
            build_problem({**base, **doc} if isinstance(doc, dict) else doc)


class TestRecursion:
    def test_airy_low_order(self, bundled_specs):
        spec = bundled_specs["airy"]
        sol = compute_coeffs(spec, 5)
        a = sym(spec, "A")
        assert sol.X[2] == Poly.zero()
        assert sol.X[3] == Fraction(-1, 6) * a * spec.y0

    def test_flagship_low_order(self, hermite_forced, hf_solution):
        spec = hermite_forced
        a, c = sym(spec, "A"), sym(spec, "C")
        y0, y1 = spec.y0, spec.y1
        assert hf_solution.X[0] == y0
        assert hf_solution.X[1] == y1
        assert hf_solution.X[2] == Fraction(-1, 2) * a * y0
        assert hf_solution.X[3] == Fraction(1, 6) * (2 - a) * y1
        assert hf_solution.X[4] == (
            Fraction(1, 12) * c - Fraction(1, 6) * a * y0 + Fraction(1, 24) * a * a * y0
        )

    def test_zero_data_zero_solution(self):
        doc = {
            "symbols": [{"name": "A", "dist": "bernoulli", "params": {"p": 0.35}}],
            "series": {"B": [{"n": 0, "value": "A"}]},
            "initial": {"Y0": 0, "Y1": 0},
        }
        sol = compute_coeffs(build_problem(doc), 8)
        assert all(x == Poly.zero() for x in sol.X)

    def test_order_validation(self, hermite_forced):
        with pytest.raises(ValueError):
            compute_coeffs(hermite_forced, 1)

    def test_homogeneous_recursion_oracle(self, bundled_specs):
        # independent implementation of the source-free recursion, compared
        # term for term with the general path on a C == 0 problem
        spec = bundled_specs["hermite"]
        assert spec.c.coeffs == {}  # source-free: C is the empty series
        sol = compute_coeffs(spec, 12)
        X = [spec.y0, spec.y1]
        for n in range(11):
            acc = Poly.zero()
            for m in range(n + 1):
                am = spec.a.coeffs.get(n - m)
                if am is not None:
                    acc = acc + (m + 1) * (am * X[m + 1])
                bm = spec.b.coeffs.get(n - m)
                if bm is not None:
                    acc = acc + bm * X[m]
            X.append(Fraction(-1, (n + 2) * (n + 1)) * acc)
        assert X == sol.X

    @given(st.one_of(finite_support_docs(), rk4_docs()), st.integers(2, 7),
           st.lists(_rationals, min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_recursion_commutes_with_exact_evaluation(self, doc, order, draw):
        # the ring of Fractions: the recursion fed the inputs evaluated at a
        # rational draw gives each X_n evaluated there, with no rounding
        spec = build_problem(doc)
        values = dict(enumerate(draw[:len(spec.table)]))

        terms = [(s, k, eval_poly_exact(p, values)) for s, k, p in spec.inputs()]
        X = coeff_recursion(terms, eval_poly_exact(spec.y0, values),
                            eval_poly_exact(spec.y1, values), order, Fraction(0))
        want = [eval_poly_exact(x, values) for x in compute_coeffs(spec, order).X]
        assert all(type(x) is Fraction for x in X)
        assert X == want

    def test_superposition(self):
        # linearity in the initial data for source-free problems, as exact
        # polynomial identities
        def make(y0_text, y1_text):
            doc = {
                "symbols": [
                    {"name": "A", "dist": "uniform", "params": {"a": -1, "b": 1}},
                    {"name": "U", "dist": "uniform", "params": {"a": 0, "b": 1}},
                    {"name": "V", "dist": "uniform", "params": {"a": 0, "b": 1}},
                ],
                "series": {"A": [{"n": 0, "value": "A"}], "B": [{"n": 1, "value": "A"}]},
                "initial": {"Y0": y0_text, "Y1": y1_text},
            }
            return compute_coeffs(build_problem(doc), 10)

        alpha, beta = Fraction(3, 2), Fraction(-2, 7)
        mixed = make(f"{alpha}*U", f"{beta}*V")
        from_y0 = make("U", "0")
        from_y1 = make("0", "V")
        for n in range(11):
            assert mixed.X[n] == alpha * from_y0.X[n] + beta * from_y1.X[n]

    def test_airy_closed_form(self, bundled_specs):
        spec = bundled_specs["airy"]
        sol = compute_coeffs(spec, 15)
        a = sym(spec, "A")
        assert sol.X[2] == Poly.zero()
        for n in range(13):
            expected = Fraction(-1, (n + 3) * (n + 2)) * (a * sol.X[n])
            assert sol.X[n + 3] == expected

    @pytest.mark.parametrize("name,order", [*((name, 12) for name in BUNDLED),
                                            ("hermite_forced", 80), ("airy", 120)])
    def test_matches_reduce_every_step_fold(self, bundled_specs, name, order):
        # negation and division skip the full gcd; every X_n still has the
        # terms, term order and den of a fold that reduces after each step
        spec = bundled_specs[name]
        got = compute_coeffs(spec, order).X
        want = reduced_fold_coeffs(spec, order)
        assert [(list(x.terms.items()), x.den) for x in got] == [
            (list(x.terms.items()), x.den) for x in want]

    def test_deterministic_reduction(self):
        # all point masses: coefficients equal the scalar Taylor recursion
        doc = {
            "symbols": [
                {"name": "a0", "dist": "pointmass", "params": {"value": 0.5}},
                {"name": "b0", "dist": "pointmass", "params": {"value": 1}},
                {"name": "c0", "dist": "pointmass", "params": {"value": -2}},
            ],
            "series": {
                "A": [{"n": 0, "value": "a0"}, {"n": 1, "value": "-1/4"}],
                "B": [{"n": 0, "value": "b0"}, {"n": 1, "value": "1/3"}],
                "C": [{"n": 0, "value": "c0"}, {"n": 2, "value": "3/2"}],
            },
            "initial": {"Y0": 1, "Y1": "-1/2"},
        }
        spec = build_problem(doc)
        sol = compute_coeffs(spec, 12)
        oracle = scalar_series_coeffs(
            a={0: Fraction(1, 2), 1: Fraction(-1, 4)},
            b={0: Fraction(1), 1: Fraction(1, 3)},
            c={0: Fraction(-2), 2: Fraction(3, 2)},
            y0=Fraction(1),
            y1=Fraction(-1, 2),
            order=12,
        )
        values = {spec.table.id_of(n): v for n, v in
                  (("a0", Fraction(1, 2)), ("b0", Fraction(1)), ("c0", Fraction(-2)))}
        for n in range(13):
            assert eval_poly_exact(sol.X[n], values) == oracle[n]


class TestResiduals:
    def test_all_zero_flagship(self, hf_solution):
        residuals = residual_coefficients(hf_solution)
        assert len(residuals) == 19
        assert all(r == Poly.zero() for r in residuals)

    def test_all_zero_airy(self, bundled_specs):
        sol = compute_coeffs(bundled_specs["airy"], 20)
        assert all(r == Poly.zero() for r in residual_coefficients(sol))

    @given(a=_sparse_series, b=_sparse_series, c=_sparse_series,
           y0=_rationals, y1=_rationals, order=st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_point_mass_specs_match_scalar_recursion(self, a, b, c, y0, y1, order):
        # every input is its own point-mass symbol, so evaluating X_n at the
        # point masses must give the scalar recursion, independently written
        values = {}

        def symbol(name, value):
            values[name] = value
            return name

        series = {label: [{"n": n, "value": symbol(f"{label}{n}", v)} for n, v in terms.items()]
                  for label, terms in (("A", a), ("B", b), ("C", c))}
        initial = {"Y0": symbol("Y0", y0), "Y1": symbol("Y1", y1)}
        spec = build_problem({
            "symbols": [{"name": k, "dist": "pointmass", "params": {"value": v}}
                        for k, v in values.items()],
            "series": series,
            "initial": initial,
        })
        sol = compute_coeffs(spec, order)
        point = {spec.table.id_of(k): v for k, v in values.items()}
        assert [eval_poly_exact(x, point) for x in sol.X] == scalar_series_coeffs(
            a, b, c, y0, y1, order)
        assert all(r == Poly.zero() for r in residual_coefficients(sol))

    def test_corruption_detected(self, hermite_forced):
        sol = compute_coeffs(hermite_forced, 10)
        sol.X[4] = sol.X[4] + Poly.const(Fraction(1, 7))
        residuals = residual_coefficients(sol)
        assert residuals[2] != Poly.zero()  # R_2 involves X_4
        assert residuals[2] == Poly.const(12 * Fraction(1, 7))


class TestHypotheses:
    def test_flagship_passes_with_infinite_radius(self, hermite_forced):
        report = rf.validate_hypotheses(hermite_forced)
        assert report.status == "pass"
        assert report.radius_estimate == math.inf
        assert all(c.bounded for c in report.coefficients)
        assert all(c.finite for c in report.l2)

    def test_beta_series_radius_one(self, bundled_specs):
        report = rf.validate_hypotheses(bundled_specs["beta_series"])
        assert report.status == "pass"
        assert report.radius_estimate == pytest.approx(1.0)
        assert report.radius_estimate_a == pytest.approx(1.0)

    def test_unbounded_coefficient_fails(self):
        report = rf.validate_hypotheses(build_problem(UNBOUNDED_DOC))
        assert report.status == "fail"
        assert any("A_0 not essentially bounded" in m for m in report.messages)

    def test_declared_radius_beyond_estimate_warns(self):
        report = rf.validate_hypotheses(build_problem(WARN_DOC))
        assert report.status == "warn"
        assert any("exceeds" in m for m in report.messages)

    def test_report_to_dict(self, hermite_forced):
        d = rf.validate_hypotheses(hermite_forced).to_dict()
        assert d["status"] == "pass"
        assert d["radius_estimate"] == "inf"
        assert {c["series"] for c in d["coefficients"]} == {"A", "B"}
