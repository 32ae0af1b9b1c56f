"""The packed `Poly` against the dict-of-Fraction oracle in conftest.

Arithmetic must give the same coefficients in the same term insertion
order, because Monte Carlo sums and the coefficient dump follow that order.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randfrob import Poly, SymbolTable, build_problem, compute_coeffs, format_poly, parse_poly
from randfrob.mcengine import _EvalPlan
from randfrob.poly import EXP_LIMIT, FIELD_BITS
from conftest import BUNDLED, OraclePoly, finite_support_docs, lexsort_format_poly

NAMES = ("A", "Y0", "Y1", "C")

_monomials = st.lists(st.integers(0, 3), min_size=len(NAMES), max_size=len(NAMES)).map(
    lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e)
)
_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=30)
_oracles = st.dictionaries(_monomials, _coeffs, max_size=6).map(OraclePoly)
_scalars = st.one_of(st.integers(-12, 12), _coeffs)

# Numbers whose primes are few, so a factor's numerator shares primes with
# the other factor's denominator.
_smooth = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4).map(math.prod)
_smooth_coeffs = st.builds(lambda s, n, d: Fraction(s * n, d), st.sampled_from([1, -1]),
                           _smooth, _smooth)
_one_terms = st.builds(lambda m, c: OraclePoly({m: c}), _monomials,
                       st.one_of(st.builds(lambda s, n: Fraction(s * n), st.sampled_from([1, -1]),
                                           _smooth), _smooth_coeffs))
_smooth_oracles = st.dictionaries(_monomials, _smooth_coeffs, max_size=6).map(OraclePoly)
# Factors of `add_products` triples, constants among them.
_factors = st.one_of(_oracles, _coeffs.map(lambda c: OraclePoly({(): c})))
# 2*A + 5/3*Y0 over packed keys, A = symbol 0 and Y0 = symbol 1.
X_AY0 = Poly({1: 6, 1 << FIELD_BITS: 5}, 3)

# Polys over seven symbols, so a key spans up to seven 32-bit fields, with
# exponents up to EXP_LIMIT - 1, big numerators of both signs and den > 1.
WIDE = ("A", "Y0", "Y1", "C", "B_1", "x", "z9")
_wide_keys = st.dictionaries(
    st.integers(0, len(WIDE) - 1),
    st.one_of(st.integers(1, 3), st.integers(EXP_LIMIT - 3, EXP_LIMIT - 1)), max_size=3,
).map(lambda exps: sum(e << (FIELD_BITS * sid) for sid, e in exps.items()))
_wide_polys = st.builds(Poly, st.dictionaries(_wide_keys, st.integers(-10**30, 10**30), max_size=12),
                        st.integers(1, 10**12))


def table(names=NAMES) -> SymbolTable:
    t = SymbolTable()
    for name in names:
        t.add(name)
    return t


def assert_same(p: Poly, oracle: OraclePoly) -> None:
    """Identical Fractions in identical term order."""
    assert list(OraclePoly.of(p).terms.items()) == list(oracle.terms.items())


class TestAgainstOracle:
    @given(_oracles, _oracles)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, p, q):
        pp, qp = p.packed(), q.packed()
        assert_same(pp + qp, p + q)
        assert_same(pp - qp, p - q)
        assert_same(pp * qp, p * q)
        assert_same(-pp, -p)

    @given(_oracles, st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_power(self, p, e):
        assert OraclePoly.of(p.packed() ** e) == p**e

    @staticmethod
    def assert_add_products_is_the_fold(acc: Poly, triples) -> None:
        fold = acc
        for w, f, x in triples:
            fold = fold + w * (f * x)
        got = acc.add_products(triples)
        assert list(got.terms.items()) == list(fold.terms.items())
        assert (got.den, got.top) == (fold.den, fold.top)

    @given(_oracles, st.lists(st.tuples(st.integers(-3, 4), _factors, _oracles), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_add_products_is_the_fold(self, acc, triples):
        packed = [(w, f.packed(), x.packed()) for w, f, x in triples]
        self.assert_add_products_is_the_fold(acc.packed(), packed)
        want = acc
        for w, f, x in triples:
            want = want + w * (f * x)
        assert_same(acc.packed().add_products(packed), want)

    @given(_oracles, st.lists(st.tuples(st.integers(-3, 4), _oracles), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_add_products_of_f_alone(self, acc, pairs):
        # an x of None adds w * f itself, as a product with the constant 1 would
        got = acc.packed().add_products([(w, f.packed(), None) for w, f in pairs])
        one = acc.packed().add_products([(w, f.packed(), Poly.const(1)) for w, f in pairs])
        want = acc
        for w, f in pairs:
            want = want + w * f
        assert_same(got, want)
        assert (got.den, got.top) == (one.den, one.top)

    def test_add_products_of_nothing(self):
        acc, zero = Poly({1: 3, 0: -1}, 4), Poly.zero()
        for triples in ([], [(0, acc, acc)], [(2, zero, acc)], [(1, acc, zero), (0, acc, acc)]):
            assert acc.add_products(triples) == acc
            self.assert_add_products_is_the_fold(acc, triples)

    # A constant f scales x's numerators instead of forming f * x: 3/2*A - 1/2*Y0
    # + 1/2 plus constants over den 4 and 9, with weights of each sign and 0.
    @pytest.mark.parametrize("triples", [
        [(1, Poly.const(Fraction(1, 4)), X_AY0)],
        [(3, Poly.const(Fraction(1, 9)), X_AY0), (1, Poly.const(Fraction(1, 4)), X_AY0)],
        [(-2, Poly.const(Fraction(1, 4)), X_AY0), (1, Poly.const(Fraction(-7, 9)), X_AY0)],
        [(0, Poly.const(Fraction(1, 9)), X_AY0), (-1, Poly.const(5), X_AY0)],
        [(1, Poly.const(Fraction(-3, 2)), Poly.symbol(0))],  # cancels A
        [(2, Poly.const(Fraction(-3, 4)), Poly.symbol(0)), (1, Poly.const(Fraction(1, 9)), X_AY0)],
        [(1, Poly.const(Fraction(1, 4)), Poly({1: 6, 0: -2})), (1, Poly.const(2), Poly.symbol(0))],
        [(1, Poly.const(Fraction(1, 9)), Poly.zero()), (1, Poly.zero(), X_AY0)],
        [(2, Poly.symbol(0) + 1 - Poly.symbol(0), X_AY0)],  # a constant whose top is 1
    ], ids=["quarter", "ninth-then-quarter", "negative", "zero-weight", "cancels-a-key",
            "cancels-then-returns", "cancels-a-constant", "zero-factors", "top-above-0"])
    def test_add_products_of_constant_factors(self, triples):
        self.assert_add_products_is_the_fold(Poly({1: 3, 1 << FIELD_BITS: -1, 0: 1}, 2), triples)

    def test_add_products_moves_a_cancelled_key_to_the_end(self):
        # the sum drops key 1 at the first product and takes it back last
        acc, one = Poly({1: 1, 0: 1}), Poly.const(1)
        triples = [(-1, one, Poly({1: 1})), (1, one, Poly({2: 1, 1: 1}, 3))]
        assert list(acc.add_products(triples).terms) == [0, 2, 1]
        self.assert_add_products_is_the_fold(acc, triples)

    @given(_oracles, _scalars)
    @settings(max_examples=100, deadline=None)
    def test_scalar_products_and_sums(self, p, c):
        pp = p.packed()
        assert_same(c * pp, p * c)
        assert_same(pp * c, p * c)
        assert_same(pp + c, p + c)
        assert_same(c - pp, OraclePoly({(): c}) - p)

    @given(_oracles, st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_division_by_positive_int(self, p, d):
        pp = p.packed()
        q, want = pp / d, Fraction(1, d) * pp
        assert_same(q, p * Fraction(1, d))
        assert list(q.terms.items()) == list(want.terms.items())
        assert (q.den, q.top) == (want.den, want.top)

    @pytest.mark.parametrize("d,error", [
        (0, ValueError), (-3, ValueError), (True, TypeError), (2.0, TypeError),
        (Fraction(1, 2), TypeError), ("2", TypeError),
    ])
    def test_division_rejects_other_divisors(self, d, error):
        p = Poly.const(3)
        with pytest.raises(error):
            p / d
        assert p == Poly.const(3)

    @given(_oracles, st.lists(_coeffs, min_size=len(NAMES), max_size=len(NAMES)))
    @settings(max_examples=100, deadline=None)
    def test_eval(self, p, point):
        row = np.array([[float(v) for v in point]])
        assert _EvalPlan([p.packed()])(row)[0, 0] == p.eval_float(point)

    @given(_oracles)
    @settings(max_examples=150, deadline=None)
    def test_format_parse_round_trip(self, p):
        t = table()
        text = format_poly(p.packed(), t)
        assert text == p.format(NAMES)
        assert parse_poly(text, t) == p.packed()
        assert format_poly(parse_poly(text, t), t) == text
        spaced = " " + re.sub(r"([*^+-])", r" \1 ", text) + " "
        assert parse_poly(spaced, t) == p.packed()

    @given(_one_terms, _smooth_oracles)
    @settings(max_examples=200, deadline=None)
    def test_one_term_product(self, one, p):
        # a one-term factor of den 1 reduces by gcd(den, its numerator) alone
        for got, want in ((one.packed() * p.packed(), one * p), (p.packed() * one.packed(), p * one)):
            assert_same(got, want)
            assert math.gcd(got.den, *got.terms.values()) == 1


class TestFormat:
    @given(_wide_polys, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_lexsort_formatter(self, p, with_table):
        t = table(WIDE) if with_table else None
        text = lexsort_format_poly(p, t)
        assert format_poly(p, t) == text
        assert format_poly(p, t) == text  # from the table's spelled keys
        if with_table:
            assert parse_poly(text, t) == p

    def test_solved_coefficients(self, bundled_specs):
        for spec in bundled_specs.values():
            for x in compute_coeffs(spec, 12).X:
                assert format_poly(x, spec.table) == lexsort_format_poly(x, spec.table)

    def test_edge_polys(self):
        t = table(WIDE)
        top = EXP_LIMIT - 1
        s0s2, s0s1 = (1 << 2 * FIELD_BITS) + 1, (1 << FIELD_BITS) + 1  # they tie on s0
        for p in (Poly.zero(), Poly.const(Fraction(-3, 4)), Poly({0: 5, 1 << 6 * FIELD_BITS: -7}, 3),
                  Poly({s0s2: 1, s0s1: -1}),
                  Poly({top: 1, top << 6 * FIELD_BITS: -1, (top << 3 * FIELD_BITS) + 2: 2}, 9)):
            assert format_poly(p, t) == lexsort_format_poly(p, t)
            assert format_poly(p) == lexsort_format_poly(p)

    @given(_oracles, _oracles)
    @settings(max_examples=60, deadline=None)
    def test_spelled_keys_survive_a_new_symbol(self, p, q):
        t = table()
        before = format_poly(p.packed(), t)
        sid = t.add("Z")
        q = q.packed() * Poly.symbol(sid) + p.packed()
        assert format_poly(p.packed(), t) == before
        assert format_poly(q, t) == format_poly(q, table((*NAMES, "Z"))) == lexsort_format_poly(q, t)


def oracle_coeffs(spec, order: int) -> list[OraclePoly]:
    """`compute_coeffs`' sequence of operations, run on oracle polynomials."""
    a_items = [(n, OraclePoly.of(p)) for n, p in spec.a.items()]
    b_items = [(n, OraclePoly.of(p)) for n, p in spec.b.items()]
    c = {n: OraclePoly.of(p) for n, p in spec.c.items()}
    X = [OraclePoly.of(spec.y0), OraclePoly.of(spec.y1)]
    for n in range(order - 1):
        acc = OraclePoly()
        for k, ak in a_items:
            if k > n:
                break
            acc = acc + (n - k + 1) * (ak * X[n - k + 1])
        for k, bk in b_items:
            if k > n:
                break
            acc = acc + bk * X[n - k]
        rhs = -acc
        if n in c:
            rhs = rhs + c[n]
        X.append(Fraction(1, (n + 2) * (n + 1)) * rhs)
    return X


@pytest.mark.parametrize("name", BUNDLED)
def test_recursion_matches_oracle(bundled_specs, name):
    spec = bundled_specs[name]
    order = 26 if name == "hermite_forced" else 20
    sol = compute_coeffs(spec, order)
    for x, oracle in zip(sol.X, oracle_coeffs(spec, order), strict=True):
        assert_same(x, oracle)


@given(finite_support_docs(), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_recursion_matches_oracle_on_multi_term_inputs(doc, order):
    spec = build_problem(doc)
    sol = compute_coeffs(spec, order)
    for x, oracle in zip(sol.X, oracle_coeffs(spec, order), strict=True):
        assert_same(x, oracle)


def test_recursion_keeps_a_key_that_cancels_inside_a_product():
    # X_2 = -(A_0 X_1 + B_0 X_0) / 2.  A_0 X_1 = S*T puts S*T into the sum
    # first; B_0 X_0 = (S + T)(S - T) has -S*T then +S*T among its partial
    # products, which cancel inside it, so S*T keeps its place in X_2.
    doc = {
        "symbols": [{"name": name, "dist": "bernoulli", "params": {"p": "1/2"}}
                    for name in ("S", "T")],
        "series": {"A": [{"n": 0, "value": "S"}], "B": [{"n": 0, "value": "S + T"}]},
        "initial": {"Y0": "S - T", "Y1": "T"},
    }
    spec = build_problem(doc)
    x2 = compute_coeffs(spec, 2).X[2]
    assert_same(x2, oracle_coeffs(spec, 2)[2])
    assert [format_poly(Poly({k: 1}), spec.table) for k in x2.terms] == ["S*T", "S^2", "T^2"]
