"""Polynomial layer: arithmetic, canonical text form, evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from randfrob import MissingSymbolError, Poly, SpecError, SymbolTable, format_poly, parse_poly
from randfrob.errors import ExponentOverflowError
from randfrob.mcengine import _EvalPlan
from randfrob.poly import EXP_LIMIT, MAX_DECIMAL_EXPONENT, to_fraction
from conftest import OraclePoly, decode_key


@pytest.fixture
def table():
    t = SymbolTable()
    for name in ("A", "Y0", "Y1", "C"):
        t.add(name)
    return t


def sym(table, name):
    return Poly.symbol(table.id_of(name))


class TestArithmetic:
    def test_like_term_collection(self, table):
        a = sym(table, "A")
        assert 2 * a + 3 * a == 5 * a

    def test_annihilation(self, table):
        p = 2 * sym(table, "A") * sym(table, "Y0") + Poly.const(Fraction(1, 3))
        assert p - p == Poly.zero()
        assert not (p - p)

    def test_exact_rational_combination(self, table):
        # oracle: plain fraction arithmetic on the shared coefficient
        a_y0 = sym(table, "A") * sym(table, "Y0")
        combined = a_y0 + Fraction(-1, 2) * a_y0
        expected_coeff = Fraction(1) + Fraction(-1, 2)
        assert combined == expected_coeff * a_y0
        assert list(combined.terms.values()) == [1] and combined.den == 2

    def test_multiplicative_identity(self, table):
        p = 3 * sym(table, "A") - sym(table, "Y1") + 7
        assert Poly.const(1) * p == p
        assert 1 * p == p

    def test_exponent_addition_no_idempotence(self, table):
        a = sym(table, "A")
        sq = a * a
        ((key, num),) = sq.terms.items()
        assert decode_key(key) == ((table.id_of("A"), 2),)
        assert num == 1 and sq.den == 1

    def test_product_against_double_loop_oracle(self, table):
        y0, y1 = sym(table, "Y0"), sym(table, "Y1")
        p = y0 + y1
        q = y0 - y1

        # independent oracle: expand term-by-term into a plain dict
        expanded = {}
        for m1, c1 in OraclePoly.of(p).terms.items():
            for m2, c2 in OraclePoly.of(q).terms.items():
                exps = dict(m1)
                for s, e in m2:
                    exps[s] = exps.get(s, 0) + e
                key = tuple(sorted(exps.items()))
                expanded[key] = expanded.get(key, Fraction(0)) + c1 * c2
        expanded = {k: v for k, v in expanded.items() if v}

        assert OraclePoly.of(p * q).terms == expanded
        assert p * q == y0 * y0 - y1 * y1

    def test_pow(self, table):
        a = sym(table, "A")
        assert a**0 == Poly.const(1)
        assert a**3 == a * a * a
        assert (a + 1) ** 2 == a * a + 2 * a + 1
        with pytest.raises(ValueError):
            a**-1

    def test_float_operands_rejected(self, table):
        with pytest.raises(TypeError):
            sym(table, "A") + 0.5


class TestRingAxioms:
    @staticmethod
    def random_poly(rng, table, max_terms=5):
        p = Poly.zero()
        for _ in range(rng.randint(0, max_terms)):
            mono = {}
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(len(table))] = rng.randint(1, 3)
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            p = p + OraclePoly({tuple(sorted(mono.items())): coeff}).packed()
        return p

    @pytest.mark.parametrize("seed", range(25))
    def test_axioms(self, table, seed):
        rng = random.Random(seed)
        p = self.random_poly(rng, table)
        q = self.random_poly(rng, table)
        r = self.random_poly(rng, table)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def plan_eval(p, table, values):
    """`p` at one point through `mcengine._EvalPlan`, the one float evaluator."""
    row = np.array([[values.get(sid, 0.0) for sid in range(len(table))]])
    return _EvalPlan([p])(row)[0, 0]


class TestEval:
    def test_zero(self, table):
        assert plan_eval(Poly.zero(), table, {}) == 0.0

    def test_unit_power(self, table):
        p = sym(table, "A") ** 2 * sym(table, "Y0")
        values = {table.id_of("A"): 1.0, table.id_of("Y0"): 2.5}
        assert plan_eval(p, table, values) == 2.5

    def test_rational_to_float_conversion(self, table):
        p = Fraction(1, 3) * sym(table, "A")
        got = plan_eval(p, table, {table.id_of("A"): 3.0})
        # oracle: exact fraction arithmetic, converted at the end
        assert got == float(Fraction(1, 3) * 3)
        assert got == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_ring_homomorphism(self, table, seed):
        rng = random.Random(1000 + seed)
        p = TestRingAxioms.random_poly(rng, table, max_terms=10)
        q = TestRingAxioms.random_poly(rng, table, max_terms=10)
        assert len((p * q).terms) <= 100
        values = {sid: rng.uniform(-10, 10) for sid in range(len(table))}
        lhs = plan_eval(p * q, table, values)
        rhs = plan_eval(p, table, values) * plan_eval(q, table, values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTextForm:
    def test_format_examples(self, table):
        a, y0 = sym(table, "A"), sym(table, "Y0")
        assert format_poly(Poly.zero(), table) == "0"
        assert format_poly(Poly.const(Fraction(-3, 4)), table) == "-3/4"
        p = Fraction(3, 2) * a * a * y0 - y0 + 2
        assert format_poly(p, table) == "3/2*A^2*Y0 - Y0 + 2"

    def test_parse_roundtrip_examples(self, table):
        for text in ("0", "A", "-A", "1/2*A*Y0^2 + 3", "2 - Y1", "-1/6*A*Y1 + 1/3*Y1"):
            p = parse_poly(text, table)
            assert parse_poly(format_poly(p, table), table) == p

    @pytest.mark.parametrize("seed", range(20))
    def test_canonical_fixed_point(self, table, seed):
        rng = random.Random(2000 + seed)
        p = TestRingAxioms.random_poly(rng, table, max_terms=8)
        text = format_poly(p, table)
        assert format_poly(parse_poly(text, table), table) == text

    def test_decimal_and_rational_literals(self, table):
        assert parse_poly("0.35*A", table) == Fraction(7, 20) * sym(table, "A")
        assert parse_poly("7/20*A", table) == Fraction(7, 20) * sym(table, "A")

    def test_parse_errors(self, table):
        with pytest.raises(SpecError):
            parse_poly("A +", table)
        with pytest.raises(SpecError):
            parse_poly("2 A", table)  # missing '*'
        with pytest.raises(SpecError):
            parse_poly("A^0.5", table)
        with pytest.raises(SpecError):
            parse_poly("", table)
        with pytest.raises(MissingSymbolError):
            parse_poly("Q + 1", table)

    @pytest.mark.parametrize("text", ["A**2", "2**3", "*A", "A* *Y0", "Y1+*2"])
    def test_star_without_factor_is_rejected(self, table, text):
        with pytest.raises(SpecError, match="cannot parse polynomial near"):
            parse_poly(text, table)

    @pytest.mark.parametrize("text,canonical", [
        ("A ", "A"), (" A^2 * Y0 ", "A^2*Y0"), ("A ^ 2", "A^2"), ("- A", "-A"),
    ])
    def test_blanks_between_tokens_and_at_ends(self, table, text, canonical):
        assert parse_poly(text, table) == parse_poly(canonical, table)

    def test_grlex_order(self, table):
        # higher degree first; ties broken by earlier symbol ids
        a, y0 = sym(table, "A"), sym(table, "Y0")
        p = Poly.const(1) + y0 + a + y0 * y0 + a * y0 + a * a
        assert format_poly(p, table) == "A^2 + A*Y0 + Y0^2 + A + Y0 + 1"


class TestExponentLimit:
    def test_parse_boundary(self, table):
        a = table.id_of("A")
        p = parse_poly(f"A^{EXP_LIMIT - 1}", table)
        assert OraclePoly.of(p).terms == {((a, EXP_LIMIT - 1),): 1}
        for text in (f"A^{EXP_LIMIT}", f"A^{EXP_LIMIT - 1}*A", f"2*Y0 + A^{2 * EXP_LIMIT}"):
            with pytest.raises(SpecError, match=f"exponents must stay below {EXP_LIMIT}"):
                parse_poly(text, table)

    def test_product_boundary(self, table):
        # A's field sits just below Y0's, so a carry out of A would change Y0
        a, y0 = table.id_of("A"), table.id_of("Y0")
        near = parse_poly(f"A^{EXP_LIMIT - 2}*Y0", table)
        at_limit = near * sym(table, "A")
        assert OraclePoly.of(at_limit).terms == {((a, EXP_LIMIT - 1), (y0, 1)): 1}
        with pytest.raises(ExponentOverflowError):
            at_limit * sym(table, "A")
        with pytest.raises(ExponentOverflowError):
            at_limit * (sym(table, "A") + 1)
        with pytest.raises(ExponentOverflowError):
            near**2
        assert isinstance(ExponentOverflowError("x"), ValueError)
        # the operands are untouched and their neighbour fields still add up
        assert OraclePoly.of(at_limit * sym(table, "Y0")).terms == {
            ((a, EXP_LIMIT - 1), (y0, 2)): 1
        }

    def test_bound_reaching_limit_is_checked_exactly(self, table):
        # the stored bound says the product might overflow; no field does
        a, y0 = table.id_of("A"), table.id_of("Y0")
        half = EXP_LIMIT // 2
        p = parse_poly(f"A^{half} + 1", table) * parse_poly(f"Y0^{half}", table)
        assert OraclePoly.of(p).terms == {((a, half), (y0, half)): 1, ((y0, half),): 1}
        with pytest.raises(ExponentOverflowError):
            p * parse_poly(f"A^{half}", table)


class TestDecimalExponentLimit:
    def test_exponents_in_the_limit_are_read(self, table):
        assert to_fraction("1e400") == 10**400
        small = Fraction(25, 10 ** (MAX_DECIMAL_EXPONENT + 1))
        assert to_fraction(f" 2.5E-{MAX_DECIMAL_EXPONENT} ") == small
        assert parse_poly("-1e300*A", table) == -(10**300) * sym(table, "A")

    @pytest.mark.parametrize("text", [
        "1e10000000", f"1e{MAX_DECIMAL_EXPONENT + 1}", f"-2.5E-{MAX_DECIMAL_EXPONENT + 1}",
        "1e1_0000", "1e" + "9" * 5000,
    ], ids=["1e10000000", "just-over", "negative", "underscores", "5000-digit-exponent"])
    def test_exponents_beyond_the_limit_fail(self, text):
        with pytest.raises(SpecError, match="decimal exponent is beyond"):
            to_fraction(text)


class TestSymbolTable:
    def test_dense_ids(self):
        t = SymbolTable()
        assert [t.add(n) for n in ("x", "y", "z")] == [0, 1, 2]
        assert t.names == ("x", "y", "z")

    def test_duplicate_and_invalid(self):
        t = SymbolTable()
        t.add("x")
        with pytest.raises(SpecError):
            t.add("x")
        with pytest.raises(SpecError):
            t.add("2bad")
        with pytest.raises(MissingSymbolError):
            t.id_of("nope")
