"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import randfrob as rf
from randfrob.poly import FIELD_BITS

BUNDLED = ("airy", "hermite", "polynomial_data", "beta_series", "hermite_forced")


@pytest.fixture(scope="session")
def hermite_forced():
    return rf.load_problem("hermite_forced")


@pytest.fixture(scope="session")
def hf_solution(hermite_forced):
    return rf.compute_coeffs(hermite_forced, 20)


@pytest.fixture(scope="session")
def hf_moments(hermite_forced, hf_solution):
    return rf.moment_matrix(hf_solution, hermite_forced.model)


@pytest.fixture(scope="session")
def bundled_specs():
    return {name: rf.load_problem(name) for name in BUNDLED}


def decode_key(key: int) -> tuple[tuple[int, int], ...]:
    """Test-side decoding of a packed monomial key into (symbol id, exponent) pairs.

    Reads every field in turn, independent of `poly.key_factors`.
    """
    pairs = []
    sid = 0
    while key:
        e = key & ((1 << FIELD_BITS) - 1)
        if e:
            pairs.append((sid, e))
        key >>= FIELD_BITS
        sid += 1
    return tuple(pairs)


def eval_poly_exact(p: rf.Poly, values: dict[int, Fraction]) -> Fraction:
    """Test-side exact polynomial evaluation."""
    return OraclePoly.of(p).eval_exact(values)


class OraclePoly:
    """Plain dict-of-Fraction polynomial, the reference for the packed `Poly`.

    A monomial is a tuple of (symbol id, exponent) pairs sorted by symbol id.
    Each operation visits terms in the same order as `Poly`'s, so term
    insertion order must agree as well as the coefficients.
    """

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def of(cls, p: rf.Poly) -> "OraclePoly":
        return cls({decode_key(k): Fraction(n, p.den) for k, n in p.terms.items()})

    def packed(self) -> rf.Poly:
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return rf.Poly({
            sum(e << (FIELD_BITS * sid) for sid, e in m): int(c * den)
            for m, c in self.terms.items()
        }, den)

    @staticmethod
    def _lift(value):
        if isinstance(value, OraclePoly):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return OraclePoly({(): value})
        return NotImplemented

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else self.terms == other.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        return OraclePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return OraclePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for sid, e in m2:
                    exps[sid] = exps.get(sid, 0) + e
                m = tuple(sorted(exps.items()))
                acc = out.get(m, 0) + c1 * c2
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return OraclePoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        result = OraclePoly({(): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def eval_exact(self, values) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            for sid, e in m:
                c *= Fraction(values[sid]) ** e
            total += c
        return total

    def eval_float(self, values) -> float:
        """Float evaluation in `mcengine._EvalPlan`'s order and arithmetic.

        Each term multiplies its powers by symbol id, then is scaled by its
        coefficient and summed.  Powers are numpy's, which for integer
        exponents can differ from Python's `**` in the last bit.
        """
        total = 0.0
        for m, c in self.terms.items():
            prod = 1.0
            for sid, e in m:
                prod *= float(np.array(float(values[sid])) ** e)
            total += float(c) * prod
        return total

    def format(self, names) -> str:
        """Text form with terms in descending graded lexicographic order."""
        def grlex(m):
            return (-sum(e for _, e in m), tuple((sid, -e) for sid, e in m))

        pieces = []
        for m in sorted(self.terms, key=grlex):
            c = self.terms[m]
            factors = [f"{names[sid]}^{e}" if e > 1 else names[sid] for sid, e in m]
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            text = "*".join(factors)
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign} {text}" if pieces else (f"-{text}" if c < 0 else text))
        return " ".join(pieces) or "0"


def scalar_series_coeffs(a, b, c, y0, y1, order):
    """Independent scalar (deterministic) coefficient recursion.

    a, b, c are dicts n -> Fraction; y0, y1 Fractions.  Reimplements the
    triangular recursion directly over numbers, as an oracle for the
    polynomial-valued path with point-mass inputs.
    """
    x = [Fraction(y0), Fraction(y1)]
    for n in range(order - 1):
        acc = Fraction(0)
        for m in range(n + 1):
            acc += (m + 1) * a.get(n - m, Fraction(0)) * x[m + 1]
            acc += b.get(n - m, Fraction(0)) * x[m]
        x.append((c.get(n, Fraction(0)) - acc) / ((n + 2) * (n + 1)))
    return x
