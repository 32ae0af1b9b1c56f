"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

import randfrob as rf
from randfrob import mcengine
from randfrob.poly import FIELD_BITS

BUNDLED = ("airy", "hermite", "polynomial_data", "beta_series", "hermite_forced")

# A_0 reads a gamma symbol: `check` fails it as not essentially bounded.
UNBOUNDED_DOC = {
    "symbols": [{"name": "G", "dist": "gamma", "params": {"shape": 2, "rate": 2}}],
    "series": {"A": [{"n": 0, "value": "G"}]},
    "initial": {"Y0": 1, "Y1": 0},
}
# A declared radius of 2 beyond the root-test estimate 1: `check` warns.
WARN_DOC = {
    "problem": {"radius": 2, "order": 6},
    "symbols": [{"name": "Y0", "dist": "pointmass", "params": {"value": 1}}],
    "generators": {"A": {"family": "iid", "dist": "beta",
                         "params": {"alpha": 11, "beta": 15}}},
    "initial": {"Y0": "Y0", "Y1": 0},
}


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


_small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_prob = st.fractions(min_value=Fraction(1, 5), max_value=Fraction(4, 5), max_denominator=5)
_finite_scalars = st.one_of(
    _small.map(lambda v: ("pointmass", {"value": str(v)})),
    _prob.map(lambda p: ("bernoulli", {"p": str(p)})),
    st.tuples(st.integers(0, 2), _prob).map(
        lambda np_: ("binomial", {"n": np_[0], "p": str(np_[1])})),
    st.tuples(_small, _small, _prob).map(
        lambda x: ("finite_discrete", {"support": [str(x[0]), str(x[1])],
                                       "probs": [str(x[2]), str(1 - x[2])]})),
)


@st.composite
def finite_support_docs(draw):
    """Small random problems whose symbols all have finite support."""
    kinds = draw(st.lists(_finite_scalars, min_size=1, max_size=3))
    names = [f"S{i}" for i in range(len(kinds))]
    doc = {"symbols": [{"name": n, "dist": k, "params": p} for n, (k, p) in zip(names, kinds)]}
    if draw(st.booleans()):
        p = draw(_prob)
        doc["blocks"] = [{"names": ["M0", "M1"], "dist": "multinomial",
                          "params": {"trials": draw(st.integers(0, 2)),
                                     "probs": [str(p), str(1 - p)]}}]
        names += ["M0", "M1"]
    monomials = st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)).map(
        lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e))
    polys = st.dictionaries(monomials, _small, min_size=1, max_size=2).map(
        lambda terms: OraclePoly(terms).format(names))
    doc["series"] = {
        label: [{"n": n, "value": v} for n, v in draw(st.dictionaries(
            st.integers(0, 2), polys, max_size=2)).items()]
        for label in ("A", "B", "C")
    }
    doc["initial"] = {"Y0": draw(polys), "Y1": draw(polys)}
    return doc


def per_draw_rk4(spec, grid, cfg) -> rf.StatCurve:
    """Reference for `mc_rk4`: each chunk's draws integrated as its own columns.

    One RK4 pass over the chunk's whole plan-row matrix, with no grouping of
    draws by their A/B values and no superposition.  It shares the engine's
    sampling, plan, step rule and reduction, so a draw that `mc_rk4`
    integrates in a matrix of the same width gets the same bits.
    """
    t0 = float(spec.t0)
    ts = [float(t) for t in grid]
    legs = []
    t_prev = t0
    for t in ts:
        delta = t - t_prev
        if delta <= 1e-14:
            legs.append((t_prev, 0, cfg.rk4_step))
        else:
            n = mcengine._steps_for(delta, cfg.rk4_step)
            legs.append((t_prev, n, delta / n))
        t_prev = t
    cap = math.inf if cfg.input_truncation is None else cfg.input_truncation
    terms, plan = mcengine._input_terms(spec, cap)
    series = np.array([[s == k for s, _, _ in terms] for k in range(3)], dtype=float)
    exps = np.array([n for _, n, _ in terms])

    def worker(start, count):
        rows = plan(mcengine._sample_matrix(spec.model, cfg.seed, start, count))
        coeffs, (x, v) = rows[:-2], rows[-2:]

        def accel(tau, x, v):
            a, b, c = (series * tau**exps) @ coeffs
            return c - b * x - a * v

        paths = np.empty((len(ts), count))
        for g, (t_start, n_steps, h) in enumerate(legs):
            for i in range(n_steps):
                tau_a = t_start + i * h - t0
                tau_m = tau_a + h / 2
                tau_b = tau_a + h
                k1x = v
                k1v = accel(tau_a, x, v)
                x2 = x + (h / 2) * k1x
                v2 = v + (h / 2) * k1v
                k2x = v2
                k2v = accel(tau_m, x2, v2)
                x3 = x + (h / 2) * k2x
                v3 = v + (h / 2) * k2v
                k3x = v3
                k3v = accel(tau_m, x3, v3)
                x4 = x + h * k3x
                v4 = v + h * k3v
                k4x = v4
                k4v = accel(tau_b, x4, v4)
                x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
                v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            paths[g, :] = x
        return paths

    sums, sumsqs = mcengine._run_chunks(cfg.samples, worker)
    return mcengine._aggregate(grid, cfg.samples, sums, sumsqs, label="per-draw-rk4")


# A/B terms for RK4 specs.  F has finite support with one rare point, so its
# draws form groups of every size; S*U is 0 for a share of the draws (one
# group) and continuous for the rest; U alone makes every A/B key distinct.
RK4_SYMBOLS = ("F", "S", "U")
RK4_AB_VALUES = ("F", "F*S - 1/2", "S*U", "U", "3/4")
RK4_OTHER_VALUES = ("F", "U", "S", "1", "0", "U - F")


@st.composite
def rk4_docs(draw):
    """Small RK4 problems mixing finite-support and continuous A/B inputs."""
    rare = draw(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 4),
                             max_denominator=100))
    doc = {
        "symbols": [
            {"name": "F", "dist": "finite_discrete",
             "params": {"support": ["-1", "0", "1/2", "2"],
                        "probs": [str(rare)] + [str((1 - rare) / 3)] * 3}},
            {"name": "S", "dist": "bernoulli", "params": {"p": str(draw(_prob))}},
            {"name": "U", "dist": "uniform", "params": {"a": -1, "b": 1}},
        ],
    }
    ab = st.dictionaries(st.integers(0, 2), st.sampled_from(RK4_AB_VALUES), max_size=2)
    other = st.sampled_from(RK4_OTHER_VALUES)
    doc["series"] = {
        "A": [{"n": n, "value": v} for n, v in draw(ab).items()],
        "B": [{"n": n, "value": v} for n, v in draw(ab).items()],
        "C": [{"n": n, "value": v}
              for n, v in draw(st.dictionaries(st.integers(0, 2), other, max_size=3)).items()],
    }
    doc["initial"] = {"Y0": draw(other), "Y1": draw(other)}
    return doc
