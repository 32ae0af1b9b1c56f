"""Exact sparse polynomial arithmetic in named random symbols.

A `SymbolTable` interns symbol names as dense ids in declaration order.  A
`Poly` keeps one packed, canonical form: each monomial is one int key, in
which symbol id s raised to e adds e << (FIELD_BITS * s), so the key of a
product of monomials is the sum of their keys; `terms` maps each key to a
nonzero integer numerator over one positive denominator `den`, with
gcd(den, *numerators) == 1.  Arithmetic is integer dict work plus one gcd
reduction per result, so it never rounds; `Fraction` appears only at the
edges, and float evaluation lives in `mcengine._EvalPlan`.

`Poly.add_products` is the n-ary sum `acc + w1*(f1*x1) + w2*(f2*x2) + ...`
that the coefficient recursion needs for each X_n: every product goes into
one dict over the lcm of the denominators, so the growing sum is never
copied and the gcd reduction runs once.  A key whose sum reaches zero is
deleted, as in `+`, so the terms come out in the order the pairwise fold
would give.

Exponents stay below EXP_LIMIT, so the top bit of each field is a guard
and a sum of two keys never carries into the next field.  Each Poly keeps
`top`, an upper bound on its exponents; a product whose bound reaches the
limit decodes its keys and raises ExponentOverflowError.

`format_poly` writes terms in graded lexicographic order on symbol ids, so
serialization is deterministic, and `parse_poly` reads the same syntax:

    3/2*A^2*Y0 - 1/6*Y1 + 2

Symbols are opaque: a 0/1-valued symbol squared stays squared.  Reductions
that depend on the symbol's distribution belong to the moment layer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ExponentOverflowError, MissingSymbolError, SpecError

FIELD_BITS = 32  # bits per symbol in a monomial key, a whole number of bytes
EXP_LIMIT = 1 << (FIELD_BITS - 1)
# Largest decimal exponent `to_fraction` reads, as in "1e4300": the digit
# limit Python puts on decimal integer text.  Fraction("1e10000000") would
# build a ten-million-digit power of ten, which takes seconds.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions, floats and strings like "7/20" or "0.35" to Fraction.

    Floats convert via their exact binary value; decimal strings convert with
    decimal semantics, so prefer strings (or ints) wherever exactness matters.
    A decimal exponent beyond +-MAX_DECIMAL_EXPONENT raises SpecError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, str):
        exponent = _EXPONENT_RE.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise SpecError(
                f"cannot read {value[:40]!r} as a rational number: its decimal exponent"
                f" is beyond +-{MAX_DECIMAL_EXPONENT}"
            )
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"cannot read {value!r} as a rational number") from exc
    raise TypeError(f"cannot read {type(value).__name__} as a rational number")


def key_factors(key: int) -> list[tuple[int, int]]:
    """The (symbol id, exponent) pairs of a key's nonzero fields, by symbol id."""
    out = []
    while key:
        shift = (key & -key).bit_length() - 1
        shift -= shift % FIELD_BITS
        e = (key >> shift) & ((1 << FIELD_BITS) - 1)
        out.append((shift // FIELD_BITS, e))
        key ^= e << shift
    return out


def _top_exponent(keys) -> int:
    """The largest exponent in `keys`, which must stay below EXP_LIMIT."""
    top = max((e for key in keys for _, e in key_factors(key)), default=0)
    if top >= EXP_LIMIT:
        raise ExponentOverflowError(f"exponent {top} exceeds the limit {EXP_LIMIT - 1}")
    return top


def _new(nums: dict[int, int], den: int, top: int) -> Poly:
    """A Poly of nonzero numerators over a positive den, reduced by their gcd."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums, den = {k: n // g for k, n in nums.items()}, den // g
    p = object.__new__(Poly)
    p.terms, p.den, p.top = nums, den, top
    return p


# The text syntax of `parse_poly`.  A term is blanks, its run of signs
# (required after the first term), factors joined by '*', then blanks.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
_FACTOR = rf"(?:{_NAME}(?:\s*\^\s*{_NUMBER})?|{_NUMBER})"
_TERM_RE = re.compile(rf"\s*(?P<signs>(?:[+-]\s*)*)(?P<body>{_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*")


class SymbolTable:
    """Interns symbol names, assigning dense integer ids in declaration order."""

    _NAME_RE = re.compile(rf"{_NAME}\Z")

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def add(self, name: str) -> int:
        if not self._NAME_RE.match(name):
            raise SpecError(f"invalid symbol name {name!r}")
        if name in self._ids:
            raise SpecError(f"symbol {name!r} declared twice")
        sid = len(self._names)
        self._names.append(name)
        self._ids[name] = sid
        return sid

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise MissingSymbolError(f"undeclared symbol {name!r}") from None

    def name_of(self, sid: int) -> str:
        return self._names[sid]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Fields as in the module docstring.  Values are immutable by convention:
    every operation returns a new Poly, so instances can be shared freely.
    """

    __slots__ = ("terms", "den", "top")

    def __init__(self, terms: Mapping[int, int] | None = None, den: int = 1):
        """From integer numerators keyed by packed monomial keys, over `den` > 0."""
        nums = {k: n for k, n in terms.items() if n} if terms else {}
        if den < 1 or any(k < 0 for k in nums):
            raise ValueError("a Poly needs nonnegative keys and a positive denominator")
        p = _new(nums, den, _top_exponent(nums))
        self.terms, self.den, self.top = p.terms, p.den, p.top

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def const(cls, value) -> Poly:
        c = to_fraction(value)
        return cls({0: c.numerator}, c.denominator)

    @classmethod
    def symbol(cls, sid: int) -> Poly:
        return cls({1 << (FIELD_BITS * sid): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    __hash__ = None  # mutable dict inside; value equality only

    def __add__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        g = math.gcd(self.den, other.den)
        f_self, f_other = other.den // g, self.den // g  # both sides over the lcm
        out = dict(self.terms) if f_self == 1 else {k: n * f_self for k, n in self.terms.items()}
        for k, n in other.terms.items():
            acc = out.get(k, 0) + n * f_other
            if acc:
                out[k] = acc
            else:
                del out[k]
        return _new(out, self.den * f_self, max(self.top, other.top))

    __radd__ = __add__

    def add_products(self, triples) -> Poly:
        """self + sum(w * (f * x)) over a list of (int w, Poly f, Poly x), as one sum.

        Equal to folding `acc = acc + w * (f * x)`, term order included, but
        with one dict over the lcm of self.den and each f.den * x.den and one
        gcd reduction at the end.  Each product is formed by `f * x` first,
        so terms that cancel inside it never touch the sum.
        """
        den = math.lcm(self.den, *(f.den * x.den for _, f, x in triples))
        scale = den // self.den
        out = dict(self.terms) if scale == 1 else {k: n * scale for k, n in self.terms.items()}
        top, get = self.top, out.get
        for w, f, x in triples:
            p = f * x
            top = max(top, p.top)
            scale = w * (den // p.den)
            if not scale:
                continue
            for k, n in p.terms.items():
                acc = get(k, 0) + n * scale
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return _new(out, den, top)

    def __neg__(self) -> Poly:
        return _new({k: -n for k, n in self.terms.items()}, self.den, self.top)

    def __sub__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        # Terms come out in the order of the double loop over a, then b.
        if len(a) == 1:
            ((ka, na),) = a.items()
            out = {ka + kb: na * nb for kb, nb in b.items()}
        elif len(b) == 1:
            ((kb, nb),) = b.items()
            out = {ka + kb: na * nb for ka, na in a.items()}
        else:
            out = {}
            for ka, na in a.items():
                for kb, nb in b.items():
                    k = ka + kb
                    acc = out.get(k, 0) + na * nb
                    if acc:
                        out[k] = acc
                    else:
                        del out[k]
        top = self.top + other.top
        if top >= EXP_LIMIT:
            top = _top_exponent(out)
        return _new(out, self.den * other.den, top)

    __rmul__ = __mul__

    def __truediv__(self, d: int) -> Poly:
        """Division by a positive int: the same terms over den * d, reduced."""
        if type(d) is not int:
            return NotImplemented
        if d < 1:
            raise ValueError(f"a Poly divides only by a positive int, got {d}")
        return _new(dict(self.terms), self.den * d, self.top)

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if exponent == 0:
            return Poly.const(1)
        half = self ** (exponent // 2)  # square-and-multiply, one check per product
        return half * half * self if exponent & 1 else half * half

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return _new({0: value.numerator} if value else {}, value.denominator, 0)
    return NotImplemented


def format_poly(p: Poly, table: SymbolTable | None = None) -> str:
    """Canonical text form, e.g. "3/2*A^2*Y0 - 1/6*Y1 + 2".

    Without a table, symbols print as s0, s1, ...  The output is
    deterministic (graded lexicographic term order) and parses back with
    `parse_poly` to an equal polynomial.
    """
    if not p.terms:
        return "0"
    keys = list(p.terms)
    fields = max(1, -(-max(keys).bit_length() // FIELD_BITS))
    raw = b"".join([k.to_bytes(fields * FIELD_BITS // 8, "little") for k in keys])
    exps = np.frombuffer(raw, f"<u{FIELD_BITS // 8}").reshape(len(keys), fields).astype(np.int64)
    # Descending graded lexicographic order: total degree first, then the
    # exponent of symbol 0, of symbol 1, ...  lexsort's last row is primary.
    order = np.lexsort(np.vstack([-exps[:, ::-1].T, -exps.sum(axis=1)]))
    exps = exps[order]
    names = [table.name_of(s) if table is not None else f"s{s}" for s in range(fields)]
    words: list[list[str]] = [[] for _ in keys]
    rows, sids = np.nonzero(exps)
    for r, s, e in zip(rows.tolist(), sids.tolist(), exps[rows, sids].tolist()):
        words[r].append(names[s] if e == 1 else f"{names[s]}^{e}")

    pieces: list[str] = []
    for i, factors in zip(order.tolist(), words):
        num = p.terms[keys[i]]
        g = math.gcd(num, p.den)
        mag = f"{abs(num) // g}/{p.den // g}" if p.den != g else str(abs(num) // g)
        if not factors or mag != "1":
            factors.insert(0, mag)
        text = "*".join(factors)
        if not pieces:
            pieces.append(f"-{text}" if num < 0 else text)
        else:
            pieces.append(f"- {text}" if num < 0 else f"+ {text}")
    return " ".join(pieces)


def parse_poly(text: str, table: SymbolTable) -> Poly:
    """Parse the textual form produced by `format_poly`.

    Grammar: terms joined by + or -, each term a '*'-product of rational
    literals and symbols with optional ^integer exponents; blanks may sit
    between tokens and at both ends.  The whole text is checked against it
    before any symbol is looked up.  Unknown symbol names raise
    MissingSymbolError; an exponent of EXP_LIMIT or more raises SpecError.
    """
    terms = []
    pos = 0
    while pos < len(text) or not terms:
        m = _TERM_RE.match(text, pos)
        if m is None or (terms and not m["signs"]):
            raise SpecError(f"cannot parse polynomial near {text[pos:pos + 12]!r} in {text!r}")
        terms.append(m)
        pos = m.end()

    result = Poly.zero()
    for m in terms:
        coeff = Fraction(-1 if m["signs"].count("-") % 2 else 1)
        mono: dict[int, int] = {}
        for factor in m["body"].split("*"):
            base, _, exp = (part.strip() for part in factor.partition("^"))
            if base[0].isdigit() or base[0] == ".":
                coeff *= to_fraction(base)
                continue
            sid = table.id_of(base)
            e = to_fraction(exp) if exp else 1
            if e.denominator != 1 or e < 1:
                raise SpecError(f"exponents must be positive integers: {text!r}")
            mono[sid] = mono.get(sid, 0) + int(e)
        if max(mono.values(), default=0) >= EXP_LIMIT:
            raise SpecError(f"exponents must stay below {EXP_LIMIT}: {text!r}")
        key = sum(e << (FIELD_BITS * sid) for sid, e in mono.items())
        result = result + Poly({key: coeff.numerator}, coeff.denominator)
    return result
