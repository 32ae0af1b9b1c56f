"""Exact sparse polynomial arithmetic in named random symbols.

A `SymbolTable` interns symbol names as dense ids in declaration order.  A
`Poly` keeps one packed, canonical form: each monomial is one int key, in
which symbol id s raised to e adds e << (FIELD_BITS * s), so the key of a
product of monomials is the sum of their keys; `terms` maps each key to a
nonzero integer numerator over one positive denominator `den`, with
gcd(den, *numerators) == 1.  Arithmetic is integer dict work plus at most
one gcd reduction per result, so it never rounds; `Fraction` appears only at
the edges, and float evaluation lives in `mcengine._EvalPlan`.

`Poly.add_products` is the one merge of terms: the n-ary sum
`acc + w1*(f1*x1) + w2*(f2*x2) + ...`, in which an x of None stands for f
alone and a constant f scales x's terms, with no product formed.  `+` and
`-` are its one-term case, and the coefficient recursion makes one call per
X_n: every product goes into one dict over the lcm of the denominators, so
the growing sum is never copied, and one gcd reduction runs after the
division.  acc's keys keep their order and new keys follow as they
arrive; a key whose sum reaches zero is deleted, so if it comes back it goes last.

Exponents stay below EXP_LIMIT, so the top bit of each field is a guard
and a sum of two keys never carries into the next field.  Each Poly keeps
`top`, an upper bound on its exponents; a product whose bound reaches the
limit decodes its keys and raises ExponentOverflowError.

`format_poly` writes terms in graded lexicographic order on symbol ids, so
serialization is deterministic, and `parse_poly` reads the same syntax:

    3/2*A^2*Y0 - 1/6*Y1 + 2

It spells each key once per `SymbolTable`, which keeps its text and sort
key, in pure Python, so `solve` never imports numpy.  Symbols are opaque: a
0/1-valued symbol squared stays squared.  Reductions that depend on the
symbol's distribution belong to the moment layer.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import compress
from typing import Mapping

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
    NaN, +-inf, x/0 and a decimal exponent beyond +-MAX_DECIMAL_EXPONENT raise SpecError.
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
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
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


def _new(nums: dict[int, int], den: int, top: int, g: int | None = None) -> Poly:
    """A Poly of nonzero numerators over a positive den, reduced by their gcd g if known."""
    if den != 1:
        g = math.gcd(den, *nums.values()) if g is None else g
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
        self._spelled: dict[int, tuple] = {}  # `format_poly`'s cache: sort key, then text

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
        if not 0 <= sid < len(self._names):
            raise MissingSymbolError(f"no symbol with id {sid} among {len(self._names)} declared")
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
        return self.add_products([(1, other, None)])

    __radd__ = __add__

    def add_products(self, triples, divisor: int = 1) -> Poly:
        """(self + sum(w * (f * x))) / divisor over a list of (int w, Poly f, Poly x or None).

        An x of None stands for f alone, so no product is built.  The sum is
        one dict over the lcm of self.den and each product's den, times the
        positive int divisor, with one gcd reduction at the end; term order as
        in the module docstring.  A constant f scales x's terms directly, with
        no product and no gcd; any other product is formed by `f * x` first,
        so terms that cancel inside it never touch the sum.
        """
        den = math.lcm(self.den, *(f.den if x is None else f.den * x.den for _, f, x in triples))
        scale = den // self.den
        out = dict(self.terms) if scale == 1 else {k: n * scale for k, n in self.terms.items()}
        top, get = self.top, out.get
        for w, f, x in triples:
            if x is not None and not f.top and f.terms:  # top 0: f's one key is 0
                # f * x, unreduced: x's keys in order, numerators f's times x's, over f.den * x.den
                p, scale = x, w * f.terms[0] * (den // (f.den * x.den))
            else:
                p = f if x is None else f * x
                scale = w * (den // p.den)
            top = max(top, p.top)
            if not scale:
                continue
            for k, n in p.terms.items():
                acc = get(k, 0) + n * scale
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return _new(out, den * divisor, top)

    def __neg__(self) -> Poly:
        # -self is reduced as self is: its gcd is 1
        return _new({k: -n for k, n in self.terms.items()}, self.den, self.top, 1)

    def __sub__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.add_products([(-1, other, None)])

    def __rsub__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other.add_products([(-1, self, None)])

    def __mul__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        # Terms follow the double loop over a, then b; a one-term factor goes first.
        x, y = (other, self) if len(other.terms) == 1 else (self, other)
        a, b, g = x.terms, y.terms, None
        if len(a) == 1:
            ((ka, na),) = a.items()
            out = {ka + kb: na * nb for kb, nb in b.items()}
            if x.den == 1:  # y is reduced, so gcd(y.den, na * content of y) = gcd(y.den, na)
                g = math.gcd(y.den, na)
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
        return _new(out, self.den * other.den, top, g)

    __rmul__ = __mul__

    def __truediv__(self, d: int) -> Poly:
        """Division by a positive int: the same terms over den * d, reduced."""
        if type(d) is not int:
            return NotImplemented
        if d < 1:
            raise ValueError(f"a Poly divides only by a positive int, got {d}")
        g = math.gcd(d, *self.terms.values())  # = gcd(den * d, ...), as gcd(den, ...) = 1
        return _new(dict(self.terms), self.den * d, self.top, g)

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
    from array import array  # a field per item; imported here, as `import randfrob` needs none
    # Each key is spelled once per table, as one tuple (degree, -id1, e1,
    # -id2, e2, ..., text) over its nonzero fields, by symbol id.  Two keys'
    # tuples differ before either one's text, so sorting never compares text.
    spelled = table._spelled if table is not None else {}
    new = [key for key in p.terms if key not in spelled]
    width = -(-max(new, default=0).bit_length() // FIELD_BITS)  # its last field is nonzero
    names = table.names if table is not None else [f"s{s}" for s in range(width)]
    if width > len(names):
        table.name_of(width - 1)  # raises MissingSymbolError naming the highest id
    for key in new:
        fields = array("I", key.to_bytes(-(-key.bit_length() // FIELD_BITS) * FIELD_BITS // 8,
                                         "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        sort, words = [sum(fields)], []
        for sid, e in compress(enumerate(fields), fields):
            sort += (-sid, e)
            words.append(names[sid] if e == 1 else f"{names[sid]}^{e}")
        sort.append("*".join(words))
        spelled[key] = tuple(sort)

    # Descending graded lexicographic order: total degree first, then the
    # exponent of symbol 0, of symbol 1, ...  Signs and terms alternate in
    # `pieces`; the first sign is "-" or nothing.
    pieces: list[str] = []
    for key in sorted(p.terms, key=spelled.__getitem__, reverse=True):
        num, word = p.terms[key], spelled[key][-1]
        g = math.gcd(num, p.den)
        mag = f"{abs(num) // g}/{p.den // g}" if p.den != g else str(abs(num) // g)
        text = f"{mag}*{word}" if word and mag != "1" else word or mag
        pieces += (" - " if num < 0 else " + ", text)
    pieces[0] = pieces[0].strip(" +")
    return "".join(pieces)


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
