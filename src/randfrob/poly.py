"""Exact sparse polynomial arithmetic in named random symbols.

A polynomial maps monomials to exact rational coefficients.  Monomials are
stored sparsely as tuples of ``(symbol id, exponent)`` pairs, sorted by
symbol id, with no zero exponents; the empty tuple is the constant
monomial.  Coefficients are `fractions.Fraction`, so arithmetic never
rounds; floating point enters only through `Poly.eval`.

Symbols are interned in a `SymbolTable`, which assigns dense integer ids in
declaration order.  `format_poly` orders terms by graded lexicographic
order on symbol ids, which makes serialization deterministic across runs
and platforms, and `parse_poly` reads the same syntax back:

    3/2*A^2*Y0 - 1/6*Y1 + 2

No simplification beyond like-term collection is performed: symbols are
opaque, so e.g. a 0/1-valued symbol squared stays squared.  Reductions that
depend on the symbol's distribution belong to the moment layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import MissingSymbolError, SpecError

# Sparse monomial: ((symbol id, exponent), ...) sorted by id, exponents > 0.
Mono = tuple[tuple[int, int], ...]

CONST_MONO: Mono = ()

Scalar = Union[int, Fraction]


def to_fraction(value) -> Fraction:
    """Coerce ints, Fractions, floats and strings like "7/20" or "0.35" to Fraction.

    Floats convert via their exact binary value; decimal strings convert with
    decimal semantics, so prefer strings (or ints) wherever exactness matters.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"cannot read {value!r} as a rational number") from exc
    raise TypeError(f"cannot read {type(value).__name__} as a rational number")


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sparse exponent vectors (exponents add)."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for sid, e in b:
        exps[sid] = exps.get(sid, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _grlex_key(m: Mono):
    # Sorting ascending by this key lists monomials in descending graded
    # lexicographic order (higher total degree first, then earlier symbols).
    return (-mono_degree(m), tuple((sid, -e) for sid, e in m))


class SymbolTable:
    """Interns symbol names, assigning dense integer ids in declaration order."""

    _NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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

    Values are immutable by convention: every operation returns a new Poly,
    so instances can be shared freely between tasks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        canonical: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c != 0:
                    canonical[mono] = c
        self.terms = canonical

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def const(cls, value) -> Poly:
        return cls({CONST_MONO: to_fraction(value)})

    @classmethod
    def symbol(cls, sid: int) -> Poly:
        return cls({((sid, 1),): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; value equality only

    def __add__(self, other) -> Poly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> Poly:
        result = Poly.__new__(Poly)
        result.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return result

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
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                acc = out.get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def eval(self, values) -> float:
        """Evaluate at a symbol-id-indexed mapping (or sequence) of reals.

        Rational coefficients convert to float at the last step, after the
        monomial product is formed.
        """
        total = 0.0
        for mono, coeff in self.terms.items():
            prod = 1.0
            for sid, e in mono:
                try:
                    v = values[sid]
                except (KeyError, IndexError):
                    raise MissingSymbolError(
                        f"no value assigned for symbol id {sid}"
                    ) from None
                prod *= float(v) ** e
            total += float(coeff) * prod
        return total

    def sorted_terms(self) -> Iterator[tuple[Mono, Fraction]]:
        """Terms in descending graded lexicographic order (constant last)."""
        for mono in sorted(self.terms, key=_grlex_key):
            yield mono, self.terms[mono]

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        return f"Poly({format_poly(self)})"


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, bool):
        return NotImplemented
    if isinstance(value, (int, Fraction)):
        return Poly({CONST_MONO: value}) if value else Poly.zero()
    return NotImplemented


def format_poly(p: Poly, table: SymbolTable | None = None) -> str:
    """Canonical text form, e.g. "3/2*A^2*Y0 - 1/6*Y1 + 2".

    Without a table, symbols print as s0, s1, ...  The output is
    deterministic (graded lexicographic term order) and parses back with
    `parse_poly` to an equal polynomial.
    """
    if not p.terms:
        return "0"

    def name(sid: int) -> str:
        return table.name_of(sid) if table is not None else f"s{sid}"

    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = [f"{name(sid)}^{e}" if e > 1 else name(sid) for sid, e in mono]
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not pieces:
            pieces.append(f"-{text}" if coeff < 0 else text)
        else:
            pieces.append(f"- {text}" if coeff < 0 else f"+ {text}")
    return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[*^+-]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
        pos = m.end()
        for kind in ("number", "name", "op"):
            tok = m.group(kind)
            if tok is not None:
                tokens.append((kind, tok))
                break
    return tokens


def parse_poly(text: str, table: SymbolTable) -> Poly:
    """Parse the textual form produced by `format_poly`.

    Grammar: terms joined by + or -, each term a '*'-separated product of a
    rational coefficient and symbols with optional ^integer exponents.
    Unknown symbol names raise MissingSymbolError.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SpecError("empty polynomial expression")

    result = Poly.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise SpecError(f"dangling sign in polynomial {text!r}")

        coeff = Fraction(sign)
        mono: dict[int, int] = {}
        expect_factor = True
        while i < n:
            kind, tok = tokens[i]
            if kind == "op" and tok in "+-":
                break
            if kind == "op" and tok == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise SpecError(f"missing '*' before {tok!r} in polynomial {text!r}")
            if kind == "number":
                coeff *= Fraction(tok)
                i += 1
            elif kind == "name":
                sid = table.id_of(tok)
                exp = 1
                if i + 1 < n and tokens[i + 1] == ("op", "^"):
                    if i + 2 >= n or tokens[i + 2][0] != "number":
                        raise SpecError(f"missing exponent after '^' in {text!r}")
                    exp_frac = Fraction(tokens[i + 2][1])
                    if exp_frac.denominator != 1 or exp_frac < 1:
                        raise SpecError(f"exponents must be positive integers: {text!r}")
                    exp = int(exp_frac)
                    i += 2
                mono[sid] = mono.get(sid, 0) + exp
                i += 1
            else:
                raise SpecError(f"unexpected {tok!r} in polynomial {text!r}")
            expect_factor = False
        if expect_factor:
            raise SpecError(f"dangling '*' in polynomial {text!r}")
        result = result + Poly({tuple(sorted(mono.items())): coeff})
    return result
