"""Problem construction and the power-series coefficient recursion.

The equation solved is

    x''(t) + A(t) x'(t) + B(t) x(t) = C(t),   x(t0) = Y0,  x'(t0) = Y1,

where A, B, C are power series in (t - t0) whose coefficients are
polynomials in random symbols, and Y0, Y1 are such polynomials too.
Matching coefficients of the series expansion of the equation gives

    X_0 = Y0,  X_1 = Y1,
    X_{n+2} = [ C_n - sum_{m=0}^{n} ((m+1) A_{n-m} X_{m+1} + B_{n-m} X_m) ]
              / ((n+2)(n+1)),   n >= 0,

which `coeff_recursion` runs in any ring: `compute_coeffs` on the exact
`Poly` inputs, `mcengine.mc_series` on float64 rows of sampled inputs.  On
`Poly`s each X_{n+2} is one `Poly.add_products` call over the (-(m+1),
A_{n-m}, X_{m+1}), (-1, B_{n-m}, X_m) and (1, C_n, None) triples, with the
division in its one gcd reduction.  Other rings add the same products one at
a time in the same order, then negate, add C_n and divide, as the sign of a
float zero depends on that order.  The C = 0 special case is
the homogeneous equation, and sparse problem files omit the zero entries of
a series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import DistributionError, MissingSymbolError, SpecError, UnboundedCoefficientError
from .poly import Poly, SymbolTable, parse_poly, to_fraction
from .randmodel import (
    DependenceBlock,
    NormValue,
    RandomModel,
    distribution_from_spec,
    float_rational,
)
from .record import Record

Radius = Union[Fraction, float]  # math.inf for entire series


class SeriesProcess(Record):
    """Power-series data process: sparse map n -> coefficient polynomial."""

    coeffs: dict[int, Poly]
    m: int | None = None  # a generator's M, its highest expanded index

    def items(self):
        return sorted(self.coeffs.items())


class ProblemSpec(Record):
    """A fully resolved problem: series data, initial conditions, model."""

    a: SeriesProcess
    b: SeriesProcess
    c: SeriesProcess  # empty for a source-free equation
    y0: Poly
    y1: Poly
    t0: Fraction
    radius: Radius
    model: RandomModel
    default_order: int = 20
    name: str = ""

    @property
    def table(self) -> SymbolTable:
        return self.model.table

    def inputs(self, upto: int | None = None, reader: str = "") -> list[tuple[int, int, Poly]]:
        """The stored (s, n, A_n | B_n | C_n) with n <= upto, all of them when None.

        s = 0, 1, 2 for A, B, C, in that order and each by index.  A
        generator-backed series expanded to an M below `upto` raises
        SpecError naming `reader`, instead of reading zeros past M.
        """
        terms = []
        for s, (label, proc) in enumerate(zip("ABC", (self.a, self.b, self.c))):
            if upto is not None and proc.m is not None and proc.m < upto:
                raise SpecError(
                    f"series {label}: generator M={proc.m} expands inputs up to index"
                    f" {proc.m}, but {reader} needs index {upto}; raise M to at least {upto}"
                )
            terms += [(s, n, p) for n, p in proc.items() if upto is None or n <= upto]
        return terms


class SeriesSolution(Record):
    """Computed series coefficients X_0 .. X_N of the solution process."""

    X: list[Poly]
    order: int
    spec: ProblemSpec

    def __post_init__(self):
        assert len(self.X) == self.order + 1


def _convolution(terms, X: Sequence, n: int, sign: int = 1) -> list:
    """The (sign * weight, factor, X) triples of the module docstring's sum over m."""
    # k = n - m, so an A term's weight is m + 1 = n - k + 1
    return [(sign * (n - k + 1), f, X[n - k + 1]) if s == 0 else (sign, f, X[n - k])
            for s, k, f in terms if s < 2 and k <= n]


def coeff_recursion(terms, y0, y1, order: int, zero) -> list:
    """X_0 .. X_order of the module docstring's recursion in any ring of values.

    The inputs come as `ProblemSpec.inputs` lists them, (s, k, term) with
    s = 0, 1, 2 for A, B, C, and terms in the ring.  The sums start from
    the ring's `zero`, so every X_n is a ring value.
    """
    c = {k: f for s, k, f in terms if s == 2}
    X = [y0, y1]
    for n in range(order - 1):
        cn, d = c.get(n), (n + 2) * (n + 1)
        if isinstance(zero, Poly):
            tail = [] if cn is None else [(1, cn, None)]
            X.append(zero.add_products(_convolution(terms, X, n, -1) + tail, d))
            continue
        acc = zero
        for w, f, x in _convolution(terms, X, n):
            p = f * x
            acc = acc + (p if w == 1 else w * p)
        X.append((-acc if cn is None else -acc + cn) / d)
    return X


def compute_coeffs(spec: ProblemSpec, order: int) -> SeriesSolution:
    """Run the coefficient recursion up to X_order, exactly.

    The division by (n+2)(n+1) is exact rational arithmetic; no rounding
    occurs at any truncation order.  X_order reads inputs up to index
    order - 2, so a generator-backed series expanded to a smaller M raises
    SpecError instead of solving with zeros in their place.  An order over
    MAX_ORDER raises ValueError before any X_n is built.
    """
    if order < 2:
        raise ValueError(f"truncation order must be >= 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"truncation order {order} is over the limit {MAX_ORDER}")
    X = coeff_recursion(spec.inputs(order - 2, f"order {order}"), spec.y0, spec.y1,
                        order, Poly.zero())
    return SeriesSolution(X=X, order=order, spec=spec)


def residual_coefficients(sol: SeriesSolution) -> list[Poly]:
    """Plug the computed coefficients back into the matched-coefficient identity.

    Returns, for 0 <= n <= N-2,

        R_n = (n+2)(n+1) X_{n+2}
              + sum_{m=0}^{n} ((m+1) A_{n-m} X_{m+1} + B_{n-m} X_m) - C_n,

    each of which must be the zero polynomial for a correct solution.
    """
    spec = sol.spec
    terms = spec.inputs()
    return [(((n + 2) * (n + 1)) * sol.X[n + 2]).add_products(_convolution(terms, sol.X, n))
            - spec.c.coeffs.get(n, 0) for n in range(sol.order - 1)]


# ---------------------------------------------------------------------------
# coefficient norms and hypothesis validation


def sup_norms(spec: ProblemSpec) -> list[tuple[str, int, NormValue]]:
    """(series, n, bound) for each stored A_n, then each B_n.

    The bound is `RandomModel.poly_linfty_bound`: math.inf when unbounded.
    """
    return [
        (label, n, spec.model.poly_linfty_bound(p))
        for label, proc in (("A", spec.a), ("B", spec.b))
        for n, p in proc.items()
    ]


def bounded_sup_norms(spec: ProblemSpec) -> list[tuple[str, int, NormValue]]:
    """`sup_norms`, raising UnboundedCoefficientError at the first infinite bound."""
    norms = sup_norms(spec)
    for label, n, bound in norms:
        if bound == math.inf:
            raise UnboundedCoefficientError(f"{label}_{n} not essentially bounded")
    return norms


def _radius_estimate(proc: SeriesProcess, norms: list[tuple[int, float]]) -> float:
    """Root-test radius estimate from the (n, norm) pairs of the series.

    A series without a generator rule has finitely many nonzero terms, so
    the root test gives an infinite radius.  For generator-backed families
    the estimate is 1 / max_n ||.||^(1/n) over the expanded indices n >= 1,
    a conservative practical stand-in for 1/limsup.
    """
    if proc.m is None:
        return math.inf
    rho = max((v ** (1.0 / n) for n, v in norms if n >= 1 and v > 0), default=0.0)
    return math.inf if rho == 0.0 else 1.0 / rho


class CoefficientCheck(Record, frozen=True):
    series: str
    n: int
    sup_bound: float  # math.inf when unbounded
    bounded: bool


class L2Check(Record, frozen=True):
    label: str
    norm: float
    finite: bool


class HypothesisReport(Record):
    """Verdicts on the hypotheses; the fields, in order, are `check --json`'s keys."""

    status: str  # "pass" | "warn" | "fail"
    messages: list[str]
    radius_estimate_a: float
    radius_estimate_b: float
    radius_estimate: float
    declared_radius: float
    coefficients: list[CoefficientCheck]
    l2: list[L2Check]

    def to_dict(self) -> dict:
        """The report as JSON data; an infinite value becomes the string "inf"."""
        def plain(record: Record) -> dict:
            return {name: "inf" if value == math.inf else value
                    for name, value in zip(record._fields, record._values())}

        return {**plain(self), "messages": list(self.messages), "l2": list(map(plain, self.l2)),
                "coefficients": list(map(plain, self.coefficients))}  # keys keep their order


def validate_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Check boundedness of A/B coefficients, L2 of C/Y0/Y1, and the radius.

    Returns verdicts, never raises: a failed check yields status "fail" with
    a message naming the violating coefficient.
    """
    model = spec.model
    coefficients = [
        CoefficientCheck(label, n, float(bound), bound != math.inf)
        for label, n, bound in sup_norms(spec)
    ]
    messages = [f"{c.series}_{c.n} not essentially bounded"
                for c in coefficients if not c.bounded]
    radius_a, radius_b = (
        _radius_estimate(proc, [(c.n, c.sup_bound) for c in coefficients if c.series == label])
        for label, proc in (("A", spec.a), ("B", spec.b))
    )

    l2: list[L2Check] = []
    l2_inputs = [("Y0", spec.y0), ("Y1", spec.y1)] + [(f"C_{n}", p) for n, p in spec.c.items()]
    for label, p in l2_inputs:
        norm = model.poly_l2_norm(p)
        l2.append(L2Check(label, norm, math.isfinite(norm)))
    messages += [f"{c.label} has no finite mean-square norm" for c in l2 if not c.finite]
    failed = bool(messages)

    estimate = min(radius_a, radius_b)
    declared = float(spec.radius)
    warned = declared > estimate * (1 + 1e-12)
    if warned:
        messages.append(
            f"declared radius {declared:g} exceeds root-test estimate {estimate:g}"
        )

    return HypothesisReport(
        status="fail" if failed else ("warn" if warned else "pass"), messages=messages,
        radius_estimate_a=radius_a, radius_estimate_b=radius_b, radius_estimate=estimate,
        declared_radius=declared, coefficients=coefficients, l2=l2)


# ---------------------------------------------------------------------------
# problem-document ingestion

_TOP_KEYS = {"name", "problem", "symbols", "blocks", "series", "generators", "initial"}
_SERIES_KEYS = {"A", "B", "C"}


def build_problem(doc: Mapping) -> ProblemSpec:
    """Validate a parsed problem document and resolve it to a ProblemSpec.

    The document layout is the JSON schema described in the README: problem
    constants, scalar symbol declarations, vector dependence blocks, sparse
    series term lists and/or generator rules, and initial-condition
    expressions.  Every error names the offending key.
    """
    doc = _object(doc, "problem document", _TOP_KEYS)
    prob = _object(doc.get("problem", {}), "'problem'", {"t0", "radius", "order"})
    t0 = _read_float_rational(prob.get("t0", 0), "'t0'")
    radius = _read_radius(prob.get("radius", "inf"))
    default_order = _read_int(prob.get("order", 20), "'order'", 2, MAX_ORDER)

    table = SymbolTable()
    blocks: list[DependenceBlock] = []

    def declare(name: str, context: str) -> int:
        if not isinstance(name, str):
            raise SpecError(f"{context}: symbol name must be a string, got {name!r}")
        if name in table:
            raise SpecError(f"symbol {name!r} owned by two blocks")
        return table.add(name)

    for entry in _entries(doc.get("symbols", []), "symbols"):
        name = _require(entry, "name", "symbols entry")
        sid = declare(name, "symbols")
        what = f"symbol {name!r}"
        dist = _make_dist(_object(entry, what, {"name", "dist", "params"}), what)
        if dist.arity != 1:
            raise SpecError(f"{what}: vector distribution {dist.kind!r} needs a block declaration")
        blocks.append(DependenceBlock((sid,), dist))

    for entry in _entries(doc.get("blocks", []), "blocks"):
        names = _require(entry, "names", "blocks entry")
        if not isinstance(names, (list, tuple)) or not names:
            raise SpecError("blocks entry: 'names' must be a non-empty list")
        sids = tuple(declare(n, "blocks") for n in names)
        what = f"block {list(names)!r}"
        dist = _make_dist(_object(entry, what, {"names", "dist", "params"}), what)
        try:
            blocks.append(DependenceBlock(sids, dist))
        except DistributionError as exc:
            raise SpecError(f"{what}: {exc}") from exc

    series_doc = _object(doc.get("series", {}), "'series'", _SERIES_KEYS)
    gens_doc = _object(doc.get("generators", {}), "'generators'", _SERIES_KEYS)

    processes: dict[str, SeriesProcess] = {}
    for label in ("A", "B", "C"):
        explicit = series_doc.get(label)
        gen = gens_doc.get(label)
        if explicit is not None and gen is not None:
            raise SpecError(f"series {label}: give either explicit terms or a generator, not both")
        if gen is not None:
            processes[label] = _expand_generator(label, gen, default_order, table, blocks)
        elif explicit is not None:
            processes[label] = _explicit_series(label, explicit, table)
        else:
            processes[label] = SeriesProcess(coeffs={})

    initial = doc.get("initial")
    if not isinstance(initial, Mapping) or set(initial) != {"Y0", "Y1"}:
        raise SpecError("'initial' must be an object with exactly the keys Y0 and Y1")
    y0 = _value_poly(initial["Y0"], table, "initial Y0")
    y1 = _value_poly(initial["Y1"], table, "initial Y1")

    try:
        model = RandomModel(table, blocks)
    except DistributionError as exc:
        raise SpecError(str(exc)) from exc

    return ProblemSpec(a=processes["A"], b=processes["B"], c=processes["C"], y0=y0, y1=y1,
                       t0=t0, radius=radius, model=model, default_order=default_order,
                       name=str(doc.get("name", "")))


def _read_radius(value) -> Radius:
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return math.inf
    radius = _read_float_rational(value, "radius")
    if radius <= 0:
        raise SpecError(f"radius must be positive, got {radius}")
    return radius


def _read_rational(value, what: str) -> Fraction:
    """A rational given as a number or a string such as "7/20"; bools fail."""
    try:
        return to_fraction(value)
    except (TypeError, SpecError):
        raise SpecError(f"{what} must be a rational number, got {value!r}") from None


def _read_float_rational(value, what: str) -> Fraction:
    """`_read_rational` in float range, the rule of a distribution parameter."""
    try:
        return float_rational(_read_rational(value, what), what)
    except DistributionError as exc:
        raise SpecError(str(exc)) from None


def _read_int(value, what: str, least: int, limit: int) -> int:
    """An integer from least to limit, given as a JSON integer, rational or string."""
    try:
        number = to_fraction(value)
    except (TypeError, SpecError):
        number = None
    if number is None or number.denominator != 1 or number < least:
        raise SpecError(f"{what} must be an integer >= {least}, got {value!r}")
    if number > limit:
        raise SpecError(f"{what} = {value!r} is over the limit {limit}")
    return int(number)


def _object(value, what: str, keys: set | None = None) -> Mapping:
    """`value` if it is an object whose keys all lie in `keys` (any keys when None)."""
    if not isinstance(value, Mapping):
        raise SpecError(f"{what} must be an object")
    unknown = set() if keys is None else set(value) - keys
    if unknown:
        known = ", ".join(sorted(keys))
        raise SpecError(f"{what}: unknown key(s) {sorted(unknown)} (known: {known})")
    return value


def _entries(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"'{what}' must be a list")
    return [_object(entry, f"'{what}' entry") for entry in value]


def _require(entry: Mapping, key: str, context: str):
    if key not in entry:
        raise SpecError(f"{context}: missing key {key!r}")
    return entry[key]


def _make_dist(entry: Mapping, context: str):
    kind = _require(entry, "dist", context)
    params = _object(entry.get("params", {}), f"{context}: 'params'")
    try:
        return distribution_from_spec(kind, dict(params))
    except (DistributionError, SpecError) as exc:  # SpecError: a number `to_fraction` cannot read
        raise SpecError(f"{context}: {exc}") from exc


def _value_poly(value, table: SymbolTable, context: str) -> Poly:
    """A series/initial value: rational literal or polynomial expression text."""
    if isinstance(value, str):
        try:
            return parse_poly(value, table)
        except MissingSymbolError as exc:
            raise SpecError(f"{context}: {exc}") from exc
    return Poly.const(_read_rational(value, context))


def _explicit_series(label: str, entries, table: SymbolTable) -> SeriesProcess:
    coeffs: dict[int, Poly] = {}
    for entry in _entries(entries, f"series {label}"):
        _object(entry, f"series {label}", {"n", "value"})
        n = _read_int(_require(entry, "n", f"series {label} entry"), f"series {label}: index",
                      0, MAX_GENERATOR_M)
        if n in coeffs:
            raise SpecError(f"series {label}: duplicate entry for n={n}")
        p = _value_poly(_require(entry, "value", f"series {label} entry"), table, f"series {label} term n={n}")
        if p:
            coeffs[n] = p
    return SeriesProcess(coeffs=coeffs)


# Each generator family and the keys its generator takes.
_GENERATOR_KEYS = {
    "iid": {"family", "M", "dist", "params", "prefix"},
    "inverse_square": {"family", "M"},
}
# Largest M a generator expands to, and largest explicit series index.  Each index adds
# a term, and an iid index a symbol, whose packed monomial key grows with the symbol
# count: about 2*M^2 bytes in all, so building beta_series at M = 4096 adds about 38 MB.
MAX_GENERATOR_M = 4096
# Largest truncation order a solve runs to, or a problem file declares.
MAX_ORDER = 4096


def _expand_generator(
    label: str,
    gen: Mapping,
    default_order: int,
    table: SymbolTable,
    blocks: list[DependenceBlock],
) -> SeriesProcess:
    """Expand a named coefficient family into explicit terms of order <= M.

    Families:
      iid            one fresh independent symbol per index n = 0..M,
                     named <prefix>_<n>, all with the given distribution;
      inverse_square deterministic 1/n^2 for n = 1..M (index 0 is zero).

    M defaults to twice the problem's default truncation order: input terms
    beyond the output order cannot influence the computed coefficients, so
    2N is a safe and cheap cover for any solve at order <= N.  An M, given
    or default, over MAX_GENERATOR_M raises SpecError before any term is built.
    """
    what = f"generator {label}"
    family = _require(_object(gen, what), "family", what)
    if not isinstance(family, str) or family not in _GENERATOR_KEYS:
        raise SpecError(f"{what}: unknown family {family!r} (known: {list(_GENERATOR_KEYS)})")
    _object(gen, what, _GENERATOR_KEYS[family])
    m_value = gen.get("M")
    order = 2 * default_order if m_value is None else _read_int(
        m_value, f"{what}: M", 0, MAX_GENERATOR_M)
    if order > MAX_GENERATOR_M:  # a default M
        raise SpecError(f"{what}: M (by default 2 x order {default_order}) = {order}"
                        f" is over the limit {MAX_GENERATOR_M}")

    if family == "inverse_square":
        coeffs = {n: Poly.const(Fraction(1, n * n)) for n in range(1, order + 1)}
        return SeriesProcess(coeffs=coeffs, m=order)

    dist = _make_dist(gen, what)
    if dist.arity != 1:
        raise SpecError(f"{what}: iid family needs a scalar distribution")
    prefix = gen.get("prefix", label)
    coeffs = {}
    for n in range(order + 1):
        name = f"{prefix}_{n}"
        if name in table:
            raise SpecError(
                f"{what}: generated symbol {name!r} clashes with an existing declaration"
            )
        sid = table.add(name)
        blocks.append(DependenceBlock((sid,), dist))
        coeffs[n] = Poly.symbol(sid)
    return SeriesProcess(coeffs=coeffs, m=order)
