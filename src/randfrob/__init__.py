"""Series solutions and uncertainty quantification for random linear ODEs.

Solves x'' + A(t) x' + B(t) x = C(t) with power-series data processes whose coefficients are
polynomials in random symbols, via the exact coefficient recursion; evaluates mean/variance curves
through a closed-form moment oracle; bounds truncation error with a dominating majorant sequence;
and cross-validates with reproducible Monte Carlo sampling.  `import randfrob` loads the exact
core only; the first use of a Monte Carlo or statistics name loads `mcengine` or `uqstats`.
"""

from .errors import (
    DistributionError,
    ExponentOverflowError,
    GridMismatchError,
    MissingSymbolError,
    RandfrobError,
    SpecError,
    UnboundedCoefficientError,
)
from .frobenius import (
    ProblemSpec,
    SeriesProcess,
    SeriesSolution,
    build_problem,
    compute_coeffs,
    residual_coefficients,
    validate_hypotheses,
)
from .poly import Poly, SymbolTable, format_poly, parse_poly, to_fraction
from .randmodel import (
    Bernoulli,
    Beta,
    Binomial,
    DependenceBlock,
    Distribution,
    FiniteDiscrete,
    Gamma,
    MultinomialVector,
    PointMass,
    RandomModel,
    Uniform,
    distribution_from_spec,
)
from .specfile import bundled_problems, canonical_json, load_document, resolve_problem


def load_problem(source) -> ProblemSpec:
    """Load and resolve a problem file (path or bundled name)."""
    return build_problem(load_document(resolve_problem(str(source))))


__version__ = "0.1.0"
_LAZY = dict.fromkeys(["McConfig", "compare_curves", "mc_rk4", "mc_series"], "mcengine")
_LAZY.update(dict.fromkeys(["MajorantSeq", "MomentMatrix", "StatCurve", "exact_stats",
                            "lipschitz_k", "majorant_sequence", "moment_matrix", "stat_curves",
                            "tail_bound"], "uqstats"))
__all__ = sorted(name for name in [*globals(), *_LAZY] if not name.startswith("_"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
