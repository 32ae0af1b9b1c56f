"""Series solutions and uncertainty quantification for random linear ODEs.

Solves x'' + A(t) x' + B(t) x = C(t) with power-series data processes whose
coefficients are polynomials in random symbols, via the exact coefficient
recursion; evaluates mean/variance curves through a closed-form moment
oracle; bounds truncation error with a dominating majorant sequence; and
cross-validates with reproducible Monte Carlo sampling.
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
from .mcengine import (
    McConfig,
    compare_curves,
    mc_rk4,
    mc_series,
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
from .uqstats import (
    MajorantSeq,
    MomentMatrix,
    StatCurve,
    exact_stats,
    lipschitz_k,
    majorant_sequence,
    moment_matrix,
    stat_curves,
    tail_bound,
)

__version__ = "0.1.0"


def load_problem(source) -> ProblemSpec:
    """Load and resolve a problem file (path or bundled name)."""
    return build_problem(load_document(resolve_problem(str(source))))
