"""Exception types shared across the package."""


class RandfrobError(Exception):
    """Base class for all randfrob errors."""


class SpecError(RandfrobError):
    """A problem document is malformed or inconsistent."""


class MissingSymbolError(RandfrobError):
    """A polynomial references a symbol with no value or declaration."""


class DistributionError(RandfrobError):
    """Invalid distribution parameters or an unsupported moment query."""


class UnboundedCoefficientError(RandfrobError):
    """An operation requires essentially bounded coefficients."""


class GridMismatchError(RandfrobError):
    """Two curves were compared on different time grids."""


class ExponentOverflowError(RandfrobError, ValueError):
    """A monomial exponent reached the limit of its packed bit field."""
