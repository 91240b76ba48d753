"""Exception types shared across the package."""

__all__ = [
    "EntrokitError",
    "DomainError",
    "ParamError",
    "ValidationError",
    "DimensionError",
    "AbsoluteContinuityError",
    "ConfigError",
    "LegacyRegionWarning",
]


class EntrokitError(ValueError):
    """Base class for all entrokit errors."""


class DomainError(EntrokitError):
    """A function argument lies outside the mathematical domain (e.g. x <= 0)."""


class ParamError(EntrokitError):
    """Invalid deformation parameters or other scalar options."""


class ValidationError(EntrokitError):
    """Probability data fails its structural invariants."""


class DimensionError(EntrokitError):
    """Mismatched shapes between operands."""


class AbsoluteContinuityError(EntrokitError):
    """P puts mass where Q has none; the divergence would be infinite."""


class ConfigError(EntrokitError):
    """Invalid verification sweep configuration."""


class LegacyRegionWarning(UserWarning):
    """Parameters fall outside the legacy validity region; results may lose
    the monotonicity/convexity guarantees."""
