"""Two-parameter deformed logarithms, generalized Tsallis entropies and
divergences on the finite simplex, the induced information geometry, and
a seeded numerical property-verification engine."""

from .deformed_log import DeformParams, legacy_Ln, legacy_u, ln_kr, ln_q
from .distributions import (
    Channel,
    Distribution,
    apply_channel,
    make_channel,
    make_distribution,
    make_joint2,
    make_joint3,
    mix,
    product,
    sample_channel,
    sample_distribution,
)
from .divergence import (
    DivergenceValue,
    divergence,
    divergence_literal,
    kl_divergence,
    log_sum_gap,
    mutual_divergence,
    tsallis_divergence,
)
from .entropy import (
    EntropyValue,
    conditional_entropy,
    conditional_entropy3,
    entropy,
    entropy_literal,
    joint_entropy,
    mutual_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from .errors import (
    AbsoluteContinuityError,
    ConfigError,
    DimensionError,
    DomainError,
    EntrokitError,
    LegacyRegionWarning,
    ParamError,
    ValidationError,
)
from .geometry import (
    MetricDiagonal,
    PotentialCoefficients,
    fd_hessian,
    fisher_metric,
    hessian_potential,
    metric_coefficient,
    quadratic_form,
)

__version__ = "0.1.0"

# The sweep engine (verify, and the property registry it loads) is imported
# on first use of one of its names, so that library calls and the CLI's
# other commands do not pay for it (PEP 562).
_VERIFY_NAMES = (
    "SweepConfig",
    "CheckResult",
    "VerificationReport",
    "list_properties",
    "run_single",
    "run_suite",
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DeformParams",
    "ln_kr",
    "ln_q",
    "legacy_Ln",
    "legacy_u",
    "Distribution",
    "Channel",
    "make_distribution",
    "make_joint2",
    "make_joint3",
    "make_channel",
    "product",
    "apply_channel",
    "mix",
    "sample_distribution",
    "sample_channel",
    "EntropyValue",
    "entropy",
    "entropy_literal",
    "joint_entropy",
    "conditional_entropy",
    "conditional_entropy3",
    "mutual_entropy",
    "shannon_entropy",
    "tsallis_entropy",
    "DivergenceValue",
    "divergence",
    "divergence_literal",
    "log_sum_gap",
    "kl_divergence",
    "tsallis_divergence",
    "mutual_divergence",
    "MetricDiagonal",
    "PotentialCoefficients",
    "metric_coefficient",
    "fisher_metric",
    "fd_hessian",
    "quadratic_form",
    "hessian_potential",
    "SweepConfig",
    "CheckResult",
    "VerificationReport",
    "list_properties",
    "run_single",
    "run_suite",
    "EntrokitError",
    "DomainError",
    "ParamError",
    "ValidationError",
    "DimensionError",
    "AbsoluteContinuityError",
    "ConfigError",
    "LegacyRegionWarning",
]
