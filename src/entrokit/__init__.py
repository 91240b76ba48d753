"""Two-parameter deformed logarithms, generalized Tsallis entropies and
divergences on the finite simplex, the induced information geometry, and
a seeded numerical property-verification engine.

Each layer module declares its public names once, in its `__all__`, and
the package exports every one of them.
"""

from . import deformed_log, distributions, divergence, entropy, errors, geometry

# The functions entropy and divergence take their modules' names at the star
# imports below, so the modules' lists are read first. The two aliases stay
# out of entropy.__all__, so that perfbench's tracer wraps each function once.
__all__ = ["joint_entropy", "conditional_entropy3"]
__all__ += deformed_log.__all__
__all__ += distributions.__all__
__all__ += entropy.__all__
__all__ += divergence.__all__
__all__ += geometry.__all__
__all__ += errors.__all__

# The sweep engine (verify, and the property registry it loads) is imported
# on first use of one of its names, so that library calls and the CLI's
# other commands do not pay for it (PEP 562). These are verify.__all__.
__all__ += [
    "IDENTITY_TOL",
    "INEQUALITY_TOL",
    "SweepConfig",
    "CheckResult",
    "PropertyReport",
    "VerificationReport",
    "list_properties",
    "run_single",
    "run_suite",
]

from .deformed_log import *
from .distributions import *
from .divergence import *
from .entropy import *
from .entropy import conditional_entropy3, joint_entropy
from .errors import *
from .geometry import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # every other name of __all__ is bound above, so only verify's get here
    if name in __all__:
        from . import verify

        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
