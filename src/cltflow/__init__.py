"""cltflow: Fourier-metric verification of the renormalization route to the CLT.

The library represents probability laws on the reals through exact moment
algebra and characteristic functions, computes the Fourier distances d2/d3,
iterates the renormalization map T nu = law of (X+Y)/sqrt(2), and certifies
the contraction, ideality, rate, and Lyapunov properties of that flow at desk
scale.  ``cltflow --help`` describes the CLI, and tests/test_acceptance.py
holds the acceptance suite.
"""

# each module's __all__ is its public API, and the package exports all of it
from . import bank, charfn, errors, flow, mc, measures, metrics
from .charfn import *  # noqa: F403
from .errors import *  # noqa: F403
from .flow import *  # noqa: F403
from .mc import *  # noqa: F403
from .measures import *  # noqa: F403
from .metrics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "bank",
    *errors.__all__,
    *measures.__all__,
    *charfn.__all__,
    *metrics.__all__,
    *flow.__all__,
    *mc.__all__,
]
