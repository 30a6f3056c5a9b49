"""Delay-optimal resource allocation for NOMA-enabled edge computing.

The package solves the min-max task completion problem where users split
work between local CPUs and a shared uplink to an edge server: a
bisection solver over the common delay for any user count, an analytic
two-user solution, the standard comparison schemes, and a seeded
Monte-Carlo channel harness with a batch CLI. Each module's ``__all__``
lists its public names, and the package exports exactly those.
"""

from . import baselines, closed_form, configio, lambertw, model, scenario, solver
from .baselines import *  # noqa: F401,F403
from .closed_form import *  # noqa: F401,F403
from .configio import *  # noqa: F401,F403
from .lambertw import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (baselines, closed_form, configio, lambertw, model, scenario, solver)
    for name in module.__all__
]
