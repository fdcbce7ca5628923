"""Numerical toolkit for noncommutative planes.

Magnetic fields and linear friction both replace ordinary plane
coordinates with canonical pairs [X, Y] = i L^2.  This package provides
the finite operator algebra, the two equivalent interference-phase routes
(enclosed area vs. action difference), the Landau level stack with its
flux quantization, the doubled-coordinate dissipative dynamics with its
hyperbolic canonical flow, and winding-number phase counting for a point
vortex in a thin film.

The public names are those of the five modules' __all__ lists; each module
owns its list, and this package re-exports them all.
"""

from . import dissipative_dynamics, landau, operator_core, phase_geometry, vortex_film
from .dissipative_dynamics import *  # noqa: F401,F403
from .landau import *  # noqa: F401,F403
from .operator_core import *  # noqa: F401,F403
from .phase_geometry import *  # noqa: F401,F403
from .vortex_film import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (operator_core, phase_geometry, landau, dissipative_dynamics, vortex_film)
    for name in module.__all__
] + ["__version__"]
