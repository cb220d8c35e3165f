"""Coined quantum walks whose coins are quantized deterministic maps.

The package couples three layers:

- ``coins`` / ``cellmaps``: quantum coin unitaries (discrete Fourier,
  kicked Harper, quantized baker) and the classical torus maps they
  quantize.
- ``walk`` / ``observables``: the walk operator on a periodic lattice in
  dense and momentum-block form, plus the site distribution and its
  summary statistics (mean squared displacement, site entropy,
  participation ratio).
- ``classical``: the matching deterministic multi-map walks over point
  ensembles, for classical-versus-quantum comparisons.

The ``mapwalk`` console script (see ``cli``) runs single experiments,
parameter sweeps and phase-space portraits from the command line.
"""

from . import cellmaps, classical, coins, observables, walk
from .coins import *  # noqa: F401,F403
from .cellmaps import *  # noqa: F401,F403
from .walk import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403

__version__ = "0.1.0"

#: Everything each module exports, listed once in that module's ``__all__``.
__all__ = [*coins.__all__, *cellmaps.__all__, *walk.__all__, *observables.__all__,
           *classical.__all__]
