"""cilab: a desk-scale spectral laboratory for convex-integration constructions.

The layers of the construction, each in its own module: periodic-box
spectral calculus (``grids``, ``fields``), grid estimates of Hoelder norms
(``holder``), trace-class Wiener noise with its stopping time and
mollifications (``noise``), the parameter ladder (``ladder``), the temporal
and squiggling cutoffs and the bump kernel (``cutoffs``), Mikado pipe flows
and the geometric decomposition (``mikado``), drifted Euler solutions and
their flow maps (``euler``), and check records and scaling regressions
(``verify``).  The step q -> q+1 that joins them is not assembled here.
"""

from .grids import GridSpec
from .fields import (
    SpectralField,
    from_grid,
    to_grid,
    differential,
    leray_project,
    inverse_divergence,
    band_project,
    mollify_space,
)
from .holder import holder_norm, HolderNormReport

__all__ = [
    "GridSpec",
    "SpectralField",
    "from_grid",
    "to_grid",
    "differential",
    "leray_project",
    "inverse_divergence",
    "band_project",
    "mollify_space",
    "holder_norm",
    "HolderNormReport",
]
