"""Grid estimation of Hoelder norms.

True C^{N+kappa} norms are not computable from samples; the estimators here
are lower bounds.  The kappa-quotient is the exact maximum over all
axis-aligned grid pairs (x, x + h e_j) at the dyadic gaps h = 1, 2, 4, ...,
n/2, so every estimate is deterministic and invariant under translation of
the field by whole grid steps.

The derivatives are sampled one level |alpha| at a time by
``fields.derivative_grids``, one batched inverse transform per level, and
only the top level is kept for the quotients.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .fields import SpectralField, _sup, derivative_grids


@dataclass
class HolderNormReport:
    """Lower-bound estimates of sup-norms and Hoelder seminorms.

    ``c0``/``c1`` follow the usual convention: sums over multi-indices up to
    the given total order of the sup-norm of each derivative.  ``order`` is
    the order N + kappa the report was built at, and ``seminorm`` the exact
    maximum of the kappa-quotients of the N-th derivatives over all
    axis-aligned grid pairs at dyadic gaps (0 when kappa = 0).
    """

    order: float
    c0: float
    c1: float
    c2: float = 0.0
    seminorm: float = 0.0

    def value(self, order: float) -> float:
        """Full C^{N+kappa} estimate; ``order`` must be the order the report
        was built at, since other orders need other derivatives and
        seminorms."""
        if abs(order - self.order) > 1e-12:
            raise ValueError(f"report was built at order {self.order}, "
                             f"not {order}")
        n_whole = int(np.floor(self.order + 1e-12))
        return (self.c0, self.c1, self.c2)[n_whole] + self.seminorm


def _seminorm(stacks, kappa: float) -> float:
    """Max of |f(x) - f(x + h e_j)| / (h/n)^kappa over every grid point x,
    axis j and dyadic gap h = 1, 2, 4, ..., n/2 (the torus distance)."""
    n = stacks[0].shape[-1]
    gaps = [2**p for p in range(n.bit_length() - 1)]
    return max(_sup(s - np.roll(s, h, axis=axis)) / (h / n) ** kappa
               for s in stacks for axis in (-3, -2, -1) for h in gaps)


def holder_norm(f: SpectralField, order: float) -> HolderNormReport:
    """Estimate the C^{N+kappa} norm of f for order = N + kappa.

    N must be 0, 1 or 2 and kappa in [0, 1).  Derivatives are taken
    spectrally before sampling; the kappa-seminorm is the exact max
    difference quotient of the N-th derivatives over all axis-aligned grid
    pairs at dyadic gaps.  The result is deterministic, invariant under
    whole-grid translations, and a lower bound of the continuum norm.
    """
    n_whole = float(np.floor(order + 1e-12))   # nan for a nan order
    kappa = order - n_whole
    if n_whole not in (0, 1, 2) or not 0.0 <= kappa < 1.0:
        raise ValueError("order must be N + kappa with N in {0,1,2}, "
                         "kappa in [0,1)")
    sums = [0.0, 0.0, 0.0]   # sup-norm sums of the derivatives per level
    for level in range(int(n_whole) + 1):
        grids = derivative_grids(f, level)
        sums[level] = sum(_sup(s) for s in grids)
    c0, c1, c2 = accumulate(sums)
    seminorm = _seminorm(grids, kappa) if kappa > 0.0 else 0.0
    return HolderNormReport(order=order, c0=c0, c1=c1, c2=c2,
                            seminorm=seminorm)

